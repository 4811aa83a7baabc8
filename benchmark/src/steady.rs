//! The four steady-state workloads: build a machine and its flows through
//! the repo's public constructors, warm up, then advance the engine in
//! equal slices of simulated time, timing each slice on the thread CPU
//! clock. An optional [`Tracer`] wraps every task so a slice splits into
//! engine self time and task time.

use crate::calibrate::Calibrator;
use crate::clock::Clock;
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::Checks;
use pp_bench::experiments::table1::PAPER_TABLE1;
use pp_core::prelude::{ExpParams, FlowPlacement, FlowType, Scenario};
use pp_sim::prelude::{
    CoreId, CoreTask, Counts, Cycles, DropStats, Engine, ExecCtx, Machine, MachineConfig,
    MemDomain, TurnResult,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// One steady-state workload. Flow `i` runs on core `i` of socket 0 with
/// its data homed on socket 0.
pub struct Workload {
    pub name: &'static str,
    pub flows: &'static [FlowType],
    /// `ExpParams::batch_size`: 0 is the scalar datapath.
    pub batch: usize,
    /// Simulated milliseconds per slice, sized for ≈ 0.1 s of host time.
    pub slice_ms: f64,
    /// The workload's row of the paper's Table 1, where it has one.
    pub table1_row: Option<&'static str>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ip_scalar",
        flows: &[FlowType::Ip],
        batch: 0,
        slice_ms: 15.0,
        table1_row: Some("IP"),
    },
    Workload {
        name: "ip_b64",
        flows: &[FlowType::Ip],
        batch: 64,
        slice_ms: 15.0,
        table1_row: None,
    },
    Workload {
        name: "vpn_scalar",
        flows: &[FlowType::Vpn],
        batch: 0,
        slice_ms: 8.0,
        table1_row: Some("VPN"),
    },
    Workload {
        name: "corun6",
        flows: &[FlowType::Mon; 6],
        batch: 0,
        slice_ms: 4.0,
        table1_row: None,
    },
];

/// Slices every run completes whatever `--seconds` says; the simulated-axis
/// metrics are taken over exactly these, so they repeat bit for bit.
pub const HORIZON_SLICES: usize = 20;
/// Slices the fresh-build twin replays for the determinism check.
const TWIN_SLICES: usize = 3;
/// A slice's packet count may differ from the median slice's by this much
/// before it counts as a failed operation. Equal slices of simulated time
/// retire within ±6 % of each other after warm-up (measured); a larger
/// swing means the slice did not run the same work.
const SLICE_COUNT_TOLERANCE: f64 = 0.25;

/// Flow `index`'s traffic seed from the master seed: a benchmark-owned copy
/// of `pp_core::experiment::flow_seed` (private there), so co-running
/// replicas see different packets.
fn flow_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-core turn count and time, filled in by [`TracedTask`].
#[derive(Default)]
pub struct TurnTally {
    pub turns: Cell<u64>,
    pub ns: Cell<u64>,
}

/// Wraps a flow's task to time every `run_turn`; every 1024th turn is also
/// kept as a full span under the slice that ran it.
struct TracedTask<T: CoreTask> {
    inner: T,
    tracer: Rc<Tracer>,
    tally: Rc<TurnTally>,
}

impl<T: CoreTask> CoreTask for TracedTask<T> {
    fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
        let t0 = self.tracer.now_ns();
        let r = self.inner.run_turn(ctx);
        let t1 = self.tracer.now_ns();
        let turns = self.tally.turns.get() + 1;
        self.tally.turns.set(turns);
        self.tally.ns.set(self.tally.ns.get() + (t1 - t0));
        if turns.is_multiple_of(1024) {
            self.tracer.leaf("turn", t0, t1);
        }
        r
    }
    fn label(&self) -> &str {
        self.inner.label()
    }
    fn label_shared(&self) -> Rc<str> {
        self.inner.label_shared()
    }
    fn on_migrate(&mut self) {
        self.inner.on_migrate()
    }
}

/// Bind `task` to `core`, wrapped in a [`TracedTask`] when tracing.
pub fn set_task<T: CoreTask + 'static>(
    engine: &mut Engine,
    core: CoreId,
    task: T,
    tracer: Option<&Rc<Tracer>>,
) -> Rc<TurnTally> {
    let tally = Rc::new(TurnTally::default());
    match tracer {
        Some(tracer) => engine.set_task(
            core,
            Box::new(TracedTask {
                inner: task,
                tracer: tracer.clone(),
                tally: tally.clone(),
            }),
        ),
        None => engine.set_task(core, Box::new(task)),
    }
    tally
}

/// Run `f` in a span when tracing, bare otherwise.
pub fn spanned<R>(tracer: Option<&Rc<Tracer>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f).0,
        None => f(),
    }
}

/// A scenario's engine after build and warm-up.
pub struct Prepared {
    pub engine: Engine,
    pub tallies: Vec<Rc<TurnTally>>,
    drops: Vec<Rc<RefCell<DropStats>>>,
    /// Elements in the first flow's graph.
    elements_per_flow: usize,
}

/// From nothing to ready-to-measure, the way `run_scenario` gets there and
/// from the same public calls: `Machine::new`, one `build_with_structure`
/// per placement (table and traffic generation happen inside), task
/// binding, simulated warm-up.
pub fn prepare(s: &Scenario, tracer: Option<&Rc<Tracer>>) -> Prepared {
    let mut prepared = spanned(tracer, "build", || {
        let mut machine = spanned(tracer, "machine_new", || {
            Machine::new(MachineConfig::westmere())
        });
        let built: Vec<_> = s
            .flows
            .iter()
            .enumerate()
            .map(|(i, p)| {
                spanned(tracer, "build_flow", || {
                    p.flow.build_with_structure(
                        &mut machine,
                        p.domain,
                        s.params.scale,
                        flow_seed(s.params.seed, i),
                        p.flow.structure_seed(s.params.seed),
                        s.params.batch_size,
                    )
                })
            })
            .collect();
        let mut engine = Engine::new(machine);
        let drops = built.iter().map(|b| b.task.drop_handle()).collect();
        let elements_per_flow = built[0].task.graph().len();
        let tallies = s
            .flows
            .iter()
            .zip(built)
            .map(|(p, b)| set_task(&mut engine, p.core, b.task, tracer))
            .collect();
        Prepared {
            engine,
            tallies,
            drops,
            elements_per_flow,
        }
    });
    let warmup = s.params.warmup_cycles(prepared.engine.machine.config());
    spanned(tracer, "warmup", || prepared.engine.run_until(warmup));
    prepared
}

impl Prepared {
    /// `offered = processed + undelivered` for every flow of `s`, the
    /// scenario this was prepared from, since time zero.
    pub fn check_ledgers(&self, s: &Scenario, checks: &mut Checks) {
        let cores: Vec<CoreId> = s.flows.iter().map(|p| p.core).collect();
        check_ledgers(&self.engine, &cores, &self.drops, checks);
    }
}

/// A built, warmed-up workload ready to be advanced slice by slice.
pub struct Rig {
    pub engine: Engine,
    cores: Vec<CoreId>,
    drops: Vec<Rc<RefCell<DropStats>>>,
    tallies: Vec<Rc<TurnTally>>,
    slice_cycles: Cycles,
    t_end: Cycles,
    /// Elements in one flow's graph (every flow of a workload is alike).
    pub elements_per_flow: usize,
    tracer: Option<Rc<Tracer>>,
}

impl Rig {
    /// Build and warm up `w` at paper scale with `--seed` as the master
    /// seed. Returns the rig and the on-CPU nanoseconds this took.
    pub fn build(
        w: &Workload,
        seed: u64,
        clock: &Clock,
        tracer: Option<&Rc<Tracer>>,
    ) -> (Rig, u64) {
        let t0 = clock.now_ns();
        let cores: Vec<CoreId> = (0..w.flows.len()).map(|i| CoreId(i as u16)).collect();
        let flows = cores
            .iter()
            .zip(w.flows)
            .map(|(&core, &flow)| FlowPlacement {
                core,
                flow,
                domain: MemDomain(0),
            })
            .collect();
        let params = ExpParams {
            seed,
            batch_size: w.batch,
            ..ExpParams::paper()
        };
        let p = prepare(&Scenario { flows, params }, tracer);
        let cfg = p.engine.machine.config();
        let rig = Rig {
            slice_cycles: cfg.secs_to_cycles(w.slice_ms / 1e3),
            t_end: params.warmup_cycles(cfg),
            engine: p.engine,
            cores,
            drops: p.drops,
            tallies: p.tallies,
            elements_per_flow: p.elements_per_flow,
            tracer: tracer.cloned(),
        };
        (rig, clock.now_ns() - t0)
    }

    /// Counter totals summed over the workload's cores.
    pub fn totals(&self) -> Counts {
        self.cores.iter().fold(Counts::default(), |acc, &c| {
            acc.add(&self.engine.machine.core(c).counters.total())
        })
    }

    /// Counter totals of core 0 (the Table 1 flow).
    pub fn core0(&self) -> Counts {
        self.engine.machine.core(CoreId(0)).counters.total()
    }

    /// Advance every core by one slice of simulated time; the sample is the
    /// packets retired (all cores) and the on-CPU time it took. A traced rig
    /// also records a `slice` span and returns its wall nanoseconds.
    pub fn slice(&mut self, clock: &Clock) -> (Sample, u64) {
        let before = self.totals().packets;
        self.t_end += self.slice_cycles;
        let t_end = self.t_end;
        let engine = &mut self.engine;
        let ((_, ns), wall_ns) = match &self.tracer {
            Some(t) => t.span("slice", || clock.time(|| engine.run_until(t_end))),
            None => (clock.time(|| engine.run_until(t_end)), 0),
        };
        let work = self.totals().packets - before;
        (Sample { work, ns }, wall_ns)
    }

    /// Turns run and the wall nanoseconds they took, over all cores (zero
    /// unless traced).
    fn tallied(&self) -> (u64, u64) {
        self.tallies
            .iter()
            .fold((0, 0), |(n, ns), t| (n + t.turns.get(), ns + t.ns.get()))
    }

    /// FNV-1a over every core's clock and counter totals: two builds from
    /// the same seed must agree on it after the same number of slices.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &core in &self.cores {
            let cs = self.engine.machine.core(core);
            let c = cs.counters.total();
            for word in [
                cs.clock,
                c.instructions,
                c.compute_cycles,
                c.stall_cycles,
                c.l1_refs,
                c.l1_hits,
                c.l2_refs,
                c.l2_hits,
                c.l3_refs,
                c.l3_hits,
                c.l3_misses,
                c.remote_accesses,
                c.packets,
            ] {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// `offered = processed + undelivered` for every flow since time zero.
    pub fn check_ledgers(&self, checks: &mut Checks) {
        check_ledgers(&self.engine, &self.cores, &self.drops, checks);
    }
}

/// `offered = processed + undelivered`, exactly, for the flow on each of
/// `cores` since time zero: ledgers that were never reset against the
/// cores' counter totals.
fn check_ledgers(
    engine: &Engine,
    cores: &[CoreId],
    drops: &[Rc<RefCell<DropStats>>],
    checks: &mut Checks,
) {
    for (&core, drops) in cores.iter().zip(drops) {
        let d = *drops.borrow();
        let processed = engine.machine.core(core).counters.total().packets;
        checks.expect(d.offered == processed + d.undelivered(), || {
            format!(
                "core {} ledger open: offered {} != processed {processed} + undelivered {}",
                core.0,
                d.offered,
                d.undelivered()
            )
        });
    }
}

/// What one pass over a workload measured.
#[derive(Default)]
pub struct Pass {
    /// One sample per slice, in order.
    pub samples: Vec<Sample>,
    /// Counter deltas (all cores) over the first [`HORIZON_SLICES`] slices.
    pub horizon: Counts,
    /// The same for core 0 alone.
    pub horizon_core0: Counts,
    /// Simulated seconds the horizon covers.
    pub horizon_sim_s: f64,
    /// Counter deltas (all cores) and DMA lines over every slice of the pass.
    pub all: Counts,
    pub dma_lines: u64,
    /// Digest after each of the first [`TWIN_SLICES`] slices.
    pub digests: Vec<u64>,
    /// Wall nanoseconds of all slices, and of their turns (traced passes).
    pub slices_wall_ns: u64,
    pub turns: u64,
    pub turns_ns: u64,
}

/// Advance every rig by one slice per round, in turn, until `budget_s` wall
/// seconds have passed and at least [`HORIZON_SLICES`] rounds have run, with
/// one calibration burst after each slice. Several rigs (the traced run's
/// untraced and traced builds of one workload) see the host's phases
/// together, slice for slice. Returns one pass per rig.
pub fn run_slices(
    rigs: &mut [&mut Rig],
    budget_s: f64,
    clock: &Clock,
    calibrator: &mut Calibrator,
) -> Vec<Pass> {
    let started = Instant::now();
    let at_start: Vec<_> = rigs
        .iter()
        .map(|rig| {
            (
                rig.totals(),
                rig.core0(),
                rig.engine.machine.dma_lines,
                rig.tallied(),
            )
        })
        .collect();
    let mut passes: Vec<Pass> = rigs.iter().map(|_| Pass::default()).collect();
    let mut rounds = 0;
    while rounds < HORIZON_SLICES || started.elapsed().as_secs_f64() < budget_s {
        rounds += 1;
        for ((rig, pass), start) in rigs.iter_mut().zip(&mut passes).zip(&at_start) {
            let (sample, wall_ns) = rig.slice(clock);
            pass.samples.push(sample);
            pass.slices_wall_ns += wall_ns;
            calibrator.burst(clock);
            if rounds <= TWIN_SLICES {
                pass.digests.push(rig.digest());
            }
            if rounds == HORIZON_SLICES {
                pass.horizon = rig.totals().delta(&start.0);
                pass.horizon_core0 = rig.core0().delta(&start.1);
                let cfg = rig.engine.machine.config();
                pass.horizon_sim_s = cfg.cycles_to_secs(rig.slice_cycles * HORIZON_SLICES as u64);
            }
        }
    }
    for ((rig, pass), start) in rigs.iter().zip(&mut passes).zip(&at_start) {
        pass.all = rig.totals().delta(&start.0);
        pass.dma_lines = rig.engine.machine.dma_lines - start.2;
        // Warm-up turns were tallied too; the pass covers the slices only.
        let tallied = rig.tallied();
        pass.turns = tallied.0 - start.3 .0;
        pass.turns_ns = tallied.1 - start.3 .1;
    }
    passes
}

/// Check every slice's packet count against the median slice.
pub fn check_slice_counts(samples: &[Sample], checks: &mut Checks) {
    let counts: Vec<f64> = samples.iter().map(|s| s.work as f64).collect();
    let median = crate::stats::median(&counts);
    for (i, &c) in counts.iter().enumerate() {
        checks.expect(
            c > 0.0 && (c - median).abs() <= median * SLICE_COUNT_TOLERANCE,
            || format!("slice {i} retired {c} packets, median slice {median}"),
        );
    }
}

/// Build a fresh twin from the same seed and replay the first slices,
/// returning its setup time and its digest after each slice. The twin is
/// dropped before the measured build exists, so peak RSS is one build's.
pub fn twin_digests(w: &Workload, seed: u64, clock: &Clock) -> (u64, Vec<u64>) {
    let (mut twin, setup_ns) = Rig::build(w, seed, clock, None);
    let digests = (0..TWIN_SLICES)
        .map(|_| {
            twin.slice(clock);
            twin.digest()
        })
        .collect();
    (setup_ns, digests)
}

/// The measured build must reproduce its twin's digests slice for slice.
pub fn check_twin(twin: &[u64], measured: &[u64], checks: &mut Checks) {
    for (i, (want, got)) in twin.iter().zip(measured).enumerate() {
        checks.expect(got == want, || {
            format!("fresh-build twin diverged at slice {i}: digest {got:#x} != {want:#x}")
        });
    }
}

/// `|simulated cycles/packet − paper| ÷ paper × 100` for the workload's
/// Table 1 row over the fixed horizon.
pub fn table1_cpp_err_pct(w: &Workload, pass: &Pass) -> Option<f64> {
    let row = w.table1_row?;
    let paper = PAPER_TABLE1
        .iter()
        .find(|r| r.0 == row)
        .expect("Table 1 row")
        .4;
    let c = pass.horizon_core0;
    let cpp = c.cycles() as f64 / c.packets as f64;
    Some((cpp - paper).abs() / paper * 100.0)
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
