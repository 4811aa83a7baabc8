//! `repro chaos` — fault injection + graceful degradation (robustness).
//!
//! The predictability story so far assumed a polite world: fixed co-runner
//! sets, steady offered load, lossless NICs. This sweep scripts impolite
//! worlds — traffic bursts, flash-crowd competitor churn, frequency
//! derating, buffer-pool and queue pressure, packet corruption — on the
//! simulated timeline via a seeded [`FaultPlan`], and drives the
//! [`RuntimeGuard`]'s degradation ladder against them. Per scenario it
//! asserts the robustness claims:
//!
//! * **bounded recovery** — after the last fault clears, the guard returns
//!   to [`DegradeLevel::Normal`] within [`RECOVERY_BOUND`] windows;
//! * **zero silent loss** — the [`DropStats`] ledger conserves: every
//!   offered packet is either processed or attributed to a named drop
//!   channel (wire overflow, NIC exhaustion, queue full, element drop,
//!   shed);
//! * **no unbounded queue growth** — the pipeline scenario's cross-core
//!   ring never exceeds its (possibly clamped) capacity;
//! * **the null fault plan is free** — an empty plan produces zero drops,
//!   zero guard transitions, and an empty injector trace, running the
//!   exact same datapath the pinned digest tests certify bit-for-bit.
//!
//! The window protocol, the ladder actuation and the loss signal are
//! [`TenantRt`]'s (ARCHITECTURE.md § "Window protocol and tenant
//! runtime"); the shrink-batch rung re-sizes the live flow to the
//! [`BatchController`]'s tight-budget choice.
//!
//! Results land in `chaos.csv` and `CHAOS_results.json` (machine-readable,
//! uploaded as a CI artifact).

use crate::experiments::results_json::JsonRow;
use crate::experiments::sweep::{ChaosSweep, TwinKey};
use crate::RunCtx;
use pp_click::pipelines::{build_pipeline, PipelineSpec};
use pp_core::prelude::*;
use pp_sim::config::MachineConfig;
use pp_sim::engine::{CoreTask, Engine, Measurement};
use pp_sim::fault::{DropStats, FaultInjector, FaultKind, FaultPlan};
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};

/// Windows allowed between the last fault clearing and the guard standing
/// at Normal on a clean window (the deepest ladder walk — climbing back
/// from Shed — needs 4 rungs × 3 clean windows).
pub const RECOVERY_BOUND: u32 = 14;
/// Windows simulated past the last fault to observe the climb-back.
const RECOVERY_TAIL: u32 = 15;
/// Clean calibration windows used to fit the guard envelope.
const CALIB_WINDOWS: u32 = 3;
/// Datapath batch size for the target flow (the PR-4/5 vectorized path).
const FULL_BATCH: usize = 32;

/// What a scenario's timeline strikes.
#[derive(Debug, Clone, Copy)]
enum Topology {
    /// One IP flow on core 0, every ladder rung live.
    Flow,
    /// IP split across two cores by a handoff ring (queue pressure).
    Pipeline,
}

/// One chaos scenario: a workload topology plus a fault timeline.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    topology: Topology,
    /// Baseline offered load as a fraction of calibrated capacity
    /// (`None` = line rate, no pacing).
    offered_load: Option<f64>,
    /// Envelope throughput floor as a fraction of the calibrated pps.
    envelope_floor: f64,
}

/// Everything one scenario run produced — the table row, the JSON record,
/// and the raw numbers the robustness assertions check. `PartialEq`
/// compares every field (float fields included, exactly) — the determinism
/// harness uses it to pin parallel runs bit-for-bit against serial.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Main-loop windows simulated (calibration windows excluded).
    pub windows: u32,
    /// Deepest ladder level the guard reached.
    pub peak_level: DegradeLevel,
    /// Ladder level at the end of the run.
    pub final_level: DegradeLevel,
    /// Re-probe requests issued (backoff-paced while degraded).
    pub reprobes: u32,
    /// Guard ladder transitions recorded.
    pub transitions: usize,
    /// Injector trace length (fault begin/end events fired).
    pub fault_events: usize,
    /// Final loss ledger (reset after warmup, so it covers exactly the
    /// measured windows).
    pub drops: DropStats,
    /// Packets retired by the target over the measured windows.
    pub processed: u64,
    /// Mean calibrated throughput (packets/sec) before any fault.
    pub calib_pps: f64,
    /// Worst per-window throughput seen in the main loop.
    pub min_pps: f64,
    /// Windows from the last fault clearing until the guard stood at
    /// Normal on a clean window (`None` = never recovered).
    pub recovery_windows: Option<u32>,
    /// `offered − processed − undelivered` (0 = exact conservation; the
    /// churn and pipeline scenarios tolerate boundary slack).
    pub conservation_slack: i64,
    /// Deepest cross-core queue backlog observed (pipeline scenario only).
    pub max_backlog: usize,
}

/// Packets `core` retired inside one measured window. These scenarios sum
/// `processed` over their windows rather than reading the tenant's
/// counter-anchored ledger: the target is alone on its socket (or the
/// slack bound already allows a boundary's worth of in-flight packets),
/// and the pinned `churn` / `queue-pressure` slack is defined this way.
fn window_packets(m: &Measurement, core: CoreId) -> u64 {
    m.core(core).expect("target measured").counts.total.packets
}

/// Park or spawn the flash-crowd competitors (SYN_MAX on cores 1..=n,
/// same socket as the target — the worst co-runners the paper knows).
fn set_churn(
    engine: &mut Engine,
    parked: &mut [Option<Box<dyn CoreTask>>],
    n: usize,
    scale: Scale,
    seed: u64,
    active: bool,
) {
    for (i, slot) in parked.iter_mut().enumerate().take(n) {
        let core = CoreId((1 + i) as u16);
        if active {
            let task = slot.take().unwrap_or_else(|| {
                let built = FlowType::SynMax.build(
                    &mut engine.machine,
                    MemDomain(0),
                    scale,
                    seed ^ (0x1111 * (i as u64 + 1)),
                );
                Box::new(built.task)
            });
            engine.join_task(core, task);
        } else if let Some(task) = engine.take_task(core) {
            *slot = Some(task);
        }
    }
}

/// The guard plus what a scenario reports about its walk.
struct GuardRun {
    guard: RuntimeGuard,
    injector: FaultInjector,
    /// Window of the last scripted fault transition.
    last_fault: u32,
    /// Main-loop windows to simulate.
    total: u32,
    peak: DegradeLevel,
    reprobes: u32,
    recovery: Option<u32>,
}

impl GuardRun {
    fn new(envelope: GuardEnvelope, plan: &FaultPlan) -> Self {
        let last_fault = plan.last_window();
        GuardRun {
            guard: RuntimeGuard::new(envelope, GuardConfig::default()),
            injector: FaultInjector::new(plan.clone()),
            last_fault,
            total: last_fault + RECOVERY_TAIL.max(8),
            peak: DegradeLevel::Normal,
            reprobes: 0,
            recovery: None,
        }
    }

    /// Feed window `w`'s observation to the guard; returns the level to
    /// enforce.
    fn observe(&mut self, w: u32, obs: &WindowObservation) -> DegradeLevel {
        let clean = self.guard.envelope().violation(obs).is_none();
        let d = self.guard.observe(obs);
        self.peak = self.peak.max(d.level);
        if d.reprobe_now {
            // A full system would re-run the probe and refit the envelope
            // via `RuntimeGuard::set_envelope`; here the model is the
            // ground truth, so a re-probe is a (counted) no-op.
            self.reprobes += 1;
        }
        if self.recovery.is_none()
            && w >= self.last_fault
            && d.level == DegradeLevel::Normal
            && clean
        {
            self.recovery = Some(w - self.last_fault);
        }
        d.level
    }

    /// The scenario's record, around the window-summed `processed`.
    fn outcome(&self, name: &'static str, rt: &TenantRt, processed: u64) -> ScenarioOutcome {
        let (drops, ..) = rt.ledger();
        ScenarioOutcome {
            name,
            windows: self.total,
            peak_level: self.peak,
            final_level: self.guard.level(),
            reprobes: self.reprobes,
            transitions: self.guard.transitions().len(),
            fault_events: self.injector.trace().len(),
            drops,
            processed,
            calib_pps: rt.calib_pps(),
            min_pps: rt.min_pps,
            recovery_windows: self.recovery,
            conservation_slack: conservation_slack(&drops, processed),
            max_backlog: 0,
        }
    }
}

/// Run one single-flow chaos scenario end to end.
fn run_flow_scenario(ctx: &RunCtx, sc: &Scenario, controller: &BatchController) -> ScenarioOutcome {
    let params = ctx.params;
    let seed = params.seed ^ 0xC4A05;
    let mut machine = Machine::new(MachineConfig::westmere());
    let flow = FlowType::Ip;
    let built = flow.build_with_structure(
        &mut machine,
        MemDomain(0),
        params.scale,
        seed,
        flow.structure_seed(seed),
        FULL_BATCH,
    );
    let nic = built.task.nic_handle();
    let mut rt = TenantRt::new(built.task);
    let mut engine = Engine::new(machine);
    let core0 = CoreId(0);
    rt.install(&mut engine, core0);

    let window = params.window_cycles(engine.machine.config());
    engine.run_until(params.warmup_cycles(engine.machine.config()));
    rt.anchor(&engine);

    let m = engine.measure(0, window);
    let mut processed = window_packets(&m, core0);
    rt.probe_capacity(&m, sc.offered_load);
    for _ in 0..CALIB_WINDOWS {
        let m = engine.measure(0, window);
        processed += window_packets(&m, core0);
        rt.calibrate(&m);
    }
    // The shrink rung's target: the largest batch the cost model predicts
    // to hold the *healthy* tail, clamped to [FULL/4, FULL/2] — strictly
    // below the full batch so the rung always changes something, but
    // never so small that the de-amortized fixed cost drops capacity
    // below the baseline admission rate (which would manufacture wire
    // overflow out of the rung itself).
    rt.shrink_batch = controller
        .choose(LatencyBudget::us(rt.calib_p99_us.max(1.0)))
        .batch
        .clamp(FULL_BATCH / 4, FULL_BATCH / 2);

    let mut run = GuardRun::new(rt.envelope(sc.envelope_floor), &sc.plan);
    let mut parked: Vec<Option<Box<dyn CoreTask>>> = (0..5).map(|_| None).collect();

    for w in 0..run.total {
        for t in run.injector.advance(w).to_vec() {
            match t.kind {
                kind @ (FaultKind::RateBurst { .. } | FaultKind::Corruption { .. }) => {
                    rt.traffic_fault(kind, t.begin);
                }
                FaultKind::CompetitorChurn { competitors } => {
                    set_churn(
                        &mut engine,
                        &mut parked,
                        competitors as usize,
                        params.scale,
                        seed,
                        t.begin,
                    );
                }
                FaultKind::FreqDerate { stall_cycles } => {
                    rt.controls.stall_cycles.set(if t.begin { stall_cycles as u64 } else { 0 });
                }
                FaultKind::PoolPressure { seize } => {
                    let mut n = nic.borrow_mut();
                    if t.begin {
                        n.seize_buffers(seize as usize);
                    } else {
                        n.release_seized();
                    }
                }
                // Queue pressure targets the pipeline topology (below).
                FaultKind::QueuePressure { .. } => {}
                // Machine-scoped kinds are cluster-driver territory
                // (`repro cluster-chaos`); a single-machine plan never
                // schedules them.
                FaultKind::MachineCrash { .. }
                | FaultKind::SocketDerate { .. }
                | FaultKind::TelemetryLoss
                | FaultKind::TelemetryDelay { .. } => {}
            }
            // A disturbance arriving mid-degradation must not undo the
            // ladder's pace decision.
            rt.apply_ladder(run.guard.level());
        }

        let m = engine.measure(0, window);
        processed += window_packets(&m, core0);
        let level = run.observe(w, &rt.observe(&m));
        rt.apply_ladder(level);
    }
    // Competitors left running would keep contending past their event's
    // end; the injector emits the matching end transition, so by here the
    // fleet must be back to the target alone.
    debug_assert_eq!(engine.active_cores(), vec![core0]);

    run.outcome(sc.name, &rt, processed)
}

/// The pipeline scenario: queue pressure on a two-core Ip pipeline. The
/// guard here is an observer (the split stages expose no live knobs — the
/// interesting claims are backpressure, bounded backlog, and recovery).
fn run_pipeline_scenario(ctx: &RunCtx, sc: &Scenario) -> ScenarioOutcome {
    let params = ctx.params;
    let seed = params.seed ^ 0x9199;
    const QUEUE_CAP: usize = 128;
    const BURST: usize = 8;
    let mut machine = Machine::new(MachineConfig::westmere());
    let spec = FlowType::Ip.spec(params.scale, seed);
    let pipe = PipelineSpec { queue_domain: MemDomain(0), queue_capacity: QUEUE_CAP, burst: BURST };
    let (src, sink, queue) =
        build_pipeline(&mut machine, MemDomain(0), MemDomain(0), &spec, &pipe);
    let sink_core = CoreId(1);
    let mut rt = TenantRt::watching(sink_core, sink.latency_handle(), src.drop_handle());
    let mut engine = Engine::new(machine);
    engine.set_task(CoreId(0), Box::new(src));
    engine.set_task(sink_core, Box::new(sink));

    let window = params.window_cycles(engine.machine.config());
    engine.run_until(params.warmup_cycles(engine.machine.config()));
    rt.anchor(&engine);

    let mut processed: u64 = 0;
    for _ in 0..CALIB_WINDOWS {
        let m = engine.measure(0, window);
        processed += window_packets(&m, sink_core);
        rt.calibrate(&m);
    }
    let mut run = GuardRun::new(rt.envelope(sc.envelope_floor), &sc.plan);
    let mut max_backlog = 0usize;

    for w in 0..run.total {
        for t in run.injector.advance(w).to_vec() {
            if let FaultKind::QueuePressure { cap } = t.kind {
                let mut q = queue.borrow_mut();
                if t.begin {
                    q.set_capacity_limit(cap as usize);
                } else {
                    q.clear_capacity_limit();
                }
            }
        }
        let m = engine.measure(0, window);
        processed += window_packets(&m, sink_core);
        max_backlog = max_backlog.max(queue.borrow().len());
        run.observe(w, &rt.observe(&m));
    }

    let mut outcome = run.outcome(sc.name, &rt, processed);
    // Front-stage element drops never reach the sink, and up to a ring of
    // packets is legitimately in flight at any boundary.
    outcome.conservation_slack -= outcome.drops.element_dropped as i64;
    outcome.max_backlog = max_backlog;
    outcome
}

/// `repro chaos`. The shared state is the batch controller the
/// shrink-batch rung asks; its calibration is subset-independent.
pub struct Chaos {
    controller: BatchController,
}

impl ChaosSweep for Chaos {
    type Scenario = Scenario;
    type Outcome = ScenarioOutcome;
    const HEADING: &'static str = "Chaos — fault injection + graceful degradation";
    const CSV: &'static str = "chaos";
    const JSON_KEY: &'static str = "scenarios";
    const CONTROL: &'static str = "empty-plan";
    const TWIN: bool = false;

    /// One scenario per fault family, plus the null plan.
    fn roster(seed: u64) -> Vec<Scenario> {
        vec![
            Scenario {
                name: "rate-burst",
                topology: Topology::Flow,
                // 8× the baseline offered rate for 8 windows (±1 window of
                // seeded jitter): long enough for the ladder to reach the
                // throttle rung and prove it stops the loss mid-fault.
                plan: FaultPlan::seeded(seed ^ 0xA11CE).with_jittered(
                    2,
                    10,
                    1,
                    FaultKind::RateBurst { multiplier: 8 },
                ),
                offered_load: Some(0.7),
                envelope_floor: 0.7,
            },
            Scenario {
                name: "churn",
                topology: Topology::Flow,
                // A flash crowd: four SYN_MAX aggressors appear on the
                // target's socket, then vanish.
                plan: FaultPlan::seeded(seed ^ 0xB0B)
                    .with(2, 6, FaultKind::CompetitorChurn { competitors: 4 }),
                offered_load: None,
                envelope_floor: 0.9,
            },
            Scenario {
                name: "freq-derate",
                topology: Topology::Flow,
                // Long enough (10 violating windows) to walk the full ladder
                // into Shed — nothing short of load shedding answers a core
                // that simply got slower.
                plan: FaultPlan::seeded(seed ^ 0xD0D0)
                    .with(2, 12, FaultKind::FreqDerate { stall_cycles: 100_000 }),
                offered_load: None,
                envelope_floor: 0.7,
            },
            Scenario {
                name: "pool-pressure",
                topology: Topology::Flow,
                // Seize 496 of the 512 NIC buffers: a 32-packet rx can fill
                // only half its batch — until the shrink rung fits the batch
                // to the starved pool.
                plan: FaultPlan::seeded(seed ^ 0xF00D).with(2, 6, FaultKind::PoolPressure { seize: 496 }),
                offered_load: None,
                envelope_floor: 0.7,
            },
            Scenario {
                name: "corruption",
                topology: Topology::Flow,
                // 200‰ of frames arrive with a flipped checksum byte and must
                // die in CheckIpHeader — counted, not silent.
                plan: FaultPlan::seeded(seed ^ 0xC0DE).with(2, 6, FaultKind::Corruption { per_mille: 200 }),
                offered_load: None,
                envelope_floor: 0.7,
            },
            Scenario {
                name: "empty-plan",
                topology: Topology::Flow,
                plan: FaultPlan::empty(),
                offered_load: None,
                envelope_floor: 0.7,
            },
            Scenario {
                name: "queue-pressure",
                topology: Topology::Pipeline,
                // Clamp the 128-slot ring to a single slot: partial-burst
                // backpressure degenerates to one-packet handoffs, de-amortizing
                // the per-burst fixed costs on both stages.
                plan: FaultPlan::seeded(seed ^ 0x5EA)
                    .with(2, 6, FaultKind::QueuePressure { cap: 1 }),
                offered_load: None,
                envelope_floor: 0.7,
            },
        ]
    }

    fn name(sc: &Scenario) -> &'static str {
        sc.name
    }

    fn plan(sc: &Scenario) -> &FaultPlan {
        &sc.plan
    }

    fn prepare(ctx: &RunCtx) -> Self {
        Chaos { controller: BatchController::calibrate(FlowType::Ip, ctx.params, ctx.jobs) }
    }

    fn run_scenario(&self, ctx: &RunCtx, sc: &Scenario, _controlled: bool) -> ScenarioOutcome {
        match sc.topology {
            Topology::Flow => run_flow_scenario(ctx, sc, &self.controller),
            Topology::Pipeline => run_pipeline_scenario(ctx, sc),
        }
    }

    fn twin_key(_: &ScenarioOutcome) -> TwinKey {
        unreachable!("chaos runs no twin")
    }

    fn table(outcomes: &[ScenarioOutcome]) -> Table {
        let mut table = Table::new(
            "Chaos sweep: guard response and loss accounting per fault scenario",
            &[
                "scenario", "windows", "peak", "reprobes", "offered", "processed", "lost",
                "loss%", "recov(win)", "slack",
            ],
        );
        for o in outcomes {
            table.row(vec![
                o.name.to_string(),
                o.windows.to_string(),
                o.peak_level.to_string(),
                o.reprobes.to_string(),
                o.drops.offered.to_string(),
                o.processed.to_string(),
                o.drops.total_dropped().to_string(),
                format!("{:.2}", 100.0 * o.drops.loss_frac()),
                o.recovery_windows.map(|r| r.to_string()).unwrap_or_else(|| "—".into()),
                o.conservation_slack.to_string(),
            ]);
        }
        table
    }

    /// One flat row per scenario.
    fn json_rows(outcomes: &[ScenarioOutcome]) -> Vec<JsonRow> {
        outcomes
            .iter()
            .map(|o| {
                JsonRow::new()
                    .str("scenario", o.name)
                    .num("windows", o.windows)
                    .str("peak_level", o.peak_level)
                    .num("reprobes", o.reprobes)
                    .num("transitions", o.transitions)
                    .num("fault_events", o.fault_events)
                    .num("offered", o.drops.offered)
                    .num("processed", o.processed)
                    .num("nic_rx_exhausted", o.drops.nic_rx_exhausted)
                    .num("queue_full", o.drops.queue_full)
                    .num("element_dropped", o.drops.element_dropped)
                    .num("wire_overflow", o.drops.wire_overflow)
                    .num("shed", o.drops.shed)
                    .num("drained", o.drops.drained)
                    .opt_num("recovery_windows", o.recovery_windows)
                    .num("conservation_slack", o.conservation_slack)
                    .num("max_backlog", o.max_backlog)
            })
            .collect()
    }

    fn check(o: &ScenarioOutcome) {
        let n = o.name;
        assert_eq!(
            o.final_level,
            DegradeLevel::Normal,
            "[{n}] guard must stand down once faults clear"
        );
        let rec = o.recovery_windows
            .unwrap_or_else(|| panic!("[{n}] guard never recovered"));
        assert!(
            rec <= RECOVERY_BOUND,
            "[{n}] recovery took {rec} windows (bound {RECOVERY_BOUND})"
        );
        match n {
            "rate-burst" => {
                assert!(o.drops.wire_overflow > 0, "[{n}] burst must overflow the wire");
                assert!(
                    o.peak_level >= DegradeLevel::Throttle,
                    "[{n}] sustained overload must reach the throttle rung, got {}",
                    o.peak_level
                );
                assert_eq!(o.conservation_slack, 0, "[{n}] ledger must conserve exactly");
            }
            "churn" => {
                assert!(
                    o.peak_level >= DegradeLevel::Reprobe,
                    "[{n}] a flash crowd must trip the guard"
                );
                assert!(o.min_pps < o.calib_pps, "[{n}] contention must dent throughput");
                assert!(
                    o.conservation_slack.unsigned_abs() <= 2 * FULL_BATCH as u64,
                    "[{n}] slack {} exceeds a measurement boundary's in-flight bound",
                    o.conservation_slack
                );
            }
            "freq-derate" => {
                assert_eq!(
                    o.peak_level,
                    DegradeLevel::Shed,
                    "[{n}] a slower core defeats every milder rung"
                );
                assert!(o.drops.shed > 0, "[{n}] shed drops must be counted");
                assert_eq!(o.conservation_slack, 0, "[{n}] ledger must conserve exactly");
            }
            "pool-pressure" => {
                assert!(o.drops.nic_rx_exhausted > 0, "[{n}] starved pool must surface rx drops");
                assert!(o.peak_level >= DegradeLevel::Reprobe, "[{n}] guard must react");
                assert_eq!(o.conservation_slack, 0, "[{n}] ledger must conserve exactly");
            }
            "corruption" => {
                assert!(
                    o.drops.element_dropped > 0,
                    "[{n}] corrupted frames must die in CheckIpHeader, visibly"
                );
                assert!(o.peak_level >= DegradeLevel::Reprobe, "[{n}] guard must react");
                assert_eq!(o.conservation_slack, 0, "[{n}] ledger must conserve exactly");
            }
            "queue-pressure" => {
                assert!(
                    o.min_pps < 0.7 * o.calib_pps,
                    "[{n}] a clamped ring must throttle the pipeline"
                );
                assert!(
                    o.max_backlog <= 128,
                    "[{n}] backlog {} outgrew the ring",
                    o.max_backlog
                );
                assert!(o.peak_level >= DegradeLevel::Reprobe, "[{n}] guard must react");
                assert!(
                    o.conservation_slack.unsigned_abs() <= (128 + 2 * 8) as u64,
                    "[{n}] slack {} exceeds ring + burst in-flight bound",
                    o.conservation_slack
                );
            }
            "empty-plan" => {
                assert_eq!(o.fault_events, 0, "[{n}] null plan must fire nothing");
                assert_eq!(o.transitions, 0, "[{n}] guard must never move");
                assert_eq!(o.peak_level, DegradeLevel::Normal, "[{n}] no degradation");
                assert_eq!(o.drops.total_dropped(), 0, "[{n}] zero loss on the null plan");
                assert_eq!(o.conservation_slack, 0, "[{n}] ledger must conserve exactly");
            }
            other => panic!("unknown scenario {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::golden;

    #[test]
    fn chaos_sweep_holds_its_claims_at_test_scale() {
        let outcomes = golden::<Chaos>(include_str!("../../tests/golden/CHAOS_results.json"));
        assert_eq!(outcomes.len(), 7);
    }
}
