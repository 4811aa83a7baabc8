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
//! Ladder actuation maps guard levels onto the `TaskControls` knobs:
//! shrink-batch re-sizes the live flow to the
//! [`BatchController`]'s tight-budget choice, throttle paces admission to
//! `THROTTLE_HEADROOM`× the calibrated cycles/packet (lossless, upstream
//! backpressure), shed drops `SHED_PER_MILLE`‰ at the wire — explicit and
//! counted. Self-inflicted degradation (shed drops, throttled throughput)
//! is excluded from the guard's *loss* signal so the controller does not
//! chase its own tail; it still appears in the conservation ledger.
//!
//! Results land in `chaos.csv` and `CHAOS_results.json` (machine-readable,
//! uploaded as a CI artifact).

use crate::experiments::results_json::{save_results_json, JsonRow};
use crate::RunCtx;
use pp_click::pipelines::{build_pipeline, PipelineSpec};
use pp_core::prelude::*;
use pp_sim::config::MachineConfig;
use pp_sim::engine::{CoreTask, Engine};
use pp_sim::fault::{DropStats, FaultInjector, FaultKind, FaultPlan, TaskControls};
use pp_sim::latency::LatencyHistogram;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};
use std::cell::RefCell;
use std::rc::Rc;

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
/// Admission pace at the Throttle rung, as a multiple of the calibrated
/// cycles/packet (1.1 ⇒ admit ~91% of capacity nominally). Effective
/// admission runs ~9% under the nominal target (poll overhead plus
/// credit quantization, worse at short windows), so the constant leaves
/// real margin: even with shed on top, degraded throughput stays above
/// the 70% envelope floor and the guard can climb back.
const THROTTLE_HEADROOM: f64 = 1.1;
/// Wire-drop fraction at the Shed rung (50‰: with throttle's effective
/// ~0.83 admission, 0.83 × 0.95 ≈ 0.79 > the 0.70 floor).
const SHED_PER_MILLE: u16 = 50;

/// One chaos scenario: a workload topology plus a fault timeline.
#[derive(Debug, Clone)]
struct FlowScenario {
    name: &'static str,
    plan: FaultPlan,
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

/// Summarize and reset a per-window latency histogram.
fn drain_latency(lat: &Rc<RefCell<LatencyHistogram>>, freq_ghz: f64) -> LatencySummary {
    let s = LatencySummary::from_histogram(&lat.borrow(), freq_ghz);
    lat.borrow_mut().reset();
    s
}

/// The guard's loss signal for one window: unchosen drops only — shed is
/// the controller's own (counted) action, not evidence against the model.
fn observed_loss(cur: &DropStats, prev: &DropStats) -> f64 {
    let offered = cur.offered.saturating_sub(prev.offered);
    let lost = cur.total_dropped().saturating_sub(prev.total_dropped());
    let shed = cur.shed.saturating_sub(prev.shed);
    lost.saturating_sub(shed) as f64 / offered.max(1) as f64
}

/// Map a ladder level onto the live knobs.
///
/// Shrink-batch and throttle deliberately do NOT stack: the batch shrinks
/// only at its own rung. Shrinking trades throughput for tail latency; if
/// the guard keeps descending, latency was not the problem — the throttle
/// rung restores the full batch (full amortization, maximum capacity) and
/// attacks throughput by cutting admission instead. Stacking them would
/// deadlock: a throttle pace calibrated at the full batch over-admits a
/// shrunk datapath, so the wire overflows forever and no window ever
/// comes back clean.
fn apply_ladder(
    controls: &TaskControls,
    level: DegradeLevel,
    offered_pace: u64,
    throttle_pace: u64,
    shrink_batch: usize,
) {
    let pace = if level >= DegradeLevel::Throttle {
        // Backpressure: admit no faster than the throttle pace (larger
        // cycles-per-packet = slower), regardless of what the disturbance
        // offers. Lossless by construction — unadmitted load stays
        // upstream.
        offered_pace.max(throttle_pace)
    } else {
        offered_pace
    };
    controls.pace_cycles.set(pace);
    let batch = if level == DegradeLevel::ShrinkBatch { shrink_batch } else { FULL_BATCH };
    controls.batch_override.set(batch);
    controls
        .shed_per_mille
        .set(if level == DegradeLevel::Shed { SHED_PER_MILLE } else { 0 });
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
            // Joining cores start at the fleet's clock — a flash crowd
            // arrives now, it does not replay the past.
            engine.machine.core_mut(core).clock = engine.machine.max_clock();
            engine.set_task(core, task);
        } else if let Some(task) = engine.take_task(core) {
            *slot = Some(task);
        }
    }
}

/// Run one single-flow chaos scenario end to end.
fn run_flow_scenario(
    ctx: &RunCtx,
    sc: &FlowScenario,
    controller: &BatchController,
) -> ScenarioOutcome {
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
    let lat = built.task.latency_handle();
    let drops = built.task.drop_handle();
    let controls = built.task.controls_handle();
    let nic = built.task.nic_handle();
    let mut engine = Engine::new(machine);
    engine.set_task(CoreId(0), Box::new(built.task));

    let window = params.window_cycles(engine.machine.config());
    let warmup = params.warmup_cycles(engine.machine.config());
    let freq = engine.machine.config().freq_ghz;
    engine.run_until(warmup);
    lat.borrow_mut().reset();
    drops.borrow_mut().reset();

    let mut processed: u64 = 0;
    let core0 = CoreId(0);

    // Capacity probe: one unpaced window fixes cycles/packet, from which
    // the baseline pace (scenarios below line rate) and the throttle pace
    // derive.
    let cap = engine.measure(0, window);
    let cap_pkts = cap.core(core0).expect("target measured").counts.total.packets.max(1);
    processed += cap_pkts;
    let cycles_per_pkt = window as f64 / cap_pkts as f64;
    drain_latency(&lat, freq);
    let throttle_pace = (cycles_per_pkt * THROTTLE_HEADROOM).max(1.0) as u64;
    let baseline_pace = match sc.offered_load {
        Some(load) => (cycles_per_pkt / load).max(1.0) as u64,
        None => 0,
    };
    controls.pace_cycles.set(baseline_pace);

    // Calibration: fit the envelope at the baseline operating point.
    let (mut pps_sum, mut p99_max) = (0.0f64, 0.0f64);
    for _ in 0..CALIB_WINDOWS {
        let m = engine.measure(0, window);
        let c = m.core(core0).expect("target measured");
        processed += c.counts.total.packets;
        pps_sum += c.metrics.pps;
        p99_max = p99_max.max(drain_latency(&lat, freq).p99_us);
    }
    let calib_pps = pps_sum / CALIB_WINDOWS as f64;
    let envelope = GuardEnvelope {
        min_pps: sc.envelope_floor * calib_pps,
        max_p99_us: (1.5 * p99_max).max(5.0),
        max_loss_frac: 0.005,
    };
    // The shrink rung's target: the largest batch the cost model predicts
    // to hold the *healthy* tail, clamped to [FULL/4, FULL/2] — strictly
    // below the full batch so the rung always changes something, but
    // never so small that the de-amortized fixed cost drops capacity
    // below the baseline admission rate (which would manufacture wire
    // overflow out of the rung itself).
    let shrink_batch = controller
        .choose(LatencyBudget::us(p99_max.max(1.0)))
        .batch
        .clamp(FULL_BATCH / 4, FULL_BATCH / 2);

    let mut guard = RuntimeGuard::new(envelope, GuardConfig::default());
    let mut injector = FaultInjector::new(sc.plan.clone());
    let last_fault = sc.plan.last_window();
    let total = last_fault + RECOVERY_TAIL.max(8);

    let mut parked: Vec<Option<Box<dyn CoreTask>>> = (0..5).map(|_| None).collect();
    let mut offered_pace = baseline_pace;
    let mut prev = *drops.borrow();
    let mut peak = DegradeLevel::Normal;
    let mut reprobes = 0u32;
    let mut min_pps = f64::INFINITY;
    let mut recovery: Option<u32> = None;

    for w in 0..total {
        let fired: Vec<_> = injector.advance(w).to_vec();
        for t in fired {
            match t.kind {
                FaultKind::RateBurst { multiplier } => {
                    offered_pace = if t.begin {
                        (baseline_pace / multiplier.max(1) as u64).max(1)
                    } else {
                        baseline_pace
                    };
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
                    controls.stall_cycles.set(if t.begin { stall_cycles as u64 } else { 0 });
                }
                FaultKind::PoolPressure { seize } => {
                    let mut n = nic.borrow_mut();
                    if t.begin {
                        n.seize_buffers(seize as usize);
                    } else {
                        n.release_seized();
                    }
                }
                FaultKind::Corruption { per_mille } => {
                    controls.corrupt_per_mille.set(if t.begin { per_mille } else { 0 });
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
            apply_ladder(&controls, guard.level(), offered_pace, throttle_pace, shrink_batch);
        }

        let m = engine.measure(0, window);
        let c = m.core(core0).expect("target measured");
        processed += c.counts.total.packets;
        min_pps = min_pps.min(c.metrics.pps);
        let cur = *drops.borrow();
        let obs = WindowObservation {
            pps: c.metrics.pps,
            p99_us: drain_latency(&lat, freq).p99_us,
            loss_frac: observed_loss(&cur, &prev),
        };
        let clean = guard.envelope().violation(&obs).is_none();
        if std::env::var_os("CHAOS_DEBUG").is_some() {
            eprintln!(
                "[{}] w{w}: pps {:.3e} p99 {:.1}us loss {:.3} viol {:?} level {}",
                sc.name,
                obs.pps,
                obs.p99_us,
                obs.loss_frac,
                guard.envelope().violation(&obs),
                guard.level()
            );
        }
        let d = guard.observe(&obs);
        prev = cur;
        peak = peak.max(d.level);
        if d.reprobe_now {
            // A full system would re-run the probe and refit the envelope
            // via `RuntimeGuard::set_envelope`; here the model is the
            // ground truth, so a re-probe is a (counted) no-op.
            reprobes += 1;
        }
        apply_ladder(&controls, d.level, offered_pace, throttle_pace, shrink_batch);
        if recovery.is_none() && w >= last_fault && d.level == DegradeLevel::Normal && clean {
            recovery = Some(w - last_fault);
        }
    }
    // Competitors left running would keep contending past their event's
    // end; the injector emits the matching end transition, so by here the
    // fleet must be back to the target alone.
    debug_assert_eq!(engine.active_cores(), vec![core0]);

    let final_drops = *drops.borrow();
    let slack = final_drops.offered as i64
        - processed as i64
        - final_drops.undelivered() as i64;
    ScenarioOutcome {
        name: sc.name,
        windows: total,
        peak_level: peak,
        final_level: guard.level(),
        reprobes,
        transitions: guard.transitions().len(),
        fault_events: injector.trace().len(),
        drops: final_drops,
        processed,
        calib_pps,
        min_pps,
        recovery_windows: recovery,
        conservation_slack: slack,
        max_backlog: 0,
    }
}

/// The pipeline scenario: queue pressure on a two-core Ip pipeline. The
/// guard here is an observer (the split stages expose no live knobs — the
/// interesting claims are backpressure, bounded backlog, and recovery).
fn run_pipeline_scenario(ctx: &RunCtx, name: &'static str, plan: FaultPlan) -> ScenarioOutcome {
    let params = ctx.params;
    let seed = params.seed ^ 0x9199;
    const QUEUE_CAP: usize = 128;
    const BURST: usize = 8;
    let mut machine = Machine::new(MachineConfig::westmere());
    let spec = FlowType::Ip.spec(params.scale, seed);
    let pipe = PipelineSpec { queue_domain: MemDomain(0), queue_capacity: QUEUE_CAP, burst: BURST };
    let (src, sink, queue) =
        build_pipeline(&mut machine, MemDomain(0), MemDomain(0), &spec, &pipe);
    let drops = src.drop_handle();
    let lat = sink.latency_handle();
    let mut engine = Engine::new(machine);
    engine.set_task(CoreId(0), Box::new(src));
    engine.set_task(CoreId(1), Box::new(sink));

    let window = params.window_cycles(engine.machine.config());
    let warmup = params.warmup_cycles(engine.machine.config());
    let freq = engine.machine.config().freq_ghz;
    engine.run_until(warmup);
    lat.borrow_mut().reset();
    drops.borrow_mut().reset();

    let sink_core = CoreId(1);
    let mut processed: u64 = 0;
    let (mut pps_sum, mut p99_max) = (0.0f64, 0.0f64);
    for _ in 0..CALIB_WINDOWS {
        let m = engine.measure(0, window);
        let c = m.core(sink_core).expect("sink measured");
        processed += c.counts.total.packets;
        pps_sum += c.metrics.pps;
        p99_max = p99_max.max(drain_latency(&lat, freq).p99_us);
    }
    let calib_pps = pps_sum / CALIB_WINDOWS as f64;
    let envelope = GuardEnvelope {
        min_pps: 0.7 * calib_pps,
        max_p99_us: (1.5 * p99_max).max(5.0),
        max_loss_frac: 0.005,
    };
    let mut guard = RuntimeGuard::new(envelope, GuardConfig::default());
    let mut injector = FaultInjector::new(plan.clone());
    let last_fault = plan.last_window();
    let total = last_fault + RECOVERY_TAIL.max(8);

    let mut prev = *drops.borrow();
    let mut peak = DegradeLevel::Normal;
    let mut reprobes = 0u32;
    let mut min_pps = f64::INFINITY;
    let mut max_backlog = 0usize;
    let mut recovery: Option<u32> = None;

    for w in 0..total {
        let fired: Vec<_> = injector.advance(w).to_vec();
        for t in fired {
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
        let c = m.core(sink_core).expect("sink measured");
        processed += c.counts.total.packets;
        min_pps = min_pps.min(c.metrics.pps);
        max_backlog = max_backlog.max(queue.borrow().len());
        let cur = *drops.borrow();
        let obs = WindowObservation {
            pps: c.metrics.pps,
            p99_us: drain_latency(&lat, freq).p99_us,
            loss_frac: observed_loss(&cur, &prev),
        };
        let clean = guard.envelope().violation(&obs).is_none();
        let d = guard.observe(&obs);
        prev = cur;
        peak = peak.max(d.level);
        if d.reprobe_now {
            reprobes += 1;
        }
        if recovery.is_none() && w >= last_fault && d.level == DegradeLevel::Normal && clean {
            recovery = Some(w - last_fault);
        }
    }

    let final_drops = *drops.borrow();
    // Front-stage element drops never reach the sink, and up to a ring of
    // packets is legitimately in flight at any boundary.
    let slack = final_drops.offered as i64
        - processed as i64
        - final_drops.undelivered() as i64
        - final_drops.element_dropped as i64;
    ScenarioOutcome {
        name,
        windows: total,
        peak_level: peak,
        final_level: guard.level(),
        reprobes,
        transitions: guard.transitions().len(),
        fault_events: injector.trace().len(),
        drops: final_drops,
        processed,
        calib_pps,
        min_pps,
        recovery_windows: recovery,
        conservation_slack: slack,
        max_backlog,
    }
}

/// The scenario roster: one per fault family, plus the null plan. Every
/// plan seed mixes the CLI master seed (`--seed`) so a failing timeline
/// can be replayed exactly.
fn flow_scenarios(seed: u64) -> Vec<FlowScenario> {
    vec![
        FlowScenario {
            name: "rate-burst",
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
        FlowScenario {
            name: "churn",
            // A flash crowd: four SYN_MAX aggressors appear on the
            // target's socket, then vanish.
            plan: FaultPlan::seeded(seed ^ 0xB0B)
                .with(2, 6, FaultKind::CompetitorChurn { competitors: 4 }),
            offered_load: None,
            envelope_floor: 0.9,
        },
        FlowScenario {
            name: "freq-derate",
            // Long enough (10 violating windows) to walk the full ladder
            // into Shed — nothing short of load shedding answers a core
            // that simply got slower.
            plan: FaultPlan::seeded(seed ^ 0xD0D0)
                .with(2, 12, FaultKind::FreqDerate { stall_cycles: 100_000 }),
            offered_load: None,
            envelope_floor: 0.7,
        },
        FlowScenario {
            name: "pool-pressure",
            // Seize 496 of the 512 NIC buffers: a 32-packet rx can fill
            // only half its batch — until the shrink rung fits the batch
            // to the starved pool.
            plan: FaultPlan::seeded(seed ^ 0xF00D).with(2, 6, FaultKind::PoolPressure { seize: 496 }),
            offered_load: None,
            envelope_floor: 0.7,
        },
        FlowScenario {
            name: "corruption",
            // 200‰ of frames arrive with a flipped checksum byte and must
            // die in CheckIpHeader — counted, not silent.
            plan: FaultPlan::seeded(seed ^ 0xC0DE).with(2, 6, FaultKind::Corruption { per_mille: 200 }),
            offered_load: None,
            envelope_floor: 0.7,
        },
        FlowScenario {
            name: "empty-plan",
            plan: FaultPlan::empty(),
            offered_load: None,
            envelope_floor: 0.7,
        },
    ]
}

/// One self-contained unit of parallel work: a scenario plus everything
/// needed to run it. Jobs hold only plain config data (`Send`), so
/// `run_many` can shard them across host threads; each worker builds its
/// own `Machine`/`Engine` (engines are `Rc`-based and must never cross a
/// thread boundary) from the scenario's derived seed.
#[derive(Debug, Clone)]
enum ChaosJob {
    /// A single-flow scenario from [`flow_scenarios`].
    Flow(FlowScenario),
    /// The two-core pipeline scenario (queue pressure).
    Pipeline { name: &'static str, plan: FaultPlan },
}

impl ChaosJob {
    fn name(&self) -> &'static str {
        match self {
            ChaosJob::Flow(sc) => sc.name,
            ChaosJob::Pipeline { name, .. } => name,
        }
    }

    fn plan(&self) -> &FaultPlan {
        match self {
            ChaosJob::Flow(sc) => &sc.plan,
            ChaosJob::Pipeline { plan, .. } => plan,
        }
    }
}

/// The full roster as parallel jobs, in canonical (reporting) order.
fn roster(seed: u64) -> Vec<ChaosJob> {
    flow_scenarios(seed)
        .into_iter()
        .map(ChaosJob::Flow)
        .chain(std::iter::once(ChaosJob::Pipeline {
            name: "queue-pressure",
            // Clamp the 128-slot ring to a single slot: partial-burst
            // backpressure degenerates to one-packet handoffs, de-amortizing
            // the per-burst fixed costs on both stages.
            plan: FaultPlan::seeded(seed ^ 0x5EA)
                .with(2, 6, FaultKind::QueuePressure { cap: 1 }),
        }))
        .collect()
}

/// Canonical scenario names, in sweep order — the vocabulary accepted by
/// [`measure_scenarios`].
pub fn scenario_names() -> Vec<&'static str> {
    roster(0).iter().map(ChaosJob::name).collect()
}

/// Every scenario's fault plan under master seed `seed`, by name. Each
/// plan's seed is a per-scenario mix of the master seed (never a
/// sequential draw from one RNG), so a scenario's resolved timeline is
/// independent of which other scenarios run — the determinism proptests
/// pin exactly that.
pub fn scenario_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    roster(seed).iter().map(|j| (j.name(), j.plan().clone())).collect()
}

/// Measure a subset of the roster (by name), sharded across `ctx.jobs`
/// host threads, outcomes merged in canonical scenario order. Passing
/// [`scenario_names`] runs the full sweep. Results are bit-for-bit
/// identical at any job count: each scenario derives its own seeds and
/// builds its own engine, and the shrink-rung calibration is
/// subset-independent.
pub fn measure_scenarios(ctx: &RunCtx, names: &[&str]) -> Vec<ScenarioOutcome> {
    let controller = BatchController::calibrate(FlowType::Ip, ctx.params, ctx.jobs);
    let jobs: Vec<ChaosJob> = roster(ctx.params.seed)
        .into_iter()
        .filter(|j| names.contains(&j.name()))
        .collect();
    run_many(jobs, ctx.jobs, |job| match job {
        ChaosJob::Flow(sc) => run_flow_scenario(ctx, &sc, &controller),
        ChaosJob::Pipeline { name, plan } => run_pipeline_scenario(ctx, name, plan),
    })
}

/// The `CHAOS_results.json` records for a set of outcomes (one flat row
/// per scenario, canonical order preserved).
pub fn json_rows(outcomes: &[ScenarioOutcome]) -> Vec<JsonRow> {
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

/// Per-scenario robustness assertions (the sweep's acceptance criteria).
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

/// Run the chaos sweep: every scenario, the summary table, the JSON
/// artifact, and the robustness assertions.
pub fn run(ctx: &RunCtx) -> Vec<ScenarioOutcome> {
    ctx.heading("Chaos — fault injection + graceful degradation");
    println!("calibrating the batch controller (shrink-batch rung)…");
    let names = scenario_names();
    println!(
        "running {} scenarios across {} jobs: {}…",
        names.len(),
        ctx.jobs.min(names.len()),
        names.join(", ")
    );
    let outcomes = measure_scenarios(ctx, &names);

    let mut table = Table::new(
        "Chaos sweep: guard response and loss accounting per fault scenario",
        &[
            "scenario", "windows", "peak", "reprobes", "offered", "processed", "lost",
            "loss%", "recov(win)", "slack",
        ],
    );
    for o in &outcomes {
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
    ctx.emit("chaos", &table);

    // CHAOS_results.json lands in the repository root (CI uploads it).
    save_results_json("CHAOS_results.json", "scenarios", &json_rows(&outcomes));

    for o in &outcomes {
        check(o);
    }
    println!(
        "chaos: {} scenarios — bounded recovery, zero silent loss, bounded backlog",
        outcomes.len()
    );
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::results_json::render_document;

    #[test]
    fn chaos_sweep_holds_its_claims_at_test_scale() {
        let mut ctx = RunCtx::quick();
        // Short windows keep the sweep fast; every claim in `check` is
        // asserted inside `run`.
        ctx.params.warmup_ms = 0.5;
        ctx.params.window_ms = 1.5;
        ctx.out_dir = std::env::temp_dir();
        let outcomes = run(&ctx);
        assert_eq!(outcomes.len(), 7);
        // Pinned against the previous commit, not just against `--jobs N`.
        assert_eq!(
            render_document("scenarios", &json_rows(&outcomes)),
            include_str!("../../tests/golden/CHAOS_results.json"),
            "CHAOS_results.json moved against the checked-in golden"
        );
    }
}
