//! The tenant runtime under the chaos-family drivers (`repro chaos`,
//! `fleet-chaos`, `cluster-chaos`): what "a window", "unchosen loss" and
//! "a closed ledger" mean, written once.
//!
//! The [guard](crate::guard), the [supervisor](crate::supervisor) and the
//! [fleet controller](crate::fleet) are pure decision logic; a driver in
//! pp-bench owns the engines, injects the faults and maps each decision
//! onto a mechanism. Everything between a decision and the machine that
//! does not depend on *which* controller decided is a [`TenantRt`] method:
//! the window protocol (anchor → probe → calibrate → observe), the ladder
//! actuation, and the placement moves that keep
//! `offered = processed + undelivered` exact. ARCHITECTURE.md § "Window
//! protocol and tenant runtime" has the rules and their reasons.
//!
//! Methods take the [`Engine`] the tenant currently occupies; a cluster
//! driver remembers the machine next to the tenant and passes that
//! machine's engine.

use crate::experiment::LatencySummary;
use crate::guard::{DegradeLevel, GuardEnvelope, WindowObservation};
use pp_click::flow::FlowTask;
use pp_sim::engine::{CoreTask, Engine, Measurement};
use pp_sim::fault::{DropStats, FaultKind, TaskControls};
use pp_sim::latency::LatencyHistogram;
use pp_sim::types::{CoreId, Cycles};
use std::cell::RefCell;
use std::rc::Rc;

/// Admission pace at the Throttle rung, as a multiple of the probed
/// cycles/packet (1.1 ⇒ admit ~91% of capacity nominally). Effective
/// admission runs ~9% under the nominal target (poll overhead plus
/// credit quantization, worse at short windows), so the constant leaves
/// real margin: even with shed on top, degraded throughput stays above a
/// 70% envelope floor and the guard can climb back.
pub const THROTTLE_HEADROOM: f64 = 1.1;
/// Wire-drop fraction at the Shed rung (50‰: with throttle's effective
/// ~0.83 admission, 0.83 × 0.95 ≈ 0.79 > a 0.70 floor).
pub const SHED_PER_MILLE: u16 = 50;

/// The guard's loss signal for one window: *unchosen* drops only. Shed
/// drops (the ladder's own action) and drained drops (a supervisor's or
/// fleet controller's migrations, evictions and parked refusals) are the
/// control plane's choices, not evidence against the model — a guard
/// chasing its own tail, or its supervisor's drain, would never converge.
/// Both still appear in the conservation ledger.
pub fn observed_loss(cur: &DropStats, prev: &DropStats) -> f64 {
    let offered = cur.offered.saturating_sub(prev.offered);
    let lost = cur.total_dropped().saturating_sub(prev.total_dropped());
    let chosen = (cur.shed + cur.drained).saturating_sub(prev.shed + prev.drained);
    lost.saturating_sub(chosen) as f64 / offered.max(1) as f64
}

/// `offered − processed − undelivered`: 0 when the ledger closes exactly.
pub fn conservation_slack(drops: &DropStats, processed: u64) -> i64 {
    drops.offered as i64 - processed as i64 - drops.undelivered() as i64
}

/// Raw retired-packet total of one core (pending events included).
fn core_packets(engine: &Engine, core: CoreId) -> u64 {
    engine.machine.core(core).counters.total().packets
}

/// Driver-side runtime state for one tenant.
pub struct TenantRt {
    /// Per-window latency histogram (drained by every protocol step).
    lat: Rc<RefCell<LatencyHistogram>>,
    /// The loss ledger the task writes.
    drops: Rc<RefCell<DropStats>>,
    /// The task's live knobs. The ladder owns pace, batch override and
    /// shed; stall and corruption are the driver's fault mechanisms.
    pub controls: Rc<TaskControls>,
    /// The core the tenant occupies (or last occupied, while parked).
    pub core: CoreId,
    /// The boxed task while off every engine (the engine owns it while
    /// running).
    parked: Option<Box<dyn CoreTask>>,
    /// Planned datapath batch, re-asserted at every rung but ShrinkBatch.
    pub batch: usize,
    /// The ShrinkBatch rung's target (half the planned batch unless the
    /// driver has a better-informed choice).
    pub shrink_batch: usize,
    /// Probed cycles per packet at the planned batch, under whatever
    /// contention the probe window saw — the pacing reference.
    pub cpp: f64,
    /// Offered pace with no disturbance (0 = line rate).
    pub baseline_pace: u64,
    /// Offered pace right now (a rate burst shortens it).
    pub offered_pace: u64,
    /// Admission pace at and below the Throttle rung.
    pub throttle_pace: u64,
    pps_sum: f64,
    calib_windows: u32,
    /// Worst p99 over the calibration windows, microseconds.
    pub calib_p99_us: f64,
    /// Worst observed per-window throughput (calibration excluded).
    pub min_pps: f64,
    prev: DropStats,
    processed: u64,
    /// The occupied core's retired-packet total when this tenant was last
    /// anchored on it — what `processed` flushes against.
    counter_base: u64,
}

impl TenantRt {
    /// A tenant around a built flow, parked until [`install`](Self::install)
    /// places it.
    pub fn new(task: FlowTask) -> Self {
        let batch = task.batch_size();
        let unplaced = Self::watching(CoreId(0), task.latency_handle(), task.drop_handle());
        TenantRt {
            controls: task.controls_handle(),
            parked: Some(Box::new(task)),
            batch,
            shrink_batch: (batch / 2).max(1),
            ..unplaced
        }
    }

    /// A tenant over handles whose tasks the caller has placed itself and
    /// that never moves and has no knobs — a two-stage pipeline keeps its
    /// ledger at the source and its histogram at the sink, measured on
    /// `core`.
    pub fn watching(
        core: CoreId,
        lat: Rc<RefCell<LatencyHistogram>>,
        drops: Rc<RefCell<DropStats>>,
    ) -> Self {
        TenantRt {
            lat,
            drops,
            controls: TaskControls::new_handle(),
            core,
            parked: None,
            batch: 0,
            shrink_batch: 0,
            cpp: 1.0,
            baseline_pace: 0,
            offered_pace: 0,
            throttle_pace: 1,
            pps_sum: 0.0,
            calib_windows: 0,
            calib_p99_us: 0.0,
            min_pps: f64::INFINITY,
            prev: DropStats::default(),
            processed: 0,
            counter_base: 0,
        }
    }

    /// Summarize and reset the per-window latency histogram.
    fn drain_latency(&self, freq_ghz: f64) -> LatencySummary {
        let s = LatencySummary::from_histogram(&self.lat.borrow(), freq_ghz);
        self.lat.borrow_mut().reset();
        s
    }

    /// After warm-up: reset the histogram and the ledger and anchor
    /// `processed` at the occupied core's counter, so both cover exactly
    /// the windows from here on.
    pub fn anchor(&mut self, engine: &Engine) {
        self.lat.borrow_mut().reset();
        self.drops.borrow_mut().reset();
        self.processed = 0;
        self.counter_base = core_packets(engine, self.core);
    }

    /// One unpaced window fixes cycles/packet, from which the throttle
    /// pace and the offered pace (`load` as a fraction of the probed
    /// capacity; `None` = line rate) derive. Sets the pace knob.
    pub fn probe_capacity(&mut self, m: &Measurement, load: Option<f64>) {
        let pkts = m.core(self.core).expect("tenant measured").counts.total.packets;
        self.cpp = m.window_cycles as f64 / pkts.max(1) as f64;
        self.throttle_pace = (self.cpp * THROTTLE_HEADROOM).max(1.0) as u64;
        self.baseline_pace = load.map_or(0, |l| (self.cpp / l).max(1.0) as u64);
        self.offered_pace = self.baseline_pace;
        self.controls.pace_cycles.set(self.baseline_pace);
        self.drain_latency(m.freq_ghz);
    }

    /// One clean window at the operating point: accumulates the mean
    /// throughput and the worst p99 the envelope is fitted from.
    pub fn calibrate(&mut self, m: &Measurement) {
        self.pps_sum += m.core(self.core).expect("tenant measured").metrics.pps;
        self.calib_p99_us = self.calib_p99_us.max(self.drain_latency(m.freq_ghz).p99_us);
        self.calib_windows += 1;
        self.prev = *self.drops.borrow();
    }

    /// Mean calibrated throughput, packets/sec.
    pub fn calib_pps(&self) -> f64 {
        self.pps_sum / self.calib_windows as f64
    }

    /// The envelope the calibration supports: at least `floor` of the
    /// calibrated rate, at most 1.5× the calibrated tail (never tighter
    /// than 5 µs), at most 0.5% unchosen loss.
    pub fn envelope(&self, floor: f64) -> GuardEnvelope {
        GuardEnvelope {
            min_pps: floor * self.calib_pps(),
            max_p99_us: (1.5 * self.calib_p99_us).max(5.0),
            max_loss_frac: 0.005,
        }
    }

    /// What one measured window delivered, as the controllers see it.
    pub fn observe(&mut self, m: &Measurement) -> WindowObservation {
        let pps = m.core(self.core).expect("running tenant measured").metrics.pps;
        self.min_pps = self.min_pps.min(pps);
        let cur = *self.drops.borrow();
        let obs = WindowObservation {
            pps,
            p99_us: self.drain_latency(m.freq_ghz).p99_us,
            loss_frac: observed_loss(&cur, &self.prev),
        };
        self.prev = cur;
        obs
    }

    /// Map a ladder level onto the live knobs.
    ///
    /// Shrink-batch and throttle deliberately do NOT stack: the batch
    /// shrinks only at its own rung. Shrinking trades throughput for tail
    /// latency; if the guard keeps descending, latency was not the problem
    /// — the throttle rung restores the full batch (full amortization,
    /// maximum capacity) and attacks throughput by cutting admission
    /// instead. Stacking them would deadlock: a throttle pace calibrated
    /// at the full batch over-admits a shrunk datapath, so the wire
    /// overflows forever and no window ever comes back clean.
    pub fn apply_ladder(&self, level: DegradeLevel) {
        let pace = if level >= DegradeLevel::Throttle {
            // Backpressure: admit no faster than the throttle pace (larger
            // cycles-per-packet = slower), regardless of what the
            // disturbance offers. Lossless by construction — unadmitted
            // load stays upstream.
            self.offered_pace.max(self.throttle_pace)
        } else {
            self.offered_pace
        };
        self.controls.pace_cycles.set(pace);
        let batch =
            if level == DegradeLevel::ShrinkBatch { self.shrink_batch } else { self.batch };
        self.controls.batch_override.set(batch);
        self.controls
            .shed_per_mille
            .set(if level == DegradeLevel::Shed { SHED_PER_MILLE } else { 0 });
    }

    /// Begin or end a fault in the tenant's own traffic: a rate burst
    /// divides the offered pace by its multiplier, corruption garbles that
    /// share of frames. Both travel with the task, so no placement cures
    /// them; every other kind strikes a core, a machine or a queue and is
    /// the driver's to map.
    pub fn traffic_fault(&mut self, kind: FaultKind, begin: bool) {
        match kind {
            FaultKind::RateBurst { multiplier } => {
                self.offered_pace = if begin {
                    (self.baseline_pace / multiplier.max(1) as u64).max(1)
                } else {
                    self.baseline_pace
                };
            }
            FaultKind::Corruption { per_mille } => {
                self.controls.corrupt_per_mille.set(if begin { per_mille } else { 0 });
            }
            other => panic!("{other:?} is not a traffic fault"),
        }
    }

    /// Whether the tenant is off every engine.
    pub fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Place the parked task on `core`, joining at the machine's clock,
    /// and re-anchor `processed` there.
    pub fn install(&mut self, engine: &mut Engine, core: CoreId) {
        let task = self.parked.take().expect("parked task present");
        engine.join_task(core, task);
        self.core = core;
        self.counter_base = core_packets(engine, core);
    }

    /// Fold the occupied core's retired packets since the last anchor
    /// into `processed` (nothing to fold while parked).
    pub fn flush(&mut self, engine: &Engine) {
        if self.parked.is_none() {
            let now = core_packets(engine, self.core);
            self.processed += now - self.counter_base;
            self.counter_base = now;
        }
    }

    /// Take the task off its engine through the counted drain path
    /// (in-flight pacing credit becomes `drained`) and keep the carcass.
    /// Nothing to do for a tenant already parked: a crashed machine's
    /// orphan is parked by the crash, then again by the controller's
    /// verdict on it.
    pub fn park(&mut self, engine: &mut Engine) {
        if self.parked.is_some() {
            return;
        }
        self.flush(engine);
        let mut task = engine.take_task(self.core).expect("running tenant");
        task.on_migrate();
        self.parked = Some(task);
    }

    /// Move the running task to the vacant core `to` of the same engine.
    pub fn migrate(&mut self, engine: &mut Engine, to: CoreId) {
        self.flush(engine);
        assert!(engine.migrate_task(self.core, to), "legal migration");
        self.core = to;
        self.counter_base = core_packets(engine, to);
    }

    /// One parked window: what the wire would have delivered at the
    /// offered pace (a line-rate tenant: at its probed capacity) is
    /// refused and ledgered as `drained` — chosen loss, never silent.
    pub fn refuse_window(&mut self, window: Cycles) {
        let refused = window
            .checked_div(self.offered_pace)
            .unwrap_or((window as f64 / self.cpp) as u64);
        let mut d = self.drops.borrow_mut();
        d.offered += refused;
        d.drained += refused;
    }

    /// The ledger as of the last [`flush`](Self::flush): drops, packets
    /// processed, and the conservation slack between them.
    pub fn ledger(&self) -> (DropStats, u64, i64) {
        let drops = *self.drops.borrow();
        (drops, self.processed, conservation_slack(&drops, self.processed))
    }
}
