//! Fault injection and first-class loss accounting (robustness PR).
//!
//! Every experiment before this module ran steady, well-behaved load
//! against a freshly calibrated model, and packet loss was invisible:
//! NIC pool exhaustion silently dropped, queue overflow bounced without
//! accounting. This module supplies the two primitives the degradation
//! control loop (pp-core `guard`) and the `repro chaos` sweep build on:
//!
//! * [`DropStats`] — the per-flow loss ledger. Each category corresponds
//!   to one place a packet can die in the datapath, and the conservation
//!   invariant `offered == delivered + total_dropped()` is what "zero
//!   silent loss" means: every packet the wire presented is either
//!   processed or counted in exactly one category.
//! * [`TaskControls`] — a shared control block of live knobs (offered-load
//!   pacing, per-turn stall, load shedding, corruption, batch override)
//!   that a flow task polls at the top of each turn. Every knob's idle
//!   state is zero, and **every hook is a host-side branch that charges
//!   nothing simulated when idle**, so a task with an untouched control
//!   block is bit-for-bit identical to one built before this module
//!   existed (the pinned `repro batch` digests enforce this).
//! * [`FaultPlan`] / [`FaultInjector`] — a deterministic, seeded script of
//!   disturbances on the *window* timeline. The injector resolves the
//!   plan once (applying seeded start jitter), and `advance(window)`
//!   reports which faults begin/end at each window as an append-only
//!   [`FaultTransition`] trace. Same plan + same seed ⇒ identical trace,
//!   which is what makes chaos runs replayable.
//!
//! The injector deliberately does **not** touch the machine itself: it is
//! a pure schedule. The chaos driver (pp-bench) maps each active
//! [`FaultKind`] onto the mechanism that realizes it — `TaskControls` for
//! rate/derate/corruption, [`NicQueue::seize_buffers`](crate::nic::NicQueue::seize_buffers)
//! for pool pressure, `SpscQueue::set_capacity_limit` (pp-click) for queue
//! pressure, `Engine::set_task`/`take_task` for competitor churn. Keeping
//! schedule and mechanism separate is what lets an empty plan prove
//! bit-for-bit equivalence: no mechanism is ever invoked.

use std::cell::Cell;
use std::rc::Rc;

/// Per-flow loss ledger: where every packet that did not make it died.
///
/// Threaded through the flow tasks as an `Rc<RefCell<DropStats>>` handle
/// (grab it with `drop_handle()` before boxing the task into the engine,
/// reset it after warmup — the same protocol as the latency histogram) and
/// surfaced on every `FlowResult` next to `LatencySummary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Packets the wire presented to the flow over the accounting period:
    /// every delivered packet plus every counted drop. The conservation
    /// invariant is `offered == delivered + total_dropped()`.
    pub offered: u64,
    /// Dropped because the NIC buffer pool was exhausted at receive
    /// (scalar `rx` returned `None`, or the undelivered tail of a cut
    /// `rx_batch`). Counted per packet.
    pub nic_rx_exhausted: u64,
    /// Dropped because the cross-core handoff queue was full (pipeline
    /// configuration; the rejected tail of a `push_burst`). Counted per
    /// packet.
    pub queue_full: u64,
    /// Dropped by an element verdict (`Action::Drop` — e.g. a corrupted
    /// header failing `CheckIpHeader`). These packets *were* delivered
    /// and processed; they are listed here so the ledger covers every
    /// loss path, but they are not part of the delivery shortfall.
    pub element_dropped: u64,
    /// Dropped at the wire because offered load (under pacing) exceeded
    /// the service rate for longer than the NIC ring could absorb.
    pub wire_overflow: u64,
    /// Deliberately dropped by the degradation ladder's shed policy
    /// before receive — explicit, counted load shedding.
    pub shed: u64,
    /// Dropped by the tenant supervisor's drain/evict actions: in-flight
    /// pacing credit forfeited when a flow migrates cores, and offered
    /// load refused while the admission circuit breaker is open. Chosen,
    /// counted loss — never silent.
    pub drained: u64,
}

impl DropStats {
    /// Sum of every drop category.
    pub fn total_dropped(&self) -> u64 {
        self.nic_rx_exhausted
            + self.queue_full
            + self.element_dropped
            + self.wire_overflow
            + self.shed
            + self.drained
    }

    /// Drops that happened *before* delivery — the categories that reduce
    /// the processed count (element drops happen after delivery).
    pub fn undelivered(&self) -> u64 {
        self.nic_rx_exhausted + self.queue_full + self.wire_overflow + self.shed + self.drained
    }

    /// Fraction of offered packets lost (0 when nothing was offered).
    pub fn loss_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.total_dropped() as f64 / self.offered as f64
        }
    }

    /// Whether any loss at all was recorded.
    pub fn any_loss(&self) -> bool {
        self.total_dropped() > 0
    }

    /// Reset every counter (the after-warmup protocol).
    pub fn reset(&mut self) {
        *self = DropStats::default();
    }
}

/// Live control block shared between a flow task and its operator (the
/// degradation ladder, the fault injector's mechanisms, or a test).
///
/// All knobs idle at zero; a task whose control block stays at zero takes
/// zero extra simulated charges — the hooks are plain host-side branches.
/// Clone the `Rc` with `controls_handle()` before boxing the task.
#[derive(Debug, Default)]
pub struct TaskControls {
    /// Offered-load pacing: simulated cycles between wire arrivals
    /// (0 = line rate, the default — the wire always has a packet).
    /// Arrivals accrue as credit while the task runs; credit beyond the
    /// NIC ring depth overflows and is counted as `wire_overflow`.
    pub pace_cycles: Cell<u64>,
    /// Core frequency derating: extra stall cycles charged per turn
    /// (0 = full speed). Models thermal/power capping by making every
    /// turn proportionally slower.
    pub stall_cycles: Cell<u64>,
    /// Load shedding: drop this many per mille of arrivals *before*
    /// receive, counted as `shed` (0 = off). Deterministic accumulator,
    /// no RNG: exactly n/1000 of packets shed in the long run.
    pub shed_per_mille: Cell<u16>,
    /// Packet corruption: flip an IPv4-header-checksum byte in this many
    /// per mille of generated packets (0 = off), exercising the
    /// `CheckIpHeader` drop path end to end. Deterministic accumulator.
    pub corrupt_per_mille: Cell<u16>,
    /// Batch-size override: when > 0 the task re-sizes itself to this
    /// batch at the top of its next turn (the ShrinkBatch rung of the
    /// degradation ladder acts through this without needing the boxed
    /// task back from the engine).
    pub batch_override: Cell<usize>,
}

impl TaskControls {
    /// A fresh all-idle control block behind a shared handle.
    pub fn new_handle() -> Rc<TaskControls> {
        Rc::new(TaskControls::default())
    }

    /// Whether any knob is active. Tasks use this as the single cheap
    /// top-of-turn check before looking at individual knobs.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.pace_cycles.get() != 0
            || self.stall_cycles.get() != 0
            || self.shed_per_mille.get() != 0
            || self.corrupt_per_mille.get() != 0
    }

    /// Reset every knob to its idle (zero) state.
    pub fn clear(&self) {
        self.pace_cycles.set(0);
        self.stall_cycles.set(0);
        self.shed_per_mille.set(0);
        self.corrupt_per_mille.set(0);
        self.batch_override.set(0);
    }
}

/// One kind of scripted disturbance. The injector only schedules these;
/// the chaos driver maps each onto its mechanism (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Traffic-rate burst: multiply the offered load by this factor
    /// (divides the baseline pace; requires the flow to be paced).
    RateBurst {
        /// Offered-load multiplier (≥ 1).
        multiplier: u32,
    },
    /// Flash-crowd churn: this many competitor flows arrive on
    /// neighbouring cores for the duration, then depart.
    CompetitorChurn {
        /// Number of competitor flows to spawn.
        competitors: u8,
    },
    /// Core frequency derating: charge this many extra stall cycles per
    /// task turn for the duration.
    FreqDerate {
        /// Extra stall cycles per turn.
        stall_cycles: u32,
    },
    /// Buffer-pool pressure: seize this many buffers from the NIC pool
    /// (they return when the fault ends).
    PoolPressure {
        /// Buffers to seize.
        seize: u32,
    },
    /// Handoff-queue pressure: cap the SPSC queue's effective capacity
    /// at this many slots for the duration.
    QueuePressure {
        /// Effective capacity during the fault.
        cap: u32,
    },
    /// Packet corruption: corrupt this many per mille of generated
    /// packets (header-checksum flip → `CheckIpHeader` drop).
    Corruption {
        /// Corruption rate in per mille.
        per_mille: u16,
    },
    /// Machine-level crash (cluster plans only; `target` carries the
    /// *machine* index, not a tenant slot). The machine stops serving at
    /// the event's start window and restarts — empty, clock frozen where
    /// it died — `restart_after` windows later. The cluster driver
    /// forfeits crash-orphaned in-flight load as counted `drained` loss,
    /// so the fleet-wide ledger still closes. Schedule via
    /// [`FaultPlan::with_machine_crash`], which keeps the interval and
    /// the field in lockstep.
    MachineCrash {
        /// Windows from crash to restart. Use a value past the end of the
        /// run for a machine that never comes back.
        restart_after: u32,
    },
    /// Socket-wide frequency derate (cluster plans; `target` = machine
    /// index): every task on the machine is charged this many extra
    /// stall cycles per turn, modelling a thermal cap or a sick VRM that
    /// hits the whole socket rather than one core.
    SocketDerate {
        /// Extra stall cycles per turn, applied to every resident task.
        stall_cycles: u32,
    },
    /// Control-plane loss (cluster plans; `target` = machine index): the
    /// machine's *telemetry channel* drops every report for the duration.
    /// The datapath is untouched — packets still flow; the controller
    /// just goes blind. Heartbeats are a separate path and keep flowing,
    /// so blindness must not be mistaken for death.
    TelemetryLoss,
    /// Control-plane lag (cluster plans; `target` = machine index): the
    /// machine's telemetry channel delays every report by this many
    /// windows. Again datapath-neutral — reports arrive intact, late.
    TelemetryDelay {
        /// Extra delivery delay in windows.
        windows: u32,
    },
}

impl FaultKind {
    /// Short display name for traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::RateBurst { .. } => "rate-burst",
            FaultKind::CompetitorChurn { .. } => "churn",
            FaultKind::FreqDerate { .. } => "freq-derate",
            FaultKind::PoolPressure { .. } => "pool-pressure",
            FaultKind::QueuePressure { .. } => "queue-pressure",
            FaultKind::Corruption { .. } => "corruption",
            FaultKind::MachineCrash { .. } => "machine-crash",
            FaultKind::SocketDerate { .. } => "socket-derate",
            FaultKind::TelemetryLoss => "telemetry-loss",
            FaultKind::TelemetryDelay { .. } => "telemetry-delay",
        }
    }
}

/// One scheduled disturbance: active on windows `[at, until)`, with the
/// start optionally jittered by up to `jitter` windows (seeded, resolved
/// once at injector construction; the interval length is preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// First window the fault is active (before jitter).
    pub at: u32,
    /// First window the fault is no longer active (before jitter).
    pub until: u32,
    /// Maximum seeded start jitter, in windows (0 = exact).
    pub jitter: u32,
    /// What happens.
    pub kind: FaultKind,
    /// Which tenant the fault targets: `None` hits the whole machine (the
    /// single-flow chaos semantics), `Some(t)` hits tenant slot `t` only.
    /// The fleet driver maps slots onto flows/cores; the injector itself
    /// only carries the tag.
    pub target: Option<u8>,
}

/// A deterministic, seeded schedule of disturbances on the window
/// timeline. An **empty plan is the bit-for-bit guarantee**: no event
/// ever activates, so no mechanism is ever invoked and the run is
/// byte-identical to one without an injector at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for start jitter (and any future randomized magnitudes).
    pub seed: u64,
    /// The scheduled events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: nothing ever happens.
    pub fn empty() -> Self {
        FaultPlan { seed: 0, events: Vec::new() }
    }

    /// A plan with the given seed and no events yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add an event active on windows `[at, until)` with no jitter.
    pub fn with(mut self, at: u32, until: u32, kind: FaultKind) -> Self {
        assert!(until > at, "fault interval must be non-empty");
        self.events.push(FaultEvent { at, until, jitter: 0, kind, target: None });
        self
    }

    /// Add an event whose start is jittered by up to `jitter` windows.
    pub fn with_jittered(mut self, at: u32, until: u32, jitter: u32, kind: FaultKind) -> Self {
        assert!(until > at, "fault interval must be non-empty");
        self.events.push(FaultEvent { at, until, jitter, kind, target: None });
        self
    }

    /// Add an event targeting tenant slot `target` only (no jitter). The
    /// multi-tenant chaos driver uses this to disturb one tenant while
    /// asserting its neighbours stay inside the interference bound.
    pub fn with_target(mut self, at: u32, until: u32, target: u8, kind: FaultKind) -> Self {
        assert!(until > at, "fault interval must be non-empty");
        self.events.push(FaultEvent { at, until, jitter: 0, kind, target: Some(target) });
        self
    }

    /// Add a machine crash beginning at window `at` on machine `machine`,
    /// restarting `restart_after` windows later. The event interval and
    /// the [`FaultKind::MachineCrash`] field are derived from the same
    /// argument so they cannot drift apart: the crash is active on
    /// `[at, at + restart_after)` and the machine serves again at
    /// `at + restart_after`.
    pub fn with_machine_crash(mut self, at: u32, restart_after: u32, machine: u8) -> Self {
        assert!(restart_after > 0, "crash downtime must be non-empty");
        self.events.push(FaultEvent {
            at,
            until: at.saturating_add(restart_after),
            jitter: 0,
            kind: FaultKind::MachineCrash { restart_after },
            target: Some(machine),
        });
        self
    }

    /// The first window at which no event is active any more (0 for an
    /// empty plan) — chaos drivers size their recovery phase from this.
    pub fn last_window(&self) -> u32 {
        self.events.iter().map(|e| e.until + e.jitter).max().unwrap_or(0)
    }
}

/// One entry of the injector's event trace: fault `event` (index into the
/// plan) began or ended at `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTransition {
    /// The window at which the transition fires.
    pub window: u32,
    /// Index of the event in the plan.
    pub event: usize,
    /// The fault.
    pub kind: FaultKind,
    /// The tenant slot the fault targets (`None` = machine-wide).
    pub target: Option<u8>,
    /// `true` = the fault begins at this window, `false` = it ends.
    pub begin: bool,
}

/// SplitMix64 — the one-liner PRNG the workspace uses for seed
/// derivation (same constants as `pp-core`'s `flow_seed`).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes a [`FaultPlan`]: resolves seeded jitter once at construction,
/// then reports begin/end transitions window by window, accumulating the
/// deterministic event trace. Same plan ⇒ same resolved schedule ⇒ same
/// trace, always.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Resolved activation intervals, parallel to `plan.events`.
    resolved: Vec<(u32, u32)>,
    plan: FaultPlan,
    /// Next window `advance` expects (transitions are emitted in window
    /// order; skipping windows emits the skipped transitions too).
    next_window: u32,
    trace: Vec<FaultTransition>,
}

impl FaultInjector {
    /// Resolve a plan into an executable schedule.
    pub fn new(plan: FaultPlan) -> Self {
        let resolved = plan
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let shift = if e.jitter == 0 {
                    0
                } else {
                    (splitmix64(plan.seed ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
                        % (e.jitter as u64 + 1)) as u32
                };
                (e.at + shift, e.until + shift)
            })
            .collect();
        FaultInjector { resolved, plan, next_window: 0, trace: Vec::new() }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advance to `window` (inclusive), appending every begin/end
    /// transition in `(next_window..=window)` to the trace. Returns the
    /// newly appended transitions. Calling with a window already passed
    /// returns an empty slice.
    pub fn advance(&mut self, window: u32) -> &[FaultTransition] {
        let first_new = self.trace.len();
        while self.next_window <= window {
            let w = self.next_window;
            for (i, &(start, end)) in self.resolved.iter().enumerate() {
                if start == w {
                    self.trace.push(FaultTransition {
                        window: w,
                        event: i,
                        kind: self.plan.events[i].kind,
                        target: self.plan.events[i].target,
                        begin: true,
                    });
                }
                if end == w {
                    self.trace.push(FaultTransition {
                        window: w,
                        event: i,
                        kind: self.plan.events[i].kind,
                        target: self.plan.events[i].target,
                        begin: false,
                    });
                }
            }
            self.next_window += 1;
        }
        &self.trace[first_new..]
    }

    /// The faults active at `window` (after jitter resolution).
    pub fn active_at(&self, window: u32) -> impl Iterator<Item = FaultKind> + '_ {
        self.resolved
            .iter()
            .zip(self.plan.events.iter())
            .filter(move |(&(start, end), _)| start <= window && window < end)
            .map(|(_, e)| e.kind)
    }

    /// The faults active at `window` that apply to tenant slot `tenant`:
    /// machine-wide events (no target) plus events targeting exactly that
    /// slot.
    pub fn active_for(&self, window: u32, tenant: u8) -> impl Iterator<Item = FaultKind> + '_ {
        self.resolved
            .iter()
            .zip(self.plan.events.iter())
            .filter(move |(&(start, end), e)| {
                start <= window && window < end && e.target.is_none_or(|t| t == tenant)
            })
            .map(|(_, e)| e.kind)
    }

    /// The full event trace so far (append-only, window-ordered).
    pub fn trace(&self) -> &[FaultTransition] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_stats_conservation_helpers() {
        let d = DropStats {
            offered: 100,
            nic_rx_exhausted: 5,
            queue_full: 3,
            element_dropped: 2,
            wire_overflow: 1,
            shed: 3,
            drained: 1,
        };
        assert_eq!(d.total_dropped(), 15);
        assert_eq!(d.undelivered(), 13);
        assert!((d.loss_frac() - 0.15).abs() < 1e-12);
        assert!(d.any_loss());
        let mut d2 = d;
        d2.reset();
        assert_eq!(d2, DropStats::default());
        assert!(!d2.any_loss());
        assert_eq!(d2.loss_frac(), 0.0);
    }

    #[test]
    fn idle_controls_report_inactive() {
        let c = TaskControls::new_handle();
        assert!(!c.is_active());
        c.pace_cycles.set(100);
        assert!(c.is_active());
        c.clear();
        assert!(!c.is_active());
        // batch_override alone does not make the per-packet hooks active.
        c.batch_override.set(8);
        assert!(!c.is_active());
    }

    #[test]
    fn empty_plan_never_transitions() {
        let mut inj = FaultInjector::new(FaultPlan::empty());
        assert!(inj.plan().is_empty());
        assert_eq!(inj.plan().last_window(), 0);
        inj.advance(1000);
        assert!(inj.trace().is_empty());
        assert_eq!(inj.active_at(5).count(), 0);
    }

    #[test]
    fn transitions_fire_at_interval_edges() {
        let plan = FaultPlan::seeded(7)
            .with(2, 5, FaultKind::FreqDerate { stall_cycles: 100 })
            .with(4, 6, FaultKind::Corruption { per_mille: 50 });
        let mut inj = FaultInjector::new(plan);
        assert!(inj.advance(1).is_empty());
        let t = inj.advance(2);
        assert_eq!(t.len(), 1);
        assert!(t[0].begin && t[0].event == 0 && t[0].window == 2);
        assert_eq!(inj.active_at(2).count(), 1);
        assert_eq!(inj.active_at(4).count(), 2);
        let t = inj.advance(6).to_vec();
        // window 4: event 1 begins; window 5: event 0 ends; window 6: event 1 ends.
        assert_eq!(
            t,
            vec![
                FaultTransition {
                    window: 4,
                    event: 1,
                    kind: FaultKind::Corruption { per_mille: 50 },
                    target: None,
                    begin: true
                },
                FaultTransition {
                    window: 5,
                    event: 0,
                    kind: FaultKind::FreqDerate { stall_cycles: 100 },
                    target: None,
                    begin: false
                },
                FaultTransition {
                    window: 6,
                    event: 1,
                    kind: FaultKind::Corruption { per_mille: 50 },
                    target: None,
                    begin: false
                },
            ]
        );
        assert_eq!(inj.active_at(6).count(), 0);
        // Re-advancing a passed window yields nothing new.
        assert!(inj.advance(6).is_empty());
    }

    #[test]
    fn same_seed_resolves_the_same_jitter() {
        let plan = FaultPlan::seeded(99).with_jittered(
            10,
            20,
            4,
            FaultKind::PoolPressure { seize: 100 },
        );
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan.clone());
        assert_eq!(a.resolved, b.resolved);
        let (start, end) = a.resolved[0];
        assert!((10..=14).contains(&start), "jitter in bounds: {start}");
        assert_eq!(end - start, 10, "interval length preserved");
        // A different seed may (and here does) resolve differently.
        let c = FaultInjector::new(FaultPlan { seed: 100, ..plan });
        assert_eq!(c.resolved[0].1 - c.resolved[0].0, 10);
    }

    #[test]
    fn targeted_events_hit_only_their_tenant() {
        let plan = FaultPlan::seeded(11)
            .with(2, 6, FaultKind::FreqDerate { stall_cycles: 50 })
            .with_target(3, 5, 1, FaultKind::RateBurst { multiplier: 8 });
        let mut inj = FaultInjector::new(plan);
        // Machine-wide event applies to every slot; the targeted one only
        // to tenant 1.
        assert_eq!(inj.active_for(3, 0).count(), 1);
        assert_eq!(inj.active_for(3, 1).count(), 2);
        assert_eq!(inj.active_for(3, 2).count(), 1);
        // active_at still reports both (slot-blind view).
        assert_eq!(inj.active_at(3).count(), 2);
        // The trace carries the target tag through.
        let t = inj.advance(6).to_vec();
        let targeted: Vec<_> = t.iter().filter(|tr| tr.target == Some(1)).collect();
        assert_eq!(targeted.len(), 2, "begin + end of the targeted event");
        assert!(targeted[0].begin && !targeted[1].begin);
    }

    #[test]
    fn advancing_in_one_jump_equals_stepping() {
        let plan = FaultPlan::seeded(3)
            .with(1, 3, FaultKind::RateBurst { multiplier: 4 })
            .with_jittered(2, 8, 3, FaultKind::CompetitorChurn { competitors: 2 });
        let mut stepped = FaultInjector::new(plan.clone());
        for w in 0..12 {
            stepped.advance(w);
        }
        let mut jumped = FaultInjector::new(plan);
        jumped.advance(11);
        assert_eq!(stepped.trace(), jumped.trace());
    }
}
