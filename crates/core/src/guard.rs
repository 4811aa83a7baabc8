//! Windowed runtime guard: detect model drift, degrade gracefully, climb
//! back.
//!
//! The prediction machinery (profiles → [`Predictor`](crate::predictor) →
//! [`BatchController`](crate::batch_control)) promises an *envelope*:
//! at least this much throughput, at most this much tail latency, at most
//! this much loss. PRs 4–5 only ever checked the promise once, right after
//! calibration, against the same steady load the model was fitted on. The
//! guard closes the loop at run time: every measurement window it compares
//! what actually happened ([`WindowObservation`]) against the envelope
//! ([`GuardEnvelope`]) and, on *sustained* violation, walks a
//! hysteresis-protected **degradation ladder**:
//!
//! 1. [`DegradeLevel::Reprobe`] — the model may merely be stale: request a
//!    re-probe (with exponential backoff between retries, so a persistent
//!    disturbance does not drown the system in calibration work);
//! 2. [`DegradeLevel::ShrinkBatch`] — trade throughput for tail latency by
//!    re-sizing the live flow down the
//!    [`BatchController`](crate::batch_control)'s candidate ladder;
//! 3. [`DegradeLevel::Throttle`] — pace the offered load below capacity
//!    (lossless backpressure: what is left when
//!    [`BatchChoice::feasible`](crate::batch_control::BatchChoice::feasible)
//!    is `false` and no batch size can meet the budget);
//! 4. [`DegradeLevel::Shed`] — explicitly drop a fraction of arrivals at
//!    the wire, the last resort: loss, but *counted, bounded, and chosen*,
//!    never silent.
//!
//! Hysteresis works in both directions: it takes
//! [`GuardConfig::VIOLATIONS_TO_DEGRADE`] consecutive bad windows to step
//! down a rung and [`GuardConfig::CLEAN_TO_RECOVER`] consecutive good ones
//! to step back up, so a single noisy window can neither trigger
//! degradation nor abort it. The guard itself is pure decision logic — it
//! never touches the machine;
//! [`TenantRt::apply_ladder`](crate::tenant::TenantRt::apply_ladder) maps
//! each level onto the task's live knobs. That separation keeps it
//! unit-testable as a state machine and reusable by the supervisor and
//! the fleet controller.

use std::collections::VecDeque;
use std::fmt;

/// Capacity of the guard's transition history ring. Long-running
/// supervisors observe unboundedly many windows; the trace keeps the most
/// recent moves only (with [`RuntimeGuard::transitions_recorded`] counting
/// every move ever made), so memory stays O(1) per tenant.
pub const TRANSITION_CAP: usize = 256;

/// The predictor's promise for one flow: the bounds a healthy window must
/// stay inside.
#[derive(Debug, Clone, Copy)]
pub struct GuardEnvelope {
    /// Minimum acceptable delivered throughput, packets/sec.
    pub min_pps: f64,
    /// Maximum acceptable p99 residence time, microseconds.
    pub max_p99_us: f64,
    /// Maximum acceptable loss fraction (drops / offered).
    pub max_loss_frac: f64,
}

impl GuardEnvelope {
    /// The first envelope dimension `o` violates, if any.
    pub fn violation(&self, o: &WindowObservation) -> Option<&'static str> {
        if o.loss_frac > self.max_loss_frac {
            Some("loss")
        } else if o.pps < self.min_pps {
            Some("throughput")
        } else if o.p99_us > self.max_p99_us {
            Some("p99")
        } else {
            None
        }
    }
}

/// What one measurement window actually delivered.
#[derive(Debug, Clone, Copy)]
pub struct WindowObservation {
    /// Delivered throughput over the window, packets/sec.
    pub pps: f64,
    /// p99 residence time over the window, microseconds.
    pub p99_us: f64,
    /// Loss fraction over the window (drops / offered).
    pub loss_frac: f64,
}

/// Guard tuning. Every value is a constant; the type stays so that
/// [`RuntimeGuard::new`] keeps its signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardConfig;

impl GuardConfig {
    /// Consecutive violating windows before stepping down one rung.
    pub const VIOLATIONS_TO_DEGRADE: u32 = 2;
    /// Consecutive clean windows before stepping back up one rung.
    pub const CLEAN_TO_RECOVER: u32 = 3;
    /// Windows idled after the first re-probe before the second: probes
    /// go out `BACKOFF_BASE + 1` windows apart, then the idle doubles.
    pub const BACKOFF_BASE: u32 = 1;
    /// Ceiling on the idle between re-probes (gaps of 2, 3, 5, 9, 9, …).
    pub const BACKOFF_MAX: u32 = 8;
}

/// A hysteresis counter: consecutive hits toward a fixed threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Streak {
    count: u32,
    need: u32,
}

impl Streak {
    /// An empty streak that is full after `need` consecutive hits.
    pub(crate) const fn new(need: u32) -> Self {
        Streak { count: 0, need }
    }

    /// Count a hit, or restart on a miss; whether the streak is now full.
    pub(crate) fn push(&mut self, hit: bool) -> bool {
        self.count = if hit { self.count + 1 } else { 0 };
        self.full()
    }

    /// Whether at least `need` consecutive hits have been pushed.
    pub(crate) fn full(&self) -> bool {
        self.count >= self.need
    }

    /// Start counting from zero.
    pub(crate) fn reset(&mut self) {
        self.count = 0;
    }
}

/// A capped doubling delay: each [`take`](Self::take) returns the current
/// delay and doubles the next one, up to the cap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Backoff {
    base: u32,
    max: u32,
    next: u32,
}

impl Backoff {
    /// A schedule of `base`, `2·base`, `4·base`, … capped at `max`.
    pub(crate) const fn new(base: u32, max: u32) -> Self {
        Backoff { base, max, next: base }
    }

    /// The current delay; the next one doubles, capped.
    pub(crate) fn take(&mut self) -> u32 {
        let delay = self.next;
        self.next = (delay * 2).min(self.max);
        delay
    }

    /// Restart the schedule at `base`.
    pub(crate) fn reset(&mut self) {
        self.next = self.base;
    }
}

/// The degradation ladder, from healthy to last-resort. Ordered:
/// `Normal < Reprobe < ShrinkBatch < Throttle < Shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Inside the envelope; no intervention.
    Normal,
    /// Re-probe the model (retry with exponential backoff).
    Reprobe,
    /// Shrink the batch via the batch controller's candidate ladder.
    ShrinkBatch,
    /// Pace offered load below capacity (lossless backpressure).
    Throttle,
    /// Shed a fraction of load at the wire (explicit, counted drops).
    Shed,
}

impl DegradeLevel {
    /// One rung further down the ladder (saturates at [`Shed`](Self::Shed)).
    pub fn degrade(self) -> Self {
        match self {
            DegradeLevel::Normal => DegradeLevel::Reprobe,
            DegradeLevel::Reprobe => DegradeLevel::ShrinkBatch,
            DegradeLevel::ShrinkBatch => DegradeLevel::Throttle,
            DegradeLevel::Throttle | DegradeLevel::Shed => DegradeLevel::Shed,
        }
    }

    /// One rung back up (saturates at [`Normal`](Self::Normal)).
    pub fn recover(self) -> Self {
        match self {
            DegradeLevel::Shed => DegradeLevel::Throttle,
            DegradeLevel::Throttle => DegradeLevel::ShrinkBatch,
            DegradeLevel::ShrinkBatch => DegradeLevel::Reprobe,
            DegradeLevel::Reprobe | DegradeLevel::Normal => DegradeLevel::Normal,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::Reprobe => "reprobe",
            DegradeLevel::ShrinkBatch => "shrink-batch",
            DegradeLevel::Throttle => "throttle",
            DegradeLevel::Shed => "shed",
        }
    }
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded ladder move: at window `window` the guard moved `from` →
/// `to` because of `cause` (an envelope dimension, or "recovered").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardTransition {
    /// Window index (counted from the guard's first observation).
    pub window: u32,
    /// Level before the move.
    pub from: DegradeLevel,
    /// Level after the move.
    pub to: DegradeLevel,
    /// Why: the violated envelope dimension, or "recovered".
    pub cause: &'static str,
}

/// What the guard wants done after a window.
#[derive(Debug, Clone, Copy)]
pub struct GuardDirective {
    /// The ladder level now in force.
    pub level: DegradeLevel,
    /// Whether to re-probe the model *this* window (subject to the
    /// exponential-backoff schedule while degradation persists).
    pub reprobe_now: bool,
    /// Whether `level` changed at this observation.
    pub changed: bool,
}

/// The windowed runtime guard. Feed it one [`WindowObservation`] per
/// measurement window; it answers with the ladder level to enforce.
#[derive(Debug, Clone)]
pub struct RuntimeGuard {
    envelope: GuardEnvelope,
    level: DegradeLevel,
    violations: Streak,
    cleans: Streak,
    /// Re-probe idle schedule (doubles per retry).
    backoff: Backoff,
    /// Windows until the next re-probe is allowed while degraded.
    cooldown: u32,
    window: u32,
    /// Most recent ladder moves, capped at [`TRANSITION_CAP`] (ring).
    transitions: VecDeque<GuardTransition>,
    /// Every ladder move ever made, including evicted ring entries.
    transitions_recorded: u64,
}

impl RuntimeGuard {
    /// A guard holding `envelope`, with [`GuardConfig`]'s hysteresis.
    pub fn new(envelope: GuardEnvelope, _: GuardConfig) -> Self {
        RuntimeGuard {
            envelope,
            level: DegradeLevel::Normal,
            violations: Streak::new(GuardConfig::VIOLATIONS_TO_DEGRADE),
            cleans: Streak::new(GuardConfig::CLEAN_TO_RECOVER),
            backoff: Backoff::new(GuardConfig::BACKOFF_BASE, GuardConfig::BACKOFF_MAX),
            cooldown: 0,
            window: 0,
            transitions: VecDeque::new(),
            transitions_recorded: 0,
        }
    }

    /// The envelope currently enforced.
    pub fn envelope(&self) -> &GuardEnvelope {
        &self.envelope
    }

    /// Replace the envelope (after a re-probe refits the model to the new
    /// operating point). Resets both hysteresis streaks: windows judged
    /// against the *old* envelope must not count toward a move under the
    /// new one — a mid-run refit would otherwise let one stale violating
    /// window plus one fresh one trip a rung the new envelope never saw
    /// two bad windows of.
    pub fn set_envelope(&mut self, envelope: GuardEnvelope) {
        self.envelope = envelope;
        self.violations.reset();
        self.cleans.reset();
    }

    /// The ladder level currently in force.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// The most recent ladder moves, in order (ring-capped at
    /// [`TRANSITION_CAP`]; see [`transitions_recorded`](Self::transitions_recorded)
    /// for the lifetime total).
    pub fn transitions(&self) -> &VecDeque<GuardTransition> {
        &self.transitions
    }

    /// Every ladder move ever made, including ones the ring has evicted.
    pub fn transitions_recorded(&self) -> u64 {
        self.transitions_recorded
    }

    /// Return the guard to a fresh `Normal` state: streaks, backoff, and
    /// re-probe cooldown cleared, window counter and transition trace
    /// kept. The supervisor uses this when a tenant's placement changes
    /// (migration, eviction, breaker close) — history accrued on the old
    /// placement must not bias the new one.
    pub fn reset(&mut self) {
        self.level = DegradeLevel::Normal;
        self.violations.reset();
        self.cleans.reset();
        self.backoff.reset();
        self.cooldown = 0;
    }

    fn push_transition(&mut self, t: GuardTransition) {
        if self.transitions.len() == TRANSITION_CAP {
            self.transitions.pop_front();
        }
        self.transitions.push_back(t);
        self.transitions_recorded += 1;
    }

    /// Feed one window's measurement; returns the directive to enforce
    /// until the next window.
    pub fn observe(&mut self, o: &WindowObservation) -> GuardDirective {
        let w = self.window;
        self.window += 1;
        // Both streaks count on every window, also at Shed / Normal where
        // they cannot fire: the rung saturates instead.
        let cause = self.envelope.violation(o);
        self.violations.push(cause.is_some());
        self.cleans.push(cause.is_none());
        let to = match cause {
            Some(_) if self.violations.full() => self.level.degrade(),
            None if self.cleans.full() => self.level.recover(),
            _ => self.level,
        };
        let changed = to != self.level;
        if changed {
            self.violations.reset();
            self.cleans.reset();
            let cause = cause.unwrap_or("recovered");
            self.push_transition(GuardTransition { window: w, from: self.level, to, cause });
            self.level = to;
        }
        // Re-probe scheduling: while any degradation is in force, probe,
        // then idle on the backoff clock (base, 2×base, … capped at
        // BACKOFF_MAX windows). Full recovery resets the schedule.
        let mut reprobe_now = false;
        if self.level == DegradeLevel::Normal {
            self.backoff.reset();
            self.cooldown = 0;
        } else if self.cooldown == 0 {
            reprobe_now = true;
            self.cooldown = self.backoff.take();
        } else {
            self.cooldown -= 1;
        }
        GuardDirective { level: self.level, reprobe_now, changed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope() -> GuardEnvelope {
        GuardEnvelope { min_pps: 1_000_000.0, max_p99_us: 100.0, max_loss_frac: 0.005 }
    }

    fn good() -> WindowObservation {
        WindowObservation { pps: 2_000_000.0, p99_us: 40.0, loss_frac: 0.0 }
    }

    fn bad() -> WindowObservation {
        WindowObservation { pps: 400_000.0, p99_us: 40.0, loss_frac: 0.0 }
    }

    #[test]
    fn one_bad_window_does_not_degrade() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        let d = g.observe(&bad());
        assert_eq!(d.level, DegradeLevel::Normal);
        assert!(!d.changed);
        // A clean window resets the streak; another single violation still
        // does not trip the ladder.
        g.observe(&good());
        let d = g.observe(&bad());
        assert_eq!(d.level, DegradeLevel::Normal, "hysteresis holds");
        assert!(g.transitions().is_empty());
    }

    #[test]
    fn sustained_violation_walks_the_whole_ladder_and_back() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        let mut seen = vec![g.level()];
        for _ in 0..10 {
            let d = g.observe(&bad());
            if d.changed {
                seen.push(d.level);
            }
        }
        assert_eq!(
            seen,
            vec![
                DegradeLevel::Normal,
                DegradeLevel::Reprobe,
                DegradeLevel::ShrinkBatch,
                DegradeLevel::Throttle,
                DegradeLevel::Shed,
            ],
            "every second bad window steps one rung down, saturating at Shed"
        );
        // Recovery: every third clean window climbs one rung.
        let mut climb = Vec::new();
        for _ in 0..12 {
            let d = g.observe(&good());
            if d.changed {
                climb.push(d.level);
            }
        }
        assert_eq!(
            climb,
            vec![
                DegradeLevel::Throttle,
                DegradeLevel::ShrinkBatch,
                DegradeLevel::Reprobe,
                DegradeLevel::Normal,
            ]
        );
        assert_eq!(g.level(), DegradeLevel::Normal);
        // The trace names the violated dimension and the recovery.
        assert!(g.transitions().iter().take(4).all(|t| t.cause == "throughput"));
        assert!(g.transitions().iter().skip(4).all(|t| t.cause == "recovered"));
    }

    #[test]
    fn loss_dominates_the_violation_report() {
        let g = RuntimeGuard::new(envelope(), GuardConfig);
        let o = WindowObservation { pps: 1.0, p99_us: 1e9, loss_frac: 1.0 };
        assert_eq!(g.envelope().violation(&o), Some("loss"));
        let o = WindowObservation { pps: 1.0, p99_us: 1e9, loss_frac: 0.0 };
        assert_eq!(g.envelope().violation(&o), Some("throughput"));
        let o = WindowObservation { pps: 2e6, p99_us: 1e9, loss_frac: 0.0 };
        assert_eq!(g.envelope().violation(&o), Some("p99"));
        assert_eq!(g.envelope().violation(&good()), None);
    }

    #[test]
    fn reprobe_retries_follow_exponential_backoff() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        let mut reprobe_windows = Vec::new();
        for w in 0..25u32 {
            let d = g.observe(&bad());
            if d.reprobe_now {
                reprobe_windows.push(w);
            }
        }
        // First reprobe when degradation engages (window 1: second bad
        // window), then idles of 1, 2, 4, 8, 8 … windows (base 1, cap 8).
        let gaps: Vec<u32> =
            reprobe_windows.windows(2).map(|p| p[1] - p[0]).collect();
        assert_eq!(reprobe_windows[0], 1, "first reprobe at the first degrade");
        assert_eq!(&gaps[..4], &[2, 3, 5, 9], "doubling backoff (gap = backoff+1)");
        // Recovery resets the schedule.
        for _ in 0..20 {
            g.observe(&good());
        }
        assert_eq!(g.level(), DegradeLevel::Normal);
        let d1 = g.observe(&bad());
        assert!(!d1.reprobe_now, "still Normal: no probe");
        let d2 = g.observe(&bad());
        assert!(d2.reprobe_now, "fresh degradation probes immediately again");
    }

    #[test]
    fn set_envelope_mid_run_resets_hysteresis_counters() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        // One violating window: streak at 1, one short of a degrade.
        g.observe(&bad());
        assert_eq!(g.level(), DegradeLevel::Normal);
        // Refit mid-run. The stale violating window must not carry over.
        g.set_envelope(envelope());
        let d = g.observe(&bad());
        assert_eq!(d.level, DegradeLevel::Normal, "streak restarted at the refit");
        assert!(!d.changed);
        // The *next* violating window (two post-refit) does degrade.
        let d = g.observe(&bad());
        assert_eq!(d.level, DegradeLevel::Reprobe);
        // Same for the clean streak: two clean windows, refit, then the
        // recovery count restarts from zero.
        g.observe(&good());
        g.observe(&good());
        g.set_envelope(envelope());
        g.observe(&good());
        g.observe(&good());
        assert_eq!(g.level(), DegradeLevel::Reprobe, "2 clean post-refit: no recovery yet");
        let d = g.observe(&good());
        assert!(d.changed && d.level == DegradeLevel::Normal);
    }

    #[test]
    fn recovery_from_shed_walks_every_rung() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        for _ in 0..8 {
            g.observe(&bad());
        }
        assert_eq!(g.level(), DegradeLevel::Shed);
        // Climb back: each recovery transition must be exactly one rung,
        // visiting Throttle, ShrinkBatch, and Reprobe on the way to Normal
        // — never skipping straight home.
        let mut rungs = Vec::new();
        for _ in 0..12 {
            let d = g.observe(&good());
            if d.changed {
                rungs.push(d.level);
            }
        }
        assert_eq!(
            rungs,
            vec![
                DegradeLevel::Throttle,
                DegradeLevel::ShrinkBatch,
                DegradeLevel::Reprobe,
                DegradeLevel::Normal,
            ],
            "no rung skipped on the way up"
        );
        for pair in g.transitions().iter().collect::<Vec<_>>().windows(2) {
            assert_eq!(pair[0].to, pair[1].from, "trace is a connected walk");
        }
    }

    #[test]
    fn transition_history_is_ring_capped() {
        // Alternate 2-bad / 3-good forever: every cycle records two moves
        // (down one rung, back up). Run enough cycles to overflow the ring.
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        let cycles = (TRANSITION_CAP as u32 / 2) + 40;
        for _ in 0..cycles {
            for _ in 0..2 {
                g.observe(&bad());
            }
            for _ in 0..3 {
                g.observe(&good());
            }
        }
        assert_eq!(g.transitions().len(), TRANSITION_CAP, "ring is full, not growing");
        assert_eq!(g.transitions_recorded(), 2 * cycles as u64, "lifetime count keeps going");
        // The ring holds the *most recent* moves: its first entry is later
        // than the evicted prefix.
        let dropped = g.transitions_recorded() as usize - g.transitions().len();
        assert!(g.transitions()[0].window > dropped as u32);
    }

    #[test]
    fn reset_returns_to_fresh_normal() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        for _ in 0..8 {
            g.observe(&bad());
        }
        assert_eq!(g.level(), DegradeLevel::Shed);
        let recorded = g.transitions_recorded();
        g.reset();
        assert_eq!(g.level(), DegradeLevel::Normal);
        assert_eq!(g.transitions_recorded(), recorded, "trace survives a reset");
        // Hysteresis is fresh: one bad window does not degrade, and the
        // backoff schedule restarts from base (probe fires at first
        // degrade, exactly like a new guard).
        let d = g.observe(&bad());
        assert_eq!(d.level, DegradeLevel::Normal);
        assert!(!d.reprobe_now);
        let d = g.observe(&bad());
        assert_eq!(d.level, DegradeLevel::Reprobe);
        assert!(d.reprobe_now, "backoff schedule restarted from base");
    }

    #[test]
    fn envelope_can_be_refit_after_a_probe() {
        let mut g = RuntimeGuard::new(envelope(), GuardConfig);
        for _ in 0..2 {
            g.observe(&bad());
        }
        assert_eq!(g.level(), DegradeLevel::Reprobe);
        // The probe discovers the world really did change: accept the new
        // operating point, and the same observation is now clean.
        g.set_envelope(GuardEnvelope { min_pps: 300_000.0, ..envelope() });
        for _ in 0..3 {
            g.observe(&bad());
        }
        assert_eq!(g.level(), DegradeLevel::Normal, "recovered under the refit envelope");
    }
}
