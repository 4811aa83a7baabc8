//! The tenant supervisor: per-flow SLA guards composed into a
//! machine-level control plane — circuit-breaker admission, core
//! failover, and drift-triggered re-calibration.
//!
//! PR 6's [`RuntimeGuard`] keeps *one* flow
//! inside its envelope by degrading in place. Under co-location that is
//! not enough: a tenant pinned at the Shed rung is burning a core to
//! deliver a trickle, a tenant whose core is sick (thermal derate, noisy
//! sibling) would be healthy anywhere else, and a tenant whose *model* is
//! stale looks violated when the world merely changed. The supervisor
//! owns one guard per admitted tenant and closes the loop across them
//! with three mechanisms, all pure decision logic (the fleet-chaos driver
//! in pp-bench maps decisions onto [`TenantRt`](crate::tenant::TenantRt)
//! calls — the same schedule/mechanism split as the guard and the fault
//! injector):
//!
//! 1. **Circuit-breaker admission.** A tenant whose guard bottoms out at
//!    [`DegradeLevel::Shed`] for [`SupervisorConfig::SHED_WINDOWS_TO_TRIP`]
//!    consecutive windows trips the breaker **open**: the tenant is
//!    evicted (its offered load refused as counted `drained` loss) and
//!    re-admission retries on capped exponential backoff with seeded
//!    jitter. Each retry is a **half-open probe**: exactly one trial
//!    window at normal service. A clean trial closes the breaker
//!    (backoff resets to base); a violating trial re-opens it with the
//!    delay doubled, capped at [`SupervisorConfig::BREAKER_BACKOFF_MAX`].
//! 2. **Core failover.** Sustained violation at or past
//!    [`SupervisorConfig::MIGRATE_LEVEL`] — before the breaker would trip
//!    — with a healthy sibling core available migrates the tenant: drain
//!    in-flight state through counted drop paths, re-probe on the new
//!    placement, resume. A per-tenant
//!    [`SupervisorConfig::MIGRATION_BUDGET`] stops a flapping tenant from
//!    ping-ponging between cores; once spent, the ladder (and ultimately
//!    the breaker) take over.
//! 3. **Drift-triggered re-calibration.** On *clean, non-fault* windows
//!    the supervisor compares measured pps against the model reference
//!    (`BatchController::predicted_pps` or the calibrated window rate).
//!    Sustained divergence beyond [`SupervisorConfig::DRIFT_TOLERANCE`]
//!    marks the model **stale** and requests a re-fit — the envelope is
//!    wrong, not the tenant, and degrading on a lie wastes capacity.
//!
//! **Composition rules** (non-stacking, in the PR 6 tradition): a
//! migration *resets* the tenant's guard — ladder state accrued on the
//! old placement must not follow the tenant to a core where the
//! violation's cause is gone. In particular migration must not race the
//! ShrinkBatch rung: the driver re-probes batch size on the new placement
//! *after* the move, never carrying a shrunk batch across as if the old
//! core's contention came along. Likewise an eviction resets the guard —
//! a closed breaker re-admits at Normal, not at the rung that tripped it.
//! Breaker, migration, and drift are mutually exclusive per window, in
//! that priority order: trip beats migrate (a tenant at Shed long enough
//! to trip is past saving by a move), and drift is only ever diagnosed on
//! clean windows, where neither applies.

use crate::batch_control::SocketPlan;
use crate::guard::{
    Backoff, DegradeLevel, GuardConfig, GuardEnvelope, RuntimeGuard, Streak, WindowObservation,
};
use crate::workload::FlowType;

/// Identifies one tenant within a [`Supervisor`] (dense index, assigned
/// at admission in call order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantId(pub usize);

/// Where a tenant stands with the admission circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Breaker closed: the tenant runs, its guard enforces the ladder.
    Admitted,
    /// Breaker open: the tenant is evicted; `windows_left` windows remain
    /// until the next half-open probe.
    Open {
        /// Windows until the next half-open probe is granted.
        windows_left: u32,
    },
    /// Half-open: the tenant is running one trial window; the next
    /// observation closes or re-opens the breaker.
    HalfOpen,
}

/// What the supervisor wants done with one tenant after a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorAction {
    /// Keep running; enforce the directive's ladder level.
    Continue,
    /// Move the tenant to a healthy sibling core (drain → re-probe →
    /// resume). The guard has been reset; the driver performs the move.
    Migrate,
    /// Evict the tenant (breaker open). Refuse its offered load as
    /// counted loss; retry in `retry_in` windows.
    Evict {
        /// Windows until the next half-open probe.
        retry_in: u32,
    },
    /// The backoff expired: grant one half-open trial window. The driver
    /// re-admits the tenant at normal service for exactly one window.
    Probe,
    /// The half-open trial was clean: the breaker closed and the tenant
    /// is re-admitted at Normal.
    Readmit,
    /// Clean windows diverge from the model: it is stale. Re-fit from
    /// fresh probes and call [`Supervisor::set_model`]; do not degrade.
    Recalibrate,
}

/// One tenant's per-window directive.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorDirective {
    /// The cross-tenant decision (see [`SupervisorAction`]).
    pub action: SupervisorAction,
    /// The ladder level to enforce while the tenant runs.
    pub level: DegradeLevel,
    /// The guard's re-probe schedule (meaningful only for `Continue`).
    pub reprobe_now: bool,
}

/// Supervisor tuning. The guard's hysteresis is [`GuardConfig`]'s; the
/// breaker, migration and drift constants layer on top without changing
/// it. The jitter seed is the one settable value.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Seed for breaker-retry jitter (deterministic per tenant × trip).
    pub seed: u64,
}

impl SupervisorConfig {
    /// Consecutive windows at [`DegradeLevel::Shed`] before the breaker
    /// trips open.
    pub const SHED_WINDOWS_TO_TRIP: u32 = 3;
    /// First re-admission delay: the tenant stays parked exactly this
    /// many windows (plus jitter) before its half-open probe.
    pub const BREAKER_BACKOFF_BASE: u32 = 2;
    /// Ceiling on the re-admission delay before jitter (doubling stops
    /// here).
    pub const BREAKER_BACKOFF_MAX: u32 = 16;
    /// Maximum seeded jitter added to each re-admission delay, in windows
    /// (de-synchronizes probes when several breakers trip together).
    pub const BREAKER_JITTER: u32 = 1;
    /// The ladder rung at (or past) which sustained violation triggers
    /// migration instead of further in-place degradation.
    pub const MIGRATE_LEVEL: DegradeLevel = DegradeLevel::Throttle;
    /// Consecutive windows at/past [`MIGRATE_LEVEL`](Self::MIGRATE_LEVEL)
    /// before migrating.
    pub const MIGRATE_AFTER: u32 = 2;
    /// Lifetime migrations allowed per tenant (anti-ping-pong).
    pub const MIGRATION_BUDGET: u32 = 2;
    /// Relative pps divergence from the model reference that counts as
    /// drift on a clean window.
    pub const DRIFT_TOLERANCE: f64 = 0.10;
    /// Drifting clean windows before the model is declared stale.
    pub const DRIFT_WINDOWS: u32 = 3;
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { seed: 0x5EED_50F7 }
    }
}

/// Lifetime counters for one tenant (reporting; the fleet-chaos sweep
/// asserts bounds on these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Times the breaker tripped open.
    pub trips: u32,
    /// Half-open probes that failed (violating trial window).
    pub failed_probes: u32,
    /// Migrations performed (≤ the budget).
    pub migrations: u32,
    /// Drift re-calibrations requested.
    pub recalibrations: u32,
    /// Windows spent evicted (breaker open).
    pub evicted_windows: u32,
}

struct Tenant {
    flow: FlowType,
    guard: RuntimeGuard,
    state: TenantState,
    /// Model-predicted clean-window pps (the drift reference).
    model_pps: f64,
    stale: bool,
    shed: Streak,
    migrate: Streak,
    drift: Streak,
    /// Re-admission delays (double per trip and failed probe, capped).
    backoff: Backoff,
    stats: TenantStats,
}

/// SplitMix64 (the workspace's standard seed mixer) for retry jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machine-level control plane: one guard per tenant plus the
/// breaker/failover/drift state machines. See the module docs.
pub struct Supervisor {
    config: SupervisorConfig,
    tenants: Vec<Tenant>,
}

impl Supervisor {
    /// An empty supervisor; admit tenants with [`admit`](Self::admit).
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor { config, tenants: Vec::new() }
    }

    /// Build a supervisor from a viable [`SocketPlan`] (the placement-time
    /// output of [`plan_socket`](crate::batch_control::plan_socket)):
    /// one tenant per planned flow, with `envelope_for` supplying each
    /// flow's calibrated runtime envelope and model reference pps.
    /// Returns `None` if the plan is not viable — an infeasible placement
    /// must be re-planned, not supervised into the ground.
    pub fn from_plan(
        config: SupervisorConfig,
        plan: &SocketPlan,
        mut envelope_for: impl FnMut(FlowType) -> (GuardEnvelope, f64),
    ) -> Option<Self> {
        if !plan.viable() {
            return None;
        }
        let mut s = Supervisor::new(config);
        for &(flow, _) in &plan.batches {
            let (envelope, model_pps) = envelope_for(flow);
            s.admit(flow, envelope, model_pps);
        }
        Some(s)
    }

    /// Admit a tenant: a fresh guard holding `envelope`, with `model_pps`
    /// as the drift reference. Returns its id.
    pub fn admit(
        &mut self,
        flow: FlowType,
        envelope: GuardEnvelope,
        model_pps: f64,
    ) -> TenantId {
        let id = TenantId(self.tenants.len());
        self.tenants.push(Tenant {
            flow,
            guard: RuntimeGuard::new(envelope, GuardConfig),
            state: TenantState::Admitted,
            model_pps,
            stale: false,
            shed: Streak::new(SupervisorConfig::SHED_WINDOWS_TO_TRIP),
            migrate: Streak::new(SupervisorConfig::MIGRATE_AFTER),
            drift: Streak::new(SupervisorConfig::DRIFT_WINDOWS),
            backoff: Backoff::new(
                SupervisorConfig::BREAKER_BACKOFF_BASE,
                SupervisorConfig::BREAKER_BACKOFF_MAX,
            ),
            stats: TenantStats::default(),
        });
        id
    }

    /// Number of admitted tenants (including evicted ones — eviction is a
    /// breaker state, not removal).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the supervisor has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenant's flow type.
    pub fn flow(&self, t: TenantId) -> FlowType {
        self.tenants[t.0].flow
    }

    /// The tenant's breaker state.
    pub fn state(&self, t: TenantId) -> TenantState {
        self.tenants[t.0].state
    }

    /// Whether the tenant is currently running (admitted or on a
    /// half-open trial window).
    pub fn is_running(&self, t: TenantId) -> bool {
        !matches!(self.tenants[t.0].state, TenantState::Open { .. })
    }

    /// The tenant's lifetime counters.
    pub fn stats(&self, t: TenantId) -> TenantStats {
        self.tenants[t.0].stats
    }

    /// The tenant's guard (level, envelope, transition trace).
    pub fn guard(&self, t: TenantId) -> &RuntimeGuard {
        &self.tenants[t.0].guard
    }

    /// Install a freshly fitted model for the tenant: new envelope, new
    /// drift reference. Clears the stale flag and the drift streak, and
    /// (via [`RuntimeGuard::set_envelope`]) restarts the guard's
    /// hysteresis so windows judged under the old model don't count.
    pub fn set_model(&mut self, t: TenantId, model_pps: f64, envelope: GuardEnvelope) {
        let tn = &mut self.tenants[t.0];
        tn.model_pps = model_pps;
        tn.stale = false;
        tn.drift.reset();
        tn.guard.set_envelope(envelope);
    }

    /// Open the breaker: park the tenant for its next backoff delay plus
    /// seeded jitter, deterministic per tenant × trip × failed probe (the
    /// caller has already counted this trip or failed probe).
    fn evict(&mut self, t: TenantId) -> SupervisorDirective {
        let tn = &mut self.tenants[t.0];
        let x = self
            .config
            .seed
            .wrapping_add((t.0 as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add((tn.stats.trips as u64).wrapping_mul(0x9E37_79B9))
            .wrapping_add(tn.stats.failed_probes as u64);
        let jitter = splitmix64(x) % (SupervisorConfig::BREAKER_JITTER as u64 + 1);
        let retry_in = tn.backoff.take() + jitter as u32;
        tn.state = TenantState::Open { windows_left: retry_in };
        SupervisorDirective {
            action: SupervisorAction::Evict { retry_in },
            level: DegradeLevel::Shed,
            reprobe_now: false,
        }
    }

    /// One parked (breaker-open) window for an evicted tenant: counts
    /// down the retry delay and grants a half-open probe when it expires.
    /// The driver keeps refusing the tenant's load (counted loss) on
    /// `Evict`-shaped directives and re-admits for one window on `Probe`.
    pub fn tick_parked(&mut self, t: TenantId) -> SupervisorDirective {
        let tn = &mut self.tenants[t.0];
        let TenantState::Open { windows_left } = tn.state else {
            // Not parked: nothing to tick. Report current standing.
            return SupervisorDirective {
                action: SupervisorAction::Continue,
                level: tn.guard.level(),
                reprobe_now: false,
            };
        };
        tn.stats.evicted_windows += 1;
        if windows_left <= 1 {
            tn.state = TenantState::HalfOpen;
            SupervisorDirective {
                action: SupervisorAction::Probe,
                level: DegradeLevel::Normal,
                reprobe_now: false,
            }
        } else {
            tn.state = TenantState::Open { windows_left: windows_left - 1 };
            SupervisorDirective {
                action: SupervisorAction::Evict { retry_in: windows_left - 1 },
                level: DegradeLevel::Shed,
                reprobe_now: false,
            }
        }
    }

    /// Feed one window's measurement for a *running* tenant (admitted or
    /// half-open). `sibling_available` says whether the driver has a
    /// healthy spare core to migrate to; `fault_active` says whether a
    /// known transient fault targeted this tenant this window (drift is
    /// only diagnosed on non-fault windows — a disturbance is the
    /// guard's job, not the model's fault).
    ///
    /// # Edge-case ordering (pinned by tests)
    ///
    /// * **Breaker beats migration.** The shed check runs before the
    ///   migrate check, so a window in which the tenant has spent
    ///   [`SHED_WINDOWS_TO_TRIP`](SupervisorConfig::SHED_WINDOWS_TO_TRIP)
    ///   windows at Shed *and*
    ///   [`MIGRATE_AFTER`](SupervisorConfig::MIGRATE_AFTER) at the migrate
    ///   rung trips the breaker: the tenant is evicted, no
    ///   migration happens, and no migration budget is consumed. The
    ///   same winner holds when the budget is already exhausted — a
    ///   migration that cannot fire simply lets the ladder ride to the
    ///   trip. Rationale: by the time the guard has been pinned at Shed
    ///   for K windows, a placement change is a gamble while eviction is
    ///   a guarantee; the probe cycle will re-test the tenant cheaply.
    /// * **A half-open probe carries no fault-awareness.** A `Probe`
    ///   trial window that collides with a still-active targeted fault
    ///   is judged exactly like any other trial: a violating observation
    ///   re-opens the breaker and doubles the delay (capped); a clean
    ///   one re-admits. `fault_active` influences only drift diagnosis —
    ///   the supervisor never peeks at the injector's schedule to excuse
    ///   a failed trial, because granting fault-aware mercy would leak
    ///   schedule knowledge into mechanism and turn the trial window
    ///   into a no-op during exactly the storms it exists to meter.
    pub fn observe(
        &mut self,
        t: TenantId,
        obs: &WindowObservation,
        sibling_available: bool,
        fault_active: bool,
    ) -> SupervisorDirective {
        let tn = &mut self.tenants[t.0];
        let clean = tn.guard.envelope().violation(obs).is_none();

        // Half-open: this observation *is* the single trial window.
        if tn.state == TenantState::HalfOpen {
            if !clean {
                tn.stats.failed_probes += 1;
                return self.evict(t);
            }
            tn.state = TenantState::Admitted;
            tn.backoff.reset();
            tn.shed.reset();
            tn.migrate.reset();
            tn.guard.reset();
            return SupervisorDirective {
                action: SupervisorAction::Readmit,
                level: DegradeLevel::Normal,
                reprobe_now: false,
            };
        }

        // Admitted: the guard walks its ladder first.
        let directive = tn.guard.observe(obs);

        // Breaker: K consecutive windows pinned at Shed trip it open.
        if tn.shed.push(directive.level == DegradeLevel::Shed) {
            tn.stats.trips += 1;
            tn.shed.reset();
            tn.migrate.reset();
            tn.drift.reset();
            tn.guard.reset();
            return self.evict(t);
        }

        // Failover: sustained violation at/past the migrate rung, budget
        // and a healthy sibling permitting. The streak keeps counting past
        // its threshold while neither is free.
        if tn.migrate.push(directive.level >= SupervisorConfig::MIGRATE_LEVEL)
            && sibling_available
            && tn.stats.migrations < SupervisorConfig::MIGRATION_BUDGET
        {
            tn.stats.migrations += 1;
            tn.migrate.reset();
            tn.shed.reset();
            // Composition rule: the move resets the guard — ladder state
            // from the old placement must not chase the tenant.
            tn.guard.reset();
            return SupervisorDirective {
                action: SupervisorAction::Migrate,
                level: DegradeLevel::Normal,
                reprobe_now: false,
            };
        }

        // Drift: clean, non-fault windows diverging from the model. The
        // streak holds across violating windows, restarts on fault windows,
        // and the stale latch (not a reset) keeps it from firing twice.
        if clean && !fault_active && directive.level == DegradeLevel::Normal {
            let rel = if tn.model_pps > 0.0 {
                (obs.pps - tn.model_pps).abs() / tn.model_pps
            } else {
                0.0
            };
            if tn.drift.push(rel > SupervisorConfig::DRIFT_TOLERANCE) && !tn.stale {
                tn.stale = true;
                tn.stats.recalibrations += 1;
                return SupervisorDirective {
                    action: SupervisorAction::Recalibrate,
                    level: directive.level,
                    reprobe_now: directive.reprobe_now,
                };
            }
        } else if fault_active {
            tn.drift.reset();
        }

        SupervisorDirective {
            action: SupervisorAction::Continue,
            level: directive.level,
            reprobe_now: directive.reprobe_now,
        }
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

    /// Drive an admitted tenant down to Shed with bad windows (no sibling,
    /// so migration never fires).
    fn sink_to_shed(s: &mut Supervisor, t: TenantId) {
        for _ in 0..8 {
            let d = s.observe(t, &bad(), false, true);
            assert_eq!(d.action, SupervisorAction::Continue);
        }
        assert_eq!(s.guard(t).level(), DegradeLevel::Shed);
    }

    #[test]
    fn breaker_trips_after_k_shed_windows_then_backs_off() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        sink_to_shed(&mut s, t);
        // K-1 more Shed windows: still running. (The window that *reached*
        // Shed already counted one.)
        let d = s.observe(t, &bad(), false, true);
        assert_eq!(d.action, SupervisorAction::Continue);
        // K-th consecutive Shed window trips the breaker.
        let d = s.observe(t, &bad(), false, true);
        assert_eq!(d.action, SupervisorAction::Evict { retry_in: 2 }, "base backoff is 2");
        assert_eq!(s.state(t), TenantState::Open { windows_left: 2 });
        assert!(!s.is_running(t));
        assert_eq!(s.stats(t).trips, 1);
        // Parked countdown: one Evict tick, then the probe grant.
        let d = s.tick_parked(t);
        assert_eq!(d.action, SupervisorAction::Evict { retry_in: 1 });
        let d = s.tick_parked(t);
        assert_eq!(d.action, SupervisorAction::Probe);
        assert_eq!(s.state(t), TenantState::HalfOpen);
        assert!(s.is_running(t), "half-open runs the trial window");
    }

    #[test]
    fn half_open_is_single_window_failure_doubles_delay_success_closes() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        sink_to_shed(&mut s, t);
        s.observe(t, &bad(), false, true);
        s.observe(t, &bad(), false, true); // trip (backoff 2, doubles to 4)
        s.tick_parked(t);
        s.tick_parked(t); // probe granted
        // ONE violating trial window re-opens with the doubled delay —
        // no second chance, no hysteresis in half-open.
        let d = s.observe(t, &bad(), false, true);
        assert_eq!(d.action, SupervisorAction::Evict { retry_in: 4 });
        assert_eq!(s.stats(t).failed_probes, 1);
        // Count down 4 windows, probe again; a clean trial closes.
        for _ in 0..3 {
            assert!(matches!(s.tick_parked(t).action, SupervisorAction::Evict { .. }));
        }
        assert_eq!(s.tick_parked(t).action, SupervisorAction::Probe);
        let d = s.observe(t, &good(), false, false);
        assert_eq!(d.action, SupervisorAction::Readmit);
        assert_eq!(s.state(t), TenantState::Admitted);
        assert_eq!(s.guard(t).level(), DegradeLevel::Normal, "re-admitted fresh");
        // Success resets the backoff: a future trip starts from base again
        // (2, plus this trip's seeded jitter of 1; unreset it would be ≥ 8).
        sink_to_shed(&mut s, t);
        s.observe(t, &bad(), false, true);
        let d = s.observe(t, &bad(), false, true);
        assert_eq!(d.action, SupervisorAction::Evict { retry_in: 3 });
    }

    #[test]
    fn backoff_is_capped_and_jitter_is_deterministic() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        sink_to_shed(&mut s, t);
        s.observe(t, &bad(), false, true);
        s.observe(t, &bad(), false, true); // trip
        // Fail every probe; delays go 4, 8, 16, 16, 16, 16 (cap), plus
        // the seeded jitter of 0 or 1.
        let mut delays = Vec::new();
        for _ in 0..6 {
            // Drain the countdown until the probe fires.
            loop {
                let d = s.tick_parked(t);
                if d.action == SupervisorAction::Probe {
                    break;
                }
            }
            match s.observe(t, &bad(), false, true).action {
                SupervisorAction::Evict { retry_in } => delays.push(retry_in),
                a => panic!("expected re-open, got {a:?}"),
            }
        }
        assert_eq!(delays, vec![4, 8, 17, 16, 17, 17], "doubling, capped at 16, plus jitter");
        // Jitter determinism: two identically seeded supervisors agree.
        let cfg = SupervisorConfig::default();
        let run = |cfg: SupervisorConfig| {
            let mut s = Supervisor::new(cfg);
            let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
            sink_to_shed(&mut s, t);
            s.observe(t, &bad(), false, true);
            match s.observe(t, &bad(), false, true).action {
                SupervisorAction::Evict { retry_in } => retry_in,
                a => panic!("expected trip, got {a:?}"),
            }
        };
        assert_eq!(run(cfg), run(cfg), "same seed, same jittered delay");
        assert!((2..=3).contains(&run(cfg)), "base 2 + jitter 0..=1");
    }

    #[test]
    fn sustained_violation_with_sibling_migrates_within_budget() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        // Walk down to Throttle (the migrate rung): 2 bad per rung.
        for _ in 0..6 {
            s.observe(t, &bad(), true, true);
        }
        assert_eq!(s.guard(t).level(), DegradeLevel::Throttle);
        // MIGRATE_AFTER = 2 windows at/past Throttle: reaching it counted one.
        let d = s.observe(t, &bad(), true, true);
        assert_eq!(d.action, SupervisorAction::Migrate);
        assert_eq!(s.stats(t).migrations, 1);
        assert_eq!(s.guard(t).level(), DegradeLevel::Normal, "guard reset for the new core");
        // Second migration exhausts the budget (2)...
        for _ in 0..7 {
            s.observe(t, &bad(), true, true);
        }
        assert_eq!(s.stats(t).migrations, 2);
        // ...after which sustained violation walks to Shed and trips the
        // breaker instead of ping-ponging.
        let mut tripped = false;
        for _ in 0..12 {
            if let SupervisorAction::Evict { .. } = s.observe(t, &bad(), true, true).action {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "budget spent: the breaker takes over");
        assert_eq!(s.stats(t).migrations, 2, "no migration past the budget");
    }

    #[test]
    fn no_sibling_means_no_migration() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        for _ in 0..10 {
            let d = s.observe(t, &bad(), false, true);
            assert_ne!(d.action, SupervisorAction::Migrate);
        }
        assert_eq!(s.stats(t).migrations, 0);
    }

    #[test]
    fn drift_on_clean_windows_requests_recalibration_once() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        // Model says 2 Mpps; the world delivers a clean 1.5 Mpps (inside
        // the envelope, 25% off the model).
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        let drifted = WindowObservation { pps: 1_500_000.0, p99_us: 40.0, loss_frac: 0.0 };
        for _ in 0..2 {
            let d = s.observe(t, &drifted, false, false);
            assert_eq!(d.action, SupervisorAction::Continue);
        }
        let d = s.observe(t, &drifted, false, false);
        assert_eq!(d.action, SupervisorAction::Recalibrate, "3rd drifting clean window");
        assert!(s.tenants[t.0].stale);
        assert_eq!(s.stats(t).recalibrations, 1);
        // Stale latches: no repeat request until a new model lands.
        for _ in 0..5 {
            assert_eq!(s.observe(t, &drifted, false, false).action, SupervisorAction::Continue);
        }
        assert_eq!(s.stats(t).recalibrations, 1);
        // A re-fit clears it; aligned windows stay quiet afterwards.
        s.set_model(t, 1_500_000.0, GuardEnvelope { min_pps: 1_050_000.0, ..envelope() });
        assert!(!s.tenants[t.0].stale);
        for _ in 0..5 {
            assert_eq!(s.observe(t, &drifted, false, false).action, SupervisorAction::Continue);
        }
        assert_eq!(s.stats(t).recalibrations, 1);
    }

    #[test]
    fn fault_windows_do_not_count_as_drift() {
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        let drifted = WindowObservation { pps: 1_500_000.0, p99_us: 40.0, loss_frac: 0.0 };
        // Clean but fault-tagged windows: a disturbance explains the gap,
        // so the model is not suspected.
        for _ in 0..10 {
            let d = s.observe(t, &drifted, false, true);
            assert_eq!(d.action, SupervisorAction::Continue);
        }
        assert_eq!(s.stats(t).recalibrations, 0);
        assert!(!s.tenants[t.0].stale);
    }

    #[test]
    fn eviction_refusal_is_shed_level_for_accounting() {
        // While parked, the driver refuses the tenant's load; the directive
        // carries Shed so the accounting maps onto the counted-drop path.
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        sink_to_shed(&mut s, t);
        s.observe(t, &bad(), false, true);
        s.observe(t, &bad(), false, true); // trip, retry_in = 2
        let d = s.tick_parked(t);
        assert_eq!(d.level, DegradeLevel::Shed);
        assert!(matches!(d.action, SupervisorAction::Evict { retry_in: 1 }));
        assert_eq!(s.stats(t).evicted_windows, 1);
    }

    #[test]
    fn probe_colliding_with_active_fault_is_judged_like_any_trial() {
        // The half-open trial carries no fault-awareness: the same
        // observation yields the same directive whether or not a
        // targeted fault is still active during the probe window.
        let trial = |obs: WindowObservation, fault_active: bool| {
            let mut s = Supervisor::new(SupervisorConfig::default());
            let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
            sink_to_shed(&mut s, t);
            s.observe(t, &bad(), false, true);
            s.observe(t, &bad(), false, true); // trip (backoff 2 → 4)
            s.tick_parked(t);
            assert_eq!(s.tick_parked(t).action, SupervisorAction::Probe);
            let d = s.observe(t, &obs, false, fault_active);
            (d.action, s.stats(t).failed_probes)
        };
        // Violating trial mid-fault: re-opens with the doubled delay,
        // exactly as it would with the fault already gone.
        assert_eq!(trial(bad(), true), trial(bad(), false));
        assert_eq!(trial(bad(), true), (SupervisorAction::Evict { retry_in: 4 }, 1));
        // Clean trial mid-fault: re-admits — the flag never blocks a
        // passing probe either (it only gates drift diagnosis).
        assert_eq!(trial(good(), true), trial(good(), false));
        assert_eq!(trial(good(), true), (SupervisorAction::Readmit, 0));
    }

    #[test]
    fn breaker_trip_beats_migration_in_the_same_window() {
        // The migrate streak counts from the Throttle rung (reached at w6)
        // and keeps counting while no sibling is free; the shed streak
        // counts from the Shed rung (reached at w8) and trips at its third
        // window, w10. Freeing the sibling only on w10 makes both rules
        // fire there, with budget to spare. The breaker is checked first
        // and wins.
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        for _ in 0..9 {
            let d = s.observe(t, &bad(), false, true);
            assert_eq!(d.action, SupervisorAction::Continue);
        }
        let d = s.observe(t, &bad(), true, true);
        assert_eq!(d.action, SupervisorAction::Evict { retry_in: 2 }, "trip, not migrate");
        assert_eq!(s.stats(t).trips, 1);
        assert_eq!(s.stats(t).migrations, 0, "no budget consumed by the losing branch");
    }

    #[test]
    fn exhausted_budget_lets_the_ladder_ride_to_the_trip() {
        // Same collision with the migration budget already spent (two
        // migrations, 7 windows each): the migrate branch cannot fire at
        // its threshold, the ladder rides on, and the breaker trips on
        // schedule.
        let mut s = Supervisor::new(SupervisorConfig::default());
        let t = s.admit(FlowType::Ip, envelope(), 2_000_000.0);
        for _ in 0..14 {
            s.observe(t, &bad(), true, true);
        }
        assert_eq!(s.stats(t).migrations, SupervisorConfig::MIGRATION_BUDGET);
        for _ in 0..9 {
            let d = s.observe(t, &bad(), true, true);
            assert_eq!(d.action, SupervisorAction::Continue, "budget spent: never Migrate");
        }
        let d = s.observe(t, &bad(), true, true);
        assert_eq!(d.action, SupervisorAction::Evict { retry_in: 2 });
        assert_eq!(s.stats(t).migrations, 2);
    }
}
