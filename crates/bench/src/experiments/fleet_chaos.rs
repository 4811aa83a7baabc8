//! `repro fleet-chaos` — the tenant supervisor under sustained multi-tenant
//! faults (robustness, PR 7).
//!
//! `repro chaos` proved one flow survives a disturbance; this sweep proves
//! the *fleet* does. Three tenants (IP, MON, FW) are planned onto socket 0
//! by [`plan_socket`] (admission + per-flow batch choice), admitted to a
//! [`Supervisor`] built [`from_plan`](Supervisor::from_plan), and driven
//! through seeded per-tenant fault timelines
//! ([`FaultPlan::with_target`]). Each [`SupervisorAction`] maps onto
//! [`TenantRt`] calls — the window protocol, the ladder actuation, the
//! loss signal and the counter-anchored ledger are shared with `repro
//! chaos` and `repro cluster-chaos` (ARCHITECTURE.md § "Window protocol
//! and tenant runtime").
//!
//! Scenarios and the claims they assert:
//!
//! * **sick-core** — a targeted frequency derate strikes tenant 0's core.
//!   In-place degradation cannot fix a slow core; the supervisor migrates
//!   the tenant to a healthy spare within the migration budget and the
//!   tenant recovers. Healthy co-tenants stay inside the interference
//!   bound.
//! * **poison-evict** — a corruption pathology *follows* tenant 1 (its
//!   own traffic is bad, so no placement helps): migration burns the
//!   budget without curing it, the ladder bottoms out at Shed, the
//!   breaker trips, the tenant parks with counted `drained` loss, a
//!   half-open probe during the fault fails (doubling the backoff), and
//!   the probe after the fault clears re-admits it.
//! * **drift** — a mild *environment* change (not a scripted fault: the
//!   injector never reports it) derates tenant 2 inside its envelope.
//!   The guard stays at Normal; the drift detector flags the stale model
//!   and one re-calibration re-fits it — zero degradation, zero loss.
//! * **fleet-empty-plan** — the null plan under a live supervisor is
//!   bit-for-bit identical (clocks, counters, ledgers) to a
//!   supervisor-free run: the control plane is free when idle.
//!
//! Every scenario additionally asserts the conservation law per tenant:
//! `offered = processed + undelivered`, exactly — the `drained` category
//! keeps the ledger closed through migrations and evictions.
//!
//! Results land in `fleet_chaos.csv` and `FLEET_CHAOS_results.json`
//! (machine-readable, uploaded as a CI artifact).

use crate::experiments::results_json::JsonRow;
use crate::experiments::sweep::{self, core_digest, ChaosSweep, Readmission, TwinKey};
use crate::RunCtx;
use pp_core::prelude::*;
use pp_sim::config::MachineConfig;
use pp_sim::engine::Engine;
use pp_sim::fault::{DropStats, FaultInjector, FaultKind, FaultPlan};
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};

/// The fleet: one tenant per entry, resident on cores 0..N of socket 0.
const FLEET: [FlowType; 3] = [FlowType::Ip, FlowType::Mon, FlowType::Fw];
/// Cores available for placement (socket 0 of the Westmere config); cores
/// beyond the fleet are healthy spares for failover.
const SOCKET_CORES: usize = 6;
/// Clean calibration windows used to fit each tenant's envelope.
const CALIB_WINDOWS: u32 = 3;
/// Offered load for paced tenants, as a fraction of solo capacity
/// (tenant 2 runs at line rate so capacity drift shows in pps).
const OFFERED_LOAD: f64 = 0.75;
/// Envelope throughput floor as a fraction of calibrated pps.
const ENVELOPE_FLOOR: f64 = 0.7;
/// Windows simulated past the last scripted event.
const FLEET_TAIL: u32 = 18;
/// Windows allowed between the last fault clearing (or the re-admission)
/// and the tenant standing clean at Normal.
pub const FLEET_RECOVERY_BOUND: u32 = 20;
/// Healthy co-tenants must keep at least this fraction of their
/// calibrated throughput while a sibling tenant is faulted — the stated
/// interference bound (generous: quick-scale pacing runs ~9% under
/// nominal before any interference).
pub const INTERFERENCE_FLOOR: f64 = 0.55;

/// One fleet scenario: a (possibly targeted) fault timeline plus an
/// optional un-scripted environment change for the drift detector.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    name: &'static str,
    plan: FaultPlan,
    /// `(tenant, derate fraction, window)`: from `window` on, the tenant's
    /// per-turn cost grows by `fraction` — applied directly, *not* through
    /// the injector, so no window is ever flagged `fault_active`. This
    /// models the world changing under a correct controller, which is
    /// exactly what drift detection exists for.
    env_change: Option<(usize, f64, u32)>,
    /// Window after which recovery is expected (fault end / env change).
    last_event: u32,
}

/// One tenant's outcome within a scenario. `PartialEq` compares every
/// field exactly (floats included) for the determinism harness.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's flow type.
    pub flow: FlowType,
    /// Supervisor lifetime counters (trips, probes, migrations, …).
    pub stats: TenantStats,
    /// Deepest ladder level the tenant's guard reached.
    pub peak_level: DegradeLevel,
    /// Ladder level at the end of the run.
    pub final_level: DegradeLevel,
    /// Whether the tenant ended the run admitted (not parked).
    pub final_running: bool,
    /// Guard ladder moves recorded (ring-capped).
    pub guard_transitions: u64,
    /// Mean calibrated throughput before any fault.
    pub calib_pps: f64,
    /// Worst per-window throughput while running.
    pub min_pps: f64,
    /// Final loss ledger (covers capacity probe + calibration + main loop).
    pub drops: DropStats,
    /// Packets retired over all measured windows.
    pub processed: u64,
    /// `offered − processed − undelivered` (0 = exact conservation).
    pub conservation_slack: i64,
    /// Windows from the scenario's last event until the tenant stood
    /// clean at Normal (`None` = never).
    pub recovery_windows: Option<u32>,
}

/// Everything one fleet scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Main-loop windows simulated.
    pub windows: u32,
    /// Per-tenant outcomes, in fleet order (IP, MON, FW).
    pub tenants: Vec<TenantOutcome>,
    /// [`core_digest`] over the socket's cores — the empty-plan identity
    /// witness.
    pub digest: u64,
}

/// One tenant: the shared runtime plus what only this driver tracks.
struct Tenant {
    rt: TenantRt,
    id: TenantId,
    flow: FlowType,
    /// Persistent environment derate (drift scenario), cycles per turn.
    env_stall: u64,
    /// One-window envelope re-fit pending after a migration.
    reprobe_pending: bool,
    peak: DegradeLevel,
    recovery: Option<u32>,
}

impl Tenant {
    /// Re-apply the stall knob from core sickness + environment derate
    /// (placement-dependent: a migration away from a sick core cures the
    /// sickness term, the environment term follows the tenant).
    fn refresh_stall(&self, sick: &[u64; SOCKET_CORES]) {
        if !self.rt.is_parked() {
            self.rt.controls.stall_cycles.set(sick[self.rt.core.index()] + self.env_stall);
        }
    }
}

/// First healthy, vacant socket-0 core (the migration/readmission target).
fn healthy_spare(engine: &Engine, sick: &[u64; SOCKET_CORES]) -> Option<CoreId> {
    (0..SOCKET_CORES as u16)
        .map(CoreId)
        .find(|&c| !engine.has_task(c) && sick[c.index()] == 0)
}

/// `repro fleet-chaos`. The shared state is the socket plan (admission
/// plus per-flow batch choice) and the re-admission profile.
pub struct FleetChaos {
    plan: SocketPlan,
    readmission: Readmission,
}

/// Build the fleet and run one scenario end to end. `supervised = false`
/// runs the identical measurement schedule without a supervisor (the
/// empty-plan twin).
fn run_fleet_scenario(
    ctx: &RunCtx,
    sc: &FleetScenario,
    planned: &FleetChaos,
    supervised: bool,
) -> FleetOutcome {
    let params = ctx.params;
    let seed = params.seed ^ 0xF1EE7;
    let mut machine = Machine::new(MachineConfig::westmere());
    let mut tenants: Vec<Tenant> = Vec::new();
    for (i, &(flow, choice)) in planned.plan.batches.iter().enumerate() {
        let built = flow.build_with_structure(
            &mut machine,
            MemDomain(0),
            params.scale,
            seed ^ (0x1111 * (i as u64 + 1)),
            flow.structure_seed(seed),
            choice.batch,
        );
        tenants.push(Tenant {
            rt: TenantRt::new(built.task),
            id: TenantId(i),
            flow,
            env_stall: 0,
            reprobe_pending: false,
            peak: DegradeLevel::Normal,
            recovery: None,
        });
    }
    let mut engine = Engine::new(machine);
    for t in tenants.iter_mut() {
        t.rt.install(&mut engine, CoreId(t.id.0 as u16));
    }

    let window = params.window_cycles(engine.machine.config());
    engine.run_until(params.warmup_cycles(engine.machine.config()));
    for t in tenants.iter_mut() {
        t.rt.anchor(&engine);
    }

    // The capacity probe runs under full fleet contention. The last
    // tenant stays at line rate (capacity drift must show in pps).
    let cap = engine.measure(0, window);
    for t in tenants.iter_mut() {
        t.rt.probe_capacity(&cap, (t.id.0 + 1 < FLEET.len()).then_some(OFFERED_LOAD));
    }
    for _ in 0..CALIB_WINDOWS {
        let m = engine.measure(0, window);
        for t in tenants.iter_mut() {
            t.rt.calibrate(&m);
        }
    }
    let envelopes: Vec<GuardEnvelope> =
        tenants.iter().map(|t| t.rt.envelope(ENVELOPE_FLOOR)).collect();

    // The supervisor: admitted from the socket plan with the *predicted*
    // envelopes, then immediately re-fitted from the measured calibration
    // (the same probe→set_model protocol the drift path uses at run time).
    let mut sup = supervised.then(|| {
        let cfg = SupervisorConfig { seed, ..SupervisorConfig::default() };
        let mut s = Supervisor::from_plan(cfg, &planned.plan, |flow| {
            let t = tenants.iter().find(|t| t.flow == flow).expect("planned tenant");
            let pred = t.rt.calib_pps(); // placeholder; refit below
            (
                GuardEnvelope {
                    min_pps: ENVELOPE_FLOOR * pred,
                    max_p99_us: f64::INFINITY,
                    max_loss_frac: 0.005,
                },
                pred,
            )
        })
        .expect("socket plan must be viable");
        for t in &tenants {
            s.set_model(t.id, t.rt.calib_pps(), envelopes[t.id.0]);
        }
        s
    });

    let mut injector = FaultInjector::new(sc.plan.clone());
    let total = sc.last_event + FLEET_TAIL;
    // Core sickness map (stall cycles per turn); a FreqDerate fault
    // targeted at a tenant strikes the core the tenant occupies *now* and
    // stays on that core until the end transition heals it — migrating
    // away cures the tenant, not the core.
    let mut sick = [0u64; SOCKET_CORES];
    let mut sick_core_of_event: Vec<Option<usize>> = vec![None; sc.plan.events.len()];
    for t in &tenants {
        t.rt.apply_ladder(DegradeLevel::Normal);
    }

    for w in 0..total {
        // 1. Scripted faults.
        for tr in injector.advance(w).to_vec() {
            let Some(j) = tr.target.map(|j| j as usize) else { continue };
            let rt = &mut tenants[j].rt;
            match tr.kind {
                FaultKind::FreqDerate { stall_cycles } => {
                    if tr.begin {
                        let core = rt.core.index();
                        sick[core] = stall_cycles as u64;
                        sick_core_of_event[tr.event] = Some(core);
                    } else if let Some(core) = sick_core_of_event[tr.event].take() {
                        sick[core] = 0;
                    }
                }
                kind @ (FaultKind::Corruption { .. } | FaultKind::RateBurst { .. }) => {
                    rt.traffic_fault(kind, tr.begin);
                }
                _ => {}
            }
        }
        // 2. Un-scripted environment change (drift scenario only).
        if let Some((j, frac, at)) = sc.env_change {
            if w == at {
                let t = &mut tenants[j];
                t.env_stall = (frac * t.rt.batch as f64 * t.rt.cpp) as u64;
            }
        }
        for t in &tenants {
            t.refresh_stall(&sick);
        }

        // 3. Parked tenants decide *before* the window runs: stay parked
        // (counted refusal) or re-enter for a half-open trial.
        if let Some(sup) = sup.as_mut() {
            for j in 0..tenants.len() {
                let id = tenants[j].id;
                if sup.is_running(id) {
                    continue;
                }
                match sup.tick_parked(id).action {
                    SupervisorAction::Probe => {
                        // Prediction gate first: re-admitting next to the
                        // resident flows must keep every SLA.
                        let resident: Vec<FlowType> = tenants
                            .iter()
                            .filter(|t| !t.rt.is_parked())
                            .map(|t| t.flow)
                            .collect();
                        let t = &mut tenants[j];
                        assert!(
                            planned.readmission.admits(&resident, t.flow),
                            "re-admission prediction must hold for this fleet"
                        );
                        let dest = healthy_spare(&engine, &sick)
                            .expect("a healthy core must be free for the trial");
                        t.rt.install(&mut engine, dest);
                        t.rt.apply_ladder(DegradeLevel::Normal);
                        t.refresh_stall(&sick);
                    }
                    SupervisorAction::Evict { .. } => tenants[j].rt.refuse_window(window),
                    _ => {}
                }
            }
        }

        // 4. One measured window for the whole fleet.
        let m = engine.measure(0, window);

        // 5. Running tenants observe and act.
        for (t, envelope) in tenants.iter_mut().zip(&envelopes) {
            if t.rt.is_parked() {
                continue;
            }
            let obs = t.rt.observe(&m);
            let Some(sup) = sup.as_mut() else { continue };
            // A migration's re-probe: first window on the new placement
            // re-fits the envelope before it is judged. A stale model on
            // a healthy tenant (`Recalibrate`) is re-fitted the same way.
            let refit = GuardEnvelope { min_pps: ENVELOPE_FLOOR * obs.pps, ..*envelope };
            if t.reprobe_pending {
                t.reprobe_pending = false;
                sup.set_model(t.id, obs.pps, refit);
            }
            let fault_active = injector.active_for(w, t.id.0 as u8).next().is_some();
            let sibling = healthy_spare(&engine, &sick).is_some();
            let d = sup.observe(t.id, &obs, sibling, fault_active);
            t.peak = t.peak.max(d.level);
            let clean = obs.pps >= ENVELOPE_FLOOR * t.rt.calib_pps();
            match d.action {
                SupervisorAction::Continue | SupervisorAction::Readmit => {
                    t.rt.apply_ladder(d.level);
                }
                SupervisorAction::Migrate => {
                    let dest = healthy_spare(&engine, &sick)
                        .expect("sibling availability was just checked");
                    t.rt.migrate(&mut engine, dest);
                    t.reprobe_pending = true;
                    // Re-assert the planned batch on the new placement and
                    // restore Normal knobs (the guard was reset).
                    t.rt.apply_ladder(DegradeLevel::Normal);
                    t.refresh_stall(&sick);
                }
                SupervisorAction::Evict { .. } => {
                    t.peak = DegradeLevel::Shed;
                    t.rt.park(&mut engine);
                }
                SupervisorAction::Recalibrate => {
                    // Re-fit from the measured window, do not degrade.
                    sup.set_model(t.id, obs.pps, refit);
                    t.rt.apply_ladder(d.level);
                }
                SupervisorAction::Probe => unreachable!("probe comes from tick_parked"),
            }
            if t.recovery.is_none()
                && w >= sc.last_event
                && sup.is_running(t.id)
                && sup.guard(t.id).level() == DegradeLevel::Normal
                && (clean || sc.env_change.is_some())
            {
                t.recovery = Some(w - sc.last_event);
            }
        }
    }

    // Close the ledger: flush each running tenant's retired-packet count
    // from its occupied core (parked tenants were flushed at eviction).
    for t in tenants.iter_mut() {
        t.rt.flush(&engine);
    }
    FleetOutcome {
        name: sc.name,
        windows: total,
        tenants: tenants
            .iter()
            .map(|t| {
                let (drops, processed, conservation_slack) = t.rt.ledger();
                let (stats, final_level, running, transitions) = match &sup {
                    Some(s) => (
                        s.stats(t.id),
                        s.guard(t.id).level(),
                        s.is_running(t.id),
                        s.guard(t.id).transitions_recorded(),
                    ),
                    None => (TenantStats::default(), DegradeLevel::Normal, true, 0),
                };
                TenantOutcome {
                    flow: t.flow,
                    stats,
                    peak_level: t.peak,
                    final_level,
                    final_running: running,
                    guard_transitions: transitions,
                    calib_pps: t.rt.calib_pps(),
                    min_pps: t.rt.min_pps,
                    drops,
                    processed,
                    conservation_slack,
                    recovery_windows: t.recovery,
                }
            })
            .collect(),
        digest: core_digest([&engine], SOCKET_CORES as u16),
    }
}

/// Canonical scenario names, in roster order (the benchmark's `ctl_fleet`
/// workload runs them all).
pub fn scenario_names() -> Vec<&'static str> {
    sweep::scenario_names::<FleetChaos>()
}

/// [`sweep::measure_scenarios`] over this sweep (the benchmark's
/// `ctl_fleet` workload).
pub fn measure_scenarios(ctx: &RunCtx, names: &[&str]) -> Vec<FleetOutcome> {
    sweep::measure_scenarios::<FleetChaos>(ctx, names)
}

impl ChaosSweep for FleetChaos {
    type Scenario = FleetScenario;
    type Outcome = FleetOutcome;
    const HEADING: &'static str = "Fleet chaos — the tenant supervisor under sustained faults";
    const CSV: &'static str = "fleet_chaos";
    const JSON_KEY: &'static str = "tenants";
    const CONTROL: &'static str = "fleet-empty-plan";
    const TWIN: bool = true;

    fn roster(seed: u64) -> Vec<FleetScenario> {
        vec![
            FleetScenario {
                name: "sick-core",
                // Tenant 0's core derates hard for 12 windows; only failover
                // fixes a slow core.
                plan: FaultPlan::seeded(seed ^ 0x51C0)
                    .with_target(2, 14, 0, FaultKind::FreqDerate { stall_cycles: 100_000 }),
                env_change: None,
                last_event: 14,
            },
            FleetScenario {
                name: "poison-evict",
                // Tenant 1's own traffic turns 200‰ corrupt: no placement
                // helps, so the budgeted migrations fail, the ladder bottoms
                // out at Shed, and the breaker takes over.
                plan: FaultPlan::seeded(seed ^ 0xE71C)
                    .with_target(2, 30, 1, FaultKind::Corruption { per_mille: 200 }),
                env_change: None,
                last_event: 30,
            },
            FleetScenario {
                name: "drift",
                // The environment quietly slows tenant 2 by ~20% — inside the
                // envelope, outside the model's tolerance.
                plan: FaultPlan::seeded(seed ^ 0xD81F7),
                env_change: Some((2, 0.25, 4)),
                last_event: 12,
            },
            FleetScenario {
                name: "fleet-empty-plan",
                plan: FaultPlan::empty(),
                env_change: None,
                last_event: 0,
            },
        ]
    }

    fn name(sc: &FleetScenario) -> &'static str {
        sc.name
    }

    fn plan(sc: &FleetScenario) -> &FaultPlan {
        &sc.plan
    }

    fn prepare(ctx: &RunCtx) -> Self {
        let controllers: Vec<BatchController> = FLEET
            .iter()
            .map(|&f| BatchController::calibrate(f, ctx.params, ctx.jobs))
            .collect();
        let readmission = Readmission::profile(ctx);
        let plan =
            plan_socket(&controllers, &readmission.admission(), &FLEET, &readmission.slas, &[]);
        assert!(plan.viable(), "the fleet must be admissible before supervision");
        FleetChaos { plan, readmission }
    }

    fn run_scenario(&self, ctx: &RunCtx, sc: &FleetScenario, supervised: bool) -> FleetOutcome {
        run_fleet_scenario(ctx, sc, self, supervised)
    }

    fn twin_key(o: &FleetOutcome) -> TwinKey {
        (o.digest, o.tenants.iter().map(|t| (t.processed, t.drops)).collect())
    }

    fn table(outcomes: &[FleetOutcome]) -> Table {
        let mut table = Table::new(
            "Fleet chaos: supervisor response per tenant per scenario",
            &[
                "scenario", "tenant", "peak", "trips", "probes-failed", "migrations",
                "recal", "evicted-win", "offered", "processed", "drained", "lost",
                "recov(win)", "slack",
            ],
        );
        for o in outcomes {
            for t in &o.tenants {
                table.row(vec![
                    o.name.to_string(),
                    t.flow.to_string(),
                    t.peak_level.to_string(),
                    t.stats.trips.to_string(),
                    t.stats.failed_probes.to_string(),
                    t.stats.migrations.to_string(),
                    t.stats.recalibrations.to_string(),
                    t.stats.evicted_windows.to_string(),
                    t.drops.offered.to_string(),
                    t.processed.to_string(),
                    t.drops.drained.to_string(),
                    t.drops.total_dropped().to_string(),
                    t.recovery_windows.map(|r| r.to_string()).unwrap_or_else(|| "—".into()),
                    t.conservation_slack.to_string(),
                ]);
            }
        }
        table
    }

    /// One flat row per tenant per scenario.
    fn json_rows(outcomes: &[FleetOutcome]) -> Vec<JsonRow> {
        outcomes
            .iter()
            .flat_map(|o| {
                o.tenants.iter().map(move |t| {
                    JsonRow::new()
                        .str("scenario", o.name)
                        .str("tenant", t.flow)
                        .str("peak_level", t.peak_level)
                        .str("final_level", t.final_level)
                        .num("final_running", t.final_running)
                        .num("trips", t.stats.trips)
                        .num("failed_probes", t.stats.failed_probes)
                        .num("migrations", t.stats.migrations)
                        .num("recalibrations", t.stats.recalibrations)
                        .num("evicted_windows", t.stats.evicted_windows)
                        .num("guard_transitions", t.guard_transitions)
                        .num("offered", t.drops.offered)
                        .num("processed", t.processed)
                        .num("drained", t.drops.drained)
                        .num("shed", t.drops.shed)
                        .num("element_dropped", t.drops.element_dropped)
                        .num("wire_overflow", t.drops.wire_overflow)
                        .num("total_dropped", t.drops.total_dropped())
                        .opt_num("recovery_windows", t.recovery_windows)
                        .num("conservation_slack", t.conservation_slack)
                })
            })
            .collect()
    }

    fn check(o: &FleetOutcome) {
        let n = o.name;
        for t in &o.tenants {
            assert_eq!(
                t.conservation_slack, 0,
                "[{n}/{}] ledger must conserve exactly through migrations and evictions",
                t.flow
            );
        }
        let healthy_bound = |t: &TenantOutcome| {
            assert_eq!(t.stats.trips, 0, "[{n}/{}] healthy tenant must not trip", t.flow);
            assert_eq!(t.stats.migrations, 0, "[{n}/{}] healthy tenant must not move", t.flow);
            assert!(
                t.min_pps >= INTERFERENCE_FLOOR * t.calib_pps,
                "[{n}/{}] interference bound: min {:.3e} < {:.2} × calib {:.3e}",
                t.flow,
                t.min_pps,
                INTERFERENCE_FLOOR,
                t.calib_pps
            );
        };
        match n {
            "sick-core" => {
                let t = &o.tenants[0];
                assert_eq!(t.stats.migrations, 1, "[{n}] one failover cures a sick core");
                assert_eq!(t.stats.trips, 0, "[{n}] no eviction needed");
                assert!(t.final_running && t.final_level == DegradeLevel::Normal);
                let rec = t.recovery_windows.expect("sick-core tenant must recover");
                assert!(rec <= FLEET_RECOVERY_BOUND, "[{n}] recovery took {rec} windows");
                healthy_bound(&o.tenants[1]);
                healthy_bound(&o.tenants[2]);
            }
            "poison-evict" => {
                let t = &o.tenants[1];
                assert_eq!(
                    t.stats.migrations, 2,
                    "[{n}] the budget bounds a flapping tenant's moves"
                );
                assert!(t.stats.trips >= 1, "[{n}] Shed windows must trip the breaker");
                assert!(
                    t.stats.failed_probes >= 1,
                    "[{n}] the mid-fault probe must fail and double the delay"
                );
                assert!(t.stats.evicted_windows > 0, "[{n}] parked windows counted");
                assert!(t.drops.drained > 0, "[{n}] eviction loss must be counted, never silent");
                assert!(t.drops.element_dropped > 0, "[{n}] corruption drops are visible");
                assert_eq!(t.peak_level, DegradeLevel::Shed, "[{n}] ladder bottomed out");
                assert!(
                    t.final_running && t.final_level == DegradeLevel::Normal,
                    "[{n}] the post-fault probe must re-admit the tenant"
                );
                let rec = t.recovery_windows.expect("evicted tenant must be re-admitted");
                assert!(rec <= FLEET_RECOVERY_BOUND, "[{n}] re-admission took {rec} windows");
                healthy_bound(&o.tenants[0]);
                healthy_bound(&o.tenants[2]);
            }
            "drift" => {
                let t = &o.tenants[2];
                assert_eq!(
                    t.stats.recalibrations, 1,
                    "[{n}] sustained clean divergence re-fits the model once"
                );
                assert_eq!(t.guard_transitions, 0, "[{n}] drift must not degrade");
                assert_eq!(t.peak_level, DegradeLevel::Normal, "[{n}] ladder untouched");
                assert_eq!(t.stats.trips, 0);
                assert_eq!(t.stats.migrations, 0);
                assert_eq!(t.drops.total_dropped(), 0, "[{n}] drift costs zero packets");
                healthy_bound(&o.tenants[0]);
                healthy_bound(&o.tenants[1]);
            }
            "fleet-empty-plan" => {
                for t in &o.tenants {
                    assert_eq!(t.guard_transitions, 0, "[{n}] no ladder moves");
                    assert_eq!(t.stats.trips, 0);
                    assert_eq!(t.stats.migrations, 0);
                    assert_eq!(t.stats.recalibrations, 0);
                    assert_eq!(t.drops.drained, 0, "[{n}] nothing drained");
                }
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
    fn fleet_chaos_holds_its_claims_at_test_scale() {
        let outcomes =
            golden::<FleetChaos>(include_str!("../../tests/golden/FLEET_CHAOS_results.json"));
        assert_eq!(outcomes.len(), 4);
    }
}
