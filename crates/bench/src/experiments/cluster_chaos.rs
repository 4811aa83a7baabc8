//! `repro cluster-chaos` — the fleet controller over a cluster of
//! machines that crash, lie by omission, and come back (robustness, PR 8).
//!
//! `repro fleet-chaos` proved one machine's tenants survive sustained
//! faults under a supervisor with perfect information. This sweep removes
//! that luxury: a [`Cluster`] of independent
//! [`Engine`](pp_sim::engine::Engine) machines
//! advances on a shared measurement-window axis, and the
//! [`FleetController`] sees the world only through heartbeats and a lossy,
//! delayable [`TelemetryChannel`] per machine. Each [`FleetAction`] maps
//! onto [`TenantRt`] calls on the engine of the machine concerned
//! (ARCHITECTURE.md § "Window protocol and tenant runtime"); a crash
//! parks the machine's residents at the transition, before the controller
//! has noticed anything.
//!
//! Scenarios and the claims they assert:
//!
//! * **machine-crash-restart** — machine 0 dies mid-run and restarts 10
//!   windows later. The controller suspects on heartbeat silence, probes
//!   on capped backoff, declares death, and re-places both orphans across
//!   the survivors within [`REPLACEMENT_BOUND`] windows of the crash; the
//!   restart heartbeat sends them home budget-free. Healthy machines
//!   suffer zero collateral: no parks, interference bounded.
//! * **telemetry-blackout** — machine 2's telemetry goes dark for 10
//!   windows while a socket derate degrades its datapath, then the
//!   channel returns with a 2-window delay. The controller holds its
//!   last-known-good estimates (never reading silence as rate 0) and
//!   makes **zero** decisions end to end — blindness bounds the decision
//!   rate by construction, stale estimates never trigger sheds.
//! * **cascading-overload** — machine 0 (three tenants, priorities
//!   2/1/0) dies for good and the survivors have one free slot each. The
//!   controller re-places in SLA-priority order: the two higher classes
//!   land, the lowest parks with counted loss — degradation by SLA
//!   class, not collapse of every tenant.
//! * **cluster-empty-plan** — the null plan under a live controller is
//!   bit-for-bit identical (per-core clocks, retired packets, ledgers,
//!   digest) to a controller-free cluster: the control plane is free
//!   when idle.
//!
//! Every scenario asserts the conservation law per tenant, fleet-wide and
//! exactly: `offered = processed + undelivered` — a tenant's packets may
//! be spread across three machines by the end of a run.
//!
//! Results land in `cluster_chaos.csv` and `CLUSTER_CHAOS_results.json`
//! (machine-readable, uploaded as a CI artifact). Scenario seeds mix the
//! CLI master seed, so `--seed N` replays a failing timeline exactly.

use crate::experiments::results_json::JsonRow;
use crate::experiments::sweep::{core_digest, ChaosSweep, Readmission, TwinKey};
use crate::RunCtx;
use pp_core::prelude::*;
use pp_sim::cluster::{Cluster, MachineId, TelemetryChannel};
use pp_sim::config::MachineConfig;
use pp_sim::fault::{DropStats, FaultInjector, FaultKind, FaultPlan};
use pp_sim::types::{CoreId, MemDomain};

/// Machines in the cluster.
const MACHINES: usize = 3;
/// Placement cores per machine (cores 0..SLOTS of socket 0); also the
/// controller's `machine_capacity`, so slot scarcity is decided by the
/// controller, not discovered by the driver.
const SLOTS: usize = 3;
/// Fixed per-tenant batch (the cluster sweep exercises placement, not
/// batch choice — `repro batch` and `repro fleet-chaos` own that axis).
const BATCH: usize = 16;
/// Clean calibration windows per scenario.
const CALIB_WINDOWS: u32 = 2;
/// Offered load for every paced tenant, as a fraction of its measured
/// capacity under home-machine contention.
const OFFERED_LOAD: f64 = 0.75;
/// Controller-side delivered-rate floor, as a fraction of calibrated pps
/// (deliberately loose: the cluster scenarios exercise death and
/// blindness, and a refugee joining a survivor must not read as overload).
const FLOOR_FRAC: f64 = 0.4;
/// Windows simulated past the last scripted event.
const CLUSTER_TAIL: u32 = 12;
/// When machine 0 crashes in the scripted scenarios.
const CRASH_AT: u32 = 4;
/// Crash-to-replacement bound (windows): heartbeat timeout, two probes on
/// capped backoff, then death and same-tick re-placement.
pub const REPLACEMENT_BOUND: u32 = 10;
/// Healthy-machine tenants must keep this fraction of calibrated
/// throughput even while hosting a refugee (looser than fleet-chaos's
/// bound: a third co-runner was not part of their calibration).
pub const INTERFERENCE_FLOOR: f64 = 0.5;
/// Minimum heartbeat-silence the blackout scenario must demonstrate
/// surviving without a decision.
pub const BLACKOUT_STALENESS_FLOOR: u32 = 8;

/// One tenant spec: flow class, SLA priority (higher = more important),
/// home machine.
type TenantSpec = (FlowType, u8, usize);

/// The standard fleet: two tenants per machine, one free slot each.
fn default_fleet() -> Vec<TenantSpec> {
    vec![
        (FlowType::Ip, 2, 0),
        (FlowType::Mon, 1, 0),
        (FlowType::Ip, 2, 1),
        (FlowType::Mon, 1, 1),
        (FlowType::Ip, 2, 2),
        (FlowType::Mon, 1, 2),
    ]
}

/// One cluster scenario: a machine-scoped fault timeline plus the fleet
/// it strikes.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    name: &'static str,
    plan: FaultPlan,
    fleet: Vec<TenantSpec>,
    /// Window after which recovery is expected.
    last_event: u32,
}

/// One tenant's outcome within a scenario. `PartialEq` compares every
/// field exactly (floats included) for the determinism harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTenantOutcome {
    /// The tenant's flow class.
    pub flow: FlowType,
    /// SLA priority (higher = more important).
    pub priority: u8,
    /// Home machine index.
    pub home: usize,
    /// Machine hosting the tenant at the end of the run (`None` = parked).
    pub final_machine: Option<usize>,
    /// Mean calibrated throughput before any fault.
    pub calib_pps: f64,
    /// Worst per-window throughput while running (main loop only).
    pub min_pps: f64,
    /// Final loss ledger (covers capacity probe + calibration + main loop).
    pub drops: DropStats,
    /// Packets retired, flushed from raw core counters across every
    /// machine the tenant touched.
    pub processed: u64,
    /// `offered − processed − undelivered` (0 = exact conservation).
    pub conservation_slack: i64,
}

/// Everything one cluster scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Main-loop windows simulated.
    pub windows: u32,
    /// Placement decisions the controller made (probes excluded).
    pub decisions: u64,
    /// Budget-charged cross-machine re-placements.
    pub replacements: u32,
    /// Liveness probes sent to suspect machines.
    pub probes: u32,
    /// Tenants the controller parked (action order).
    pub parked_tenants: Vec<usize>,
    /// Window the dead machine was declared (`None` = never).
    pub declare_dead_window: Option<u32>,
    /// Window of the first re-placement (`None` = none).
    pub first_replacement_window: Option<u32>,
    /// Worst telemetry staleness any tenant reached (windows).
    pub max_staleness: u32,
    /// Smallest rate estimate the controller ever held for any tenant
    /// that had reported at least once (`∞` = never sampled) — the
    /// "blackout must not read as rate 0" witness.
    pub min_rate_estimate: f64,
    /// Per-tenant outcomes, in fleet order.
    pub tenants: Vec<ClusterTenantOutcome>,
    /// [`core_digest`] over every machine's placement cores — the
    /// empty-plan identity witness.
    pub digest: u64,
}

/// One tenant: the shared runtime plus what only this driver tracks.
struct Tenant {
    rt: TenantRt,
    id: TenantId,
    flow: FlowType,
    priority: u8,
    home: usize,
    /// The machine whose engine `rt` occupies (stale while parked).
    machine: MachineId,
}

impl Tenant {
    /// Index of the hosting machine (`None` = parked).
    fn loc(&self) -> Option<usize> {
        (!self.rt.is_parked()).then_some(self.machine.index())
    }
}

/// First free placement core on machine `m`.
fn free_slot(cluster: &Cluster, m: MachineId) -> Option<CoreId> {
    (0..SLOTS as u16).map(CoreId).find(|&c| !cluster.engine(m).has_task(c))
}

/// `repro cluster-chaos`. The shared state is the re-placement admission
/// profile.
pub struct ClusterChaos {
    readmission: Readmission,
}

/// Build the cluster and run one scenario end to end. `controlled =
/// false` runs the identical measurement schedule without a fleet
/// controller (the empty-plan twin).
fn run_cluster_scenario(
    ctx: &RunCtx,
    sc: &ClusterScenario,
    readmission: &Readmission,
    controlled: bool,
) -> ClusterOutcome {
    let params = ctx.params;
    let seed = params.seed ^ 0xC10577;
    let mut cluster = Cluster::new_uniform(MACHINES, &MachineConfig::westmere());
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut next_core = [0u16; MACHINES];
    for (ti, &(flow, priority, home)) in sc.fleet.iter().enumerate() {
        assert!((next_core[home] as usize) < SLOTS, "fleet overfills machine {home}");
        let core = CoreId(next_core[home]);
        next_core[home] += 1;
        let machine = MachineId(home);
        let eng = cluster.engine_mut(machine);
        let built = flow.build_with_structure(
            &mut eng.machine,
            MemDomain(0),
            params.scale,
            seed ^ (0x1111 * (ti as u64 + 1)),
            flow.structure_seed(seed),
            BATCH,
        );
        let mut rt = TenantRt::new(built.task);
        rt.install(eng, core);
        tenants.push(Tenant { rt, id: TenantId(ti), flow, priority, home, machine });
    }

    let cfg = cluster.engine(MachineId(0)).machine.config().clone();
    let window = params.window_cycles(&cfg);
    cluster.run_all_until(params.warmup_cycles(&cfg));
    for t in tenants.iter_mut() {
        t.rt.anchor(cluster.engine(t.machine));
    }

    // The capacity probe and the calibration run under home contention.
    let ms = cluster.measure_all(0, window);
    for t in tenants.iter_mut() {
        let m = ms[t.machine.index()].as_ref().expect("machine up");
        t.rt.probe_capacity(m, Some(OFFERED_LOAD));
    }
    for _ in 0..CALIB_WINDOWS {
        let ms = cluster.measure_all(0, window);
        for t in tenants.iter_mut() {
            t.rt.calibrate(ms[t.machine.index()].as_ref().expect("machine up"));
        }
    }

    let mut ctrl = controlled.then(|| {
        let mut c = FleetController::new(FleetConfig {
            machine_capacity: SLOTS,
            ..FleetConfig::default()
        });
        for _ in 0..MACHINES {
            c.add_machine();
        }
        for t in &tenants {
            let id = c.add_tenant(t.flow, t.priority, MachineId(t.home));
            assert_eq!(id, t.id, "controller ids mirror fleet order");
            c.set_floor(id, FLOOR_FRAC * t.rt.calib_pps());
        }
        c
    });
    let mut channels: Vec<TelemetryChannel<(TenantId, TelemetryReport)>> =
        (0..MACHINES).map(|_| TelemetryChannel::new()).collect();

    let mut injector = FaultInjector::new(sc.plan.clone());
    let total = sc.last_event + CLUSTER_TAIL;
    let mut derate = [0u64; MACHINES];
    let mut probes = 0u32;
    let mut parked_tenants: Vec<usize> = Vec::new();
    let mut declare_dead_window = None;
    let mut first_replacement_window = None;
    let mut max_staleness = 0u32;
    let mut min_rate_estimate = f64::INFINITY;

    for w in 0..total {
        // 1. Scripted machine-scoped faults.
        for tr in injector.advance(w).to_vec() {
            let m = tr.target.map(|j| j as usize).expect("cluster faults are targeted");
            match tr.kind {
                FaultKind::MachineCrash { .. } => {
                    if tr.begin {
                        // Power loss: in-flight work on every resident is
                        // forfeited through the counted drain path.
                        for t in tenants.iter_mut().filter(|t| t.loc() == Some(m)) {
                            t.rt.park(cluster.engine_mut(t.machine));
                        }
                        cluster.set_up(MachineId(m), false);
                    } else {
                        // Restart: the machine comes back empty; its
                        // heartbeat below announces the recovery.
                        cluster.set_up(MachineId(m), true);
                    }
                }
                FaultKind::SocketDerate { stall_cycles } => {
                    derate[m] = if tr.begin { stall_cycles as u64 } else { 0 };
                }
                FaultKind::TelemetryLoss => channels[m].set_loss(tr.begin),
                FaultKind::TelemetryDelay { windows } => {
                    channels[m].set_delay(if tr.begin { windows } else { 0 });
                }
                _ => panic!("machine-scoped plan only in the cluster sweep"),
            }
        }
        // Derates strike machines; the stall follows current placement.
        for t in &tenants {
            if let Some(m) = t.loc() {
                t.rt.controls.stall_cycles.set(derate[m]);
            }
        }

        // 2. Heartbeats: a direct function of machine up-ness, on a
        // separate path from telemetry — a telemetry blackout must *not*
        // look like death.
        if let Some(ctrl) = ctrl.as_mut() {
            for m in cluster.machine_ids() {
                if cluster.is_up(m) {
                    ctrl.heartbeat(m, w);
                }
            }
        }

        // 3. Whatever the control plane delivered this window.
        if let Some(ctrl) = ctrl.as_mut() {
            for ch in channels.iter_mut() {
                for (tid, rep) in ch.recv(w) {
                    ctrl.ingest(tid, &rep);
                }
            }
        }

        // 4. One control tick; the admission gate wraps predictor
        // re-admission against the machine's current residents.
        let actions = if let Some(ctrl) = ctrl.as_mut() {
            let placed: Vec<(FlowType, Option<usize>)> =
                tenants.iter().map(|t| (t.flow, t.loc())).collect();
            let mut gate = |m: MachineId, flow: FlowType| {
                let resident: Vec<FlowType> = placed
                    .iter()
                    .filter(|(_, l)| *l == Some(m.index()))
                    .map(|(f, _)| *f)
                    .collect();
                readmission.admits(&resident, flow)
            };
            ctrl.tick(w, &mut gate)
        } else {
            Vec::new()
        };
        for a in actions {
            match a {
                FleetAction::ProbeMachine { .. } => probes += 1,
                FleetAction::DeclareDead { .. } => {
                    declare_dead_window.get_or_insert(w);
                }
                FleetAction::Replace { tenant, to } => {
                    let t = &mut tenants[tenant.0];
                    // From a refuge (return-home) the task drains off its
                    // engine first; an orphan is already in the box.
                    t.rt.park(cluster.engine_mut(t.machine));
                    let dest = free_slot(&cluster, to)
                        .expect("controller capacity keeps a slot free");
                    t.rt.install(cluster.engine_mut(to), dest);
                    t.machine = to;
                    t.rt.controls.stall_cycles.set(derate[to.index()]);
                    first_replacement_window.get_or_insert(w);
                }
                FleetAction::Park { tenant } => {
                    let t = &mut tenants[tenant.0];
                    t.rt.park(cluster.engine_mut(t.machine));
                    parked_tenants.push(tenant.0);
                }
            }
        }
        if let Some(ctrl) = ctrl.as_ref() {
            for t in &tenants {
                if let Some(s) = ctrl.staleness(t.id, w) {
                    max_staleness = max_staleness.max(s);
                }
                if let Some(r) = ctrl.rate_estimate(t.id) {
                    min_rate_estimate = min_rate_estimate.min(r);
                }
            }
        }

        // 5. One measured window per machine (down machines skip: their
        // clocks freeze). Each running tenant's report goes onto its
        // machine's telemetry channel — delivery is the channel's problem.
        // Parked tenants refuse their offered load, counted.
        let ms = cluster.measure_all(0, window);
        for t in tenants.iter_mut() {
            let Some(m) = t.loc() else {
                t.rt.refuse_window(window);
                continue;
            };
            let obs = t.rt.observe(ms[m].as_ref().expect("located tenants ride up machines"));
            let rep = TelemetryReport {
                window: w,
                pps: obs.pps,
                p99_us: obs.p99_us,
                loss_frac: obs.loss_frac,
            };
            channels[m].send(w, (t.id, rep));
        }
    }

    // Close the ledger: flush every running tenant from its final core
    // (parked tenants were flushed when they were taken off their engine).
    for t in tenants.iter_mut() {
        t.rt.flush(cluster.engine(t.machine));
    }
    let (decisions, replacements) = match &ctrl {
        Some(c) => (c.decisions(), c.replacements_used()),
        None => (0, 0),
    };
    ClusterOutcome {
        name: sc.name,
        windows: total,
        decisions,
        replacements,
        probes,
        parked_tenants,
        declare_dead_window,
        first_replacement_window,
        max_staleness,
        min_rate_estimate,
        tenants: tenants
            .iter()
            .map(|t| {
                let (drops, processed, conservation_slack) = t.rt.ledger();
                ClusterTenantOutcome {
                    flow: t.flow,
                    priority: t.priority,
                    home: t.home,
                    final_machine: t.loc(),
                    calib_pps: t.rt.calib_pps(),
                    min_pps: t.rt.min_pps,
                    drops,
                    processed,
                    conservation_slack,
                }
            })
            .collect(),
        digest: core_digest(cluster.machine_ids().map(|m| cluster.engine(m)), SLOTS as u16),
    }
}

impl ChaosSweep for ClusterChaos {
    type Scenario = ClusterScenario;
    type Outcome = ClusterOutcome;
    const HEADING: &'static str =
        "Cluster chaos — the fleet controller under machine death and lying telemetry";
    const CSV: &'static str = "cluster_chaos";
    const JSON_KEY: &'static str = "tenants";
    const CONTROL: &'static str = "cluster-empty-plan";
    const TWIN: bool = true;

    fn roster(seed: u64) -> Vec<ClusterScenario> {
        vec![
            ClusterScenario {
                name: "machine-crash-restart",
                // Machine 0 dies at w4 and restarts 10 windows later.
                plan: FaultPlan::seeded(seed ^ 0xC1A5).with_machine_crash(CRASH_AT, 10, 0),
                fleet: default_fleet(),
                last_event: CRASH_AT + 10,
            },
            ClusterScenario {
                name: "telemetry-blackout",
                // Machine 2's control plane goes dark while its datapath
                // degrades; the channel returns with a 2-window delay. Only
                // the *reports* are struck — the machine never stops beating.
                plan: FaultPlan::seeded(seed ^ 0xB1AD)
                    .with_target(4, 14, 2, FaultKind::TelemetryLoss)
                    .with_target(6, 12, 2, FaultKind::SocketDerate { stall_cycles: 20_000 })
                    .with_target(14, 18, 2, FaultKind::TelemetryDelay { windows: 2 }),
                fleet: default_fleet(),
                last_event: 18,
            },
            ClusterScenario {
                name: "cascading-overload",
                // Machine 0 carries three tenants (priorities 2/1/0) and dies
                // for good — the restart lands far past the horizon. The
                // survivors have one free slot each: someone must lose.
                plan: FaultPlan::seeded(seed ^ 0xCA5C).with_machine_crash(CRASH_AT, 60, 0),
                fleet: vec![
                    (FlowType::Ip, 2, 0),
                    (FlowType::Fw, 1, 0),
                    (FlowType::Mon, 0, 0),
                    (FlowType::Ip, 2, 1),
                    (FlowType::Mon, 1, 1),
                    (FlowType::Ip, 2, 2),
                    (FlowType::Mon, 1, 2),
                ],
                last_event: 12,
            },
            ClusterScenario {
                name: "cluster-empty-plan",
                plan: FaultPlan::empty(),
                fleet: default_fleet(),
                last_event: 0,
            },
        ]
    }

    fn name(sc: &ClusterScenario) -> &'static str {
        sc.name
    }

    fn plan(sc: &ClusterScenario) -> &FaultPlan {
        &sc.plan
    }

    fn prepare(ctx: &RunCtx) -> Self {
        ClusterChaos { readmission: Readmission::profile(ctx) }
    }

    fn run_scenario(&self, ctx: &RunCtx, sc: &ClusterScenario, controlled: bool) -> ClusterOutcome {
        run_cluster_scenario(ctx, sc, &self.readmission, controlled)
    }

    fn twin_key(o: &ClusterOutcome) -> TwinKey {
        (o.digest, o.tenants.iter().map(|t| (t.processed, t.drops)).collect())
    }

    fn table(outcomes: &[ClusterOutcome]) -> Table {
        let mut table = Table::new(
            "Cluster chaos: fleet-controller response per tenant per scenario",
            &[
                "scenario", "tenant", "prio", "home", "end", "offered", "processed",
                "drained", "lost", "min/calib", "slack",
            ],
        );
        for o in outcomes {
            for t in &o.tenants {
                table.row(vec![
                    o.name.to_string(),
                    t.flow.to_string(),
                    t.priority.to_string(),
                    format!("m{}", t.home),
                    t.final_machine.map(|m| format!("m{m}")).unwrap_or_else(|| "parked".into()),
                    t.drops.offered.to_string(),
                    t.processed.to_string(),
                    t.drops.drained.to_string(),
                    t.drops.total_dropped().to_string(),
                    format!("{:.2}", t.min_pps / t.calib_pps.max(1.0)),
                    t.conservation_slack.to_string(),
                ]);
            }
        }
        table
    }

    /// One flat row per tenant per scenario.
    fn json_rows(outcomes: &[ClusterOutcome]) -> Vec<JsonRow> {
        outcomes
            .iter()
            .flat_map(|o| {
                o.tenants.iter().map(move |t| {
                    JsonRow::new()
                        .str("scenario", o.name)
                        .str("tenant", t.flow)
                        .num("priority", t.priority)
                        .num("home", t.home)
                        .opt_num("final_machine", t.final_machine)
                        .num("calib_pps", format!("{:.1}", t.calib_pps))
                        .num("min_pps", format!("{:.1}", t.min_pps))
                        .num("offered", t.drops.offered)
                        .num("processed", t.processed)
                        .num("drained", t.drops.drained)
                        .num("total_dropped", t.drops.total_dropped())
                        .num("conservation_slack", t.conservation_slack)
                        .num("decisions", o.decisions)
                        .num("replacements", o.replacements)
                        .num("probes", o.probes)
                        .num("max_staleness", o.max_staleness)
                        .opt_num("declared_dead_at", o.declare_dead_window)
                        .opt_num("first_replacement_at", o.first_replacement_window)
                })
            })
            .collect()
    }

    fn check(o: &ClusterOutcome) {
        let n = o.name;
        for t in &o.tenants {
            assert_eq!(
                t.conservation_slack, 0,
                "[{n}/{}@m{}] fleet-wide ledger must conserve exactly",
                t.flow, t.home
            );
            assert!(t.drops.offered > 0, "[{n}/{}@m{}] tenant saw traffic", t.flow, t.home);
        }
        let healthy_bound = |t: &ClusterTenantOutcome| {
            assert_eq!(
                t.final_machine,
                Some(t.home),
                "[{n}/{}@m{}] healthy tenant must stay home",
                t.flow,
                t.home
            );
            assert!(
                t.min_pps >= INTERFERENCE_FLOOR * t.calib_pps,
                "[{n}/{}@m{}] interference bound: min {:.3e} < {:.2} × calib {:.3e}",
                t.flow,
                t.home,
                t.min_pps,
                INTERFERENCE_FLOOR,
                t.calib_pps
            );
        };
        match n {
            "machine-crash-restart" => {
                let dead = o.declare_dead_window.expect("crash must be declared");
                let first = o.first_replacement_window.expect("orphans must be re-placed");
                assert!(
                    first - CRASH_AT <= REPLACEMENT_BOUND,
                    "[{n}] re-placement took {} windows (bound {REPLACEMENT_BOUND})",
                    first - CRASH_AT
                );
                assert!(dead <= first, "[{n}] replacement follows the declaration");
                assert_eq!(o.probes, 2, "[{n}] two probes on capped backoff before death");
                assert_eq!(o.replacements, 2, "[{n}] both orphans cost budget exactly once");
                // DeclareDead + 2 orphan placements + 2 budget-free returns.
                assert_eq!(o.decisions, 5, "[{n}] decision count is exact and bounded");
                assert!(o.parked_tenants.is_empty(), "[{n}] zero healthy-machine collateral");
                for t in &o.tenants {
                    if t.home == 0 {
                        assert_eq!(
                            t.final_machine,
                            Some(0),
                            "[{n}/{}] restart must send the refugee home",
                            t.flow
                        );
                        assert!(t.drops.drained > 0, "[{n}/{}] crash loss counted", t.flow);
                    } else {
                        healthy_bound(t);
                    }
                }
            }
            "telemetry-blackout" => {
                assert_eq!(
                    o.decisions, 0,
                    "[{n}] blindness bounds the decision rate: hold, don't flap"
                );
                assert_eq!(o.probes, 0, "[{n}] heartbeats never stopped — no liveness doubt");
                assert!(
                    o.max_staleness >= BLACKOUT_STALENESS_FLOOR,
                    "[{n}] the blackout must actually blind the controller \
                     (max staleness {} < {BLACKOUT_STALENESS_FLOOR})",
                    o.max_staleness
                );
                let min_calib =
                    o.tenants.iter().map(|t| t.calib_pps).fold(f64::INFINITY, f64::min);
                assert!(
                    o.min_rate_estimate >= FLOOR_FRAC * min_calib,
                    "[{n}] silence must hold last-known-good, never read as rate 0 \
                     (min estimate {:.3e})",
                    o.min_rate_estimate
                );
                for t in &o.tenants {
                    // The derated machine's tenants dip by design; everyone
                    // stays home either way.
                    assert_eq!(t.final_machine, Some(t.home), "[{n}/{}] nobody moves", t.flow);
                    if t.home != 2 {
                        healthy_bound(t);
                    }
                }
            }
            "cascading-overload" => {
                assert_eq!(o.replacements, 2, "[{n}] the two higher classes are re-placed");
                // DeclareDead + 2 placements + 1 park.
                assert_eq!(o.decisions, 4, "[{n}] shed by SLA class, then hold");
                assert_eq!(o.parked_tenants.len(), 1, "[{n}] exactly one tenant parks");
                let parked = &o.tenants[o.parked_tenants[0]];
                assert_eq!(parked.priority, 0, "[{n}] the lowest SLA class parks");
                assert_eq!(parked.final_machine, None, "[{n}] no slot ever frees up");
                assert!(parked.drops.drained > 0, "[{n}] parked loss is counted, not silent");
                for t in &o.tenants {
                    if t.home == 0 && t.priority > 0 {
                        let m = t.final_machine.expect("re-placed refugee is running");
                        assert_ne!(m, 0, "[{n}/{}] the dead machine never hosts", t.flow);
                    } else if t.home != 0 {
                        assert!(
                            t.min_pps >= INTERFERENCE_FLOOR * t.calib_pps,
                            "[{n}/{}@m{}] survivor interference bound",
                            t.flow,
                            t.home
                        );
                    }
                }
            }
            "cluster-empty-plan" => {
                assert_eq!(o.decisions, 0, "[{n}] the idle control plane decides nothing");
                assert_eq!(o.probes, 0);
                assert!(o.parked_tenants.is_empty());
                for t in &o.tenants {
                    assert_eq!(t.drops.drained, 0, "[{n}/{}] nothing drained", t.flow);
                    assert_eq!(t.final_machine, Some(t.home));
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
    fn cluster_chaos_holds_its_claims_at_test_scale() {
        let outcomes =
            golden::<ClusterChaos>(include_str!("../../tests/golden/CLUSTER_CHAOS_results.json"));
        assert_eq!(outcomes.len(), 4);
        // Every placement core's clock and retired-packet count, per
        // scenario — in the outcome but not in the JSON rows.
        let digests: Vec<(&str, u64)> = outcomes.iter().map(|o| (o.name, o.digest)).collect();
        assert_eq!(
            digests,
            [
                ("machine-crash-restart", 0xc84a6731ee758420),
                ("telemetry-blackout", 0xc54dcb2fd4010273),
                ("cascading-overload", 0x3056c442ed6a1b3b),
                ("cluster-empty-plan", 0xf23bb280372a8210),
            ],
            "a cluster scenario's core clocks / packet counters moved"
        );
    }
}
