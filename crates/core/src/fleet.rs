//! The fleet controller: machine-death detection, stale-telemetry
//! discipline, and budgeted re-placement across a cluster.
//!
//! The supervisor (PR 7) is a machine-level control plane with perfect
//! information: it calls `measure()` and the answer is fresh by
//! construction. The fleet controller faces the two failure domains a
//! cluster adds — machines that die wholesale, and a control plane that
//! lies by omission — and is built around three disciplines:
//!
//! 1. **Liveness is inferred, never assumed.** A machine is `Up` until
//!    its heartbeat goes silent past [`FleetConfig::HEARTBEAT_TIMEOUT`]
//!    windows, then `Suspect`: the controller sends probes on a capped
//!    exponential backoff ([`FleetConfig::PROBE_BACKOFF_BASE`] doubling to
//!    [`FleetConfig::PROBE_BACKOFF_MAX`]) and only after
//!    [`FleetConfig::SUSPECT_PROBES`] unanswered probes declares it `Dead`.
//!    The backoff bounds how hard a flapping network can make the
//!    controller work; the probe count bounds how long a genuinely dead
//!    machine strands its tenants. A heartbeat at any point snaps the
//!    machine back to `Up` — and a heartbeat from a `Dead` machine marks
//!    a restart, which sends displaced tenants home (admission-gated,
//!    free of the re-placement budget: going home restores the plan the
//!    predictor already approved).
//! 2. **Stale telemetry is suspect, never truth.** Estimates come from
//!    the [`telemetry`](crate::telemetry) trackers: last-known-good,
//!    held through silence, confidence-decayed past the freshness
//!    horizon. Violation streaks advance only when a *fresh-ordered*
//!    report arrives, and overload shedding additionally requires
//!    bundle confidence ≥ [`FleetConfig::ACT_CONFIDENCE`] — so during a
//!    telemetry blackout the controller holds its last-safe decisions
//!    instead of flapping. Blindness bounds the decision rate by
//!    construction.
//! 3. **Re-placement is budgeted and gated.** Tenants orphaned by a dead
//!    machine are re-placed in SLA-priority order, each placement gated
//!    by the same predictor-backed admission the original plan used
//!    (the driver supplies the gate closure wrapping
//!    [`readmit`](crate::admission::AdmissionController::readmit)), and
//!    every cross-machine move consumes a global
//!    [`FleetConfig::REPLACEMENT_BUDGET`].
//!    A tenant with no admitted machine — or no budget left — parks, and
//!    its refused load is counted `drained`, not silently lost. Under
//!    sustained fresh-telemetry floor violation the controller sheds the
//!    *lowest*-priority resident of the overloaded machine: degradation
//!    by SLA class, not collapse of every tenant.
//!
//! The controller is pure decision logic (schedule/mechanism split): it
//! tracks placement intent and emits [`FleetAction`]s; the cluster-chaos
//! driver actuates them on the engines and owns the loss ledger.

use crate::guard::{Backoff, Streak};
use crate::supervisor::TenantId;
use crate::telemetry::{TelemetryReport, TenantTelemetry};
use crate::workload::FlowType;
use pp_sim::cluster::MachineId;

/// Tuning for the fleet controller. Every value is a constant, sized for
/// the cluster-chaos timelines (windows of a few ms): detection within ~8
/// windows of a crash, action only on fresh evidence. The type stays so
/// that [`FleetController::new`] keeps its signature; the telemetry
/// tuning lives on [`TenantTelemetry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetConfig;

impl FleetConfig {
    /// Windows of heartbeat silence tolerated: a machine turns `Suspect`
    /// once silence exceeds this. 2 tolerates one lost beat without
    /// probing.
    pub const HEARTBEAT_TIMEOUT: u32 = 2;
    /// Unanswered probes before a `Suspect` machine is declared `Dead`.
    pub const SUSPECT_PROBES: u32 = 2;
    /// Windows idled after the first probe before the next: probes go
    /// out `PROBE_BACKOFF_BASE + 1` windows apart, then the idle doubles.
    /// So a machine silent from w0 turns suspect at w3, is probed at w4
    /// and w6, and is declared dead at w9.
    pub const PROBE_BACKOFF_BASE: u32 = 1;
    /// Ceiling on the idle between probes, windows.
    pub const PROBE_BACKOFF_MAX: u32 = 4;
    /// Minimum bundle confidence for overload actions. With
    /// [`TenantTelemetry::DECAY`] 0.8, one window past the horizon (0.8)
    /// already falls below 0.9 — only genuinely fresh telemetry can
    /// trigger shedding.
    pub const ACT_CONFIDENCE: f64 = 0.9;
    /// Maximum residents per machine. Enforced by the controller itself
    /// (not the admission gate) because placements made earlier in the
    /// same tick must count — a gate built on a pre-tick snapshot would
    /// let two same-tick placements overfill one machine.
    pub const MACHINE_CAPACITY: usize = 3;
    /// Global budget of cross-machine re-placements (return-home moves
    /// after a restart are free — they restore the approved plan).
    pub const REPLACEMENT_BUDGET: u32 = 8;
    /// Consecutive fresh violating reports before an overload shed.
    pub const SHED_VIOLATIONS: u32 = 3;
    /// Windows a shed tenant is held parked before it may be re-placed
    /// (prevents shed→readmit flapping on the machine it just left).
    pub const RESHED_HOLD: u32 = 8;
}

// A report describes the window before the tick that reads it, so a
// horizon under one window would leave no report ever fresh.
const _: () = assert!(TenantTelemetry::FRESH_FOR >= 1, "reports lag one window by construction");

/// Controller's belief about one machine's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineState {
    /// Heartbeats current (or within the timeout).
    Up,
    /// Heartbeats silent past the timeout; probing on capped backoff.
    Suspect,
    /// Declared dead after [`FleetConfig::SUSPECT_PROBES`] unanswered
    /// probes. Tenants orphaned and re-placed. A heartbeat from here marks
    /// a restart.
    Dead,
}

/// One decision the controller asks the driver to actuate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Send a liveness probe to a suspect machine (not a placement
    /// change — probes do not count toward the decision total).
    ProbeMachine {
        /// The suspect machine.
        machine: MachineId,
    },
    /// The machine failed [`FleetConfig::SUSPECT_PROBES`] probes: treat it
    /// as dead. Its residents are orphaned and re-placed (or parked) this
    /// tick.
    DeclareDead {
        /// The machine being declared.
        machine: MachineId,
    },
    /// Place `tenant` on machine `to` (from parked, from a dead
    /// machine, or home from a refuge after a restart). The driver
    /// moves the task, re-anchors its counters, and drains in-flight
    /// credit as counted loss.
    Replace {
        /// The tenant to move.
        tenant: TenantId,
        /// Destination machine.
        to: MachineId,
    },
    /// Park `tenant`: no admitted machine (or none affordable), or it
    /// was shed from an overloaded machine. The driver refuses its
    /// offered load as counted `drained` loss.
    Park {
        /// The tenant to park.
        tenant: TenantId,
    },
}

impl FleetAction {
    /// Whether the action changes placement (probes do not).
    fn is_decision(&self) -> bool {
        !matches!(self, FleetAction::ProbeMachine { .. })
    }
}

#[derive(Debug)]
struct MachineSlot {
    state: MachineState,
    last_heartbeat: u32,
    probes_sent: u32,
    next_probe_in: u32,
    probe_backoff: Backoff,
    restarted: bool,
}

#[derive(Debug)]
struct TenantSlot {
    flow: FlowType,
    priority: u8,
    home: MachineId,
    placed: Option<MachineId>,
    telemetry: TenantTelemetry,
    min_pps: f64,
    /// Fresh-ordered reports under the floor, back to back.
    violations: Streak,
    hold_until: u32,
}

/// The fleet-level control plane. See the module docs for the three
/// disciplines; [`tick`](FleetController::tick) is the whole interface
/// the driver calls per window, plus [`heartbeat`](FleetController::heartbeat)
/// and [`ingest`](FleetController::ingest) for the two inbound paths.
#[derive(Debug)]
pub struct FleetController {
    machines: Vec<MachineSlot>,
    tenants: Vec<TenantSlot>,
    replacements_used: u32,
    decisions: u64,
}

impl FleetController {
    /// A controller with no machines or tenants yet.
    pub fn new(_: FleetConfig) -> Self {
        FleetController {
            machines: Vec::new(),
            tenants: Vec::new(),
            replacements_used: 0,
            decisions: 0,
        }
    }

    /// Register a machine (assumed up, heartbeat current at window 0).
    pub fn add_machine(&mut self) -> MachineId {
        let id = MachineId(self.machines.len());
        self.machines.push(MachineSlot {
            state: MachineState::Up,
            last_heartbeat: 0,
            probes_sent: 0,
            next_probe_in: 0,
            probe_backoff: Backoff::new(
                FleetConfig::PROBE_BACKOFF_BASE,
                FleetConfig::PROBE_BACKOFF_MAX,
            ),
            restarted: false,
        });
        id
    }

    /// Register a tenant placed on its `home` machine. `priority` orders
    /// re-placement and shedding (higher = more important). The SLA
    /// floor starts at 0 (never violating); set it after calibration
    /// with [`set_floor`](FleetController::set_floor).
    pub fn add_tenant(&mut self, flow: FlowType, priority: u8, home: MachineId) -> TenantId {
        let id = TenantId(self.tenants.len());
        self.tenants.push(TenantSlot {
            flow,
            priority,
            home,
            placed: Some(home),
            telemetry: TenantTelemetry::default(),
            min_pps: 0.0,
            violations: Streak::new(FleetConfig::SHED_VIOLATIONS),
            hold_until: 0,
        });
        id
    }

    /// Set the tenant's delivered-rate floor (packets/sec) for overload
    /// detection, typically a fraction of its calibrated solo rate.
    pub fn set_floor(&mut self, t: TenantId, min_pps: f64) {
        self.tenants[t.0].min_pps = min_pps;
    }

    /// A heartbeat from machine `m` observed at window `now`. Snaps
    /// `Suspect` back to `Up`; from `Dead` it marks a restart, which the
    /// next [`tick`](FleetController::tick) answers with return-home
    /// placements.
    pub fn heartbeat(&mut self, m: MachineId, now: u32) {
        let slot = &mut self.machines[m.index()];
        slot.last_heartbeat = slot.last_heartbeat.max(now);
        match slot.state {
            MachineState::Up => {}
            MachineState::Suspect | MachineState::Dead => {
                if slot.state == MachineState::Dead {
                    slot.restarted = true;
                }
                slot.state = MachineState::Up;
                slot.probes_sent = 0;
                slot.probe_backoff.reset();
                slot.next_probe_in = 0;
            }
        }
    }

    /// Ingest one surviving telemetry report for tenant `t`. The
    /// violation streak advances only on *fresh-ordered* reports (ones
    /// that move the bundle's freshness forward): late duplicates from a
    /// delayed channel blend into the estimate but cannot accumulate
    /// toward a shed.
    pub fn ingest(&mut self, t: TenantId, report: &TelemetryReport) {
        let slot = &mut self.tenants[t.0];
        let fresh = slot.telemetry.last_window().is_none_or(|last| report.window > last);
        slot.telemetry.ingest(report);
        if fresh {
            slot.violations.push(slot.min_pps > 0.0 && report.pps < slot.min_pps);
        }
    }

    /// One control tick at window `now`. `admit` answers "may `flow` be
    /// placed on this machine right now?" — the driver wraps predictor
    /// admission plus a free-core check. Returns the actions to actuate,
    /// in order.
    pub fn tick(
        &mut self,
        now: u32,
        admit: &mut dyn FnMut(MachineId, FlowType) -> bool,
    ) -> Vec<FleetAction> {
        let mut actions = Vec::new();
        self.tick_restarts(&mut actions, admit);
        let orphaned_now = self.tick_liveness(now, &mut actions);
        self.tick_replacement(now, &orphaned_now, &mut actions, admit);
        self.tick_overload(now, &mut actions);
        self.decisions += actions.iter().filter(|a| a.is_decision()).count() as u64;
        actions
    }

    /// Restarted machines get their displaced tenants back, admission-
    /// gated but budget-free: returning home restores the approved plan.
    fn tick_restarts(
        &mut self,
        actions: &mut Vec<FleetAction>,
        admit: &mut dyn FnMut(MachineId, FlowType) -> bool,
    ) {
        for mi in 0..self.machines.len() {
            if !self.machines[mi].restarted {
                continue;
            }
            self.machines[mi].restarted = false;
            let home = MachineId(mi);
            for ti in 0..self.tenants.len() {
                let t = &self.tenants[ti];
                if t.home == home && t.placed != Some(home) && admit(home, t.flow) {
                    self.tenants[ti].placed = Some(home);
                    actions.push(FleetAction::Replace { tenant: TenantId(ti), to: home });
                }
            }
        }
    }

    /// Returns the tenants orphaned by a `DeclareDead` this tick (so the
    /// replacement pass can announce a one-time `Park` for the ones it
    /// cannot re-home).
    fn tick_liveness(&mut self, now: u32, actions: &mut Vec<FleetAction>) -> Vec<usize> {
        let mut orphaned = Vec::new();
        for mi in 0..self.machines.len() {
            let m = MachineId(mi);
            let slot = &mut self.machines[mi];
            match slot.state {
                MachineState::Up => {
                    if now.saturating_sub(slot.last_heartbeat) > FleetConfig::HEARTBEAT_TIMEOUT {
                        slot.state = MachineState::Suspect;
                        slot.probes_sent = 0;
                        slot.probe_backoff.reset();
                        slot.next_probe_in = 0;
                    }
                }
                MachineState::Suspect => {
                    if slot.next_probe_in > 0 {
                        slot.next_probe_in -= 1;
                    } else if slot.probes_sent >= FleetConfig::SUSPECT_PROBES {
                        slot.state = MachineState::Dead;
                        actions.push(FleetAction::DeclareDead { machine: m });
                        for (ti, t) in self.tenants.iter_mut().enumerate() {
                            if t.placed == Some(m) {
                                t.placed = None;
                                t.violations.reset();
                                orphaned.push(ti);
                            }
                        }
                    } else {
                        slot.probes_sent += 1;
                        actions.push(FleetAction::ProbeMachine { machine: m });
                        slot.next_probe_in = slot.probe_backoff.take();
                    }
                }
                MachineState::Dead => {}
            }
        }
        orphaned
    }

    /// Re-place parked tenants in priority order (stable by id within a
    /// priority), budget- and admission-gated. A tenant that stays
    /// parked emits `Park` only on the tick it *became* parked, so a
    /// long outage costs one decision, not one per window.
    fn tick_replacement(
        &mut self,
        now: u32,
        orphaned_now: &[usize],
        actions: &mut Vec<FleetAction>,
        admit: &mut dyn FnMut(MachineId, FlowType) -> bool,
    ) {
        let mut order: Vec<usize> = (0..self.tenants.len())
            .filter(|&ti| self.tenants[ti].placed.is_none() && now >= self.tenants[ti].hold_until)
            .collect();
        order.sort_by_key(|&ti| std::cmp::Reverse(self.tenants[ti].priority));
        for ti in order {
            let dest = if self.replacements_used < FleetConfig::REPLACEMENT_BUDGET {
                self.best_machine(self.tenants[ti].flow, admit)
            } else {
                None
            };
            match dest {
                Some(m) => {
                    self.replacements_used += 1;
                    self.tenants[ti].placed = Some(m);
                    actions.push(FleetAction::Replace { tenant: TenantId(ti), to: m });
                }
                None => {
                    // Only a tenant orphaned *this tick* announces its
                    // parking; older parked tenants already did.
                    if orphaned_now.contains(&ti) {
                        actions.push(FleetAction::Park { tenant: TenantId(ti) });
                    }
                }
            }
        }
    }

    /// Shed the lowest-priority resident of a machine whose tenants show
    /// a sustained, *fresh* floor violation. One shed per machine per
    /// tick; streaks reset so the next shed needs fresh evidence again.
    fn tick_overload(&mut self, now: u32, actions: &mut Vec<FleetAction>) {
        for mi in 0..self.machines.len() {
            if self.machines[mi].state != MachineState::Up {
                continue;
            }
            let m = MachineId(mi);
            let residents: Vec<usize> =
                (0..self.tenants.len()).filter(|&ti| self.tenants[ti].placed == Some(m)).collect();
            if residents.len() < 2 {
                continue; // shedding the only tenant helps nobody
            }
            let overloaded = residents.iter().any(|&ti| {
                let t = &self.tenants[ti];
                t.violations.full() && t.telemetry.confidence(now) >= FleetConfig::ACT_CONFIDENCE
            });
            if !overloaded {
                continue;
            }
            let &victim = residents
                .iter()
                .min_by_key(|&&ti| (self.tenants[ti].priority, std::cmp::Reverse(ti)))
                .expect("residents is non-empty");
            self.tenants[victim].placed = None;
            self.tenants[victim].hold_until = now.saturating_add(FleetConfig::RESHED_HOLD);
            for &ti in &residents {
                self.tenants[ti].violations.reset();
            }
            actions.push(FleetAction::Park { tenant: TenantId(victim) });
        }
    }

    /// Scored placement: among up machines that pass the admission gate,
    /// pick the one with the fewest residents, breaking ties by lowest
    /// aggregate rate estimate (last-known-good EWMA — a machine gone
    /// quiet does not look empty), then lowest id for determinism.
    fn best_machine(
        &self,
        flow: FlowType,
        admit: &mut dyn FnMut(MachineId, FlowType) -> bool,
    ) -> Option<MachineId> {
        let mut best: Option<(usize, f64, usize)> = None;
        for mi in 0..self.machines.len() {
            if self.machines[mi].state != MachineState::Up {
                continue;
            }
            let m = MachineId(mi);
            let residents = self.tenants.iter().filter(|t| t.placed == Some(m)).count();
            if residents >= FleetConfig::MACHINE_CAPACITY || !admit(m, flow) {
                continue;
            }
            let load: f64 = self
                .tenants
                .iter()
                .filter(|t| t.placed == Some(m))
                .filter_map(|t| t.telemetry.rate.value())
                .sum();
            let better = match best {
                None => true,
                Some((r, l, _)) => residents < r || (residents == r && load < l),
            };
            if better {
                best = Some((residents, load, mi));
            }
        }
        best.map(|(_, _, mi)| MachineId(mi))
    }

    /// Controller's belief about machine `m`.
    pub fn machine_state(&self, m: MachineId) -> MachineState {
        self.machines[m.index()].state
    }

    /// Current placement intent for tenant `t` (`None` = parked).
    pub fn placement(&self, t: TenantId) -> Option<MachineId> {
        self.tenants[t.0].placed
    }

    /// The tenant's home machine.
    pub fn home(&self, t: TenantId) -> MachineId {
        self.tenants[t.0].home
    }

    /// Total placement-changing decisions emitted so far (probes
    /// excluded). The blackout scenario asserts this stays flat while
    /// the controller is blind.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Cross-machine re-placements charged against the budget.
    pub fn replacements_used(&self) -> u32 {
        self.replacements_used
    }

    /// Last-known-good rate estimate for tenant `t`, if any report ever
    /// arrived.
    pub fn rate_estimate(&self, t: TenantId) -> Option<f64> {
        self.tenants[t.0].telemetry.rate.value()
    }

    /// Age of tenant `t`'s telemetry bundle at window `now`.
    pub fn staleness(&self, t: TenantId, now: u32) -> Option<u32> {
        self.tenants[t.0].telemetry.staleness(now)
    }

    /// Confidence in tenant `t`'s bundle at window `now`.
    pub fn confidence(&self, t: TenantId, now: u32) -> f64 {
        self.tenants[t.0].telemetry.confidence(now)
    }

    /// Tenants currently parked (no placement).
    pub fn parked_count(&self) -> usize {
        self.tenants.iter().filter(|t| t.placed.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(n_machines: usize) -> (FleetController, Vec<MachineId>) {
        let mut c = FleetController::new(FleetConfig);
        let ms: Vec<_> = (0..n_machines).map(|_| c.add_machine()).collect();
        (c, ms)
    }

    fn admit_all(_m: MachineId, _f: FlowType) -> bool {
        true
    }

    /// Walk a silent machine through Suspect → probes → Dead, returning
    /// the window at which it was declared and the probe windows.
    fn windows_to_death() -> (u32, Vec<u32>) {
        let (mut c, ms) = ctrl(1);
        c.add_tenant(FlowType::Ip, 1, ms[0]);
        let mut probes = Vec::new();
        for w in 0..100 {
            // no heartbeats at all
            for a in c.tick(w, &mut admit_all) {
                match a {
                    FleetAction::ProbeMachine { .. } => probes.push(w),
                    FleetAction::DeclareDead { .. } => return (w, probes),
                    _ => {}
                }
            }
        }
        panic!("machine never declared dead");
    }

    #[test]
    fn silent_machine_is_probed_with_capped_backoff_then_declared() {
        let (death, probes) = windows_to_death();
        // Silence from w0: suspect once silence > timeout (w3), first
        // probe next tick, the second after base+1 windows, the
        // declaration once the doubled idle expires with no answer.
        assert_eq!(probes, vec![4, 6], "probe schedule follows the backoff");
        assert_eq!(death, 9, "declared after the capped backoff runs out");
    }

    #[test]
    fn heartbeat_mid_suspect_recovers_without_decisions() {
        let (mut c, ms) = ctrl(1);
        c.add_tenant(FlowType::Ip, 1, ms[0]);
        for w in 0..4 {
            let _ = c.tick(w, &mut admit_all); // silence: suspect by w3
        }
        assert_eq!(c.machine_state(ms[0]), MachineState::Suspect);
        c.heartbeat(ms[0], 4);
        assert_eq!(c.machine_state(ms[0]), MachineState::Up);
        let _ = c.tick(4, &mut admit_all);
        assert_eq!(c.decisions(), 0, "a flap that recovers costs no placement change");
    }

    #[test]
    fn dead_machine_orphans_replaced_by_priority_within_budget() {
        let (mut c, ms) = ctrl(3);
        let hi = c.add_tenant(FlowType::Ip, 2, ms[0]);
        let lo = c.add_tenant(FlowType::Mon, 0, ms[0]);
        let mid = c.add_tenant(FlowType::Fw, 1, ms[0]);
        c.add_tenant(FlowType::Ip, 1, ms[1]); // existing resident on m1
        let mut placed_order = Vec::new();
        for w in 0..12 {
            c.heartbeat(ms[1], w);
            c.heartbeat(ms[2], w);
            for a in c.tick(w, &mut admit_all) {
                if let FleetAction::Replace { tenant, .. } = a {
                    placed_order.push(tenant);
                }
            }
        }
        assert_eq!(c.machine_state(ms[0]), MachineState::Dead);
        assert_eq!(placed_order, vec![hi, mid, lo], "highest priority re-places first");
        // Scored placement: hi goes to the emptier machine (m2), mid to
        // m1/m2 (fewest residents), and everything ends placed.
        assert_eq!(c.placement(hi), Some(ms[2]), "fewest residents wins");
        assert_eq!(c.parked_count(), 0);
        assert_eq!(c.replacements_used(), 3);
    }

    #[test]
    fn exhausted_budget_parks_instead_of_placing() {
        // m0 dies and restarts three times. Its three tenants are re-placed
        // 3 + 3 times and go home free; the third death finds 2 of the 8
        // re-placements left, so the lowest priority parks.
        let (mut c, ms) = ctrl(2);
        let hi = c.add_tenant(FlowType::Ip, 2, ms[0]);
        let mid = c.add_tenant(FlowType::Fw, 1, ms[0]);
        let lo = c.add_tenant(FlowType::Mon, 0, ms[0]);
        let mut parked = Vec::new();
        for w in 0..36 {
            // Silent for 10 windows (declared dead in the 10th), back for 3.
            if w % 13 >= 10 {
                c.heartbeat(ms[0], w);
            }
            c.heartbeat(ms[1], w);
            for a in c.tick(w, &mut admit_all) {
                if let FleetAction::Park { tenant } = a {
                    parked.push(tenant);
                }
            }
        }
        assert_eq!(c.machine_state(ms[0]), MachineState::Dead);
        assert_eq!(c.placement(hi), Some(ms[1]), "the budget goes to the higher priorities");
        assert_eq!(c.placement(mid), Some(ms[1]));
        assert_eq!(c.placement(lo), None);
        assert_eq!(parked, vec![lo], "parking announced once, not per window");
        assert_eq!(c.replacements_used(), FleetConfig::REPLACEMENT_BUDGET);
    }

    #[test]
    fn restart_returns_tenants_home_budget_free() {
        let (mut c, ms) = ctrl(2);
        let t = c.add_tenant(FlowType::Ip, 1, ms[0]);
        for w in 0..12 {
            c.heartbeat(ms[1], w);
            let _ = c.tick(w, &mut admit_all);
        }
        assert_eq!(c.machine_state(ms[0]), MachineState::Dead);
        assert_eq!(c.placement(t), Some(ms[1]), "refugee placed on the survivor");
        let used = c.replacements_used();
        c.heartbeat(ms[0], 12); // restart
        let acts = c.tick(12, &mut admit_all);
        assert!(acts.contains(&FleetAction::Replace { tenant: t, to: ms[0] }));
        assert_eq!(c.placement(t), Some(ms[0]), "home again");
        assert_eq!(c.replacements_used(), used, "going home is budget-free");
    }

    #[test]
    fn stale_telemetry_cannot_trigger_a_shed() {
        let (mut c, ms) = ctrl(1);
        let a = c.add_tenant(FlowType::Ip, 1, ms[0]);
        let _b = c.add_tenant(FlowType::Mon, 0, ms[0]);
        c.set_floor(a, 1000.0);
        // Three violating reports, but the last is 10 windows old by the
        // time the controller ticks: confidence has decayed, so it holds.
        for w in 0..3 {
            c.ingest(a, &TelemetryReport { window: w, pps: 10.0, p99_us: 50.0, loss_frac: 0.0 });
        }
        c.heartbeat(ms[0], 12);
        let acts = c.tick(12, &mut admit_all);
        assert!(acts.is_empty(), "stale evidence is suspect, never acted on: {acts:?}");
        assert_eq!(c.decisions(), 0);
        // The same evidence fresh *does* shed — and takes the low-
        // priority tenant, not the violating high-priority one.
        for w in 10..13 {
            c.heartbeat(ms[0], w);
            c.ingest(a, &TelemetryReport { window: w, pps: 10.0, p99_us: 50.0, loss_frac: 0.0 });
        }
        let acts = c.tick(13, &mut admit_all);
        assert_eq!(acts, vec![FleetAction::Park { tenant: _b }], "shed by priority");
    }

    #[test]
    fn shedding_stops_one_window_past_the_freshness_horizon() {
        // Three violating reports, the newest from w2. At w4 it is exactly
        // FRESH_FOR windows old (confidence 1.0) and the machine sheds; at
        // w5 confidence is DECAY = 0.8 < ACT_CONFIDENCE and it holds.
        let shed_at = |now: u32| {
            let (mut c, ms) = ctrl(1);
            let a = c.add_tenant(FlowType::Ip, 1, ms[0]);
            let b = c.add_tenant(FlowType::Mon, 0, ms[0]);
            c.set_floor(a, 1000.0);
            for w in 0..3 {
                let r = TelemetryReport { window: w, pps: 10.0, p99_us: 50.0, loss_frac: 0.0 };
                c.ingest(a, &r);
            }
            c.heartbeat(ms[0], now);
            (c.tick(now, &mut admit_all), b)
        };
        assert_eq!(TenantTelemetry::FRESH_FOR, 2);
        let (acts, b) = shed_at(4);
        assert_eq!(acts, vec![FleetAction::Park { tenant: b }], "fresh at the horizon: shed");
        let (acts, _) = shed_at(5);
        assert!(acts.is_empty(), "one window past the horizon: hold, {acts:?}");
    }

    #[test]
    fn late_duplicate_reports_do_not_accumulate_violations() {
        let (mut c, ms) = ctrl(1);
        let a = c.add_tenant(FlowType::Ip, 1, ms[0]);
        c.add_tenant(FlowType::Mon, 0, ms[0]);
        c.set_floor(a, 1000.0);
        // One fresh violating report, then the same window re-delivered
        // by a delayed channel: streak must stay at 1.
        let r = TelemetryReport { window: 5, pps: 10.0, p99_us: 50.0, loss_frac: 0.0 };
        c.ingest(a, &r);
        c.ingest(a, &r);
        c.ingest(a, &r);
        c.heartbeat(ms[0], 6);
        let acts = c.tick(6, &mut admit_all);
        assert!(acts.is_empty(), "replayed evidence is one observation, not three");
    }

    #[test]
    fn shed_victim_holds_before_replacement_retry() {
        let (mut c, ms) = ctrl(2);
        let a = c.add_tenant(FlowType::Ip, 1, ms[0]);
        let b = c.add_tenant(FlowType::Mon, 0, ms[0]);
        c.set_floor(a, 1000.0);
        for w in 0..3 {
            c.heartbeat(ms[0], w);
            c.heartbeat(ms[1], w);
            c.ingest(a, &TelemetryReport { window: w, pps: 10.0, p99_us: 50.0, loss_frac: 0.0 });
        }
        let acts = c.tick(3, &mut admit_all);
        assert_eq!(acts, vec![FleetAction::Park { tenant: b }]);
        // m1 has room and admits everything, but the hold keeps the shed
        // tenant parked — no shed→readmit flap.
        for w in 4..8 {
            c.heartbeat(ms[0], w);
            c.heartbeat(ms[1], w);
            assert!(c.tick(w, &mut admit_all).is_empty(), "held parked at w{w}");
        }
        // Past the hold it may be re-placed (elsewhere, by the score).
        let mut placed = None;
        for w in 8..14 {
            c.heartbeat(ms[0], w);
            c.heartbeat(ms[1], w);
            for act in c.tick(w, &mut admit_all) {
                if let FleetAction::Replace { tenant, to } = act {
                    assert_eq!(tenant, b);
                    placed = Some(to);
                }
            }
        }
        assert_eq!(placed, Some(ms[1]), "re-placed on the empty machine after the hold");
    }

    #[test]
    fn no_admitted_machine_means_parked_not_forced() {
        let (mut c, ms) = ctrl(2);
        let t = c.add_tenant(FlowType::Ip, 1, ms[0]);
        let mut deny_all = |_m: MachineId, _f: FlowType| false;
        for w in 0..12 {
            c.heartbeat(ms[1], w);
            let _ = c.tick(w, &mut deny_all);
        }
        assert_eq!(c.placement(t), None, "admission gate refused: parked");
        assert_eq!(c.replacements_used(), 0);
    }
}
