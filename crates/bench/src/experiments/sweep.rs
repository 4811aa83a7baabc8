//! The chaos-family sweep protocol, written once. `repro chaos`,
//! `fleet-chaos` and `cluster-chaos` each implement [`ChaosSweep`]: a
//! roster, the planning state shared by its scenarios, one scenario run,
//! and the table, JSON rows and checks of its outcomes. The vocabulary,
//! the sharding of a roster subset across host threads, the empty-plan
//! twin and the run's table → JSON → check sequence are here
//! (ARCHITECTURE.md § "Window protocol and tenant runtime").

use crate::experiments::results_json::{save_results_json, JsonRow};
use crate::RunCtx;
use pp_core::prelude::*;
use pp_net::fivetuple::fnv1a;
use pp_sim::engine::Engine;
use pp_sim::fault::{DropStats, FaultPlan};
use pp_sim::types::CoreId;
use std::fmt::Debug;

/// What an empty-plan control and its controller-free twin must agree on
/// exactly: the core digest (FNV-1a over every placement core's clock
/// and retired packets) and every tenant's `(processed, drops)`.
pub type TwinKey = (u64, Vec<(u64, DropStats)>);

/// One chaos-family sweep. The implementing type is the planning state
/// [`prepare`](Self::prepare) builds once and every scenario run reads.
pub trait ChaosSweep: Sized + Sync {
    /// One roster entry: plain config data (`Send`), so scenarios shard
    /// across host threads; each worker builds its own engines (engines
    /// are `Rc`-based and never cross a thread boundary).
    type Scenario: Clone + Send;
    /// Everything one scenario run produced. `PartialEq` compares every
    /// field exactly (floats included): the determinism harness pins
    /// sharded runs bit-for-bit against serial.
    type Outcome: Send + PartialEq + Debug;

    /// The section heading.
    const HEADING: &'static str;
    /// The CSV file stem; the results JSON, written to the working
    /// directory for CI to upload, is `<STEM>_results.json` in capitals.
    const CSV: &'static str;
    /// The results-JSON document's top key.
    const JSON_KEY: &'static str;
    /// The empty-plan control scenario.
    const CONTROL: &'static str;
    /// Whether the control also runs controller-free, as one more job, and
    /// must match itself on [`twin_key`](Self::twin_key): an idle control
    /// plane is free.
    const TWIN: bool;

    /// The roster under master seed `seed`. Each plan's seed is a
    /// per-scenario mix of `seed`, never a sequential draw from one RNG,
    /// so a timeline does not depend on which other scenarios run and
    /// `--seed` replays it exactly.
    fn roster(seed: u64) -> Vec<Self::Scenario>;
    /// A scenario's name.
    fn name(sc: &Self::Scenario) -> &'static str;
    /// A scenario's fault plan.
    fn plan(sc: &Self::Scenario) -> &FaultPlan;
    /// The planning state, built once per sweep whatever subset runs.
    fn prepare(ctx: &RunCtx) -> Self;
    /// Run one scenario end to end; `controlled = false` runs the same
    /// measurement schedule with no controller (the twin).
    fn run_scenario(&self, ctx: &RunCtx, sc: &Self::Scenario, controlled: bool) -> Self::Outcome;
    /// The twin identity key; called only when [`TWIN`](Self::TWIN).
    fn twin_key(o: &Self::Outcome) -> TwinKey;
    /// The summary table, printed and saved as CSV.
    fn table(outcomes: &[Self::Outcome]) -> Table;
    /// The results-JSON records, in outcome order.
    fn json_rows(outcomes: &[Self::Outcome]) -> Vec<JsonRow>;
    /// One outcome's assertions: the sweep's acceptance criteria.
    fn check(o: &Self::Outcome);
}

/// Canonical scenario names, in roster order: the vocabulary
/// [`measure_scenarios`] accepts.
pub fn scenario_names<S: ChaosSweep>() -> Vec<&'static str> {
    S::roster(0).iter().map(S::name).collect()
}

/// Every scenario's fault plan under master seed `seed`, by name.
pub fn scenario_plans<S: ChaosSweep>(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    S::roster(seed).iter().map(|sc| (S::name(sc), S::plan(sc).clone())).collect()
}

/// Measure the roster entries `names` selects across `ctx.jobs` host
/// threads, outcomes in roster order. With a twin and the control
/// selected, the twin runs as one more job and its identity with the
/// control is asserted here. Every scenario derives its own seeds and
/// builds its own engines, so results are bit-for-bit identical at any
/// job count.
pub fn measure_scenarios<S: ChaosSweep>(ctx: &RunCtx, names: &[&str]) -> Vec<S::Outcome> {
    let sweep = S::prepare(ctx);
    let mut work: Vec<(S::Scenario, bool)> = S::roster(ctx.params.seed)
        .into_iter()
        .filter(|sc| names.contains(&S::name(sc)))
        .map(|sc| (sc, true))
        .collect();
    let control = work.iter().position(|(sc, _)| S::TWIN && S::name(sc) == S::CONTROL);
    if let Some(i) = control {
        work.push((work[i].0.clone(), false));
    }
    let mut outcomes =
        run_many(work, ctx.jobs, |(sc, controlled)| sweep.run_scenario(ctx, &sc, controlled));
    if let Some(i) = control {
        let twin = S::twin_key(&outcomes.pop().expect("twin job present"));
        assert_eq!(
            S::twin_key(&outcomes[i]),
            twin,
            "[{}] the controller-free twin diverged (core digest, per-tenant processed and drops)",
            S::CONTROL
        );
        println!("{} digest {:#018x} (twin identical)", S::CONTROL, twin.0);
    }
    outcomes
}

/// Run the whole sweep: every scenario, the table and CSV, the results
/// JSON, then every outcome's checks.
pub fn run<S: ChaosSweep>(ctx: &RunCtx) -> Vec<S::Outcome> {
    ctx.heading(S::HEADING);
    let names = scenario_names::<S>();
    println!(
        "preparing, then running {} scenarios{} across {} jobs: {}…",
        names.len(),
        if S::TWIN { " (+ the controller-free twin)" } else { "" },
        ctx.jobs.min(names.len() + S::TWIN as usize),
        names.join(", ")
    );
    let outcomes = measure_scenarios::<S>(ctx, &names);
    ctx.emit(S::CSV, &S::table(&outcomes));
    let json = format!("{}_results.json", S::CSV.to_uppercase());
    save_results_json(&json, S::JSON_KEY, &S::json_rows(&outcomes));
    outcomes.iter().for_each(S::check);
    println!("{}: {} scenarios, every claim checked", S::CSV, outcomes.len());
    outcomes
}

/// [`run`] at the chaos test windows (0.5 ms warm-up, 1.5 ms windows),
/// with its results JSON pinned against the checked-in golden `doc`, not
/// just against `--jobs N`.
#[cfg(test)]
pub(crate) fn golden<S: ChaosSweep>(doc: &str) -> Vec<S::Outcome> {
    let mut ctx = RunCtx::quick();
    ctx.params.warmup_ms = 0.5;
    ctx.params.window_ms = 1.5;
    ctx.out_dir = std::env::temp_dir();
    let outcomes = run::<S>(&ctx);
    let rows = S::json_rows(&outcomes);
    let rendered = crate::experiments::results_json::render_document(S::JSON_KEY, &rows);
    assert_eq!(rendered, doc, "{} results moved against the checked-in golden", S::CSV);
    outcomes
}

/// FNV-1a over `(machine, core, clock, retired packets)` for cores
/// `0..cores` of each engine, machines numbered in iteration order: no
/// core ran one cycle or retired one packet differently.
pub fn core_digest<'a>(engines: impl IntoIterator<Item = &'a Engine>, cores: u16) -> u64 {
    let words = engines.into_iter().enumerate().flat_map(|(m, eng)| {
        (0..cores).flat_map(move |c| {
            let core = eng.machine.core(CoreId(c));
            [m as u64, c as u64, core.clock, core.counters.total().packets]
        })
    });
    fnv1a(&words.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

/// The re-admission profile `fleet-chaos` and `cluster-chaos` gate every
/// return on: IP, MON and FW profiled at `levels.min(3)`, each under a
/// 40 % drop SLA.
pub(crate) struct Readmission {
    predictor: Predictor,
    pub(crate) slas: Vec<Sla>,
}

impl Readmission {
    pub(crate) fn profile(ctx: &RunCtx) -> Self {
        let flows = [FlowType::Ip, FlowType::Mon, FlowType::Fw];
        Readmission {
            predictor: Predictor::profile(&flows, ctx.levels.min(3), ctx.params, ctx.jobs),
            slas: flows.iter().map(|&f| Sla { flow: f, max_drop_pct: 40.0 }).collect(),
        }
    }

    pub(crate) fn admission(&self) -> AdmissionController<'_> {
        AdmissionController::new(&self.predictor)
    }

    /// Whether `flow` may return beside `resident` with every SLA held.
    pub(crate) fn admits(&self, resident: &[FlowType], flow: FlowType) -> bool {
        self.admission().readmit(resident, &self.slas, flow).admitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Every fake run as `(master seed, scenario, controlled)`; tests share
    /// the process, so each filters by its own seed.
    static RUNS: Mutex<Vec<(u64, &'static str, bool)>> = Mutex::new(Vec::new());
    /// The master seed under which the fake's twin diverges.
    const DIVERGENT: u64 = 13;

    /// An engine-free sweep whose outcome is `(scenario, seed, controlled)`.
    struct Fake;

    impl ChaosSweep for Fake {
        type Scenario = (&'static str, FaultPlan);
        type Outcome = (&'static str, u64, bool);
        const HEADING: &'static str = "fake";
        const CSV: &'static str = "fake";
        const JSON_KEY: &'static str = "scenarios";
        const CONTROL: &'static str = "fake-empty-plan";
        const TWIN: bool = true;

        fn roster(seed: u64) -> Vec<Self::Scenario> {
            let plans = [FaultPlan::seeded(seed), FaultPlan::seeded(!seed), FaultPlan::empty()];
            ["a", "b", Self::CONTROL].into_iter().zip(plans).collect()
        }
        fn name(sc: &Self::Scenario) -> &'static str {
            sc.0
        }
        fn plan(sc: &Self::Scenario) -> &FaultPlan {
            &sc.1
        }
        fn prepare(_: &RunCtx) -> Self {
            Fake
        }
        fn run_scenario(&self, ctx: &RunCtx, sc: &Self::Scenario, controlled: bool) -> Self::Outcome {
            RUNS.lock().expect("runs lock").push((ctx.params.seed, sc.0, controlled));
            (sc.0, ctx.params.seed, controlled)
        }
        fn twin_key(&(_, seed, controlled): &Self::Outcome) -> TwinKey {
            ((seed == DIVERGENT && !controlled) as u64, Vec::new())
        }
        fn table(_: &[Self::Outcome]) -> Table {
            Table::new("fake", &[])
        }
        fn json_rows(_: &[Self::Outcome]) -> Vec<JsonRow> {
            Vec::new()
        }
        fn check(_: &Self::Outcome) {}
    }

    /// The fake's outcomes for `names` at master seed `seed`, on four jobs.
    fn measure(seed: u64, names: &[&str]) -> Vec<(&'static str, u64, bool)> {
        let mut ctx = RunCtx::quick();
        (ctx.params.seed, ctx.jobs) = (seed, 4);
        measure_scenarios::<Fake>(&ctx, names)
    }

    /// The scenarios the fake ran controller-free at master seed `seed`.
    fn uncontrolled(seed: u64) -> Vec<&'static str> {
        let runs = RUNS.lock().expect("runs lock");
        runs.iter().filter(|r| r.0 == seed && !r.2).map(|r| r.1).collect()
    }

    #[test]
    fn a_subset_comes_back_in_roster_order_and_the_twin_rides_only_with_the_control() {
        assert_eq!(measure(11, &["b", "a"]), [("a", 11, true), ("b", 11, true)]);
        assert!(uncontrolled(11).is_empty(), "no control, no twin");

        let names = scenario_names::<Fake>();
        let plan_names: Vec<&str> = scenario_plans::<Fake>(7).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, plan_names);
        let outcomes = measure(12, &names);
        assert!(outcomes.iter().all(|o| o.2), "the twin's outcome is not returned");
        assert_eq!(outcomes.len(), names.len());
        assert_eq!(uncontrolled(12), [Fake::CONTROL], "the twin runs once, controller-free");
    }

    #[test]
    #[should_panic(expected = "[fake-empty-plan] the controller-free twin diverged")]
    fn a_divergent_twin_panics_naming_the_control() {
        measure(DIVERGENT, &[Fake::CONTROL]);
    }
}
