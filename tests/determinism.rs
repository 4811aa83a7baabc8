//! Tier-1 determinism properties for the parallel sweep runner (PR 9).
//!
//! The cheap half of the determinism harness: fault-plan construction
//! and injector timelines are pure functions of the master `--seed`,
//! independent of host job count and of which other scenarios share the
//! sweep. (The expensive half — full scenario results byte-compared
//! across `--jobs` counts — lives in `crates/bench/tests/determinism.rs`
//! so the tier-1 suite stays fast.)
//!
//! The structural guarantee under test: every chaos-family sweep derives
//! each scenario's plan seed as a per-scenario mix of the master seed
//! (`seed ^ SCENARIO_SALT`), never as a sequential draw from a shared
//! RNG — so adding, removing, or sharding scenarios cannot shift any
//! other scenario's fault timeline.

use pp_bench::experiments::chaos::Chaos;
use pp_bench::experiments::cluster_chaos::ClusterChaos;
use pp_bench::experiments::fleet_chaos::FleetChaos;
use pp_bench::experiments::sweep::{scenario_names, scenario_plans, ChaosSweep};
use predictable_pp::sim::fault::{FaultInjector, FaultPlan, FaultTransition};
use proptest::prelude::*;
use std::collections::HashSet;

/// Resolve a plan and replay it to quiescence, returning the full
/// window-ordered transition trace.
fn timeline(plan: &FaultPlan) -> Vec<FaultTransition> {
    let mut injector = FaultInjector::new(plan.clone());
    injector.advance(plan.last_window() + 2);
    injector.trace().to_vec()
}

/// One sweep's stem, vocabulary, plan list under one master seed and
/// empty-plan control, as the protocol reports them.
type Roster = (&'static str, Vec<&'static str>, Vec<(&'static str, FaultPlan)>, &'static str);

fn roster<S: ChaosSweep>(seed: u64) -> Roster {
    (S::CSV, scenario_names::<S>(), scenario_plans::<S>(seed), S::CONTROL)
}

/// The three chaos-family sweeps under master seed `seed`.
fn rosters(seed: u64) -> [Roster; 3] {
    [roster::<Chaos>(seed), roster::<FleetChaos>(seed), roster::<ClusterChaos>(seed)]
}

/// All three sweeps' plan lists under one master seed, flattened with a
/// sweep prefix so name collisions across sweeps stay distinguishable.
fn all_plans(seed: u64) -> Vec<(String, FaultPlan)> {
    rosters(seed)
        .into_iter()
        .flat_map(|(sweep, _, plans, _)| {
            plans.into_iter().map(move |(name, plan)| (format!("{sweep}/{name}"), plan))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same `--seed` ⇒ identical fault plans and identical resolved
    /// timelines, every time they are derived. This is what makes a
    /// scenario's run a pure function of `(seed, scenario)` — the
    /// precondition for sharding scenarios across threads at all.
    #[test]
    fn fault_plans_and_timelines_are_pure_functions_of_the_seed(seed in any::<u64>()) {
        let first = all_plans(seed);
        let second = all_plans(seed);
        prop_assert_eq!(&first, &second);
        for ((name, a), (_, b)) in first.iter().zip(second.iter()) {
            prop_assert_eq!(timeline(a), timeline(b), "[{}] timeline diverged", name);
        }
    }

    /// Per-scenario plan seeds are distinct mixes of the master seed
    /// within each sweep (empty plans excepted — they carry no RNG), so
    /// no two scenarios ever share a jitter stream.
    #[test]
    fn plan_seeds_are_distinct_per_scenario(seed in any::<u64>()) {
        for (sweep, _, plans, _) in rosters(seed) {
            let mut seen = HashSet::new();
            for (name, plan) in &plans {
                if plan.is_empty() {
                    continue;
                }
                prop_assert!(
                    seen.insert(plan.seed),
                    "[{}/{}] plan seed {} reused within the sweep",
                    sweep, name, plan.seed
                );
            }
        }
    }

    /// Timelines replay identically whether advanced window-by-window or
    /// in one jump — workers that poll at different cadences (or on
    /// different threads) observe the same transition sequence.
    #[test]
    fn timelines_are_independent_of_advance_cadence(seed in any::<u64>()) {
        for (name, plan) in all_plans(seed) {
            let jumped = timeline(&plan);
            let mut stepped = FaultInjector::new(plan.clone());
            for w in 0..=plan.last_window() + 2 {
                stepped.advance(w);
            }
            prop_assert_eq!(
                jumped,
                stepped.trace().to_vec(),
                "[{}] stepped replay diverged", name
            );
        }
    }
}

/// The roster vocabulary is stable: every sweep exposes its empty-plan
/// scenario (the bit-for-bit control) and the plan list covers exactly
/// the advertised names, in canonical order.
#[test]
fn scenario_vocabularies_cover_their_plan_lists() {
    for (_, names, plans, control) in rosters(7) {
        let plan_names: Vec<&str> = plans.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, plan_names, "plan list order != canonical scenario order");
        assert!(names.contains(&control), "missing the {control} control scenario");
        let (_, control_plan) = plans.iter().find(|(n, _)| *n == control).unwrap();
        assert!(control_plan.is_empty(), "{control} must schedule nothing");
    }
}
