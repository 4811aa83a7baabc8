//! Determinism harness for the parallel sweep runner (PR 9).
//!
//! The `--jobs N` contract is *bit-for-bit*: sharding a sweep's scenario
//! list across host threads must change nothing observable — not one
//! counter, not one digest, not one byte of the emitted JSON — relative
//! to the exact serial path (`--jobs 1`). These tests pin that contract
//! for the three chaos-family sweeps (the sweeps whose scenario loops
//! were serial before PR 9), across randomized scenario subsets, master
//! seeds, and job counts ∈ {1, 2, 8}.
//!
//! Everything runs at the 0.5 ms / 1.5 ms chaos test windows; the point
//! here is equality, not the robustness claims (those stay asserted by
//! each sweep's own `run` test).

use pp_bench::experiments::chaos::Chaos;
use pp_bench::experiments::cluster_chaos::ClusterChaos;
use pp_bench::experiments::fleet_chaos::FleetChaos;
use pp_bench::experiments::results_json::render_document;
use pp_bench::experiments::sweep::{measure_scenarios, scenario_names, ChaosSweep};
use pp_bench::experiments::tables;
use pp_bench::RunCtx;
use proptest::prelude::*;

/// A quick-scale context pinned to the chaos test windows, with the
/// given master seed and host job count.
fn det_ctx(jobs: usize, seed: u64) -> RunCtx {
    let mut ctx = RunCtx::quick();
    ctx.params.warmup_ms = 0.5;
    ctx.params.window_ms = 1.5;
    ctx.params.seed = seed;
    ctx.jobs = jobs;
    ctx.out_dir = std::env::temp_dir();
    ctx
}

/// Pick a non-empty subset of `names` from a bitmask, capped at `cap`
/// entries to bound simulation cost. Canonical order is preserved —
/// subsets are about *which* scenarios run, never about reordering.
fn subset_from_mask<'a>(names: &[&'a str], mask: u64, cap: usize) -> Vec<&'a str> {
    let picked: Vec<&str> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
        .map(|(_, n)| *n)
        .take(cap)
        .collect();
    if picked.is_empty() {
        vec![names[mask as usize % names.len()]]
    } else {
        picked
    }
}

/// Sweep `S` over `names` at master seed `seed`, serial vs. each of `jobs`:
/// the merged outcomes (core digests included) and the results-JSON bytes,
/// rendered under the sweep's own top key, must be identical.
fn assert_matches_serial<S: ChaosSweep>(names: &[&str], seed: u64, jobs: &[usize]) {
    let serial = measure_scenarios::<S>(&det_ctx(1, seed), names);
    let doc = render_document(S::JSON_KEY, &S::json_rows(&serial));
    for &j in jobs {
        let parallel = measure_scenarios::<S>(&det_ctx(j, seed), names);
        assert_eq!(serial, parallel, "{} outcomes diverged at --jobs {j}", S::CSV);
        let parallel_doc = render_document(S::JSON_KEY, &S::json_rows(&parallel));
        assert_eq!(doc, parallel_doc, "{} JSON bytes diverged at --jobs {j}", S::CSV);
    }
}

/// The full chaos roster, serial vs. jobs ∈ {2, 8}: merged outcomes and
/// the emitted `CHAOS_results.json` document must be byte-identical.
#[test]
fn chaos_full_roster_is_bitwise_identical_at_jobs_2_and_8() {
    assert_matches_serial::<Chaos>(&scenario_names::<Chaos>(), 42, &[2, 8]);
}

/// Subset runs return exactly the full roster's entries for those
/// scenarios: per-scenario seed derivation means a scenario's result
/// cannot depend on which other scenarios share the sweep.
#[test]
fn chaos_subset_results_equal_full_roster_entries() {
    let names = scenario_names::<Chaos>();
    let full = measure_scenarios::<Chaos>(&det_ctx(1, 42), &names);
    let subset = ["churn", "queue-pressure", Chaos::CONTROL];
    let picked = measure_scenarios::<Chaos>(&det_ctx(8, 42), &subset);
    assert_eq!(picked.len(), subset.len());
    for o in &picked {
        let reference = full
            .iter()
            .find(|f| f.name == o.name)
            .expect("subset scenario missing from full roster");
        assert_eq!(reference, o, "[{}] subset result != full-roster result", o.name);
    }
}

proptest! {
    // Each case runs a scenario subset twice (serial + sharded), so the
    // case count stays small; the subset, master seed, and job count all
    // vary per case.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized subsets × seeds × jobs ∈ {2, 8}: sharded outcomes and
    /// JSON bytes equal the exact serial path.
    #[test]
    fn chaos_random_subsets_match_serial(mask in any::<u64>(), seed in any::<u64>(), j8 in any::<bool>()) {
        let names = scenario_names::<Chaos>();
        let subset = subset_from_mask(&names, mask, 3);
        assert_matches_serial::<Chaos>(&subset, seed, &[if j8 { 8 } else { 2 }]);
    }
}

/// The fleet sweep (tenant supervisor) sharded across 4 jobs vs. serial,
/// on a subset that includes the twin-bearing control — so the
/// supervisor-free twin identity is also re-asserted under sharding (it
/// runs inside `measure_scenarios`).
#[test]
fn fleet_sweep_is_bitwise_identical_across_jobs() {
    assert_matches_serial::<FleetChaos>(&["sick-core", FleetChaos::CONTROL], 42, &[4]);
}

/// The tables sweep (PR 10) sharded across 4 jobs vs. serial: grid
/// points, model fits, predictor rows, and the `TABLES_results.json`
/// bytes must all match the exact serial path. Tiny table sizes — the
/// regime is irrelevant here, only shard-order independence.
#[test]
fn tables_sweep_is_bitwise_identical_across_jobs() {
    let sizes = [1_000usize, 4_000];
    let mut serial_ctx = det_ctx(1, 42);
    serial_ctx.levels = 2;
    let mut parallel_ctx = det_ctx(4, 42);
    parallel_ctx.levels = 2;
    let serial = tables::measure_all_sized(&serial_ctx, sizes);
    let parallel = tables::measure_all_sized(&parallel_ctx, sizes);
    assert_eq!(serial, parallel, "tables outcomes diverged across jobs");
    assert_eq!(
        render_document("rows", &tables::json_rows(&serial)),
        render_document("rows", &tables::json_rows(&parallel)),
        "TABLES_results.json bytes diverged across jobs"
    );
}

/// The cluster sweep sharded across 4 jobs vs. serial: per-scenario core
/// digests (every placement core's clock and retired-packet counter
/// across every machine) must match bit-for-bit, as must the merged
/// outcomes and the JSON document.
#[test]
fn cluster_sweep_digests_are_bitwise_identical_across_jobs() {
    let subset = ["machine-crash-restart", ClusterChaos::CONTROL];
    assert_matches_serial::<ClusterChaos>(&subset, 42, &[4]);
}
