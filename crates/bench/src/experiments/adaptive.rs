//! `repro adaptive` — the closed-loop sweep: adaptive batch control under
//! latency budgets, plus predictor re-validation on the batched datapath.
//!
//! This is the experiment that converts the two remaining ROADMAP open
//! items ("adaptive batch sizing", "predictor integration") into asserted
//! scenarios. Three claims are checked, every run:
//!
//! 1. **The budget holds.** For each (workload × solo/co-run × budget)
//!    scenario, the [`BatchController`] picks a batch size from the fitted
//!    `F/b + p` model and calibrated tail factors alone; the measured p99
//!    residence at that size must come in at or under the budget.
//! 2. **Throughput is not left on the table.** The chosen batch must
//!    achieve ≥ 90% of the throughput of the best *fixed* batch size that
//!    also (measurably) meets the budget — adaptivity must not cost more
//!    than the model's interpolation error.
//! 3. **Prediction under batching is measured and bounded.** The paper's
//!    three-step contention predictor is profiled and evaluated entirely
//!    at batch 64 across the five workloads and co-run mixes. The result
//!    (paper scale, this simulator): the <3 pp scalar accuracy does *not*
//!    fully transfer — batching coarsens cache interleaving to
//!    vector-sized chunks, which the refs/sec abstraction cannot see, and
//!    worst-case error grows to ~8 pp at batch 64 (~5 pp at batch 8).
//!    The run reports refs-, fill-rate-, and perfect-knowledge
//!    predictions per mix and asserts the measured envelope (< 12 pp at
//!    paper scale) so any further regression of the mechanism fails CI.
//!
//! Budgets are not arbitrary constants: per scenario, the controller's own
//! predicted p99 at rungs {4, 16, 64} of the candidate ladder is inflated
//! by 25% headroom. That spreads the decisions across the ladder (a tight
//! budget forces a small batch, a loose one reaches the top) and makes
//! claim 1 a real test of model accuracy — the measurement must land
//! within the headroom of an *interpolated* prediction at rungs the
//! calibration never measured.
//!
//! Co-run scenarios calibrate from probes measured in the co-run (profile
//! in context): contention stretches turn times, and the controller must
//! price that in, not discover it in production.

use crate::RunCtx;
use pp_core::prelude::*;

/// Workloads swept: the paper's realistic set.
pub const WORKLOADS: [FlowType; 5] =
    [FlowType::Ip, FlowType::Mon, FlowType::Fw, FlowType::Re, FlowType::Vpn];

/// Ladder rungs the budgets are anchored at (see module docs).
pub const BUDGET_RUNGS: [usize; 3] = [4, 16, 64];

/// Headroom the budget grants over the model's rung prediction.
pub const BUDGET_HEADROOM: f64 = 1.25;

/// Batch size the predictor re-validation runs at.
pub const REVALIDATION_BATCH: usize = 64;

/// Solo or contended measurement context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The flow alone on core 0.
    Solo,
    /// The flow on core 0 plus five co-runners on its socket (Fig. 3c
    /// "both" contention — the realistic co-location).
    CoRun,
}

/// Both scenario kinds, in report order.
pub const SCENARIOS: [ScenarioKind; 2] = [ScenarioKind::Solo, ScenarioKind::CoRun];

impl ScenarioKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Solo => "solo",
            ScenarioKind::CoRun => "co-run",
        }
    }
}

/// The co-runners a target faces in the `CoRun` scenario: five copies of
/// the next realistic workload (cyclic), so every workload both suffers
/// and causes contention somewhere in the sweep.
pub fn competitors_of(target: FlowType) -> [FlowType; 5] {
    let i = WORKLOADS.iter().position(|&t| t == target).expect("realistic workload");
    [WORKLOADS[(i + 1) % WORKLOADS.len()]; 5]
}

/// One measured fixed-batch point of the grid.
#[derive(Debug, Clone)]
pub struct FixedPoint {
    /// The workload.
    pub flow: FlowType,
    /// Solo or co-run.
    pub scenario: ScenarioKind,
    /// The fixed batch size.
    pub batch: usize,
    /// Target's packets/sec over the window.
    pub pps: f64,
    /// Target's total cycles per packet.
    pub cycles_per_packet: f64,
    /// Target's residence-time percentiles.
    pub latency: LatencySummary,
}

/// Measure one (workload, scenario, batch) point.
pub fn measure_point(
    flow: FlowType,
    scenario: ScenarioKind,
    batch: usize,
    params: ExpParams,
) -> FixedPoint {
    let p = params.with_batch(batch);
    let s = match scenario {
        ScenarioKind::Solo => solo_scenario(flow, p),
        ScenarioKind::CoRun => {
            corun_scenario(flow, &competitors_of(flow), ContentionConfig::Both, p)
        }
    };
    let r = run_scenario(&s);
    let target = &r.flows[0];
    FixedPoint {
        flow,
        scenario,
        batch,
        pps: target.metrics.pps,
        cycles_per_packet: target.metrics.cycles_per_packet,
        latency: target.latency,
    }
}

/// Measure the full fixed-batch grid (every candidate size per workload
/// and scenario), in parallel across host threads.
pub fn measure_grid(ctx: &RunCtx) -> Vec<FixedPoint> {
    let params = ctx.params;
    let mut items = Vec::new();
    for &scenario in &SCENARIOS {
        for &flow in &WORKLOADS {
            for &b in &CANDIDATE_BATCHES {
                items.push((flow, scenario, b));
            }
        }
    }
    run_many(items, ctx.jobs, move |(flow, scenario, b)| {
        measure_point(flow, scenario, b, params)
    })
}

/// Convert a grid point to a calibration probe.
fn as_probe(p: &FixedPoint) -> BatchProbe {
    BatchProbe {
        batch: p.batch,
        cycles_per_packet: p.cycles_per_packet,
        pps: p.pps,
        latency: p.latency,
    }
}

/// Run the sweep, assert the three claims, and emit the reports.
pub fn run(ctx: &RunCtx) {
    ctx.heading("ADAPTIVE — model-driven batch control under latency budgets");
    let grid = measure_grid(ctx);
    let at = |flow: FlowType, scenario: ScenarioKind, batch: usize| -> &FixedPoint {
        grid.iter()
            .find(|p| p.flow == flow && p.scenario == scenario && p.batch == batch)
            .expect("grid point")
    };

    let mut table = Table::new(
        "Adaptive batch choice vs latency budget (chosen from the model, verified by measurement)",
        &[
            "scenario",
            "workload",
            "budget p99 us",
            "chosen b",
            "predicted p99 us",
            "achieved p99 us",
            "pps @ chosen",
            "pps @ best fixed",
            "thr ratio",
        ],
    );
    let mut model_table = Table::new(
        "Controller calibration (fit from batch 1 and 64, tails per probe)",
        &[
            "scenario",
            "workload",
            "F (per batch)",
            "p (per packet)",
            "tail lo",
            "tail hi",
            "worst interior p99 err %",
        ],
    );

    for &scenario in &SCENARIOS {
        for &flow in &WORKLOADS {
            // Calibrate in context: the controller for co-run scenarios is
            // built from co-run probes at the ladder endpoints.
            let ctl = BatchController::from_probes(
                flow,
                as_probe(at(flow, scenario, 1)),
                as_probe(at(flow, scenario, 64)),
            );

            // Model-quality row: how far off is the interpolated p99 at the
            // interior rungs the calibration never saw?
            let mut worst_err = 0.0f64;
            for &b in &CANDIDATE_BATCHES[1..5] {
                let measured = at(flow, scenario, b).latency.p99_us;
                if measured > 0.0 {
                    let err = (ctl.predicted_p99_us(b) - measured).abs() / measured * 100.0;
                    worst_err = worst_err.max(err);
                }
            }
            model_table.row(vec![
                scenario.name().into(),
                flow.name(),
                fmt_f(ctl.model.per_batch_cycles, 0),
                fmt_f(ctl.model.per_packet_cycles, 0),
                fmt_f(ctl.tail_lo, 2),
                fmt_f(ctl.tail_hi, 2),
                fmt_f(worst_err, 1),
            ]);

            for &rung in &BUDGET_RUNGS {
                let budget = LatencyBudget::us(ctl.predicted_p99_us(rung) * BUDGET_HEADROOM);
                let choice = ctl.choose(budget);
                assert!(
                    choice.feasible,
                    "{}/{}: a budget anchored at rung {rung} must be feasible",
                    scenario.name(),
                    flow.name()
                );
                let achieved = at(flow, scenario, choice.batch);

                // Claim 1: the measured p99 at the chosen size meets the
                // budget — the model's decision survives contact with the
                // measurement.
                assert!(
                    achieved.latency.p99_us <= budget.p99_us,
                    "{}/{} rung {rung}: chosen batch {} achieved p99 {:.2}us over budget {:.2}us",
                    scenario.name(),
                    flow.name(),
                    choice.batch,
                    achieved.latency.p99_us,
                    budget.p99_us
                );

                // Claim 2: within 90% of the best fixed batch that also
                // measurably meets the budget.
                let best = CANDIDATE_BATCHES
                    .iter()
                    .map(|&b| at(flow, scenario, b))
                    .filter(|p| p.latency.p99_us <= budget.p99_us)
                    .max_by(|a, b| a.pps.total_cmp(&b.pps))
                    .expect("the chosen point itself is feasible");
                assert!(
                    achieved.pps >= 0.9 * best.pps,
                    "{}/{} rung {rung}: chosen batch {} reaches only {:.0} pps vs best fixed \
                     batch {} at {:.0} pps",
                    scenario.name(),
                    flow.name(),
                    choice.batch,
                    achieved.pps,
                    best.batch,
                    best.pps
                );

                table.row(vec![
                    scenario.name().into(),
                    flow.name(),
                    fmt_f(budget.p99_us, 2),
                    choice.batch.to_string(),
                    fmt_f(choice.predicted_p99_us, 2),
                    fmt_f(achieved.latency.p99_us, 2),
                    millions(achieved.pps),
                    millions(best.pps),
                    fmt_f(achieved.pps / best.pps, 2),
                ]);
            }
        }
    }
    ctx.emit("adaptive", &table);
    ctx.emit("adaptive_model", &model_table);

    // Claim 3: re-validate the contention predictor on the batched
    // datapath. Everything — solos, SYN ramps, co-run mixes — runs at
    // batch 64; the amortization moves refs/sec, the sensitivity mechanism
    // must not move.
    ctx.heading("ADAPTIVE — contention predictor re-validated at batch 64");
    println!(
        "[profiling at batch {REVALIDATION_BATCH}: {} solos + {} SYN ramps of {} levels]",
        WORKLOADS.len(),
        WORKLOADS.len(),
        ctx.levels
    );
    let mixes: Vec<(FlowType, Vec<FlowType>)> = WORKLOADS
        .iter()
        .flat_map(|&t| {
            [
                (t, competitors_of(t).to_vec()), // cross-type mix
                (t, vec![t; 5]),                 // self mix
            ]
        })
        .collect();
    let reval = revalidate_predictor(
        &WORKLOADS,
        &mixes,
        REVALIDATION_BATCH,
        ctx.levels,
        ctx.params,
        ctx.jobs,
    );
    let mut ptable = Table::new(
        "Prediction error at batch 64 (profiled and measured on the batched datapath)",
        &[
            "target",
            "competitors",
            "measured drop %",
            "refs-pred %",
            "fills-pred %",
            "perfect %",
            "error pp",
        ],
    );
    for e in &reval.errors {
        ptable.row(vec![
            e.target.name(),
            format!("5x {}", e.competitors[0].name()),
            fmt_f(e.measured, 2),
            fmt_f(e.predicted, 2),
            fmt_f(e.predicted_fillrate, 2),
            fmt_f(e.predicted_perfect, 2),
            fmt_f(e.error(), 2),
        ]);
    }
    ctx.emit("adaptive_predictor", &ptable);

    // What the measurement actually shows (paper scale, this simulator):
    // the refs/sec abstraction *degrades* under batching. A batched turn
    // commits a whole vector's accesses as one block, so co-runners
    // interleave at the shared L3 in 64-packet chunks instead of
    // per-access — big-chunk competitors (FW, RE) evict more per
    // interleave than a continuous SYN stream at the same refs/sec
    // (under-prediction), while hit-heavy batched competitors (IP
    // replicas, whose refs mostly hit and evict nothing) over-predict.
    // Errors grow with the batch: <3 pp scalar → ~5 pp at batch 8 →
    // ~8 pp at batch 64. The paper's <3 pp target therefore does NOT
    // transfer to batch 64; the asserted bound below is the measured
    // envelope (with margin) so any *further* regression of the mechanism
    // still fails the run. See ROADMAP "Open items" for the two paths to
    // tighten it (sub-turn interleaving in the engine; chunk-aware
    // competitor aggressiveness).
    let bound = match ctx.params.scale {
        Scale::Paper => 12.0,
        Scale::Test => 15.0,
    };
    let worst = reval.worst_abs_error();
    assert!(
        worst < bound,
        "predictor error under batching must stay < {bound} pp at this scale, got {worst:.2} pp"
    );
    let target_met = worst < 3.0;
    println!(
        "worst |error| at batch {REVALIDATION_BATCH} = {worst:.2} pp \
         (regression bound at this scale: {bound} pp)"
    );
    println!(
        "paper's <3 pp bound at batch {REVALIDATION_BATCH}: {} — batching coarsens \
         cache interleaving to vector-sized chunks, which the refs/sec abstraction \
         does not capture (see table: fills/sec brackets the error from below)",
        if target_met { "MET" } else { "NOT met" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn competitors_are_cyclic_and_realistic() {
        for &t in &WORKLOADS {
            let c = competitors_of(t);
            assert_ne!(c[0], t, "{t} should not compete with itself in the cross mix");
            assert!(c[0].is_realistic());
        }
        assert_eq!(competitors_of(FlowType::Vpn)[0], FlowType::Ip, "the cycle wraps");
    }

    #[test]
    fn measured_point_reports_latency_and_throughput() {
        let p = measure_point(FlowType::Ip, ScenarioKind::Solo, 8, ExpParams::quick());
        assert!(p.pps > 50_000.0);
        assert!(p.latency.samples > 0, "latency read-back must be populated");
        assert!(p.latency.p50_us > 0.0 && p.latency.p50_us <= p.latency.p99_us);
    }

    #[test]
    fn corun_point_measures_the_target_under_contention() {
        // Plumbing check: the co-run path places 6 flows, measures the
        // target on core 0, and reads its latency back. (Tiny test-scale
        // windows can round MON-vs-FW contention to a throughput tie, so
        // the contention *physics* asserts live in pp-core's experiment
        // tests and the paper-scale sweep, not here.)
        let params = ExpParams::quick();
        let solo = measure_point(FlowType::Mon, ScenarioKind::Solo, 8, params);
        let corun = measure_point(FlowType::Mon, ScenarioKind::CoRun, 8, params);
        assert!(
            corun.pps <= solo.pps,
            "contention must not raise throughput: {} vs {}",
            corun.pps,
            solo.pps
        );
        assert!(corun.latency.samples > 0, "co-run latency read-back must be populated");
        assert!(
            corun.latency.p99_us >= solo.latency.p99_us * 0.9,
            "contention should not shrink tail latency materially"
        );
    }

    #[test]
    fn quick_sweep_asserts_all_three_claims() {
        // The full closed loop at test scale: budgets hold, throughput is
        // within 10% of the best fixed batch, predictor error bounded.
        // (All asserts live inside run().)
        let ctx = RunCtx::quick();
        run(&ctx);
    }
}
