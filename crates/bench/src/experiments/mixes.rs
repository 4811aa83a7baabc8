//! Prediction robustness over random mixes — beyond the paper's
//! evaluation.
//!
//! The paper validates its predictor on 25 homogeneous pairs (Fig. 8) and
//! one hand-picked mixed workload (Fig. 9). An operator consolidating
//! middlebox functions will see arbitrary mixes, so we sweep many *random*
//! 6-flow combinations over all eight workload types and report the error
//! **distribution** (mean / p50 / p95 / max) for the paper's method and
//! the fill-rate refinement. Every mix is predicted from offline profiles
//! only — none of the measured combinations is ever used for fitting.

use crate::RunCtx;
use pp_core::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One flow's outcome within one random mix.
#[derive(Debug, Clone)]
pub struct MixRow {
    /// Mix index.
    pub mix: usize,
    /// The flow.
    pub flow: FlowType,
    /// Measured drop (%).
    pub measured: f64,
    /// Paper-method prediction (%).
    pub predicted: f64,
    /// Fill-rate-method prediction (%).
    pub predicted_fillrate: f64,
}

/// Output of the sweep.
pub struct MixesOutput {
    /// Per-flow rows (`n_mixes` × 6).
    pub rows: Vec<MixRow>,
}

impl MixesOutput {
    /// Error distribution of the paper's method.
    pub fn paper_stats(&self) -> ErrorStats {
        ErrorStats::of(self.rows.iter().map(|r| r.predicted - r.measured))
    }

    /// Error distribution of the fill-rate refinement.
    pub fn fillrate_stats(&self) -> ErrorStats {
        ErrorStats::of(self.rows.iter().map(|r| r.predicted_fillrate - r.measured))
    }
}

/// Number of random mixes at paper scale (quick runs use fewer).
const N_MIXES_PAPER: usize = 24;
const N_MIXES_QUICK: usize = 8;

/// Run and report the sweep, optionally reusing a profiled predictor.
pub fn run_with(ctx: &RunCtx, predictor: Option<&Predictor>) -> MixesOutput {
    ctx.heading("Random mixes — prediction error distribution over arbitrary 6-flow mixes");
    let types: Vec<FlowType> = REALISTIC.iter().chain(EXTENDED.iter()).copied().collect();

    let owned;
    let predictor = match predictor {
        Some(p) => p,
        None => {
            println!("[profiling: 8 solos + 8 SYN ramps of {} levels]", ctx.levels);
            owned = Predictor::profile(&types, ctx.levels, ctx.params, ctx.jobs);
            &owned
        }
    };

    let n_mixes = match ctx.params.scale {
        Scale::Paper => N_MIXES_PAPER,
        Scale::Test => N_MIXES_QUICK,
    };
    let mut rng = SmallRng::seed_from_u64(ctx.params.seed ^ 0x0031_7C55);
    let mixes: Vec<Vec<FlowType>> = (0..n_mixes)
        .map(|_| (0..6).map(|_| types[rng.random_range(0..types.len())]).collect())
        .collect();

    // Measure every mix (6 flows on socket 0, NUMA-local, as in §2.2).
    let params = ctx.params;
    let solo_pps = predictor.solo_pps();
    let evals = run_many(mixes.clone(), ctx.jobs, |mix| {
        evaluate_measured(&Placement { socket0: mix, socket1: Vec::new() }, &solo_pps, params)
    });

    let mut rows = Vec::new();
    for (mi, (mix, eval)) in mixes.iter().zip(&evals).enumerate() {
        for (m, &(_, measured)) in predictor.predict_mix(mix).iter().zip(&eval.per_flow) {
            rows.push(MixRow {
                mix: mi,
                flow: m.flow,
                measured,
                predicted: m.predicted,
                predicted_fillrate: m.predicted_fillrate,
            });
        }
    }
    let out = MixesOutput { rows };

    let mut t = Table::new(
        format!("Per-flow predictions over {n_mixes} random mixes"),
        &[
            "mix",
            "flow",
            "measured (%)",
            "paper method (%)",
            "|err| (pp)",
            "fill-rate (%)",
            "|err| (pp)",
        ],
    );
    for r in &out.rows {
        t.row(vec![
            r.mix.to_string(),
            r.flow.name(),
            fmt_f(r.measured, 2),
            fmt_f(r.predicted, 2),
            fmt_f((r.predicted - r.measured).abs(), 2),
            fmt_f(r.predicted_fillrate, 2),
            fmt_f((r.predicted_fillrate - r.measured).abs(), 2),
        ]);
    }
    ctx.emit("mixes", &t);

    let mut s = Table::new(
        "Absolute-error distribution (pp)",
        &["method", "mean", "p50", "p95", "max"],
    );
    for (method, st) in [
        ("paper (refs/sec)", out.paper_stats()),
        ("fill-rate (misses/sec)", out.fillrate_stats()),
    ] {
        s.row(vec![
            method.into(),
            fmt_f(st.mean, 2),
            fmt_f(st.p50, 2),
            fmt_f(st.p95, 2),
            fmt_f(st.max, 2),
        ]);
    }
    ctx.emit("mixes_summary", &s);
    out
}

/// Run standalone.
pub fn run(ctx: &RunCtx) -> MixesOutput {
    run_with(ctx, None)
}
