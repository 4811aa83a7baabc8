//! Figure 8: prediction errors for the 25 two-type workloads — our
//! prediction (solo-profiled competition) and the perfect-knowledge variant
//! (actual competing refs/sec).

use crate::experiments::{five_of_each, pair_matrix};
use crate::RunCtx;
use pp_core::prelude::*;

/// Paper's Fig. 8(c) average absolute errors, in `REALISTIC` order:
/// `(ours, perfect-knowledge)`.
pub const PAPER_FIG8C: [(f64, f64); 5] =
    [(1.96, 1.39), (1.92, 1.41), (0.44, 0.35), (1.97, 1.44), (1.00, 0.69)];

/// Output of the Fig. 8 reproduction.
pub struct Fig8Output {
    /// All 25 prediction-vs-measurement comparisons (target-major).
    pub errors: Vec<PredictionError>,
    /// The predictor used (reused by Fig. 9 when running `all`).
    pub predictor: Predictor,
}

impl Fig8Output {
    /// `kind` of error (ours or perfect-knowledge) over one target's pairs.
    fn stats(&self, target: FlowType, kind: fn(&PredictionError) -> f64) -> ErrorStats {
        ErrorStats::of(self.errors.iter().filter(|e| e.target == target).map(kind))
    }

    /// Average absolute error of our prediction for one target.
    pub fn avg_abs_error(&self, target: FlowType) -> f64 {
        self.stats(target, PredictionError::error).mean
    }

    /// Average absolute error of the perfect-knowledge prediction.
    pub fn avg_abs_error_perfect(&self, target: FlowType) -> f64 {
        self.stats(target, PredictionError::error_perfect).mean
    }

    /// Worst absolute error of our prediction (the paper claims < 3%).
    pub fn worst_abs_error(&self) -> f64 {
        ErrorStats::of(self.errors.iter().map(PredictionError::error)).max
    }
}

/// Run and report the Fig. 8 reproduction.
pub fn run(ctx: &RunCtx) -> Fig8Output {
    ctx.heading("Figure 8 — prediction errors for 25 two-type workloads");

    println!("[profiling: 5 solos + 5 SYN ramps of {} levels]", ctx.levels);
    let predictor = Predictor::profile(&REALISTIC, ctx.levels, ctx.params, ctx.jobs);
    let errors =
        predictor.validate(&five_of_each(&REALISTIC, &REALISTIC), ctx.params, ctx.jobs);
    let out = Fig8Output { errors, predictor };

    let a = pair_matrix("Fig 8(a): our prediction error (pp)", "", |i| out.errors[i].error());
    let b = pair_matrix("Fig 8(b): perfect-knowledge error (pp)", "", |i| {
        out.errors[i].error_perfect()
    });
    ctx.emit("fig8a", &a);
    ctx.emit("fig8b", &b);

    let mut c = Table::new(
        "Fig 8(c): average |error| per target",
        &["target", "ours (pp)", "paper ours", "perfect (pp)", "paper perfect"],
    );
    for (i, &t) in REALISTIC.iter().enumerate() {
        c.row(vec![
            t.name(),
            fmt_f(out.avg_abs_error(t), 2),
            fmt_f(PAPER_FIG8C[i].0, 2),
            fmt_f(out.avg_abs_error_perfect(t), 2),
            fmt_f(PAPER_FIG8C[i].1, 2),
        ]);
    }
    ctx.emit("fig8c", &c);
    println!(
        "worst |error| = {:.2} pp (paper: all errors below 3 pp)",
        out.worst_abs_error()
    );
    out
}
