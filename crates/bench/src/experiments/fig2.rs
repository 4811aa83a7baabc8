//! Figure 2: the effect of resource contention — each realistic type
//! co-run with 5 flows of each realistic type (25 pairs), plus the per-
//! target averages.

use crate::experiments::{five_of_each, pair_matrix};
use crate::RunCtx;
use pp_core::prelude::*;

/// The paper's Fig. 2(b) averages, in `REALISTIC` order.
pub const PAPER_FIG2B: [f64; 5] = [18.81, 20.86, 4.65, 6.34, 9.84];

/// Output of the Fig. 2 reproduction.
pub struct Fig2Output {
    /// One co-run outcome per (target, competitor-type) pair, in
    /// row-major `REALISTIC × REALISTIC` order.
    pub outcomes: Vec<CoRunOutcome>,
    /// Measured solos, in `REALISTIC` order.
    pub solos: Vec<SoloProfile>,
}

impl Fig2Output {
    /// Drop of `target` against 5 copies of `competitor`.
    pub fn drop(&self, target: FlowType, competitor: FlowType) -> f64 {
        let ti = REALISTIC.iter().position(|&t| t == target).unwrap();
        let ci = REALISTIC.iter().position(|&t| t == competitor).unwrap();
        self.outcomes[ti * REALISTIC.len() + ci].drop_pct
    }

    /// Fig. 2(b): average drop per target across the five scenarios.
    pub fn averages(&self) -> Vec<f64> {
        REALISTIC
            .iter()
            .map(|&t| {
                REALISTIC.iter().map(|&c| self.drop(t, c)).sum::<f64>()
                    / REALISTIC.len() as f64
            })
            .collect()
    }
}

/// Measure the 25-pair matrix (solos computed once per target).
pub fn measure(ctx: &RunCtx) -> Fig2Output {
    let solos = SoloProfile::measure_all(&REALISTIC, ctx.params, ctx.jobs);
    let solo = |t| &solos[REALISTIC.iter().position(|&r| r == t).unwrap()].raw;
    let mixes = five_of_each(&REALISTIC, &REALISTIC);
    let outcomes = corun_mixes(solo, &mixes, ctx.params, ctx.jobs);
    Fig2Output { outcomes, solos }
}

/// Run and report the Fig. 2 reproduction.
pub fn run(ctx: &RunCtx) -> Fig2Output {
    ctx.heading("Figure 2 — contention-induced drop for every pair of types");
    let out = measure(ctx);

    let a = pair_matrix("Fig 2(a): drop of target vs 5 co-runners of each type", " (%)", |i| {
        out.outcomes[i].drop_pct
    });
    ctx.emit("fig2a", &a);

    let mut b = Table::new(
        "Fig 2(b): average drop per target",
        &["target", "avg drop (%)", "paper (%)"],
    );
    for (i, &t) in REALISTIC.iter().enumerate() {
        b.row(vec![
            t.name(),
            fmt_f(out.averages()[i], 2),
            fmt_f(PAPER_FIG2B[i], 2),
        ]);
    }
    ctx.emit("fig2b", &b);
    out
}
