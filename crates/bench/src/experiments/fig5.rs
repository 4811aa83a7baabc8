//! Figure 5: the merge of Figs. 2(a) and 4(c) — SYN-ramp curves overlaid
//! with realistic-competitor points, demonstrating that a workload's
//! aggressiveness is determined by its refs/sec, not by what it computes.

use crate::experiments::fig2;
use crate::RunCtx;
use pp_core::prelude::*;

/// Output of the Fig. 5 reproduction.
pub struct Fig5Output {
    /// SYN curves per target (the "(S)" series).
    pub syn_curves: Vec<(FlowType, SensitivityCurve)>,
    /// Realistic points per target: `(target, competitor, x, y)` (the
    /// "(R)" points).
    pub realistic_points: Vec<(FlowType, FlowType, f64, f64)>,
}

impl Fig5Output {
    /// For each realistic point, the vertical distance to the SYN curve at
    /// the same competing refs/sec — the paper's claim is that this gap is
    /// small (same refs/sec ⇒ same damage, regardless of competitor type).
    pub fn curve_gaps(&self) -> Vec<(FlowType, FlowType, f64)> {
        self.realistic_points
            .iter()
            .map(|&(t, c, x, y)| {
                let curve =
                    &self.syn_curves.iter().find(|(ct, _)| *ct == t).unwrap().1;
                (t, c, (y - curve.interpolate(x)).abs())
            })
            .collect()
    }
}

/// Run and report the Fig. 5 reproduction.
pub fn run(ctx: &RunCtx) -> Fig5Output {
    ctx.heading("Figure 5 — SYN curves vs realistic competitors (aggressiveness ≡ refs/sec)");

    // Realistic points, and the solos they were measured against, from the
    // Fig. 2 measurement.
    let f2 = fig2::measure(ctx);
    let realistic_points = f2
        .outcomes
        .iter()
        .map(|o| (o.target, o.competitors[0].flow, o.competing_refs_per_sec, o.drop_pct))
        .collect();

    // SYN curves in the realistic (Both) configuration.
    let mut syn_curves = Vec::new();
    for (solo, &t) in f2.solos.iter().zip(&REALISTIC) {
        let (curve, _) = SensitivityCurve::measure_with_solo(
            &solo.raw,
            t,
            ContentionConfig::Both,
            ctx.levels,
            ctx.params,
            ctx.jobs,
        );
        syn_curves.push((t, curve));
    }
    let out = Fig5Output { syn_curves, realistic_points };

    // CSV with both series.
    let mut series = Table::new(
        "Fig 5: series",
        &["target", "series", "competitor", "competing L3 refs/s (M)", "drop (%)"],
    );
    for (t, curve) in &out.syn_curves {
        for &(x, y) in curve.points() {
            series.row(vec![
                t.name(),
                "SYN".into(),
                "SYN".into(),
                millions(x),
                fmt_f(y, 2),
            ]);
        }
    }
    for &(t, c, x, y) in &out.realistic_points {
        series.row(vec![t.name(), "realistic".into(), c.name(), millions(x), fmt_f(y, 2)]);
    }
    let path = ctx.out_dir.join("fig5.csv");
    let _ = series.write_csv(&path);
    println!("[saved {} ({} points)]", path.display(), series.len());

    // The claim, quantified: realistic points sit near the SYN curve.
    let gaps = out.curve_gaps();
    let mut t = Table::new(
        "Fig 5 check: |realistic drop − SYN curve at same refs/sec|",
        &["target", "competitor", "gap (pp)"],
    );
    for (tt, c, gap) in &gaps {
        t.row(vec![tt.name(), c.name(), fmt_f(*gap, 2)]);
    }
    ctx.emit("fig5_gaps", &t);
    let avg_gap = gaps.iter().map(|g| g.2).sum::<f64>() / gaps.len() as f64;
    println!(
        "average |gap| = {avg_gap:.2} pp — the paper's observation is that \
         equal refs/sec cause roughly equal damage regardless of competitor type"
    );
    out
}
