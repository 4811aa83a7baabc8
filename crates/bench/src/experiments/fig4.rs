//! Figure 4: the effect of contention for different resources — drop vs
//! competing SYN refs/sec under the three Fig. 3 configurations
//! (cache-only, memory-controller-only, both).

use crate::RunCtx;
use pp_core::prelude::*;

/// One measured curve: a target type under one configuration.
pub struct Fig4Curve {
    /// The configuration.
    pub config: ContentionConfig,
    /// The target type.
    pub target: FlowType,
    /// The measured sensitivity curve.
    pub curve: SensitivityCurve,
}

/// All of Fig. 4's curves (3 configurations × 5 targets).
pub struct Fig4Output {
    /// The curves, config-major.
    pub curves: Vec<Fig4Curve>,
}

impl Fig4Output {
    /// The curve for a `(config, target)` pair.
    pub fn curve(&self, config: ContentionConfig, target: FlowType) -> &SensitivityCurve {
        &self
            .curves
            .iter()
            .find(|c| c.config == config && c.target == target)
            .expect("curve measured")
            .curve
    }

    /// Maximum drop of a target under a configuration.
    pub fn max_drop(&self, config: ContentionConfig, target: FlowType) -> f64 {
        self.curve(config, target).max_drop()
    }
}

/// Measure all Fig. 4 curves.
pub fn measure(ctx: &RunCtx) -> Fig4Output {
    // Solo once per target, reused across all three configurations.
    let solos = SoloProfile::measure_all(&REALISTIC, ctx.params, ctx.jobs);
    let mut curves = Vec::new();
    for config in [
        ContentionConfig::CacheOnly,
        ContentionConfig::MemCtrlOnly,
        ContentionConfig::Both,
    ] {
        for (i, &target) in REALISTIC.iter().enumerate() {
            let (curve, _) = SensitivityCurve::measure_with_solo(
                &solos[i].raw,
                target,
                config,
                ctx.levels,
                ctx.params,
                ctx.jobs,
            );
            curves.push(Fig4Curve { config, target, curve });
        }
    }
    Fig4Output { curves }
}

/// Run and report the Fig. 4 reproduction.
pub fn run(ctx: &RunCtx) -> Fig4Output {
    ctx.heading("Figure 4 — contention for different resources (SYN ramps)");
    let out = measure(ctx);

    // Full series CSV.
    let mut series = Table::new(
        "Fig 4: all series",
        &["config", "target", "competing L3 refs/s (M)", "drop (%)"],
    );
    for c in &out.curves {
        for &(x, y) in c.curve.points() {
            series.row(vec![
                c.config.name().to_string(),
                c.target.name(),
                millions(x),
                fmt_f(y, 2),
            ]);
        }
    }
    let path = ctx.out_dir.join("fig4.csv");
    let _ = series.write_csv(&path);
    println!("[saved {} ({} points)]", path.display(), series.len());

    // Summary: max drop per (config, target) — the paper's headline is
    // MON ≤ ~32% cache-only vs ≤ ~6% memctrl-only.
    let mut summary = Table::new(
        "Fig 4 summary: max drop (%) per configuration",
        &["target", "cache-only (4a)", "memctrl-only (4b)", "both (4c)"],
    );
    for &t in &REALISTIC {
        summary.row(vec![
            t.name(),
            fmt_f(out.max_drop(ContentionConfig::CacheOnly, t), 2),
            fmt_f(out.max_drop(ContentionConfig::MemCtrlOnly, t), 2),
            fmt_f(out.max_drop(ContentionConfig::Both, t), 2),
        ]);
    }
    ctx.emit("fig4_summary", &summary);
    println!(
        "paper: cache is the dominant factor — MON suffers up to 32% cache-only \
         but at most 6% memctrl-only"
    );
    out
}
