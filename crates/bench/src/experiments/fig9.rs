//! Figure 9: prediction for a mixed workload — 2 MON, 2 VPN, 1 FW, 1 RE
//! per processor — measured vs predicted drop for every flow.

use crate::RunCtx;
use pp_core::prelude::*;

/// The per-socket mix (the paper's "2 MON, 2 VPN, 1 FW and 1 RE flow per
/// processor").
pub const MIX: [FlowType; 6] = [
    FlowType::Mon,
    FlowType::Mon,
    FlowType::Vpn,
    FlowType::Vpn,
    FlowType::Fw,
    FlowType::Re,
];

/// One bar of Fig. 9.
pub struct Fig9Row {
    /// The flow (with its socket-local index).
    pub flow: FlowType,
    /// Measured drop (%).
    pub measured: f64,
    /// Predicted drop (%).
    pub predicted: f64,
}

/// Output of the Fig. 9 reproduction.
pub struct Fig9Output {
    /// One row per flow (12: both sockets).
    pub rows: Vec<Fig9Row>,
}

impl Fig9Output {
    /// Maximum absolute prediction error (paper: 1.26 pp).
    pub fn max_abs_error(&self) -> f64 {
        ErrorStats::of(self.rows.iter().map(|r| r.predicted - r.measured)).max
    }
}

/// Run and report, optionally reusing an existing predictor (from Fig. 8).
pub fn run_with(ctx: &RunCtx, predictor: Option<&Predictor>) -> Fig9Output {
    ctx.heading("Figure 9 — mixed workload: measured vs predicted drop per flow");

    let owned;
    let predictor = match predictor {
        Some(p) => p,
        None => {
            println!("[profiling: 4 types + SYN ramps]");
            owned = Predictor::profile(
                &[FlowType::Mon, FlowType::Vpn, FlowType::Fw, FlowType::Re],
                ctx.levels,
                ctx.params,
                ctx.jobs,
            );
            &owned
        }
    };

    // Both sockets carry the same mix (12 flows total).
    let placement = Placement { socket0: MIX.to_vec(), socket1: MIX.to_vec() };
    let eval = evaluate_measured(&placement, &predictor.solo_pps(), ctx.params);

    let rows: Vec<Fig9Row> = eval
        .per_flow
        .iter()
        .zip(evaluate_predicted(&placement, predictor).per_flow)
        .map(|(&(flow, measured), (_, predicted))| Fig9Row { flow, measured, predicted })
        .collect();
    let out = Fig9Output { rows };

    let mut t = Table::new(
        "Fig 9: mixed workload (2 MON, 2 VPN, 1 FW, 1 RE per socket)",
        &["flow", "socket", "measured drop (%)", "predicted drop (%)", "|error| (pp)"],
    );
    for (i, r) in out.rows.iter().enumerate() {
        t.row(vec![
            format!("{}#{}", r.flow.name(), i % MIX.len()),
            format!("{}", i / MIX.len()),
            fmt_f(r.measured, 2),
            fmt_f(r.predicted, 2),
            fmt_f((r.predicted - r.measured).abs(), 2),
        ]);
    }
    ctx.emit("fig9", &t);
    println!(
        "max |error| = {:.2} pp (paper: 1.26 pp)",
        out.max_abs_error()
    );
    out
}

/// Run standalone.
pub fn run(ctx: &RunCtx) -> Fig9Output {
    run_with(ctx, None)
}
