//! Table 1: solo-run characteristics of each packet-processing type.

use crate::RunCtx;
use pp_core::prelude::*;

/// The paper's Table 1 values:
/// `(name, cpi, l3_refs/s (M), l3_hits/s (M), cycles/pkt, refs/pkt,
/// misses/pkt, l2_hits/pkt)`.
#[allow(clippy::type_complexity)]
pub const PAPER_TABLE1: [(&str, f64, f64, f64, f64, f64, f64, f64); 5] = [
    ("IP", 1.33, 25.85, 20.21, 1813.0, 14.64, 3.19, 18.58),
    ("MON", 1.43, 27.26, 21.32, 2278.0, 19.40, 4.23, 19.58),
    ("FW", 1.63, 2.71, 2.13, 23907.0, 20.22, 4.29, 56.10),
    ("RE", 1.18, 18.18, 5.52, 27433.0, 155.87, 108.51, 45.63),
    ("VPN", 0.56, 9.45, 7.08, 8679.0, 25.63, 6.41, 30.71),
];

/// The solo-characteristics table (Table 1's columns plus Mpps and working
/// set), one row per profile.
pub fn solo_table(title: &str, profiles: &[SoloProfile]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "flow",
            "CPI",
            "L3 refs/s (M)",
            "L3 hits/s (M)",
            "cycles/pkt",
            "L3 refs/pkt",
            "L3 miss/pkt",
            "L2 hits/pkt",
            "Mpps",
            "WS (MB)",
        ],
    );
    for p in profiles {
        t.row(vec![
            p.flow.name(),
            fmt_f(p.cpi, 2),
            millions(p.l3_refs_per_sec),
            millions(p.l3_hits_per_sec),
            fmt_f(p.cycles_per_packet, 0),
            fmt_f(p.l3_refs_per_packet, 2),
            fmt_f(p.l3_misses_per_packet, 2),
            fmt_f(p.l2_hits_per_packet, 2),
            fmt_f(p.pps / 1e6, 3),
            fmt_f(p.working_set_bytes as f64 / (1 << 20) as f64, 1),
        ]);
    }
    t
}

/// Run the Table 1 reproduction; returns the measured profiles.
pub fn run(ctx: &RunCtx) -> Vec<SoloProfile> {
    ctx.heading("Table 1 — solo-run characteristics");
    let profiles = SoloProfile::measure_all(&REALISTIC, ctx.params, ctx.jobs);
    ctx.emit("table1", &solo_table("Measured (this reproduction)", &profiles));

    let mut paper = Table::new(
        "Paper (Table 1, for comparison)",
        &[
            "flow",
            "CPI",
            "L3 refs/s (M)",
            "L3 hits/s (M)",
            "cycles/pkt",
            "L3 refs/pkt",
            "L3 miss/pkt",
            "L2 hits/pkt",
        ],
    );
    for (n, cpi, rs, hs, cp, rp, mp, l2) in PAPER_TABLE1 {
        paper.row(vec![
            n.to_string(),
            fmt_f(cpi, 2),
            fmt_f(rs, 2),
            fmt_f(hs, 2),
            fmt_f(cp, 0),
            fmt_f(rp, 2),
            fmt_f(mp, 2),
            fmt_f(l2, 2),
        ]);
    }
    println!("{}", paper.render());
    profiles
}
