//! Internet-scale lookup tables in the DRAM-resident regime (PR 10).
//!
//! The paper's forwarding experiments run a 128 000-entry table whose trie
//! fits (mostly) in the L3 — contention for that cache is the story. This
//! sweep asks what happens when the table itself is *internet-scale*: a
//! BGP-shaped ~1M-prefix table whose lookup structure cannot fit in any
//! cache, so the structure walk hits DRAM on nearly every packet.
//!
//! Three structures route the identical table:
//!
//! * **binary-radix** — Click's one-bit-per-level trie (the paper's);
//! * **multibit** — leaf-pushed 8-4-4-... stride trie;
//! * **dir-24-8** — the PR 10 compressed flat table: one 16M-entry
//!   stage-1 array indexed by the top 24 bits, spill blocks for the
//!   /25–/32 tail, ≤2 dependent reads per lookup.
//!
//! The grid is structure × prefix count × batch {1, 64} × {solo, co-run
//! vs 5 SYN_MAX}. From the solo endpoints we re-fit the `F/b + p`
//! amortization split per structure and size; from a SYN ramp at the
//! largest size we re-measure each structure's sensitivity curve and
//! check the paper's §4 predictor — drop interpolated from the curve at
//! the competitors' measured refs/sec — against held-out competitor
//! mixes, recording whether the <3 pp claim survives DRAM-resident
//! state.

use crate::experiments::results_json::{save_results_json, JsonRow};
use crate::experiments::{measure_window, seat, seat_syn};
use crate::RunCtx;
use pp_click::cost::CostModel;
use pp_click::elements::synthetic::SynParams;
use pp_click::flow::FrameworkChurn;
use pp_click::pipelines::build_config_flow;
use pp_core::prelude::*;
use pp_net::gen::traffic::TrafficSpec;
use pp_sim::config::MachineConfig;
use pp_sim::types::{CoreId, MemDomain};

/// The structures swept: display label, config-registry class.
pub const STRUCTURES: [(&str, &str); 3] = [
    ("binary-radix", "RadixIPLookup"),
    ("multibit", "MultibitIPLookup"),
    ("dir-24-8", "Dir248IPLookup"),
];

/// Batch sizes swept (1 = per-packet, 64 = the amortized endpoint).
pub const BATCHES: [usize; 2] = [1, 64];

/// Prefix counts swept. The larger one is the DRAM-resident regime: a
/// ~1M-entry BGP-shaped table (the generator saturates the /12 and /16
/// layers a little below the request — see `generate_bgp_table`). The
/// 1M size is kept at *both* scales — it is the point of the sweep, and
/// structure builds are cheap next to the simulation — only the cached
/// baseline size shrinks in quick mode.
pub fn prefix_scales(scale: Scale) -> [usize; 2] {
    match scale {
        Scale::Paper => [128_000, 1_000_000],
        Scale::Test => [8_000, 1_000_000],
    }
}

/// Competitor load co-run against the lookup flow on cores 1..=n.
#[derive(Debug, Clone, PartialEq)]
enum Load {
    Solo,
    Syn(Vec<SynParams>),
}

/// The standard contended load: 5 × SYN_MAX, as in the paper's Fig. 4.
fn max5() -> Vec<SynParams> {
    (1..=5u64).map(|i| SynParams::max(100 + i)).collect()
}

/// One measured run of the lookup flow (solo or contended).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Target packets/sec over the window.
    pub pps: f64,
    /// Target cycles per packet.
    pub cycles_per_packet: f64,
    /// Target L3 references per packet.
    pub l3_refs_per_packet: f64,
    /// Competitors' combined L3 refs/sec (0 for solo runs).
    pub competing_refs_per_sec: f64,
}

/// Build the lookup flow from config text and measure it under `load`.
fn measure_point(
    class: &str,
    n_prefixes: usize,
    batch: usize,
    load: &Load,
    params: ExpParams,
) -> Measured {
    let structure_seed = params.seed ^ 0xFEED;
    // A minimal forwarding chain — lookup straight to the device. The
    // sweep isolates the *table structure*; the full-pipeline IP chain
    // (CheckIPHeader + DecIPTTL) is the ablations experiment's subject.
    let config = format!(
        "rt :: {class}(PREFIXES {n_prefixes}, SEED {structure_seed}); \
         out :: ToDevice; rt -> out;"
    );
    // The lookup flow on core 0, the load's competitors on cores 1..
    let m = measure_window(MachineConfig::westmere(), params, |machine| {
        // Random destinations: maximal structure traffic, as in the paper's
        // IP sensitivity experiments.
        let traffic = TrafficSpec::random_dst(64, params.seed ^ 0xA5A5);
        let flow = build_config_flow(machine, MemDomain(0), "tables", &config, traffic)
            .expect("valid config");
        let churn = FrameworkChurn::new(machine.allocator(MemDomain(0)), &CostModel::default());
        let mut seats = vec![seat(0, flow.task.with_churn(churn).with_batch_size(batch))];
        if let Load::Syn(comps) = load {
            for (i, sp) in comps.iter().enumerate() {
                seats.push(seat_syn(machine, params.scale, (i + 1) as u16, *sp));
            }
        }
        seats
    });
    let cm = m.core(CoreId(0)).expect("lookup core measured");
    let competing: f64 = (1..=5u16)
        .filter_map(|i| m.core(CoreId(i)))
        .map(|c| c.metrics.l3_refs_per_sec)
        .sum();
    Measured {
        pps: cm.metrics.pps,
        cycles_per_packet: cm.metrics.cycles_per_packet,
        l3_refs_per_packet: cm.metrics.l3_refs_per_packet,
        competing_refs_per_sec: competing,
    }
}

/// One grid point: structure × size × batch, solo and contended.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Structure display label.
    pub structure: &'static str,
    /// Prefix count requested from the generator.
    pub prefixes: usize,
    /// Batch size.
    pub batch: usize,
    /// Solo measurement.
    pub solo: Measured,
    /// Co-run vs 5 SYN_MAX.
    pub corun: Measured,
}

impl GridPoint {
    /// Drop under the 5 SYN_MAX co-run, percent.
    pub fn drop_pct(&self) -> f64 {
        (self.solo.pps - self.corun.pps) / self.solo.pps * 100.0
    }
}

/// The re-fit `F/b + p` split for one structure × size (solo endpoints).
#[derive(Debug, Clone, PartialEq)]
pub struct FitRow {
    /// Structure display label.
    pub structure: &'static str,
    /// Prefix count.
    pub prefixes: usize,
    /// Per-batch cycles `F`.
    pub per_batch_cycles: f64,
    /// Per-packet cycles `p`.
    pub per_packet_cycles: f64,
    /// `F/(F+p)` at batch 1 — the share batching can amortize away.
    pub amortizable_share_pct: f64,
    /// Model's asymptotic speedup `(F+p)/p`.
    pub max_speedup: f64,
}

/// One held-out predictor validation at the DRAM-resident size, batch 64.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorRow {
    /// Structure display label.
    pub structure: &'static str,
    /// Competitor-mix label.
    pub mix: &'static str,
    /// Competitors' measured L3 refs/sec during the co-run.
    pub competing_refs_per_sec: f64,
    /// Measured drop, percent.
    pub measured_drop_pct: f64,
    /// Drop predicted from the SYN-ramp sensitivity curve, percent.
    pub predicted_drop_pct: f64,
    /// Whether the mix's refs/sec fell beyond the ramp's last point, so
    /// the prediction is a clamped extrapolation (the paper only claims
    /// interpolation within the measured ramp).
    pub extrapolated: bool,
}

impl PredictorRow {
    /// Absolute prediction error in percentage points.
    pub fn error_pp(&self) -> f64 {
        (self.predicted_drop_pct - self.measured_drop_pct).abs()
    }
}

/// Everything the sweep measures, in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct TablesReport {
    /// The structure × size × batch grid.
    pub points: Vec<GridPoint>,
    /// Re-fit amortization splits.
    pub fits: Vec<FitRow>,
    /// Held-out predictor validations (largest size, batch 64).
    pub predictor: Vec<PredictorRow>,
}

/// Run the whole sweep at the scale's standard sizes. Points shard across
/// `ctx.jobs` host threads; every point builds its own machine from seeds
/// derived only from `ctx.params`, so results are bit-for-bit identical
/// at any job count.
pub fn measure_all(ctx: &RunCtx) -> TablesReport {
    measure_all_sized(ctx, prefix_scales(ctx.params.scale))
}

/// [`measure_all`] with explicit prefix counts — the determinism harness
/// byte-compares sharded runs at tiny sizes where the regime itself is
/// irrelevant.
pub fn measure_all_sized(ctx: &RunCtx, sizes: [usize; 2]) -> TablesReport {
    let params = ctx.params;
    let dram_size = sizes[1];

    // 1. The grid: each item measures solo + 5×SYN_MAX co-run.
    let mut items: Vec<(&'static str, &'static str, usize, usize)> = Vec::new();
    for (label, class) in STRUCTURES {
        for &n in &sizes {
            for &b in &BATCHES {
                items.push((label, class, n, b));
            }
        }
    }
    let points: Vec<GridPoint> = run_many(items, ctx.jobs, move |(label, class, n, b)| {
        GridPoint {
            structure: label,
            prefixes: n,
            batch: b,
            solo: measure_point(class, n, b, &Load::Solo, params),
            corun: measure_point(class, n, b, &Load::Syn(max5()), params),
        }
    });

    // 2. Re-fit F/b + p per structure × size from the solo endpoints.
    let fits: Vec<FitRow> = STRUCTURES
        .iter()
        .flat_map(|&(label, _)| sizes.iter().map(move |&n| (label, n)))
        .map(|(label, n)| {
            let at = |b: usize| {
                points
                    .iter()
                    .find(|p| p.structure == label && p.prefixes == n && p.batch == b)
                    .expect("grid point")
                    .solo
                    .cycles_per_packet
            };
            let model = BatchAmortization::fit((1.0, at(1)), (64.0, at(64)));
            let f = model.per_batch_cycles;
            let p = model.per_packet_cycles;
            FitRow {
                structure: label,
                prefixes: n,
                per_batch_cycles: f,
                per_packet_cycles: p,
                amortizable_share_pct: f / (f + p) * 100.0,
                max_speedup: model.max_speedup(),
            }
        })
        .collect();

    // 3. Predictor in the DRAM regime: per structure at the largest size,
    //    batch 64 — measure the SYN-ramp sensitivity curve, then check it
    //    on held-out competitor mixes (none of which is a ramp level).
    let levels = ctx.levels.max(2) as u32;
    let ramp_items: Vec<(&'static str, &'static str, u32)> = STRUCTURES
        .iter()
        .flat_map(|&(label, class)| (0..levels).map(move |l| (label, class, l)))
        .collect();
    let ramp: Vec<(&'static str, u32, Measured)> =
        run_many(ramp_items, ctx.jobs, move |(label, class, level)| {
            let comps: Vec<SynParams> =
                (1..=5u64).map(|i| SynParams::ramp(level, levels, 100 + i)).collect();
            (label, level, measure_point(class, dram_size, 64, &Load::Syn(comps), params))
        });

    // A held-out competitor mix: display label + constructor.
    type MixSpec = (&'static str, fn() -> Vec<SynParams>);
    let mixes: [MixSpec; 2] = [
        ("5xMODERATE", || (1..=5u64).map(|i| SynParams::moderate(100 + i)).collect()),
        ("2xMAX+3xMODERATE", || {
            (1..=2u64)
                .map(|i| SynParams::max(100 + i))
                .chain((3..=5u64).map(|i| SynParams::moderate(100 + i)))
                .collect()
        }),
    ];
    let mix_items: Vec<(&'static str, &'static str, &'static str, usize)> = STRUCTURES
        .iter()
        .flat_map(|&(label, class)| {
            mixes.iter().enumerate().map(move |(mi, &(mname, _))| (label, class, mname, mi))
        })
        .collect();
    let mix_runs: Vec<(&'static str, &'static str, Measured)> =
        run_many(mix_items, ctx.jobs, move |(label, class, mname, mi)| {
            (label, mname, measure_point(class, dram_size, 64, &Load::Syn(mixes[mi].1()), params))
        });

    let mut predictor = Vec::new();
    for (label, _) in STRUCTURES {
        let solo = &points
            .iter()
            .find(|p| p.structure == label && p.prefixes == dram_size && p.batch == 64)
            .expect("grid point")
            .solo;
        let curve = SensitivityCurve::from_points(
            ramp.iter()
                .filter(|(l, _, _)| *l == label)
                .map(|(_, _, m)| {
                    (m.competing_refs_per_sec, (solo.pps - m.pps) / solo.pps * 100.0)
                })
                .collect(),
        );
        // The 5×SYN_MAX co-run from the grid is also held out: the ramp's
        // top level reads 32 lines/packet vs SYN_MAX's 64, so its refs/sec
        // sit beyond every ramp point and probe the curve's flat tail.
        let grid_max = points
            .iter()
            .find(|p| p.structure == label && p.prefixes == dram_size && p.batch == 64)
            .expect("grid point");
        let mut rows = vec![("5xSYN_MAX", &grid_max.corun)];
        for (l, mname, m) in &mix_runs {
            if *l == label {
                rows.push((mname, m));
            }
        }
        for (mname, m) in rows {
            predictor.push(PredictorRow {
                structure: label,
                mix: mname,
                competing_refs_per_sec: m.competing_refs_per_sec,
                measured_drop_pct: (solo.pps - m.pps) / solo.pps * 100.0,
                predicted_drop_pct: curve.interpolate(m.competing_refs_per_sec),
                extrapolated: m.competing_refs_per_sec > curve.max_x(),
            });
        }
    }

    TablesReport { points, fits, predictor }
}

/// Flat JSON rows for `TABLES_results.json` (CI artifact; byte-compared
/// across `--jobs` counts by the determinism harness).
pub fn json_rows(report: &TablesReport) -> Vec<JsonRow> {
    let mut rows = Vec::new();
    for p in &report.points {
        rows.push(
            JsonRow::new()
                .str("kind", "point")
                .str("structure", p.structure)
                .num("prefixes", p.prefixes)
                .num("batch", p.batch)
                .num("solo_mpps", format_args!("{:.4}", p.solo.pps / 1e6))
                .num("cycles_per_packet", format_args!("{:.1}", p.solo.cycles_per_packet))
                .num("l3_refs_per_packet", format_args!("{:.2}", p.solo.l3_refs_per_packet))
                .num("drop_vs_5synmax_pct", format_args!("{:.2}", p.drop_pct())),
        );
    }
    for f in &report.fits {
        rows.push(
            JsonRow::new()
                .str("kind", "fit")
                .str("structure", f.structure)
                .num("prefixes", f.prefixes)
                .num("per_batch_cycles", format_args!("{:.0}", f.per_batch_cycles))
                .num("per_packet_cycles", format_args!("{:.0}", f.per_packet_cycles))
                .num("amortizable_share_pct", format_args!("{:.1}", f.amortizable_share_pct))
                .num("max_speedup", format_args!("{:.2}", f.max_speedup)),
        );
    }
    for r in &report.predictor {
        rows.push(
            JsonRow::new()
                .str("kind", "predictor")
                .str("structure", r.structure)
                .str("mix", r.mix)
                .num("competing_mrefs_per_sec", format_args!("{:.1}", r.competing_refs_per_sec / 1e6))
                .num("measured_drop_pct", format_args!("{:.2}", r.measured_drop_pct))
                .num("predicted_drop_pct", format_args!("{:.2}", r.predicted_drop_pct))
                .num("error_pp", format_args!("{:.2}", r.error_pp()))
                .num("extrapolated", r.extrapolated),
        );
    }
    rows
}

/// Run the sweep, emit the report, and assert the PR 10 headline: at the
/// DRAM-resident size with 64-packet batches, DIR-24-8 routes the same
/// table at ≥2× the binary radix trie's throughput.
pub fn run(ctx: &RunCtx) {
    ctx.heading("TABLES — internet-scale lookup structures, DRAM-resident regime");
    let report = measure_all(ctx);
    let sizes = prefix_scales(ctx.params.scale);
    let dram_size = sizes[1];

    let mut t = Table::new(
        "Structure × prefixes × batch: solo throughput, per-packet cost, drop vs 5 SYN_MAX",
        &[
            "structure",
            "prefixes",
            "batch",
            "solo Mpps",
            "cycles/pkt",
            "L3 refs/pkt",
            "drop (%)",
        ],
    );
    for p in &report.points {
        t.row(vec![
            p.structure.to_string(),
            p.prefixes.to_string(),
            p.batch.to_string(),
            fmt_f(p.solo.pps / 1e6, 3),
            fmt_f(p.solo.cycles_per_packet, 1),
            fmt_f(p.solo.l3_refs_per_packet, 2),
            fmt_f(p.drop_pct(), 2),
        ]);
    }
    ctx.emit("tables", &t);

    let mut t = Table::new(
        "Re-fit F/b + p per structure and size (solo batch-1/64 endpoints)",
        &["structure", "prefixes", "F (per batch)", "p (per packet)", "F share (%)", "max speedup"],
    );
    for f in &report.fits {
        t.row(vec![
            f.structure.to_string(),
            f.prefixes.to_string(),
            fmt_f(f.per_batch_cycles, 0),
            fmt_f(f.per_packet_cycles, 0),
            fmt_f(f.amortizable_share_pct, 1),
            fmt_f(f.max_speedup, 2),
        ]);
    }
    ctx.emit("tables_model", &t);
    println!(
        "the cost split shifts with the structure: DRAM-resident walks inflate the\n\
         per-packet term p, so the amortizable share F/(F+p) shrinks — batching buys\n\
         less exactly where the table stops fitting in cache"
    );

    let mut t = Table::new(
        "Contention predictor at the DRAM-resident size, batch 64 (held-out mixes)",
        &[
            "structure",
            "mix",
            "competing Mrefs/s",
            "measured drop %",
            "predicted %",
            "err pp",
            "extrapolated",
        ],
    );
    let mut worst_in_range = 0.0f64;
    let mut worst_extrapolated = 0.0f64;
    for r in &report.predictor {
        if r.extrapolated {
            worst_extrapolated = worst_extrapolated.max(r.error_pp());
        } else {
            worst_in_range = worst_in_range.max(r.error_pp());
        }
        t.row(vec![
            r.structure.to_string(),
            r.mix.to_string(),
            fmt_f(r.competing_refs_per_sec / 1e6, 1),
            fmt_f(r.measured_drop_pct, 2),
            fmt_f(r.predicted_drop_pct, 2),
            fmt_f(r.error_pp(), 2),
            r.extrapolated.to_string(),
        ]);
    }
    ctx.emit("tables_predictor", &t);
    if worst_in_range < 3.0 {
        println!(
            "finding: within the measured ramp the paper's <3 pp claim SURVIVES the\n\
             DRAM-resident regime (worst in-range error {worst_in_range:.2} pp) — a target\n\
             that already misses to DRAM solo has little left for competitors to evict,\n\
             so its curve is shallow and easy to interpolate. Beyond the ramp's last\n\
             point the clamped extrapolation under-predicts by up to\n\
             {worst_extrapolated:.2} pp: the curve has not flattened yet at these\n\
             competing-refs levels, so the ramp must reach the competitors' intensity\n\
             (the paper's method assumes exactly this)"
        );
    } else {
        println!(
            "finding: the paper's <3 pp claim does NOT carry to this DRAM-resident\n\
             configuration even within the measured ramp: worst in-range error\n\
             {worst_in_range:.2} pp (extrapolated worst {worst_extrapolated:.2} pp);\n\
             recorded in TABLES_results.json"
        );
    }

    // PR 10 headline: the compressed flat table vs the paper's trie at the
    // internet-scale size, batched.
    let solo_of = |structure: &str| {
        report
            .points
            .iter()
            .find(|p| p.structure == structure && p.prefixes == dram_size && p.batch == 64)
            .expect("grid point")
            .solo
            .pps
    };
    let radix = solo_of("binary-radix");
    let dir = solo_of("dir-24-8");
    println!(
        "DIR-24-8 at {dram_size} prefixes, batch 64: {:.3} Mpps vs binary radix {:.3} Mpps \
         ({:.2}x)",
        dir / 1e6,
        radix / 1e6,
        dir / radix
    );
    assert!(
        dir >= 2.0 * radix,
        "DIR-24-8 must route the {dram_size}-prefix table at >=2x the binary radix trie \
         with 64-packet batches: {dir:.0} vs {radix:.0} pps"
    );

    save_results_json("TABLES_results.json", "rows", &json_rows(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim: at the ~1M-prefix DRAM-resident size with
    /// 64-packet batches, the ≤2-read flat table beats the bit-per-level
    /// trie by ≥2×.
    #[test]
    fn dir248_beats_binary_radix_2x_batched() {
        let params = ExpParams::quick();
        let n = prefix_scales(params.scale)[1];
        let radix = measure_point("RadixIPLookup", n, 64, &Load::Solo, params);
        let dir = measure_point("Dir248IPLookup", n, 64, &Load::Solo, params);
        assert!(
            dir.pps >= 2.0 * radix.pps,
            "dir-24-8 {:.0} pps should be >=2x binary radix {:.0} pps",
            dir.pps,
            radix.pps
        );
        // And the mechanism: far fewer L3 refs per packet.
        assert!(
            dir.l3_refs_per_packet < radix.l3_refs_per_packet / 2.0,
            "refs/pkt {:.2} vs {:.2}",
            dir.l3_refs_per_packet,
            radix.l3_refs_per_packet
        );
    }

    /// Pin taken before the config-text flow assembly moved to pp-click and
    /// the engine lifecycle to `measure_window`: each class at the smallest
    /// quick-scale table, solo, batch 1 and 64 — exact pps and L3 refs per
    /// packet (the only pin on `MultibitIPLookup` / `Dir248IPLookup` inside
    /// a whole flow besides CSV text).
    #[test]
    fn solo_points_are_pinned_per_class() {
        let params = ExpParams::quick();
        let n = prefix_scales(params.scale)[0];
        let pins: [(&str, usize, u64, u64); 6] = [
            ("RadixIPLookup", 1, 0x4141_fec5_5555_5555, 0x4009_1bee_0e2e_991c),
            ("RadixIPLookup", 64, 0x4156_b480_0000_0000, 0x4003_2529_4a52_94a5),
            ("MultibitIPLookup", 1, 0x4147_29b0_0000_0000, 0x3ff9_1c38_36dd_7c02),
            ("MultibitIPLookup", 64, 0x415f_4000_0000_0000, 0x3ff9_9000_0000_0000),
            ("Dir248IPLookup", 1, 0x4144_d408_0000_0000, 0x3fff_fd7f_d7fd_7fd8),
            ("Dir248IPLookup", 64, 0x415c_9080_0000_0000, 0x4002_081d_2c7d_7282),
        ];
        for (class, batch, pps, refs) in pins {
            let m = measure_point(class, n, batch, &Load::Solo, params);
            assert_eq!(m.pps.to_bits(), pps, "{class} b{batch}: {} pps", m.pps);
            assert_eq!(
                m.l3_refs_per_packet.to_bits(),
                refs,
                "{class} b{batch}: {} refs/pkt",
                m.l3_refs_per_packet
            );
        }
    }

    /// Contention bites: the co-run against 5 SYN_MAX never *gains*
    /// throughput, and the measured competing refs/sec is nonzero.
    #[test]
    fn corun_reports_competition_and_nonnegative_drop() {
        let params = ExpParams::quick();
        let n = prefix_scales(params.scale)[0];
        let solo = measure_point("Dir248IPLookup", n, 1, &Load::Solo, params);
        let co = measure_point("Dir248IPLookup", n, 1, &Load::Syn(max5()), params);
        assert!(co.competing_refs_per_sec > 1e6, "SYN_MAX refs missing");
        assert!(co.pps <= solo.pps * 1.01, "co-run should not beat solo");
    }
}
