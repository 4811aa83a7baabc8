//! Ablation studies on the design choices ARCHITECTURE.md calls out.
//!
//! These go beyond the paper's figures: each ablation switches one modeling
//! or implementation decision and re-measures a contention-sensitive
//! scenario, quantifying how much that choice contributes to the observed
//! behaviour.
//!
//! * **DCA on/off** — the paper's platform DMAs packets into the L3
//!   (Direct Cache Access). Without it every header read goes to DRAM.
//! * **L3 associativity** — the paper argues its results are generic LRU
//!   phenomena, not artifacts of 16-way associativity; we sweep it.
//! * **Binary vs multibit trie** — same routes, different memory shape:
//!   the lookup structure determines the flow's sensitivity profile.
//! * **SYN memory-level parallelism** — how the competitors' MLP changes
//!   the pressure they exert at equal refs/sec.

use crate::experiments::{measure_window, seat, seat_flow, seat_syn};
use crate::RunCtx;
use pp_click::cost::CostModel;
use pp_click::elements::synthetic::SynParams;
use pp_click::flow::FrameworkChurn;
use pp_click::pipelines::{build_config_flow, ChainKind};
use pp_core::prelude::*;
use pp_net::gen::traffic::TrafficSpec;
use pp_sim::config::MachineConfig;
use pp_sim::types::{CoreId, MemDomain};

/// Measured drop of a MON-vs-5-SYN_MAX co-run under a given machine config.
/// Returns `(solo pps, drop %)`. Shared with the partitioning experiment.
pub(crate) fn mon_drop_under(cfg: MachineConfig, ctx: &RunCtx) -> (f64, f64) {
    let scale = ctx.params.scale;
    // MON on core 0, alone or beside SYN_MAX on cores 1..=5.
    let mon_pps = |cfg: MachineConfig, competitors: u16| {
        measure_window(cfg, ctx.params, |machine| {
            let mut seats = vec![seat_flow(machine, scale, 0, ChainKind::Mon, 1, 0xFEED)];
            for i in 1..=competitors {
                seats.push(seat_syn(machine, scale, i, SynParams::max(i as u64)));
            }
            seats
        })
        .core(CoreId(0))
        .unwrap()
        .metrics
        .pps
    };
    let solo = mon_pps(cfg.clone(), 0);
    let co = mon_pps(cfg, 5);
    (solo, (solo - co) / solo * 100.0)
}

/// Run all ablations and report.
pub fn run(ctx: &RunCtx) {
    ctx.heading("Ablations — how much does each design choice matter?");

    // 1. DCA.
    let mut t = Table::new(
        "DCA (NIC DMA into L3) on/off: MON solo throughput and drop vs 5 SYN_MAX",
        &["dca", "solo Mpps", "drop (%)"],
    );
    for dca in [true, false] {
        let mut cfg = MachineConfig::westmere();
        cfg.dca = dca;
        let (solo, drop) = mon_drop_under(cfg, ctx);
        t.row(vec![dca.to_string(), fmt_f(solo / 1e6, 3), fmt_f(drop, 2)]);
    }
    ctx.emit("ablate_dca", &t);

    // 2. L3 associativity.
    let mut t = Table::new(
        "L3 associativity sweep (same capacity): the contention effect is not an associativity artifact",
        &["ways", "solo Mpps", "drop (%)"],
    );
    for ways in [4u32, 8, 16, 32] {
        let mut cfg = MachineConfig::westmere();
        cfg.l3 = pp_sim::config::CacheGeom::new(cfg.l3.size_bytes, ways);
        let (solo, drop) = mon_drop_under(cfg, ctx);
        t.row(vec![ways.to_string(), fmt_f(solo / 1e6, 3), fmt_f(drop, 2)]);
    }
    ctx.emit("ablate_associativity", &t);

    // 3. Lookup-structure choice: binary radix trie vs multibit trie under
    //    identical contention (both route identically; footprints differ).
    let mut t = Table::new(
        "Lookup structure: Click-style binary radix trie vs leaf-pushed multibit trie (IP flow)",
        &["structure", "solo Mpps", "drop vs 5 SYN_MAX (%)", "L3 refs/pkt solo"],
    );
    for (label, class) in [("binary radix", "RadixIPLookup"), ("multibit", "MultibitIPLookup")] {
        let scale = ctx.params.scale;
        let n_prefixes = match scale {
            Scale::Paper => 128_000,
            Scale::Test => 32_000,
        };
        let config = format!(
            "chk :: CheckIPHeader; rt :: {class}(PREFIXES {n_prefixes}, SEED {seed}); \
             ttl :: DecIPTTL; out :: ToDevice; chk -> rt -> ttl -> out;",
            seed = 0xFEED
        );
        // The config-text IP flow on core 0, alone or beside 5 SYN_MAX.
        let run_one = |with_syn: bool| -> (f64, f64) {
            let m = measure_window(MachineConfig::westmere(), ctx.params, |machine| {
                let traffic = TrafficSpec::random_dst(64, 5);
                let flow = build_config_flow(machine, MemDomain(0), label, &config, traffic)
                    .expect("valid config");
                let churn =
                    FrameworkChurn::new(machine.allocator(MemDomain(0)), &CostModel::default());
                let mut seats = vec![seat(0, flow.task.with_churn(churn))];
                if with_syn {
                    for i in 1..=5u16 {
                        seats.push(seat_syn(machine, scale, i, SynParams::max(i as u64)));
                    }
                }
                seats
            });
            let cm = m.core(CoreId(0)).unwrap();
            (cm.metrics.pps, cm.metrics.l3_refs_per_packet)
        };
        let (solo_pps, refs_solo) = run_one(false);
        let (co_pps, _) = run_one(true);
        t.row(vec![
            label.to_string(),
            fmt_f(solo_pps / 1e6, 3),
            fmt_f((solo_pps - co_pps) / solo_pps * 100.0, 2),
            fmt_f(refs_solo, 2),
        ]);
    }
    ctx.emit("ablate_lookup_structure", &t);
    println!(
        "the multibit trie does the same routing with far fewer L3 refs/packet — a\n\
         downstream user can trade lookup-structure memory shape against sensitivity"
    );

    // 4. Hardware prefetcher. Two instructive non-results and one real
    //    effect: FW's 1000-rule scan is L2-resident after warmup (nothing
    //    left to prefetch), MON's hash probes are stride-free (untrainable)
    //    — but the *framework's* sequential per-packet metadata walk is a
    //    textbook stream, so the streamer hides a slice of the misses that
    //    contention converts, shrinking MON's drop under SYN_MAX pressure.
    let mut t = Table::new(
        "L2 stream prefetcher on/off",
        &["prefetch", "FW solo Mpps", "MON solo Mpps", "MON drop vs 5 SYN_MAX (%)"],
    );
    for enabled in [false, true] {
        let mut cfg = MachineConfig::westmere();
        cfg.prefetch.enabled = enabled;
        let fw = solo_pps_under(cfg.clone(), ChainKind::Fw, ctx);
        let (mon_solo, mon_drop) = mon_drop_under(cfg, ctx);
        t.row(vec![
            enabled.to_string(),
            fmt_f(fw / 1e6, 3),
            fmt_f(mon_solo / 1e6, 3),
            fmt_f(mon_drop, 2),
        ]);
    }
    ctx.emit("ablate_prefetch", &t);
    println!(
        "FW's scan lives in L2 after warmup and MON's probes are stride-free — neither\n\
         trains the streamer. What does is the framework's sequential per-packet metadata\n\
         walk: prefetching it hides misses that contention would otherwise convert, which\n\
         is why MON's drop (not its solo rate) is where the streamer shows up"
    );
}

/// Solo throughput of one flow kind under a machine config.
fn solo_pps_under(cfg: MachineConfig, kind: ChainKind, ctx: &RunCtx) -> f64 {
    measure_window(cfg, ctx.params, |machine| {
        vec![seat_flow(machine, ctx.params.scale, 0, kind, 1, 0xFEED)]
    })
    .core(CoreId(0))
    .unwrap()
    .metrics
    .pps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin taken before the engine lifecycles went to `measure_window`:
    /// solo and contended MON on the default machine, as pps / drop bits.
    #[test]
    fn mon_drop_on_westmere_is_pinned() {
        let (solo, drop) = mon_drop_under(MachineConfig::westmere(), &RunCtx::quick());
        assert_eq!(solo.to_bits(), 0x4131_db9d_5555_5555, "solo pps {solo}");
        assert_eq!(drop.to_bits(), 0x4043_2ebc_d8b3_1377, "drop {drop} %");
    }
}
