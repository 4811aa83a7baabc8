//! Integration tests of the extension features: the three new workloads
//! (DPI / NAT / CLASS), the fill-rate prediction refinement, hardware
//! prefetching, and CAT-style cache partitioning — all at test scale.

use predictable_pp::prelude::*;
use predictable_pp::sim::config::MachineConfig;
use predictable_pp::sim::engine::Engine;
use predictable_pp::sim::machine::Machine;
use predictable_pp::sim::types::{CoreId, MemDomain};

/// All three extension chains forward packets end to end and show the
/// working sets their designs imply.
#[test]
fn extension_flows_run_and_profile() {
    let profiles = SoloProfile::measure_all(&EXTENDED, ExpParams::quick(), default_threads());
    for p in &profiles {
        assert!(p.pps > 5_000.0, "{} pps = {}", p.flow, p.pps);
        assert!(p.l3_refs_per_sec > 1e6, "{} does real memory work", p.flow);
    }
    // DPI's dense automaton dominates: the biggest refs/packet of the three.
    let by_flow = |f: FlowType| profiles.iter().find(|p| p.flow == f).unwrap();
    assert!(
        by_flow(FlowType::Dpi).l3_refs_per_packet
            > by_flow(FlowType::Nat).l3_refs_per_packet,
        "payload scanning out-references header rewriting"
    );
}

/// The fill-rate refinement never estimates more competition than the
/// paper's method, and both predict sane drops for extension mixes.
#[test]
fn fillrate_refinement_is_consistent() {
    let types = [FlowType::Mon, FlowType::Dpi, FlowType::Class];
    let p = Predictor::profile(&types, 3, ExpParams::quick(), default_threads());
    for &target in &types {
        for &comp in &types {
            let refs = p.estimated_competition(&[comp; 5]);
            let fills = p.estimated_fill_competition(&[comp; 5]);
            assert!(fills <= refs + 1.0);
            let d_paper = p.predict_drop(target, &[comp; 5]);
            let d_fill = p.predict_drop_fillrate(target, &[comp; 5]);
            assert!((0.0..=100.0).contains(&d_paper));
            assert!((0.0..=100.0).contains(&d_fill));
            assert!(
                d_fill <= d_paper + 1.0,
                "{target} vs {comp}: fill-rate {d_fill:.1} > paper {d_paper:.1}"
            );
        }
    }
}

/// For a hot-spot competitor (DPI), the fill-rate method must come closer
/// to the measured drop than the paper's refs/sec method.
#[test]
fn fillrate_beats_refs_for_hotspot_competitors() {
    let types = [FlowType::Mon, FlowType::Dpi];
    let p = Predictor::profile(&types, 3, ExpParams::quick(), default_threads());
    let measured = run_corun(
        FlowType::Mon,
        &[FlowType::Dpi; 5],
        ContentionConfig::Both,
        ExpParams::quick(),
    )
    .drop_pct;
    let err_paper = (p.predict_drop(FlowType::Mon, &[FlowType::Dpi; 5]) - measured).abs();
    let err_fill =
        (p.predict_drop_fillrate(FlowType::Mon, &[FlowType::Dpi; 5]) - measured).abs();
    assert!(
        err_fill <= err_paper,
        "fill-rate error {err_fill:.2}pp should not exceed refs error {err_paper:.2}pp"
    );
}

/// CAT-style partitioning bounds the damage the most aggressive synthetic
/// can do to the most sensitive realistic flow.
#[test]
fn cat_partitioning_caps_contention() {
    let run = |cfg: MachineConfig| {
        let params = ExpParams::quick();
        let scale = params.scale;
        let build = |machine: &mut Machine, seed: u64, kind| {
            build_flow(machine, MemDomain(0), &FlowSpec::new(kind, scale, seed))
        };
        // Solo.
        let mut m = Machine::new(cfg.clone());
        let b = build(&mut m, 1, ChainKind::Mon);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(b.task));
        let warm = params.warmup_cycles(e.machine.config());
        let win = params.window_cycles(e.machine.config());
        let solo = e.measure(warm, win).core(CoreId(0)).unwrap().metrics.pps;
        // Against 5 SYN_MAX.
        let mut m = Machine::new(cfg);
        let b = build(&mut m, 1, ChainKind::Mon);
        let mut tasks = vec![(CoreId(0), b.task)];
        for i in 1..=5u16 {
            let b = build(
                &mut m,
                100 + i as u64,
                ChainKind::Syn(predictable_pp::click::elements::synthetic::SynParams::max(
                    i as u64,
                )),
            );
            tasks.push((CoreId(i), b.task));
        }
        let mut e = Engine::new(m);
        for (c, t) in tasks {
            e.set_task(c, Box::new(t));
        }
        let co = e.measure(warm, win).core(CoreId(0)).unwrap().metrics.pps;
        (solo - co) / solo * 100.0
    };
    let shared = run(MachineConfig::westmere());
    let partitioned = run(MachineConfig::westmere().with_equal_cat());
    assert!(
        partitioned < shared / 2.0,
        "CAT should at least halve the drop: shared {shared:.1}% vs CAT {partitioned:.1}%"
    );
}

/// The prefetcher is observable at the flow level: it must not slow any
/// standard workload down, and its fills must show up in controller stats
/// for stream-shaped access patterns.
#[test]
fn prefetcher_is_safe_for_standard_workloads() {
    for kind in [ChainKind::Mon, ChainKind::Fw] {
        let run = |enabled: bool| {
            let mut cfg = MachineConfig::westmere();
            cfg.prefetch.enabled = enabled;
            let mut m = Machine::new(cfg);
            let spec = FlowSpec::new(kind, Scale::Test, 3);
            let b = build_flow(&mut m, MemDomain(0), &spec);
            let mut e = Engine::new(m);
            e.set_task(CoreId(0), Box::new(b.task));
            let meas = e.measure(1_000_000, 8_400_000);
            meas.core(CoreId(0)).unwrap().metrics.pps
        };
        let off = run(false);
        let on = run(true);
        assert!(
            on > off * 0.97,
            "{}: prefetch on {on:.0} pps vs off {off:.0} pps",
            kind.name()
        );
    }
}

/// NAT element keeps checksums valid through the full flow path (the
/// integration-level version of the unit invariants).
#[test]
fn nat_flow_produces_valid_packets() {
    use predictable_pp::net::headers::Ipv4Header;
    let mut m = Machine::new(MachineConfig::westmere());
    let mut nat = Nat::new(
        m.allocator(MemDomain(0)),
        NatConfig::default(),
        CostModel::default(),
    );
    let mut gen = TrafficGen::new(TrafficSpec::flow_population(64, 500, 7));
    let mut ctx = m.ctx(CoreId(0));
    for _ in 0..500 {
        let mut pkt = gen.next_packet();
        assert_eq!(nat.process(&mut ctx, &mut pkt), Action::Out(0));
        assert!(Ipv4Header::verify_checksum(&pkt.data[pkt.l3_offset()..]));
        assert!(pkt.verify_l4_checksum().unwrap());
    }
    assert_eq!(nat.translated, 500);
}
