//! Consolidating an IDS onto a busy platform — the §6 "emerging workload"
//! scenario, end to end.
//!
//! An operator runs monitoring (MON) and VPN flows on a socket and wants to
//! add intrusion detection (DPI: Aho-Corasick signature matching over
//! payloads). Two questions decide the rollout:
//!
//! 1. **Does the IDS actually detect?** — exercised at the element level
//!    with a real signature corpus and packets that embed one.
//! 2. **What does co-location cost?** — answered offline with the paper's
//!    prediction method, plus this reproduction's fill-rate refinement
//!    (DPI's hot automaton rows make it exactly the hot-spot workload the
//!    paper's refs/sec metric over-estimates).
//!
//! Run with:
//! ```text
//! cargo run --release --example ids_consolidation
//! ```

use predictable_pp::prelude::*;
use std::net::Ipv4Addr;

fn main() {
    // ---------------------------------------------------------- detection
    println!("1. Element-level check: does the IDS detect?\n");
    let mut machine = pp_sim::machine::Machine::new(
        pp_sim::config::MachineConfig::westmere(),
    );
    let signatures = generate_signatures(500, 42);
    let mut dpi = Dpi::new(
        machine.allocator(pp_sim::types::MemDomain(0)),
        &signatures,
        DpiMode::Prevent,
        CostModel::default(),
    );
    println!(
        "   compiled {} signatures into {} automaton states ({:.1} MB table)",
        signatures.len(),
        dpi.automaton().state_count(),
        dpi.footprint() as f64 / (1 << 20) as f64,
    );

    let mut ctx = machine.ctx(pp_sim::types::CoreId(0));
    // A benign packet and one smuggling signature #7.
    let benign = PacketBuilder::default().udp(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(192, 0, 2, 9),
        40_000,
        443,
        b"perfectly ordinary payload bytes",
    );
    let mut evil_payload = b"prefix-noise ".to_vec();
    evil_payload.extend_from_slice(&signatures[7]);
    evil_payload.extend_from_slice(b" suffix-noise");
    let evil = PacketBuilder::default().udp(
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(192, 0, 2, 9),
        40_001,
        443,
        &evil_payload,
    );

    let mut p = benign.clone();
    assert_eq!(dpi.process(&mut ctx, &mut p), Action::Out(0));
    println!("   benign packet  -> forwarded ({} matches)", dpi.matches);
    let mut p = evil.clone();
    assert_eq!(dpi.process(&mut ctx, &mut p), Action::Drop);
    println!("   evil packet    -> dropped   ({} match)\n", dpi.matches);

    // ------------------------------------------------------- consolidation
    println!("2. What does co-locating the IDS cost? (offline profiling)\n");
    let params = ExpParams::quick(); // paper-scale: ExpParams::paper()
    let types = [FlowType::Dpi, FlowType::Mon, FlowType::Vpn];
    let predictor = Predictor::profile(&types, 4, params, default_threads());

    for &t in &types {
        let s = predictor.solo(t).unwrap();
        println!(
            "   {:<5} solo: {:>7.3} Mpps, {:>6.1} M L3 refs/s ({:.1} M misses/s)",
            t.name(),
            s.pps / 1e6,
            s.l3_refs_per_sec / 1e6,
            (s.l3_refs_per_sec - s.l3_hits_per_sec) / 1e6,
        );
    }

    // The planned socket: 2 DPI + 2 MON + 2 VPN. Predict each flow's drop
    // before ever co-running them.
    let mix = [
        FlowType::Dpi,
        FlowType::Dpi,
        FlowType::Mon,
        FlowType::Mon,
        FlowType::Vpn,
        FlowType::Vpn,
    ];
    println!("\n   planned socket: 2x DPI + 2x MON + 2x VPN");
    println!(
        "   {:<5}  {:>14}  {:>17}  {:>12}",
        "flow", "paper method", "fill-rate method", "measured"
    );

    // Measure the actual mix once (one socket, NUMA-local), for comparison.
    let placement = Placement { socket0: mix.to_vec(), socket1: Vec::new() };
    let measured = evaluate_measured(&placement, &predictor.solo_pps(), params);

    for (m, &(_, drop)) in predictor.predict_mix(&mix).iter().zip(&measured.per_flow) {
        println!(
            "   {:<5}  {:>13.2}%  {:>16.2}%  {:>11.2}%",
            m.flow.name(),
            m.predicted,
            m.predicted_fillrate,
            drop,
        );
    }

    println!(
        "\nDPI keeps its hot automaton rows resident, so most of its L3 references\n\
         evict nothing — the paper's refs/sec metric over-states its aggressiveness,\n\
         while the fill-rate refinement (competing misses/sec) tracks the measurement.\n\
         Run `cargo run --release -p pp-bench --bin repro -- extended` for the full\n\
         paper-scale study."
    );
}
