//! Middlebox consolidation (the paper's motivating scenario, after Sekar et
//! al.): an operator packs several tenants' packet-processing flows onto
//! one 12-core box and must know, *before deploying*, how much throughput
//! each tenant will lose to cache contention.
//!
//! The workflow is the paper's §4 method end to end:
//!   1. profile each flow type offline (solo + SYN ramp),
//!   2. predict each tenant's drop under the proposed placement,
//!   3. deploy (here: simulate) and compare.
//!
//! Run with:
//! ```text
//! cargo run --release --example tenant_consolidation
//! ```

use predictable_pp::prelude::*;

fn main() {
    let params = ExpParams::quick();
    let threads = default_threads();

    // The tenants on this box: 2 monitoring, 2 VPN gateways, a firewall,
    // and a WAN optimizer (RE) per socket.
    let per_socket = vec![
        FlowType::Mon,
        FlowType::Mon,
        FlowType::Vpn,
        FlowType::Vpn,
        FlowType::Fw,
        FlowType::Re,
    ];
    let types: Vec<FlowType> = {
        let mut t = per_socket.clone();
        t.sort();
        t.dedup();
        t
    };

    println!("Step 1: offline profiling ({} types, SYN ramp)...", types.len());
    let predictor = Predictor::profile(&types, 4, params, threads);
    for &t in &types {
        let s = predictor.solo(t).unwrap();
        println!(
            "  {:4}: solo {:.3} Mpps, {:.1} M refs/s",
            t.name(),
            s.pps / 1e6,
            s.l3_refs_per_sec / 1e6
        );
    }

    println!("\nStep 2: predict each tenant's drop under the proposed placement");
    let predicted = predictor.predict_mix(&per_socket);
    for (i, m) in predicted.iter().enumerate() {
        println!(
            "  {:4}#{i}: predicted drop {:5.2}%  -> offered SLA: {:.3} Mpps",
            m.flow.name(),
            m.predicted,
            predictor.predict_pps(m.flow, &m.competitors) / 1e6
        );
    }

    println!("\nStep 3: deploy (simulate) and check the predictions");
    let placement = Placement { socket0: per_socket.clone(), socket1: per_socket.clone() };
    let eval = evaluate_measured(&placement, &predictor.solo_pps(), params);

    let mut worst_err: f64 = 0.0;
    for (i, &(t, measured)) in eval.per_flow.iter().take(per_socket.len()).enumerate() {
        let err = predicted[i].predicted - measured;
        worst_err = worst_err.max(err.abs());
        println!(
            "  {:4}#{i}: measured {measured:5.2}%  predicted {:5.2}%  error {err:+.2} pp",
            t.name(),
            predicted[i].predicted
        );
    }
    println!(
        "\nWorst prediction error: {worst_err:.2} pp — the operator can size \
         SLAs from offline profiles alone (the paper's headline result)."
    );
}
