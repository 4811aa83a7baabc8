//! Cross-crate integration tests for the vectorized (batched) datapath:
//! order preservation and amortization behaviour end to end. (That a
//! one-packet vector reproduces the paper's per-packet platform is pinned
//! by the digests in `pp-bench`'s `experiments::batch`.)

use predictable_pp::prelude::*;
use predictable_pp::sim::config::MachineConfig;
use predictable_pp::sim::engine::{CoreTask, Engine};
use predictable_pp::sim::machine::Machine;
use predictable_pp::sim::types::{CoreId, MemDomain};

/// Run one flow of `kind` for a fixed simulated window (as the engine
/// would for a solo task) and return its counters.
fn measure(kind: ChainKind, batch: usize) -> predictable_pp::sim::counters::CounterSnapshot {
    let mut m = Machine::new(MachineConfig::westmere());
    let mut spec = FlowSpec::new(kind, Scale::Test, 23);
    spec.batch_size = batch;
    let mut flow = build_flow(&mut m, MemDomain(0), &spec).task;
    while m.core(CoreId(0)).clock < 4_000_000 {
        let mut ctx = m.ctx(CoreId(0));
        let _ = flow.run_turn(&mut ctx);
    }
    m.core(CoreId(0)).counters.snapshot()
}

#[test]
fn framework_cycles_per_packet_fall_with_batch_size() {
    // The amortization claim end to end: the framework + untagged
    // (overhead + hop) share of per-packet cycles must shrink as the batch
    // grows, for a cheap chain and an expensive one.
    for kind in [ChainKind::Ip, ChainKind::Fw] {
        let framework_pp = |batch: usize| {
            let snap = measure(kind, batch);
            let tagged: u64 = snap.tags.iter().map(|(_, c)| c.cycles()).sum();
            let framework =
                snap.tag("framework").map(|c| c.cycles()).unwrap_or(0);
            let untagged = snap.total.cycles() - tagged;
            (untagged + framework) as f64 / snap.total.packets as f64
        };
        let b1 = framework_pp(1);
        let b8 = framework_pp(8);
        let b64 = framework_pp(64);
        assert!(
            b1 > b8 && b8 > b64,
            "{}: framework cycles/packet must fall: {b1:.1} -> {b8:.1} -> {b64:.1}",
            kind.name()
        );
    }
}

#[test]
fn batched_throughput_beats_scalar_on_ip() {
    let pps = |batch: usize| {
        let mut m = Machine::new(MachineConfig::westmere());
        let mut spec = FlowSpec::new(ChainKind::Ip, Scale::Test, 9);
        spec.batch_size = batch;
        let built = build_flow(&mut m, MemDomain(0), &spec);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(built.task));
        let meas = e.measure(1_000_000, 5_600_000);
        meas.core(CoreId(0)).unwrap().metrics.pps
    };
    let per_packet = pps(1);
    let batched = pps(32);
    assert!(
        batched > per_packet * 1.3,
        "IP at batch 32 should beat batch 1 by well over 30%: {per_packet:.0} -> {batched:.0} pps"
    );
}

#[test]
fn packet_batch_round_trips_through_a_graph() {
    use predictable_pp::net::packet::PacketBuilder;
    use std::net::Ipv4Addr;

    let cost = CostModel::default();
    let mut m = Machine::new(MachineConfig::westmere());
    let mut g = ElementGraph::new(cost);
    let chk = g.add(Box::new(CheckIpHeader::new(cost)));
    let cnt = g.add(Box::new(Counter::default()));
    g.chain(&[chk, cnt]); // counter's port 0 unwired: packets exit in order
    let mut pkts: Vec<_> = (0..5u16)
        .map(|i| {
            PacketBuilder::default().udp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000 + i,
                53,
                b"x",
            )
        })
        .collect();
    let mut out = BatchOutcome::default();
    let mut ctx = m.ctx(CoreId(0));
    g.run_batch_into(&mut ctx, &mut pkts, &mut out);
    assert_eq!(out.consumed, 0);
    let ports: Vec<u16> = out
        .returned
        .iter()
        .map(|p| p.flow_key().unwrap().src_port)
        .collect();
    assert_eq!(ports, vec![1000, 1001, 1002, 1003, 1004], "exit order preserved");
    assert_eq!(g.exits, 5);
}
