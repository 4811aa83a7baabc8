//! Cross-crate integration tests for burst-mode cross-core handoff in the
//! §2.2 pipeline: handoff amortization and end-to-end latency accounting.
//! (That a one-packet burst reproduces the per-packet pipeline is pinned by
//! the digests in `pp-bench`'s `experiments::pipeline_batch`.)

use predictable_pp::prelude::*;
use predictable_pp::sim::config::MachineConfig;
use predictable_pp::sim::engine::Engine;
use predictable_pp::sim::machine::Machine;
use predictable_pp::sim::types::{CoreId, MemDomain};

/// Run one two-stage pipeline for a fixed span of simulated time and
/// return (sink packets, handoff cycles/packet, latency p50/p95/p99 cycles).
fn run_pipeline(kind: ChainKind, burst: usize, t_end: u64) -> (u64, f64, (u64, u64, u64)) {
    let mut m = Machine::new(MachineConfig::westmere());
    let spec = FlowSpec::new(kind, Scale::Test, 23);
    let pipe = PipelineSpec::new(MemDomain(0)).with_burst(burst);
    let (src, sink, _q) = build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
    let lat = sink.latency_handle();
    let mut e = Engine::new(m);
    e.set_task(CoreId(0), Box::new(src));
    e.set_task(CoreId(1), Box::new(sink));
    e.run_until(t_end);
    let packets = e.machine.core(CoreId(1)).counters.total().packets;
    let handoff: u64 = [CoreId(0), CoreId(1)]
        .iter()
        .map(|&c| e.machine.core(c).counters.tag(HANDOFF_TAG).map(|c| c.cycles()).unwrap_or(0))
        .sum();
    let l = lat.borrow();
    (packets, handoff as f64 / packets.max(1) as f64, (l.p50(), l.p95(), l.p99()))
}

#[test]
fn handoff_cycles_per_packet_fall_with_burst_size() {
    let (_, h1, _) = run_pipeline(ChainKind::Ip, 1, 4_000_000);
    let (_, h8, _) = run_pipeline(ChainKind::Ip, 8, 4_000_000);
    let (_, h64, _) = run_pipeline(ChainKind::Ip, 64, 4_000_000);
    assert!(
        h1 > h8 && h8 > h64,
        "handoff cycles/packet must fall: {h1:.1} -> {h8:.1} -> {h64:.1}"
    );
}

#[test]
fn burst_handoff_lifts_pipeline_throughput() {
    let (b1_pkts, _, _) = run_pipeline(ChainKind::Ip, 1, 4_000_000);
    let (burst_pkts, _, _) = run_pipeline(ChainKind::Ip, 32, 4_000_000);
    assert!(
        burst_pkts as f64 > b1_pkts as f64 * 1.05,
        "burst-32 handoff should move >5% more packets: {b1_pkts} -> {burst_pkts}"
    );
}

#[test]
fn pipeline_latency_is_recorded_and_ordered() {
    for burst in [1usize, 16] {
        let (pkts, _, (p50, p95, p99)) = run_pipeline(ChainKind::Mon, burst, 4_000_000);
        assert!(pkts > 0);
        assert!(p50 > 0, "burst {burst}: median latency must be recorded");
        assert!(p50 <= p95 && p95 <= p99, "burst {burst}: percentiles ordered");
    }
}

#[test]
fn flow_task_records_latency_and_batching_trades_it_for_throughput() {
    // Run-to-completion path: the same histogram machinery, where larger
    // batches must raise per-packet residence time (each packet waits for
    // its whole vector) while raising throughput.
    let run = |batch: usize| {
        let mut m = Machine::new(MachineConfig::westmere());
        let mut spec = FlowSpec::new(ChainKind::Ip, Scale::Test, 9);
        spec.batch_size = batch;
        let built = build_flow(&mut m, MemDomain(0), &spec);
        let lat = built.task.latency_handle();
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(built.task));
        e.run_until(4_000_000);
        let packets = e.machine.core(CoreId(0)).counters.total().packets;
        let p50 = lat.borrow().p50();
        (packets, p50)
    };
    let (b1_pkts, b1_p50) = run(1);
    let (batch_pkts, batch_p50) = run(32);
    assert!(b1_p50 > 0 && batch_p50 > 0);
    assert!(batch_pkts > b1_pkts, "batching must raise throughput");
    assert!(
        batch_p50 > b1_p50 * 4,
        "a 32-packet vector must raise median residence time well beyond batch 1: \
         {b1_p50} -> {batch_p50} cycles"
    );
}
