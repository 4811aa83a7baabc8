//! Burst-size sweep for the §2.2 pipeline's cross-core handoff.
//!
//! The pipeline configuration pays the paper's compulsory cross-core misses
//! — head/tail control-line ping-pong, descriptor-slot transfers, shared
//! free-list recycling — once **per packet** at burst 1. Burst-mode
//! handoff (`SpscQueue::{push_burst, pop_burst}`) pays the control-line
//! transactions once per burst and moves descriptors a cache line (4 slots)
//! at a time, the standard amortization in NFV dataplanes. Batching is not
//! free, though: every packet waits for its whole vector, so this
//! experiment reports simulated ingress→egress **latency percentiles**
//! alongside throughput — the batching-vs-latency trade-off axis.
//!
//! The sweep covers burst ∈ {1, 4, 8, 16, 32, 64} for three workloads in
//! both NUMA placements (stages sharing a socket vs stages on different
//! sockets, the Fig. 3 axis applied to the handoff structure), and
//! verifies that **handoff cycles/packet fall monotonically with burst
//! size**, following the `C/b + S·ceil(b/L)/b` model
//! ([`CrossCoreHandoff`]). Burst 1 is §2.2's per-packet pipeline; the
//! digests pinned in this module's tests are the ones the deleted
//! per-packet stage bodies produced.

use crate::RunCtx;
use pp_click::elements::queue::{HANDOFF_TAG, SLOTS_PER_LINE};
use pp_click::pipelines::{build_pipeline, PipelineSpec};
use pp_core::prelude::*;
use pp_sim::config::MachineConfig;
use pp_sim::counters::CounterSnapshot;
use pp_sim::engine::Engine;
use pp_sim::fault::DropStats;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, Cycles, MemDomain};

/// Burst sizes swept (1 = §2.2's per-packet handoff).
pub const BURSTS: [usize; 6] = [1, 4, 8, 16, 32, 64];

/// Workloads swept: a cheap, a cache-heavy, and a compute-heavy chain.
pub const WORKLOADS: [FlowType; 3] = [FlowType::Ip, FlowType::Mon, FlowType::Fw];

/// Where the two stages run relative to each other — the NUMA axis of the
/// handoff (the queue itself is always homed with the receiving stage, as
/// in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagePlacement {
    /// Both stages on socket 0: the ping-pong stays inside one L3.
    SameSocket,
    /// Front on socket 0, back on socket 1 (its data local to socket 1):
    /// every handoff line crosses QPI.
    CrossSocket,
}

/// Both placements, in report order.
pub const PLACEMENTS: [StagePlacement; 2] =
    [StagePlacement::SameSocket, StagePlacement::CrossSocket];

impl StagePlacement {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            StagePlacement::SameSocket => "same-socket",
            StagePlacement::CrossSocket => "cross-socket",
        }
    }

    /// (front, back) cores.
    fn cores(&self) -> (CoreId, CoreId) {
        match self {
            StagePlacement::SameSocket => (CoreId(0), CoreId(1)),
            StagePlacement::CrossSocket => (CoreId(0), CoreId(6)),
        }
    }

    /// (front, back) data domains.
    fn domains(&self) -> (MemDomain, MemDomain) {
        match self {
            StagePlacement::SameSocket => (MemDomain(0), MemDomain(0)),
            StagePlacement::CrossSocket => (MemDomain(0), MemDomain(1)),
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct PipelineBatchPoint {
    /// The workload.
    pub flow: FlowType,
    /// Stage placement.
    pub placement: StagePlacement,
    /// Burst size.
    pub burst: usize,
    /// Packets/sec completed by the back stage over the window.
    pub pps: f64,
    /// Both stages' cycles per completed packet.
    pub cycles_per_packet: f64,
    /// Cross-core handoff cycles per packet: both stages' `handoff`-tagged
    /// charges (queue_op, control lines, descriptor slot lines).
    pub handoff_cycles_per_packet: f64,
    /// Ingress→egress latency percentiles over the window, microseconds.
    pub p50_us: f64,
    /// 95th percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Front-core window counter deltas.
    pub front: CounterSnapshot,
    /// Back-core window counter deltas.
    pub back: CounterSnapshot,
    /// Front-core clock at end of run.
    pub front_clock: Cycles,
    /// Back-core clock at end of run.
    pub back_clock: Cycles,
    /// The pipeline's shared loss ledger since construction.
    pub drops: DropStats,
    /// Latencies recorded over the window.
    pub latency_count: u64,
    /// Median ingress→egress latency over the window, simulated cycles.
    pub p50_cycles: Cycles,
}

/// Measure one (workload, placement, burst) point (`burst == 0` means 1).
pub fn measure_point(
    flow: FlowType,
    placement: StagePlacement,
    burst: usize,
    params: ExpParams,
) -> PipelineBatchPoint {
    let mut machine = Machine::new(MachineConfig::westmere());
    let mut spec = flow.spec(params.scale, params.seed);
    spec.structure_seed = flow.structure_seed(params.seed);
    let (front_core, back_core) = placement.cores();
    let (front_domain, back_domain) = placement.domains();
    let pipe = PipelineSpec::new(front_domain).with_burst(burst);
    let (src, sink, _q) = build_pipeline(&mut machine, front_domain, back_domain, &spec, &pipe);
    let lat = sink.latency_handle();
    let drops = src.drop_handle();
    let mut engine = Engine::new(machine);
    engine.set_task(front_core, Box::new(src));
    engine.set_task(back_core, Box::new(sink));

    let warmup = params.warmup_cycles(engine.machine.config());
    let window = params.window_cycles(engine.machine.config());
    engine.run_until(warmup);
    lat.borrow_mut().reset(); // measure steady-state latencies only
    let f0 = engine.machine.core(front_core).counters.snapshot();
    let b0 = engine.machine.core(back_core).counters.snapshot();
    let t0 = engine.machine.max_clock();
    engine.run_until(t0 + window);
    let front = engine.machine.core(front_core).counters.snapshot().delta(&f0);
    let back = engine.machine.core(back_core).counters.snapshot().delta(&b0);

    let freq_ghz = engine.machine.config().freq_ghz;
    let packets = back.total.packets.max(1) as f64;
    let handoff_cycles = front.tag(HANDOFF_TAG).map(|c| c.cycles()).unwrap_or(0)
        + back.tag(HANDOFF_TAG).map(|c| c.cycles()).unwrap_or(0);
    let us = |cycles: Cycles| cycles as f64 / (freq_ghz * 1e3);
    let lat = lat.borrow();
    let drops = *drops.borrow();
    PipelineBatchPoint {
        flow,
        placement,
        burst,
        pps: back.total.packets as f64 / (window as f64 / (freq_ghz * 1e9)),
        cycles_per_packet: (front.total.cycles() + back.total.cycles()) as f64 / packets,
        handoff_cycles_per_packet: handoff_cycles as f64 / packets,
        p50_us: us(lat.p50()),
        p95_us: us(lat.p95()),
        p99_us: us(lat.p99()),
        front,
        back,
        front_clock: engine.machine.core(front_core).clock,
        back_clock: engine.machine.core(back_core).clock,
        drops,
        latency_count: lat.count(),
        p50_cycles: lat.p50(),
    }
}

/// Run the full sweep (every burst size per workload and placement).
pub fn measure(ctx: &RunCtx) -> Vec<PipelineBatchPoint> {
    let params = ctx.params;
    let mut items: Vec<(FlowType, StagePlacement, usize)> = Vec::new();
    for &placement in &PLACEMENTS {
        for &flow in &WORKLOADS {
            for &b in &BURSTS {
                items.push((flow, placement, b));
            }
        }
    }
    run_many(items, ctx.jobs, move |(flow, placement, burst)| {
        measure_point(flow, placement, burst, params)
    })
}

/// Run, verify handoff monotonicity, and emit the report.
pub fn run(ctx: &RunCtx) -> Vec<PipelineBatchPoint> {
    ctx.heading("PIPELINE-BATCH — burst-mode cross-core handoff sweep");
    let points = measure(ctx);

    let mut table = Table::new(
        "Pipeline burst sweep: throughput, handoff cost, and latency",
        &[
            "placement",
            "workload",
            "burst",
            "pps",
            "cyc/pkt",
            "handoff cyc/pkt",
            "p50 us",
            "p95 us",
            "p99 us",
            "speedup vs b=1",
        ],
    );
    for &placement in &PLACEMENTS {
        for &flow in &WORKLOADS {
            let pts: Vec<&PipelineBatchPoint> = points
                .iter()
                .filter(|p| p.flow == flow && p.placement == placement)
                .collect();
            let label = format!("{}/{}", placement.name(), flow.name());
            let b1 = pts.iter().find(|p| p.burst == 1).expect("burst=1 anchor");

            let mut last_handoff = f64::INFINITY;
            for p in &pts {
                assert!(
                    p.handoff_cycles_per_packet < last_handoff,
                    "{label}: handoff cycles/packet must fall monotonically \
                     ({last_handoff:.1} -> {:.1} at burst {})",
                    p.handoff_cycles_per_packet,
                    p.burst
                );
                last_handoff = p.handoff_cycles_per_packet;
                table.row(vec![
                    placement.name().into(),
                    flow.name(),
                    p.burst.to_string(),
                    millions(p.pps),
                    fmt_f(p.cycles_per_packet, 1),
                    fmt_f(p.handoff_cycles_per_packet, 1),
                    fmt_f(p.p50_us, 2),
                    fmt_f(p.p95_us, 2),
                    fmt_f(p.p99_us, 2),
                    fmt_f(p.pps / b1.pps, 2),
                ]);
            }
        }
    }
    ctx.emit("pipeline_batch", &table);
    println!(
        "batching amortizes the handoff's control-line ping-pong (once per burst) and \
         descriptor transfers (one line per {SLOTS_PER_LINE} packets); latency percentiles \
         show what that costs each packet"
    );

    // Fit the C/b + S*ceil(b/L)/b handoff model from the endpoints and
    // report its interpolation error at the interior burst sizes.
    let mut fit_table = Table::new(
        "Handoff model C/b + S*ceil(b/L)/b (fit from burst 1 and 64)",
        &["placement", "workload", "C (ctrl/burst)", "S (slot line)", "worst interp err %"],
    );
    for &placement in &PLACEMENTS {
        for &flow in &WORKLOADS {
            let at = |b: usize| {
                points
                    .iter()
                    .find(|p| p.flow == flow && p.placement == placement && p.burst == b)
                    .map(|p| p.handoff_cycles_per_packet)
                    .expect("swept point")
            };
            let model =
                CrossCoreHandoff::fit(SLOTS_PER_LINE as f64, (1.0, at(1)), (64.0, at(64)));
            let mut worst = 0.0f64;
            for &b in &BURSTS[1..5] {
                let err = (model.cycles_per_packet(b as f64) - at(b)).abs() / at(b) * 100.0;
                worst = worst.max(err);
            }
            fit_table.row(vec![
                placement.name().into(),
                flow.name(),
                fmt_f(model.control_cycles_per_burst, 0),
                fmt_f(model.slot_line_cycles, 0),
                fmt_f(worst, 1),
            ]);
        }
    }
    ctx.emit("pipeline_batch_model", &fit_table);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::batch::{digest_bytes, digest_counts};

    /// Pinned output digests of two-core pipeline points — both cores'
    /// window totals and per-tag deltas, both clocks, the loss ledger, and
    /// the latency count and median — captured from the per-packet
    /// (`burst == 0`) stage bodies before they were deleted. The equal
    /// `0`/`1` pairs say that burst 0 is accepted and means 1, and that a
    /// one-packet burst is the paper's per-packet pipeline.
    #[test]
    fn one_packet_bursts_reproduce_the_pinned_per_packet_pipeline() {
        let expected: [(FlowType, StagePlacement, usize, u64); 8] = [
            (FlowType::Ip, StagePlacement::SameSocket, 0, 0x4143_35ab_adaf_99ad),
            (FlowType::Ip, StagePlacement::SameSocket, 1, 0x4143_35ab_adaf_99ad),
            (FlowType::Ip, StagePlacement::CrossSocket, 0, 0x0160_8eed_b5af_a0dc),
            (FlowType::Ip, StagePlacement::CrossSocket, 1, 0x0160_8eed_b5af_a0dc),
            (FlowType::Mon, StagePlacement::SameSocket, 0, 0xaf00_0256_01a6_a81d),
            (FlowType::Mon, StagePlacement::SameSocket, 1, 0xaf00_0256_01a6_a81d),
            (FlowType::Mon, StagePlacement::CrossSocket, 0, 0x7e0d_c6fd_9efe_9740),
            (FlowType::Mon, StagePlacement::CrossSocket, 1, 0x7e0d_c6fd_9efe_9740),
        ];
        for (flow, placement, burst, want) in expected {
            let p = measure_point(flow, placement, burst, ExpParams::quick());
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for side in [&p.front, &p.back] {
                digest_counts(&mut h, &side.total);
                for (name, c) in &side.tags {
                    digest_bytes(&mut h, name.as_bytes());
                    digest_counts(&mut h, c);
                }
            }
            let d = p.drops;
            for v in [
                p.front_clock,
                p.back_clock,
                d.offered,
                d.nic_rx_exhausted,
                d.queue_full,
                d.element_dropped,
                d.wire_overflow,
                d.shed,
                d.drained,
                p.latency_count,
                p.p50_cycles,
            ] {
                digest_bytes(&mut h, &v.to_le_bytes());
            }
            assert_eq!(
                h,
                want,
                "{flow} {} burst={burst}: pipeline output digest changed",
                placement.name()
            );
        }
    }

    #[test]
    fn quick_points_are_monotone() {
        // A reduced sweep at test scale: burst 1 and a few interior sizes
        // for one workload per placement. The full-grid invariants run
        // inside run() (exercised by the CI smoke run).
        let params = ExpParams::quick();
        for placement in [StagePlacement::SameSocket, StagePlacement::CrossSocket] {
            let b1 = measure_point(FlowType::Ip, placement, 1, params);
            let b8 = measure_point(FlowType::Ip, placement, 8, params);
            let b64 = measure_point(FlowType::Ip, placement, 64, params);
            assert!(
                b1.handoff_cycles_per_packet > b8.handoff_cycles_per_packet
                    && b8.handoff_cycles_per_packet > b64.handoff_cycles_per_packet,
                "{}: handoff cycles/packet must fall: {:.1} -> {:.1} -> {:.1}",
                placement.name(),
                b1.handoff_cycles_per_packet,
                b8.handoff_cycles_per_packet,
                b64.handoff_cycles_per_packet
            );
            assert!(b64.pps > b1.pps, "{}: bursts must lift throughput", placement.name());
            for p in [&b1, &b8, &b64] {
                assert!(p.p50_us > 0.0, "latency must be recorded");
                assert!(p.p50_us <= p.p95_us && p.p95_us <= p.p99_us);
            }
        }
    }
}
