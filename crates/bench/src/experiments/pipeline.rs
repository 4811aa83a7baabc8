//! §2.2: pipeline vs parallel parallelization.
//!
//! The paper's finding: for realistic workloads the parallel
//! (run-to-completion) approach always wins, because pipelining adds 10–15
//! extra cache misses per packet (descriptor/header handoff, cross-core
//! buffer recycling). Only a crafted workload — >200 random accesses per
//! packet into a structure twice the L3 size — can favor pipelining, by
//! giving each pipeline stage a private-L3-resident working set.

use crate::experiments::{measure_window, seat};
use crate::RunCtx;
use pp_core::prelude::*;
use pp_click::pipelines::{build_pipeline, two_phase_parallel, two_phase_pipeline, PipelineSpec};
use pp_sim::config::MachineConfig;
use pp_sim::types::{CoreId, MemDomain};

/// One workload's parallel-vs-pipeline comparison.
///
/// "Misses" follow the paper's usage: private-cache misses per packet
/// (i.e., references that reach the shared L3 — cross-core transfers land
/// there), not DRAM misses.
pub struct PipelineRow {
    /// Workload label.
    pub label: String,
    /// Parallel mode: total packets/sec with 2 cores (one flow each).
    pub parallel_pps: f64,
    /// Parallel mode: L3 references per packet.
    pub parallel_misses_per_pkt: f64,
    /// Pipeline mode: packets/sec with the same 2 cores.
    pub pipeline_pps: f64,
    /// Pipeline mode: combined L3 references per packet (both stages).
    pub pipeline_misses_per_pkt: f64,
}

impl PipelineRow {
    /// Extra misses per packet introduced by pipelining (paper: 10–15).
    pub fn extra_misses(&self) -> f64 {
        self.pipeline_misses_per_pkt - self.parallel_misses_per_pkt
    }

    /// Throughput ratio pipeline/parallel (<1 means parallel wins).
    pub fn speedup(&self) -> f64 {
        self.pipeline_pps / self.parallel_pps
    }
}

fn measure_parallel_pair(ctx: &RunCtx, flow: FlowType) -> (f64, f64) {
    // Two independent full chains on cores 0 and 1 (same socket, local
    // data) — parallel mode on two cores.
    let s = Scenario {
        flows: vec![
            FlowPlacement { core: CoreId(0), flow, domain: MemDomain(0) },
            FlowPlacement { core: CoreId(1), flow, domain: MemDomain(0) },
        ],
        params: ctx.params,
    };
    let r = run_scenario(&s);
    let pps: f64 = r.flows.iter().map(|f| f.metrics.pps).sum();
    let refs: u64 = r.flows.iter().map(|f| f.counts.l3_refs).sum();
    let packets: u64 = r.flows.iter().map(|f| f.counts.packets).sum();
    (pps, refs as f64 / packets.max(1) as f64)
}

fn measure_pipeline_pair(ctx: &RunCtx, flow: FlowType) -> (f64, f64) {
    // The chain split across cores 0 and 1 (same socket, local data).
    let meas = measure_window(MachineConfig::westmere(), ctx.params, |machine| {
        let spec = flow.spec(ctx.params.scale, 0xBEEF);
        let pipe = PipelineSpec::new(MemDomain(0));
        let (src, sink, _q) = build_pipeline(machine, MemDomain(0), MemDomain(0), &spec, &pipe);
        vec![seat(0, src), seat(1, sink)]
    });
    let back = meas.core(CoreId(1)).expect("sink measured");
    let front = meas.core(CoreId(0)).expect("source measured");
    let packets = back.counts.total.packets.max(1);
    let refs = back.counts.total.l3_refs + front.counts.total.l3_refs;
    (back.metrics.pps, refs as f64 / packets as f64)
}

/// The crafted two-phase comparison: `(parallel_pps, pipeline_pps)`.
pub fn crafted(ctx: &RunCtx) -> (f64, f64) {
    // Parallel: both phases on each of two cores, one per socket, each
    // core's structures local — every core touches 2× L3 worth of data.
    let parallel = measure_window(MachineConfig::westmere(), ctx.params, |machine| {
        let f0 = two_phase_parallel(machine, MemDomain(0));
        let f1 = two_phase_parallel(machine, MemDomain(1));
        vec![seat(0, f0), seat(6, f1)]
    });

    // Pipeline: phase 1 on socket 0, phase 2 on socket 1 — each phase's
    // structure fits its own L3.
    let pipeline = measure_window(MachineConfig::westmere(), ctx.params, |machine| {
        let pipe = PipelineSpec::new(MemDomain(0));
        let (src, sink, _q) = two_phase_pipeline(machine, MemDomain(0), MemDomain(1), &pipe);
        vec![seat(0, src), seat(6, sink)]
    });
    let pipeline_pps = pipeline.core(CoreId(6)).map(|c| c.metrics.pps).unwrap_or(0.0);

    (parallel.total_pps(), pipeline_pps)
}

/// Run and report the §2.2 experiment.
pub fn run(ctx: &RunCtx) -> Vec<PipelineRow> {
    ctx.heading("§2.2 — pipeline vs parallel");

    let mut rows = Vec::new();
    for flow in [FlowType::Ip, FlowType::Mon, FlowType::Fw] {
        let (par_pps, par_miss) = measure_parallel_pair(ctx, flow);
        let (pipe_pps, pipe_miss) = measure_pipeline_pair(ctx, flow);
        rows.push(PipelineRow {
            label: flow.name(),
            parallel_pps: par_pps,
            parallel_misses_per_pkt: par_miss,
            pipeline_pps: pipe_pps,
            pipeline_misses_per_pkt: pipe_miss,
        });
    }

    let mut t = Table::new(
        "Pipeline vs parallel (2 cores each)",
        &[
            "workload",
            "parallel Mpps",
            "pipeline Mpps",
            "pipe/par",
            "misses/pkt par",
            "misses/pkt pipe",
            "extra misses/pkt",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            fmt_f(r.parallel_pps / 1e6, 3),
            fmt_f(r.pipeline_pps / 1e6, 3),
            fmt_f(r.speedup(), 2),
            fmt_f(r.parallel_misses_per_pkt, 1),
            fmt_f(r.pipeline_misses_per_pkt, 1),
            fmt_f(r.extra_misses(), 1),
        ]);
    }
    ctx.emit("pipeline_vs_parallel", &t);
    println!("paper: pipelining costs 10-15 extra misses/packet; parallel always wins on realistic workloads");

    let (craft_par, craft_pipe) = crafted(ctx);
    let mut t2 = Table::new(
        "Crafted two-phase workload (>200 refs/packet into 2x L3)",
        &["mode", "Mpps (2 cores)"],
    );
    t2.row(vec!["parallel".into(), fmt_f(craft_par / 1e6, 4)]);
    t2.row(vec!["pipeline".into(), fmt_f(craft_pipe / 1e6, 4)]);
    ctx.emit("pipeline_crafted", &t2);
    println!(
        "crafted workload: pipeline/parallel = {:.2} (paper: only this contrived case favors pipelining)",
        craft_pipe / craft_par.max(1.0)
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin taken before the two-phase builders shared their wiring with
    /// `build_pipeline` and the engine lifecycles went to `measure_window`:
    /// every allocation and charge of the crafted comparison, as pps bits.
    #[test]
    fn crafted_comparison_is_pinned() {
        let (parallel, pipeline) = crafted(&RunCtx::quick());
        assert_eq!(parallel.to_bits(), 0x4127_dd60_0000_0000, "parallel {parallel}");
        assert_eq!(pipeline.to_bits(), 0x412b_4afa_aaaa_aaab, "pipeline {pipeline}");
    }
}
