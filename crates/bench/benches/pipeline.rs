//! Criterion microbenchmarks of per-packet vs burst cross-core handoff in the
//! §2.2 pipeline configuration.
//!
//! Two angles on the same amortization:
//!
//! * **simulated cycles** — how many packets one slice of simulated time
//!   moves through a two-stage pipeline at each handoff burst size (the
//!   number the `repro pipeline-batch` experiment sweeps); and
//! * **host ns/turn** — how fast the simulator executes one sink-stage
//!   dequeue turn, since a larger burst also amortizes host-side borrow and
//!   dispatch traffic in the hot loop.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_click::pipelines::{build_pipeline, ChainKind, FlowSpec, PipelineSpec};
use pp_sim::config::MachineConfig;
use pp_sim::engine::Engine;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};
use std::hint::black_box;

/// Build an IP pipeline at test scale with the given handoff burst, both
/// stages on socket 0.
fn pipeline_engine(burst: usize) -> Engine {
    let mut m = Machine::new(MachineConfig::westmere());
    let spec = FlowSpec::small(ChainKind::Ip, 11);
    let pipe = PipelineSpec::new(MemDomain(0)).with_burst(burst);
    let (src, sink, _q) = build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
    let mut e = Engine::new(m);
    e.set_task(CoreId(0), Box::new(src));
    e.set_task(CoreId(1), Box::new(sink));
    e
}

fn bench_pipeline_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_handoff");
    for (name, burst) in [("burst_1", 1usize), ("burst_8", 8), ("burst_32", 32)] {
        g.bench_function(name, |b| {
            let mut e = pipeline_engine(burst);
            // Warm the caches once so the loop measures steady state.
            e.run_until(1_000_000);
            let mut t_end = e.machine.max_clock();
            b.iter(|| {
                // Advance by one ~50k-cycle slice of simulated time.
                t_end += 50_000;
                e.run_until(t_end);
                black_box(e.machine.core(CoreId(1)).counters.total().packets)
            });
        });
    }
    g.finish();
}

fn bench_sink_turn_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("sink_turn_host_cost");
    for (name, burst) in [("burst_1_turn", 1usize), ("burst_32_turn", 32)] {
        g.bench_function(name, |b| {
            let mut m = Machine::new(MachineConfig::westmere());
            let spec = FlowSpec::small(ChainKind::Ip, 11);
            let pipe = PipelineSpec::new(MemDomain(0)).with_burst(burst);
            let (mut src, mut sink, _q) =
                build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
            use pp_sim::engine::CoreTask;
            b.iter(|| {
                // Keep the queue stocked so every sink turn dequeues.
                {
                    let mut ctx = m.ctx(CoreId(0));
                    let _ = src.run_turn(&mut ctx);
                }
                let mut ctx = m.ctx(CoreId(1));
                black_box(sink.run_turn(&mut ctx))
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .measurement_time(std::time::Duration::from_millis(300))
        .warm_up_time(std::time::Duration::from_millis(50));
    targets = bench_pipeline_handoff, bench_sink_turn_cost
}
criterion_main!(benches);
