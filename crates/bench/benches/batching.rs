//! Criterion microbenchmarks of one-packet vs larger-vector graph execution.
//!
//! Two angles on the same speedup:
//!
//! * **simulated cycles** — how many packets one slice of simulated time
//!   retires through a realistic chain at each batch size (the number the
//!   `repro batch` experiment sweeps); and
//! * **host ns/turn** — how fast the simulator itself executes each size,
//!   since a larger vector also amortizes host-side dispatch and borrow
//!   traffic in the hot loop.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_click::pipelines::{build_flow, ChainKind, FlowSpec};
use pp_sim::config::MachineConfig;
use pp_sim::engine::{CoreTask, Engine};
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};
use std::hint::black_box;

/// Build an IP flow at test scale with the given batch size.
fn flow_engine(batch: usize) -> Engine {
    let mut m = Machine::new(MachineConfig::westmere());
    let mut spec = FlowSpec::small(ChainKind::Ip, 11);
    spec.batch_size = batch;
    let built = build_flow(&mut m, MemDomain(0), &spec);
    let mut e = Engine::new(m);
    e.set_task(CoreId(0), Box::new(built.task));
    e
}

fn bench_graph_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph_execution");
    for (name, batch) in [("batch_1", 1usize), ("batch_8", 8), ("batch_32", 32)] {
        g.bench_function(name, |b| {
            let mut e = flow_engine(batch);
            // Warm the caches once so the loop measures steady state.
            e.run_until(1_000_000);
            let mut t_end = e.machine.core(CoreId(0)).clock;
            b.iter(|| {
                // Advance by one ~50k-cycle slice of simulated time.
                t_end += 50_000;
                e.run_until(t_end);
                black_box(e.machine.core(CoreId(0)).counters.total().packets)
            });
        });
    }
    g.finish();
}

fn bench_turn_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("turn_host_cost");
    for (name, batch) in [("batch_1_turn", 1usize), ("batch_32_turn", 32)] {
        g.bench_function(name, |b| {
            let mut m = Machine::new(MachineConfig::westmere());
            let mut spec = FlowSpec::small(ChainKind::Ip, 11);
            spec.batch_size = batch;
            let mut task = build_flow(&mut m, MemDomain(0), &spec).task;
            b.iter(|| {
                let mut ctx = m.ctx(CoreId(0));
                black_box(task.run_turn(&mut ctx))
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
    targets = bench_graph_execution, bench_turn_cost
}
criterion_main!(benches);
