//! Microbenchmarks of the simulator substrate: cache lookups, the full
//! demand-access path, the memory-controller queue model, and DMA delivery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pp_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("l1_hit", |b| {
        let mut cache = Cache::new(CacheGeom::new(32 * 1024, 8));
        cache.insert(0x1000, false, 0);
        b.iter(|| black_box(cache.access(0x1000, false, 0)));
    });
    g.bench_function("miss_insert_evict", |b| {
        let mut cache = Cache::new(CacheGeom::new(32 * 1024, 8));
        let mut addr = 0u64;
        b.iter(|| {
            cache.access(addr, false, 0);
            cache.insert(addr, false, 0);
            addr += 64;
        });
    });
    g.finish();
}

fn bench_access_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine");
    g.bench_function("demand_access_l1_hit", |b| {
        let mut m = Machine::new(MachineConfig::westmere());
        let a = MemDomain(0).base() + 0x100;
        m.ctx(CoreId(0)).read(a);
        b.iter(|| {
            let mut ctx = m.ctx(CoreId(0));
            black_box(ctx.read(a));
        });
    });
    g.bench_function("demand_access_random_12mb", |b| {
        let mut m = Machine::new(MachineConfig::westmere());
        let base = m.allocator(MemDomain(0)).alloc_lines(12 << 20);
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            let a = base + rng.random_range(0..(12u64 << 20) / 64) * 64;
            let mut ctx = m.ctx(CoreId(0));
            black_box(ctx.read(a));
        });
    });
    g.bench_function("dma_deliver_1500b", |b| {
        let mut m = Machine::new(MachineConfig::westmere());
        let buf = m.allocator(MemDomain(0)).alloc_lines(2048);
        b.iter(|| m.dma_deliver(SocketId(0), buf, 1500, 0));
    });
    g.finish();
}

fn bench_memctrl(c: &mut Criterion) {
    c.bench_function("memctrl/demand_read", |b| {
        let mut m = MemCtrl::new(11);
        let mut now = 0u64;
        b.iter(|| {
            now += 20;
            black_box(m.demand_read(now))
        });
    });
}

fn bench_counters(c: &mut Criterion) {
    c.bench_function("counters/bump_tagged", |b| {
        let mut cc = pp_sim::counters::CoreCounters::new();
        cc.push_tag_id(TagId::intern("hot"));
        b.iter(|| cc.bump(|x| x.l3_refs += 1));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cache, bench_access_path, bench_memctrl, bench_counters
}
criterion_main!(benches);

#[allow(dead_code)]
fn silence(b: BatchSize) -> BatchSize {
    b
}
