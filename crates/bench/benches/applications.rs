//! Microbenchmarks of the packet-processing applications: trie lookups
//! (binary and multibit), AES-128, the rolling hash, NetFlow accounting,
//! and full per-packet chain turns on the simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_click::prelude::*;
use pp_net::prelude::*;
use pp_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn bench_tries(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpm");
    let prefixes = generate_bgp_table(32_000, 42);
    let mut m = Machine::new(MachineConfig::westmere());
    let bin = BinaryRadixTrie::build(m.allocator(MemDomain(0)), &prefixes);
    let multi = MultibitTrie::build(m.allocator(MemDomain(0)), &prefixes);
    let mut rng = SmallRng::seed_from_u64(7);

    g.bench_function("binary_host", |b| {
        b.iter(|| black_box(bin.lookup_host(rng.random())))
    });
    g.bench_function("multibit_host", |b| {
        b.iter(|| black_box(multi.lookup_host(rng.random())))
    });
    g.bench_function("binary_simulated", |b| {
        b.iter(|| {
            let mut ctx = m.ctx(CoreId(0));
            black_box(bin.lookup(&mut ctx, rng.random()))
        })
    });
    g.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut g = c.benchmark_group("aes128");
    let aes = Aes128::new([7u8; 16]);
    g.bench_function("encrypt_block", |b| {
        let block = [0x42u8; 16];
        b.iter(|| black_box(aes.encrypt_block(block)))
    });
    g.bench_function("ctr_keystream_256b", |b| {
        b.iter(|| black_box(aes.ctr_keystream_traced(1, 0, 256, &mut |_, _| {})))
    });
    g.finish();
}

fn bench_rolling_hash(c: &mut Criterion) {
    c.bench_function("rabin/roll_1kb", |b| {
        let data = vec![0xA5u8; 1024];
        b.iter(|| {
            let mut h = RollingHash::new();
            let mut anchors = 0u32;
            for &byte in &data {
                if let Some(v) = h.roll(byte) {
                    if v % 16 == 0 {
                        anchors += 1;
                    }
                }
            }
            black_box(anchors)
        })
    });
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    let data = vec![0x5Au8; 1500];
    g.bench_function("rfc1071_1500b", |b| {
        b.iter(|| black_box(pp_net::checksum::checksum(&data)))
    });
    g.bench_function("incremental_update", |b| {
        b.iter(|| black_box(pp_net::checksum::update16(0x1234, 0x4000, 0x3f00)))
    });
    g.finish();
}

fn bench_packet_build(c: &mut Criterion) {
    c.bench_function("packet/build_udp_64b", |b| {
        let builder = PacketBuilder::default();
        b.iter(|| {
            black_box(builder.udp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                &[0u8; 18],
            ))
        })
    });
}

fn bench_chain_turns(c: &mut Criterion) {
    let mut g = c.benchmark_group("chain_turn");
    g.sample_size(10);
    for kind in [ChainKind::Ip, ChainKind::Mon, ChainKind::Fw] {
        g.bench_function(kind.name(), |b| {
            let mut m = Machine::new(MachineConfig::westmere());
            let spec = FlowSpec::new(kind, Scale::Test, 3);
            let built = build_flow(&mut m, MemDomain(0), &spec);
            let mut engine = Engine::new(m);
            engine.set_task(CoreId(0), Box::new(built.task));
            // Warm the caches once.
            engine.run_until(2_000_000);
            let mut deadline = engine.machine.core(CoreId(0)).clock;
            b.iter(|| {
                // Advance by ~100 packets of simulated work per iteration.
                deadline += 300_000;
                engine.run_until(deadline);
            });
        });
    }
    g.finish();
}

fn bench_traffic_gen(c: &mut Criterion) {
    c.bench_function("trafficgen/next_packet", |b| {
        let mut g = TrafficGen::new(TrafficSpec::flow_population(64, 10_000, 5));
        b.iter(|| black_box(g.next_packet()))
    });
}

fn bench_dpi(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpi");
    let sigs = generate_signatures(1500, 42);
    g.bench_function("build_1500_signatures", |b| {
        b.iter(|| black_box(AhoCorasick::build(&sigs)))
    });
    let ac = AhoCorasick::build(&sigs);
    let mut tg = TrafficGen::new(TrafficSpec::dpi_tease(512, 1_000, 1500, 42, 5));
    let payloads: Vec<Vec<u8>> =
        (0..64).map(|_| tg.next_packet().payload().unwrap().to_vec()).collect();
    g.bench_function("scan_teaser_payload", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % payloads.len();
            black_box(ac.find_all(&payloads[i]))
        })
    });
    g.finish();
}

fn bench_nat(c: &mut Criterion) {
    let mut g = c.benchmark_group("nat");
    let mut m = Machine::new(MachineConfig::westmere());
    let mut nat =
        Nat::new(m.allocator(MemDomain(0)), NatConfig::default(), CostModel::default());
    let mut tg = TrafficGen::new(TrafficSpec::flow_population(64, 10_000, 9));
    let mut packets: Vec<Packet> = (0..256).map(|_| tg.next_packet()).collect();
    g.bench_function("translate_established", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % packets.len();
            let mut ctx = m.ctx(CoreId(0));
            black_box(nat.process(&mut ctx, &mut packets[i]))
        })
    });
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier");
    let rules = generate_classifier_rules(16_000, 42);
    let mut m = Machine::new(MachineConfig::westmere());
    let mut cls = TupleSpaceClassifier::new(
        m.allocator(MemDomain(0)),
        &rules,
        &[],
        CostModel::default(),
    );
    let mut tg = TrafficGen::new(TrafficSpec::random_dst(64, 11));
    let keys: Vec<FlowKey> =
        (0..256).map(|_| tg.next_packet().flow_key().unwrap()).collect();
    g.bench_function("tuple_space_16k_rules", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            let mut ctx = m.ctx(CoreId(0));
            black_box(cls.classify(&mut ctx, &keys[i]))
        })
    });
    g.bench_function("linear_scan_16k_rules", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(rules.iter().position(|r| r.matches(&keys[i])))
        })
    });
    g.finish();
}

fn bench_rewrite(c: &mut Criterion) {
    c.bench_function("packet/rewrite_src_checksummed", |b| {
        let builder = PacketBuilder::default();
        let mut p = builder.udp_checksummed(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            53,
            &[0u8; 64],
        );
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let port = if flip { 61000 } else { 1000 };
            p.rewrite_src(Ipv4Addr::new(203, 0, 113, 1), port).unwrap();
            black_box(&p);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tries, bench_aes, bench_rolling_hash, bench_checksum,
              bench_packet_build, bench_chain_turns, bench_traffic_gen,
              bench_dpi, bench_nat, bench_classifier, bench_rewrite
}
criterion_main!(benches);
