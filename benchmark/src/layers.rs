//! The per-layer host-cost ledger: every layer between a sweep and a
//! cache-set scan, timed from outside by calling its public functions in a
//! loop. Each entry is the fast-decile cost of one call (or one packet) in
//! the unit its name ends in, calibrated like every other host time.
//!
//! Only batched entry points are called (with n = 1 for the `b1` figures)
//! and none of the symbols ROADMAP marks for deletion, so the one-datapath
//! collapse and the lockstep/hostopt/persist deletions can land without
//! touching this file. The allow-list is in `README.md`.

use crate::clock::Clock;
use crate::stats::{fast_decile, Sample};
use crate::Checks;
use pp_click::flow::FrameworkChurn;
use pp_click::prelude::{
    BatchOutcome, ChainKind, CheckIpHeader, CostModel, Counter, Element, ElementGraph, Firewall,
    FlowTask, NetFlow, RadixIpLookup, ReConfig, RedundancyElim, SpscQueue, ToDevice, VpnEncrypt,
};
use pp_core::prelude::{
    corun_scenario, run_many, run_scenario, solo_scenario, ContentionConfig, EwmaTracker,
    ExpParams, FleetConfig, FleetController, FlowType, GuardConfig, GuardEnvelope, Predictor,
    RuntimeGuard, Scale, SensitivityCurve, SoloProfile, Supervisor, SupervisorConfig,
    TelemetryReport, TenantId, WindowObservation,
};
use pp_net::prelude::{
    generate_bgp_table, generate_unmatchable_rules, Packet, PacketPool, TrafficGen, TrafficSpec,
};
use pp_sim::prelude::{
    Addr, Cache, CacheGeom, CoreId, CoreTask, Counts, Engine, ExecCtx, Interconnect,
    LatencyHistogram, LookupResult, Machine, MachineConfig, MemCtrl, MemDomain, NicQueue, SocketId,
    TagId, TurnResult, CACHE_LINE,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Every layer metric, in the order they are measured.
pub const NAMES: [&str; 56] = [
    "net.trafficgen.refill_ns",
    "net.pool.take_put_ns",
    "net.gen.prefixes_ms",
    "sim.cache.hit_8way_ns",
    "sim.cache.hit_16way_ns",
    "sim.cache.missfill_8way_ns",
    "sim.cache.missfill_16way_ns",
    "sim.machine.new_ms",
    "sim.ctx.read_l1hit_ns",
    "sim.ctx.read_l2hit_ns",
    "sim.ctx.read_l3hit_ns",
    "sim.ctx.read_localmiss_ns",
    "sim.ctx.read_remotemiss_ns",
    "sim.ctx.write_l1hit_ns",
    "sim.ctx.shared_write_ns",
    "sim.ctx.read_batch64_ns",
    "sim.ctx.compute_ns",
    "sim.ctx.scope_ns",
    "sim.machine.dma_64b_ns",
    "sim.machine.dma_1500b_ns",
    "sim.memctrl.demand_read_ns",
    "sim.interconnect.transfer_ns",
    "sim.counters.snapshot_ns",
    "sim.latency.record_ns",
    "sim.nic.rxtx_b1_ns",
    "sim.nic.rxtx_b64_ns",
    "sim.engine.turn_1core_ns",
    "sim.engine.turn_6core_ns",
    "sim.engine.measure_us",
    "click.graph.hop_b1_ns",
    "click.graph.hop_b64_ns",
    "click.queue.handoff_b1_ns",
    "click.queue.handoff_b64_ns",
    "click.flow.framework_b1_ns",
    "click.flow.framework_b64_ns",
    "click.element.checkip_ns",
    "click.element.radix_b1_ns",
    "click.element.radix_b64_ns",
    "click.element.netflow_ns",
    "click.element.firewall_ns",
    "click.element.re_ns",
    "click.element.vpn_ns",
    "click.build.ip_ms",
    "click.build.mon_ms",
    "click.build.fw_ms",
    "click.build.re_ms",
    "click.build.vpn_ms",
    "click.build.syn_ms",
    "core.scenario.solo_ms",
    "core.scenario.corun6_ms",
    "core.run_many.dispatch_us",
    "core.predictor.predict_ns",
    "core.guard.observe_ns",
    "core.supervisor.observe_ns",
    "core.fleet.tick_ns",
    "core.telemetry.update_ns",
];

/// xorshift64*: the microbenchmarks' own address and sample stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `n` line addresses from `base` in a fixed shuffled order. Visiting them
/// cyclically gives every line a reuse distance of `n - 1` lines, so a
/// level holding fewer than `n` lines per set always misses and a level
/// holding them all always hits.
fn shuffled_lines(base: Addr, n: usize, rng: &mut Rng) -> Vec<Addr> {
    let mut lines: Vec<Addr> = (0..n as u64).map(|i| base + i * CACHE_LINE).collect();
    for i in (1..n).rev() {
        lines.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    lines
}

/// A line never touched before (with overwhelming probability): a random
/// line of a 1 TB region.
fn fresh_line(base: Addr, rng: &mut Rng) -> Addr {
    base + (rng.next() & ((1 << 34) - 1)) * CACHE_LINE
}

/// A task that only charges compute: the engine's own per-turn cost.
struct ComputeOnly;

impl CoreTask for ComputeOnly {
    fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
        ctx.compute(1000, 800);
        ctx.retire_packet();
        TurnResult::Progress
    }
}

pub struct Layers<'a> {
    clock: &'a Clock,
    checks: &'a mut Checks,
    /// Wall time each looped microbenchmark measures for.
    budget: Duration,
    seed: u64,
    raw_ns: Vec<(&'static str, f64)>,
    /// Per packet, scalar and batch 64: what a turn of the minimal flow
    /// costs beyond its simulated accesses charged at the class costs.
    framework_excl_ns: [f64; 2],
}

/// Every microbenchmark's cost in on-CPU nanoseconds (per call or per
/// packet; not yet calibrated or converted to the unit its name ends in), in
/// [`NAMES`] order, plus the per-packet framework remainder the coverage
/// ledger charges.
pub struct LayerCosts {
    pub raw_ns: Vec<(&'static str, f64)>,
    pub framework_excl_ns: [f64; 2],
}

impl LayerCosts {
    pub fn raw_ns(&self, name: &str) -> f64 {
        let found = self.raw_ns.iter().find(|(n, _)| *n == name);
        found.map(|(_, v)| *v).expect("a layer metric name")
    }

    /// The metrics as reported: scaled to reference time and to the unit
    /// each name ends in.
    pub fn metrics(&self, time_scale: f64) -> Vec<(&'static str, f64)> {
        self.raw_ns
            .iter()
            .map(|&(n, ns)| (n, ns / unit_of(n).1 * time_scale))
            .collect()
    }
}

/// The unit a layer metric's name ends in, and how many nanoseconds it is.
pub fn unit_of(layer_metric: &str) -> (&'static str, f64) {
    match layer_metric.rsplit('_').next() {
        Some("ns") => ("ns", 1.0),
        Some("us") => ("us", 1e3),
        Some("ms") => ("ms", 1e6),
        other => panic!("layer metric {layer_metric} has no unit suffix ({other:?})"),
    }
}

impl<'a> Layers<'a> {
    pub fn new(clock: &'a Clock, checks: &'a mut Checks, budget: Duration, seed: u64) -> Self {
        Layers {
            clock,
            checks,
            budget,
            seed,
            raw_ns: Vec::new(),
            framework_excl_ns: [0.0; 2],
        }
    }

    /// Fast-decile on-CPU nanoseconds per unit of work: `chunk` does a
    /// batch of work and returns how many units that was. One untimed call
    /// warms up; then chunks are timed for the budget (at least ten).
    fn ns_per(&mut self, mut chunk: impl FnMut() -> u64) -> f64 {
        chunk();
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 10 || started.elapsed() < self.budget {
            let (work, ns) = self.clock.time(&mut chunk);
            samples.push(Sample { work, ns });
        }
        1.0 / fast_decile(&samples)
    }

    /// The same for calls that take milliseconds: every call is a sample,
    /// at least three are taken.
    fn ns_per_call(&mut self, mut call: impl FnMut()) -> f64 {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || started.elapsed() < self.budget {
            let ((), ns) = self.clock.time(&mut call);
            samples.push(Sample { work: 1, ns });
        }
        1.0 / fast_decile(&samples)
    }

    fn record(&mut self, name: &'static str, ns: f64) {
        self.raw_ns.push((name, ns));
    }

    /// At least 99 % of the `total` timed events must have landed in the
    /// class the microbenchmark is named after.
    fn expect_class(&mut self, name: &'static str, in_class: u64, total: u64) {
        self.checks
            .expect(total > 0 && in_class as f64 >= 0.99 * total as f64, || {
                format!("{name}: only {in_class} of {total} timed events in the intended class")
            });
    }

    fn net(&mut self) {
        let mut gen = TrafficGen::new(TrafficSpec::random_dst(64, self.seed));
        let mut pool = PacketPool::new();
        let mut pkt = pool.take();
        let ns = self.ns_per(|| {
            for _ in 0..4096 {
                gen.next_packet_into(&mut pkt);
            }
            black_box(pkt.len());
            4096
        });
        self.record("net.trafficgen.refill_ns", ns);

        pool.put(pkt);
        let ns = self.ns_per(|| {
            for _ in 0..16384 {
                let p = black_box(pool.take());
                pool.put(p);
            }
            16384
        });
        self.record("net.pool.take_put_ns", ns);

        let seed = self.seed;
        let ns = self.ns_per_call(|| {
            black_box(generate_bgp_table(128_000, seed).len());
        });
        self.record("net.gen.prefixes_ms", ns);
    }

    /// `Cache` alone, in the private-cache and the shared-L3 geometry, at
    /// random sets: lookups that hit, and lookups that miss and fill.
    fn cache(&mut self) {
        let geoms = [
            (
                CacheGeom::new(256 * 1024, 8),
                "sim.cache.hit_8way_ns",
                "sim.cache.missfill_8way_ns",
            ),
            (
                CacheGeom::new(12 * 1024 * 1024, 16),
                "sim.cache.hit_16way_ns",
                "sim.cache.missfill_16way_ns",
            ),
        ];
        for (geom, hit_name, missfill_name) in geoms {
            let mut rng = Rng(self.seed | 1);
            let mut cache = Cache::new(geom);
            let resident = shuffled_lines(0, geom.num_lines() as usize, &mut rng);
            for &a in &resident {
                cache.insert(a, false, 0);
            }
            let mut at = 0usize;
            let before = cache.stats();
            let mut looked_up = 0u64;
            let ns = self.ns_per(|| {
                for _ in 0..8192 {
                    black_box(cache.access(resident[at], false, 0));
                    at = (at + 1) % resident.len();
                }
                looked_up += 8192;
                8192
            });
            self.expect_class(hit_name, cache.stats().hits - before.hits, looked_up);
            self.record(hit_name, ns);

            let before = cache.stats();
            let mut looked_up = 0u64;
            let ns = self.ns_per(|| {
                for _ in 0..8192 {
                    let a = fresh_line(1 << 40, &mut rng);
                    if cache.access(a, false, 0) == LookupResult::Miss {
                        black_box(cache.insert(a, false, 0));
                    }
                }
                looked_up += 8192;
                8192
            });
            self.expect_class(
                missfill_name,
                cache.stats().misses - before.misses,
                looked_up,
            );
            self.record(missfill_name, ns);
        }
    }

    /// `ExecCtx` reads by outcome class. Each class is produced by cycling
    /// through a working set sized to fit the intended level and overflow
    /// the ones above it; `Counts` confirm where the accesses landed.
    fn ctx_reads(&mut self) {
        let ns = self.ns_per_call(|| {
            black_box(Machine::new(MachineConfig::westmere()).max_clock());
        });
        self.record("sim.machine.new_ms", ns);

        let core = CoreId(0);
        let local = MemDomain(0).base();
        let remote = MemDomain(1).base();
        let mut rng = Rng(self.seed | 1);
        type Pick = fn(&Counts) -> u64;
        // (name, lines in the cycled working set, class counter)
        let cycled: [(&'static str, usize, Pick); 3] = [
            ("sim.ctx.read_l1hit_ns", 256, |c| c.l1_hits),
            ("sim.ctx.read_l2hit_ns", 2048, |c| c.l2_hits),
            ("sim.ctx.read_l3hit_ns", 32768, |c| c.l3_hits),
        ];
        for (name, lines, pick) in cycled {
            let mut m = Machine::new(MachineConfig::westmere());
            let set = shuffled_lines(local + (1 << 30), lines, &mut rng);
            for _ in 0..2 {
                for &a in &set {
                    m.ctx(core).read(a);
                }
            }
            let before = m.core(core).counters.total();
            let mut at = 0usize;
            let ns = self.ns_per(|| {
                let mut ctx = m.ctx(core);
                for _ in 0..8192 {
                    black_box(ctx.read(set[at]));
                    at = (at + 1) % set.len();
                }
                8192
            });
            let d = m.core(core).counters.total().delta(&before);
            // The warm-up chunk inside `ns_per` is counted too; it ran the
            // same accesses, so the class share is unaffected.
            self.expect_class(name, pick(&d), d.l1_refs);
            self.record(name, ns);
        }

        for (name, base, want_remote) in [
            ("sim.ctx.read_localmiss_ns", local + (1 << 41), false),
            ("sim.ctx.read_remotemiss_ns", remote + (1 << 41), true),
        ] {
            let mut m = Machine::new(MachineConfig::westmere());
            let before = m.core(core).counters.total();
            let ns = self.ns_per(|| {
                let mut ctx = m.ctx(core);
                for _ in 0..4096 {
                    black_box(ctx.read(fresh_line(base, &mut rng)));
                }
                4096
            });
            let d = m.core(core).counters.total().delta(&before);
            let in_class = if want_remote {
                d.remote_accesses
            } else {
                d.l3_misses - d.remote_accesses
            };
            self.expect_class(name, in_class, d.l1_refs);
            self.record(name, ns);
        }

        // Stores that hit L1.
        let mut m = Machine::new(MachineConfig::westmere());
        let set = shuffled_lines(local + (1 << 30), 256, &mut rng);
        for &a in &set {
            m.ctx(core).write(a);
        }
        let before = m.core(core).counters.total();
        let mut at = 0usize;
        let ns = self.ns_per(|| {
            let mut ctx = m.ctx(core);
            for _ in 0..8192 {
                ctx.write(set[at]);
                at = (at + 1) % set.len();
            }
            8192
        });
        let d = m.core(core).counters.total().delta(&before);
        self.expect_class("sim.ctx.write_l1hit_ns", d.l1_hits, d.l1_refs);
        self.record("sim.ctx.write_l1hit_ns", ns);

        // A line ping-ponging between two cores: core 1 reads it, core 0
        // writes it (invalidating core 1's copy). One op is the pair.
        let ns = self.ns_per(|| {
            for i in 0..2048 {
                let a = set[i % 64];
                m.ctx(CoreId(1)).shared_read(a);
                m.ctx(core).shared_write(a);
            }
            2048
        });
        self.record("sim.ctx.shared_write_ns", ns);

        // 64 independent loads per call over an L2-busting, L3-resident set.
        let mut m = Machine::new(MachineConfig::westmere());
        let set = shuffled_lines(local + (1 << 30), 32768, &mut rng);
        m.ctx(core).read_batch(&set, 4);
        let before = m.core(core).counters.total();
        let mut at = 0usize;
        let ns = self.ns_per(|| {
            let mut ctx = m.ctx(core);
            for _ in 0..128 {
                ctx.read_batch(&set[at..at + 64], 4);
                at = (at + 64) % set.len();
            }
            128 * 64
        });
        let d = m.core(core).counters.total().delta(&before);
        self.expect_class("sim.ctx.read_batch64_ns", d.l3_hits, d.l1_refs);
        self.record("sim.ctx.read_batch64_ns", ns);

        let ns = self.ns_per(|| {
            let mut ctx = m.ctx(core);
            for _ in 0..16384 {
                ctx.compute(black_box(10), black_box(8));
            }
            black_box(ctx.now());
            16384
        });
        self.record("sim.ctx.compute_ns", ns);

        let tag = TagId::intern("check_ip_header");
        let ns = self.ns_per(|| {
            let mut ctx = m.ctx(core);
            for _ in 0..16384 {
                ctx.scoped_id(tag, |c| black_box(c.core()));
            }
            16384
        });
        self.record("sim.ctx.scope_ns", ns);

        let bufs: Vec<Addr> = (0..512)
            .map(|_| m.allocator(MemDomain(0)).alloc_lines(2048))
            .collect();
        for (name, len) in [
            ("sim.machine.dma_64b_ns", 64u64),
            ("sim.machine.dma_1500b_ns", 1500),
        ] {
            let mut at = 0usize;
            let mut now = m.max_clock();
            let ns = self.ns_per(|| {
                for _ in 0..1024 {
                    now += 1000;
                    m.dma_deliver(SocketId(0), bufs[at], len, now);
                    at = (at + 1) % bufs.len();
                }
                1024
            });
            self.record(name, ns);
        }
    }

    fn substrate(&mut self) {
        let cfg = MachineConfig::westmere();
        let mut ctrl = MemCtrl::new(cfg.memctrl_service);
        let mut now = 0u64;
        let ns = self.ns_per(|| {
            for _ in 0..16384 {
                now += 20;
                black_box(ctrl.demand_read(now));
            }
            16384
        });
        self.record("sim.memctrl.demand_read_ns", ns);

        let mut qpi = Interconnect::new(cfg.sockets, cfg.lat_qpi, cfg.qpi_service);
        let ns = self.ns_per(|| {
            for _ in 0..16384 {
                now += 20;
                black_box(qpi.transfer(SocketId(0), SocketId(1), now));
            }
            16384
        });
        self.record("sim.interconnect.transfer_ns", ns);

        let mut hist = LatencyHistogram::new();
        let mut rng = Rng(self.seed | 1);
        let ns = self.ns_per(|| {
            for _ in 0..16384 {
                hist.record(500 + rng.next() % 4096);
            }
            16384
        });
        black_box(hist.count());
        self.record("sim.latency.record_ns", ns);

        for (name, n) in [("sim.nic.rxtx_b1_ns", 1usize), ("sim.nic.rxtx_b64_ns", 64)] {
            let mut m = Machine::new(cfg.clone());
            let mut nic = NicQueue::new(m.allocator(MemDomain(0)), 256, 512, 2048);
            let lens = vec![64u64; n];
            let mut bufs = Vec::with_capacity(n);
            let ns = self.ns_per(|| {
                let mut ctx = m.ctx(CoreId(0));
                let mut packets = 0;
                for _ in 0..(2048 / n) {
                    bufs.clear();
                    packets += nic.rx_batch(&mut ctx, &lens, &mut bufs) as u64;
                    nic.tx_batch(&mut ctx, &bufs);
                }
                packets
            });
            self.record(name, ns);
        }

        for (name, cores) in [
            ("sim.engine.turn_1core_ns", 1u16),
            ("sim.engine.turn_6core_ns", 6),
        ] {
            let mut engine = Engine::new(Machine::new(cfg.clone()));
            for c in 0..cores {
                engine.set_task(CoreId(c), Box::new(ComputeOnly));
            }
            let mut t_end = 0u64;
            let ns = self.ns_per(|| {
                t_end += 1000 * 4096;
                engine.run_until(t_end);
                4096 * cores as u64
            });
            self.record(name, ns);
        }

        // A quick-scale IP flow, so the counters carry a realistic tag set.
        let mut m = Machine::new(cfg);
        let built = FlowType::Ip.build_with_structure(
            &mut m,
            MemDomain(0),
            Scale::Test,
            self.seed,
            FlowType::Ip.structure_seed(self.seed),
            0,
        );
        let mut engine = Engine::new(m);
        engine.set_task(CoreId(0), Box::new(built.task));
        engine.run_until(1_000_000);
        let ns = self.ns_per(|| {
            for _ in 0..256 {
                black_box(
                    engine
                        .machine
                        .core(CoreId(0))
                        .counters
                        .snapshot()
                        .total
                        .packets,
                );
            }
            256
        });
        self.record("sim.counters.snapshot_ns", ns);
        // A one-cycle window: two snapshots, the derived metrics, one turn.
        let ns = self.ns_per(|| {
            for _ in 0..128 {
                black_box(engine.measure(0, 1).cores.len());
            }
            128
        });
        self.record("sim.engine.measure_us", ns);
    }

    /// `n` packets of `spec`'s stream, each with a simulated buffer.
    fn packets(m: &mut Machine, spec: TrafficSpec, n: usize) -> Vec<Packet> {
        let mut gen = TrafficGen::new(spec);
        let mut pool = PacketPool::new();
        (0..n)
            .map(|_| {
                let mut p = pool.take();
                gen.next_packet_into(&mut p);
                p.buf_addr = m.allocator(MemDomain(0)).alloc_lines(2048);
                p
            })
            .collect()
    }

    /// Host nanoseconds per packet of `element.process_batch` on vectors of
    /// `batch` packets.
    fn element_ns(
        &mut self,
        m: &mut Machine,
        element: &mut dyn Element,
        pkts: &mut [Packet],
        batch: usize,
    ) -> f64 {
        let mut actions = Vec::with_capacity(batch);
        self.ns_per(|| {
            let mut ctx = m.ctx(CoreId(0));
            for vector in pkts.chunks_mut(batch) {
                actions.clear();
                element.process_batch(&mut ctx, vector, &mut actions);
            }
            black_box(actions.len());
            pkts.len() as u64
        })
    }

    fn click(&mut self) {
        let cost = CostModel::default();
        let cfg = MachineConfig::westmere();
        let seed = self.seed;

        // Graph dispatch per hop: an 8-element chain of the repo's
        // pass-through `Counter` minus a 1-element chain, per packet.
        for (name, n) in [
            ("click.graph.hop_b1_ns", 1usize),
            ("click.graph.hop_b64_ns", 64),
        ] {
            let mut per_packet = [0.0f64; 2];
            for (slot, hops) in [(0usize, 1usize), (1, 8)] {
                let mut m = Machine::new(cfg.clone());
                let mut graph = ElementGraph::new(cost);
                let ids: Vec<_> = (0..hops)
                    .map(|_| graph.add(Box::new(Counter::default())))
                    .collect();
                graph.chain(&ids);
                let mut pkts = Self::packets(&mut m, TrafficSpec::random_dst(64, seed), n);
                let mut outcome = BatchOutcome::default();
                per_packet[slot] = self.ns_per(|| {
                    let mut ctx = m.ctx(CoreId(0));
                    for _ in 0..(2048 / n) {
                        graph.run_batch_into(&mut ctx, &mut pkts, &mut outcome);
                        pkts.append(&mut outcome.returned);
                    }
                    2048
                });
            }
            self.record(name, (per_packet[1] - per_packet[0]) / 7.0);
        }

        // Cross-core handoff: core 0 pushes a burst, core 1 pops it.
        for (name, n) in [
            ("click.queue.handoff_b1_ns", 1usize),
            ("click.queue.handoff_b64_ns", 64),
        ] {
            let mut m = Machine::new(cfg.clone());
            let mut queue = SpscQueue::new(m.allocator(MemDomain(0)), 1024, cost);
            let mut pkts = Self::packets(&mut m, TrafficSpec::random_dst(64, seed), n);
            let mut popped = Vec::with_capacity(n);
            let ns = self.ns_per(|| {
                for _ in 0..(2048 / n) {
                    queue.push_burst(&mut m.ctx(CoreId(0)), &mut pkts);
                    queue.pop_burst(&mut m.ctx(CoreId(1)), n, &mut popped);
                    pkts.append(&mut popped);
                }
                2048
            });
            self.record(name, ns);
        }

        // The flow framework alone: traffic refill, NIC rx, graph entry,
        // transmit, churn and latency bookkeeping on a device-to-device
        // chain. What it costs beyond its own simulated accesses (charged
        // at the class costs above) is kept for the coverage ledger.
        for (slot, name, batch) in [
            (0usize, "click.flow.framework_b1_ns", 0usize),
            (1, "click.flow.framework_b64_ns", 64),
        ] {
            let mut m = Machine::new(cfg.clone());
            let nic = Rc::new(RefCell::new(NicQueue::new(
                m.allocator(MemDomain(0)),
                256,
                512,
                2048,
            )));
            let mut graph = ElementGraph::new(cost);
            graph.add(Box::new(ToDevice::new(nic.clone(), false)));
            let churn = FrameworkChurn::new(m.allocator(MemDomain(0)), &cost);
            let gen = TrafficGen::new(TrafficSpec::random_dst(64, seed));
            let mut task = FlowTask::new("bench", gen, nic, graph, cost).with_churn(churn);
            if batch >= 1 {
                task = task.with_batch_size(batch);
            }
            let before = m.core(CoreId(0)).counters.total();
            let ns = self.ns_per(|| {
                let start = m.core(CoreId(0)).counters.total().packets;
                let mut ctx = m.ctx(CoreId(0));
                for _ in 0..(4096 / batch.max(1)) {
                    black_box(task.run_turn(&mut ctx));
                }
                m.core(CoreId(0)).counters.total().packets - start
            });
            self.record(name, ns);
            let d = m.core(CoreId(0)).counters.total().delta(&before);
            let accesses_ns = class_ns(&d, &|name| self.raw(name)) / d.packets as f64;
            self.framework_excl_ns[slot] = (ns - accesses_ns).max(0.0);
        }

        // Elements, called directly on one-packet vectors (64 for the
        // batched radix walk), on the traffic their workloads carry.
        let frame = |kind: ChainKind| kind.default_frame_len();
        {
            let mut m = Machine::new(cfg.clone());
            let mut pkts = Self::packets(
                &mut m,
                TrafficSpec::random_dst(frame(ChainKind::Ip), seed),
                2048,
            );
            let mut check = CheckIpHeader::new(cost);
            let ns = self.element_ns(&mut m, &mut check, &mut pkts, 1);
            self.record("click.element.checkip_ns", ns);
            let prefixes = generate_bgp_table(128_000, seed);
            let mut radix = RadixIpLookup::new(m.allocator(MemDomain(0)), &prefixes, cost);
            let ns = self.element_ns(&mut m, &mut radix, &mut pkts, 1);
            self.record("click.element.radix_b1_ns", ns);
            let ns = self.element_ns(&mut m, &mut radix, &mut pkts, 64);
            self.record("click.element.radix_b64_ns", ns);
        }
        {
            let mut m = Machine::new(cfg.clone());
            let mut pkts = Self::packets(
                &mut m,
                TrafficSpec::flow_population(frame(ChainKind::Mon), 100_000, seed),
                2048,
            );
            let mut netflow = NetFlow::new(m.allocator(MemDomain(0)), 18, cost);
            let ns = self.element_ns(&mut m, &mut netflow, &mut pkts, 1);
            self.record("click.element.netflow_ns", ns);
            let rules = generate_unmatchable_rules(1000, seed);
            let mut firewall = Firewall::new(m.allocator(MemDomain(0)), &rules, cost);
            let ns = self.element_ns(&mut m, &mut firewall, &mut pkts[..256], 1);
            self.record("click.element.firewall_ns", ns);
        }
        {
            let mut m = Machine::new(cfg.clone());
            let mut pkts = Self::packets(
                &mut m,
                TrafficSpec::flow_population(frame(ChainKind::Re), 100_000, seed),
                256,
            );
            let mut re = RedundancyElim::new(m.allocator(MemDomain(0)), ReConfig::default(), cost);
            let ns = self.element_ns(&mut m, &mut re, &mut pkts, 1);
            self.record("click.element.re_ns", ns);
        }
        {
            let mut m = Machine::new(cfg.clone());
            let mut pkts = Self::packets(
                &mut m,
                TrafficSpec::flow_population(frame(ChainKind::Vpn), 100_000, seed),
                256,
            );
            let mut vpn = VpnEncrypt::new(m.allocator(MemDomain(0)), [7; 16], seed, cost);
            let ns = self.element_ns(&mut m, &mut vpn, &mut pkts, 1);
            self.record("click.element.vpn_ns", ns);
        }

        // Paper-scale construction of each chain on a fresh machine.
        for (name, flow) in [
            ("click.build.ip_ms", FlowType::Ip),
            ("click.build.mon_ms", FlowType::Mon),
            ("click.build.fw_ms", FlowType::Fw),
            ("click.build.re_ms", FlowType::Re),
            ("click.build.vpn_ms", FlowType::Vpn),
            ("click.build.syn_ms", FlowType::SynMax),
        ] {
            let mut samples = Vec::new();
            while samples.len() < 3 {
                let mut m = Machine::new(cfg.clone());
                let (built, ns) = self.clock.time(|| {
                    flow.build_with_structure(
                        &mut m,
                        MemDomain(0),
                        Scale::Paper,
                        seed,
                        flow.structure_seed(seed),
                        0,
                    )
                });
                black_box(built.task.batch_size());
                samples.push(Sample { work: 1, ns });
            }
            self.record(name, 1.0 / fast_decile(&samples));
        }
    }

    fn core(&mut self) {
        let params = ExpParams {
            seed: self.seed,
            ..ExpParams::quick()
        };
        let ns = self.ns_per_call(|| {
            black_box(run_scenario(&solo_scenario(FlowType::Ip, params)).window_cycles);
        });
        self.record("core.scenario.solo_ms", ns);
        let ns = self.ns_per_call(|| {
            let s = corun_scenario(
                FlowType::Mon,
                &[FlowType::Mon; 5],
                ContentionConfig::Both,
                params,
            );
            black_box(run_scenario(&s).window_cycles);
        });
        self.record("core.scenario.corun6_ms", ns);

        // The serial path every `--jobs 1` sweep takes, per 64-item call.
        let ns = self.ns_per(|| {
            for _ in 0..256 {
                black_box(run_many(black_box((0..64u64).collect()), 1, |x| {
                    black_box(x) + 1
                }));
            }
            256
        });
        self.record("core.run_many.dispatch_us", ns);

        let solos: Vec<SoloProfile> = [FlowType::Ip, FlowType::Mon]
            .iter()
            .map(|&f| SoloProfile::measure(f, params))
            .collect();
        let curve = |scale: f64| {
            SensitivityCurve::from_points(
                (1..=8)
                    .map(|i| (i as f64 * 20e6, (i as f64).sqrt() * scale))
                    .collect(),
            )
        };
        let predictor = Predictor::from_parts(
            solos,
            vec![(FlowType::Ip, curve(6.0)), (FlowType::Mon, curve(8.0))],
            8,
        );
        let ns = self.ns_per(|| {
            for _ in 0..4096 {
                black_box(predictor.predict_drop(FlowType::Mon, black_box(&[FlowType::Ip; 5])));
            }
            4096
        });
        self.record("core.predictor.predict_ns", ns);

        // One window in seven violates the envelope, so the ladder and its
        // hysteresis run, not only the clean fast path.
        let envelope = GuardEnvelope {
            min_pps: 1e5,
            max_p99_us: 100.0,
            max_loss_frac: 0.01,
        };
        let observation = |i: u64| WindowObservation {
            pps: if i.is_multiple_of(7) { 5e4 } else { 2e5 },
            p99_us: 50.0,
            loss_frac: 0.0,
        };
        let mut guard = RuntimeGuard::new(envelope, GuardConfig::default());
        let mut i = 0u64;
        let ns = self.ns_per(|| {
            for _ in 0..4096 {
                i += 1;
                black_box(guard.observe(&observation(i)));
            }
            4096
        });
        self.record("core.guard.observe_ns", ns);

        let mut supervisor = Supervisor::new(SupervisorConfig::default());
        let tenants: Vec<TenantId> = [FlowType::Ip, FlowType::Mon, FlowType::Fw]
            .iter()
            .map(|&f| supervisor.admit(f, envelope, 2e5))
            .collect();
        let ns = self.ns_per(|| {
            for _ in 0..4096 {
                i += 1;
                black_box(supervisor.observe(
                    tenants[(i % 3) as usize],
                    &observation(i),
                    true,
                    false,
                ));
            }
            4096
        });
        self.record("core.supervisor.observe_ns", ns);

        // One fleet control step: a heartbeat per machine, a report per
        // tenant, one tick.
        let mut fleet = FleetController::new(FleetConfig::default());
        let machines: Vec<_> = (0..3).map(|_| fleet.add_machine()).collect();
        let fleet_tenants: Vec<TenantId> = (0..9)
            .map(|t| {
                let id = fleet.add_tenant(FlowType::Mon, (t % 3) as u8, machines[t % 3]);
                fleet.set_floor(id, 1e5);
                id
            })
            .collect();
        let mut window = 0u32;
        let ns = self.ns_per(|| {
            for _ in 0..1024 {
                window += 1;
                for &m in &machines {
                    fleet.heartbeat(m, window);
                }
                for &t in &fleet_tenants {
                    fleet.ingest(
                        t,
                        &TelemetryReport {
                            window,
                            pps: 2e5,
                            p99_us: 50.0,
                            loss_frac: 0.0,
                        },
                    );
                }
                black_box(fleet.tick(window, &mut |_, _| true).len());
            }
            1024
        });
        self.record("core.fleet.tick_ns", ns);

        let mut ewma = EwmaTracker::new(0.3);
        let ns = self.ns_per(|| {
            for _ in 0..16384 {
                window += 1;
                ewma.update(window, 2e5 + (window % 13) as f64);
            }
            black_box(ewma.value());
            16384
        });
        self.record("core.telemetry.update_ns", ns);
    }

    fn raw(&self, name: &str) -> f64 {
        self.raw_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("measured earlier")
    }

    /// Run every microbenchmark.
    pub fn run(mut self) -> LayerCosts {
        self.net();
        self.cache();
        self.ctx_reads();
        self.substrate();
        self.click();
        self.core();
        LayerCosts {
            raw_ns: self.raw_ns,
            framework_excl_ns: self.framework_excl_ns,
        }
    }
}

/// Host nanoseconds the simulated accesses in `c` cost, class by class, at
/// the unit costs `unit` returns.
pub fn class_ns(c: &Counts, unit: &dyn Fn(&str) -> f64) -> f64 {
    let local_misses = c.l3_misses - c.remote_accesses;
    c.l1_hits as f64 * unit("sim.ctx.read_l1hit_ns")
        + c.l2_hits as f64 * unit("sim.ctx.read_l2hit_ns")
        + c.l3_hits as f64 * unit("sim.ctx.read_l3hit_ns")
        + local_misses as f64 * unit("sim.ctx.read_localmiss_ns")
        + c.remote_accesses as f64 * unit("sim.ctx.read_remotemiss_ns")
}
