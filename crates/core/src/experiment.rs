//! Scenario construction and measurement — the machinery behind every
//! experiment in the paper's evaluation.
//!
//! A [`Scenario`] places flows on cores with explicit NUMA data placement;
//! [`run_scenario`] builds a fresh machine, runs warmup + a measurement
//! window, and returns per-flow metrics (including per-function tag
//! counters). The three contention configurations of Fig. 3 are provided by
//! [`ContentionConfig`]:
//!
//! * `CacheOnly` (3a) — competitors co-run on the target's socket but their
//!   data is homed on the remote socket: they share the target's L3 while
//!   their DRAM traffic uses the remote controller.
//! * `MemCtrlOnly` (3b) — competitors run on the other socket (own L3) but
//!   their data is homed on the target's socket: they share only the
//!   target's memory controller (via QPI).
//! * `Both` (3c) — competitors co-run on the target's socket with local
//!   data: cache and controller are both contended. This is also the
//!   "realistic" co-location used in Fig. 2.
//!
//! Every scenario is an independent, deterministic simulation (seeded RNG,
//! no host-time dependence), so sweeps parallelize across host threads with
//! bitwise-identical results.

use crate::workload::{FlowType, Scale};
use pp_sim::config::MachineConfig;
use pp_sim::counters::{Counts, DerivedMetrics};
use pp_sim::engine::Engine;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, Cycles, MemDomain};

/// Measurement parameters shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExpParams {
    /// Simulated warmup before counters are read, in milliseconds.
    pub warmup_ms: f64,
    /// Simulated measurement window, in milliseconds.
    pub window_ms: f64,
    /// Data-structure scale.
    pub scale: Scale,
    /// Master seed; per-flow seeds are derived deterministically.
    pub seed: u64,
    /// Packets per engine turn for every flow in the scenario. The default,
    /// 1, is the paper's per-packet platform; 0 is accepted and means 1.
    /// Profiling at `batch_size > 1` is how the contention predictor is
    /// re-validated under batching (see [`crate::batch_control`]).
    pub batch_size: usize,
}

impl ExpParams {
    /// Paper-scale measurement (used by the `repro` harness).
    ///
    /// The window was 18 ms through PR 2; the PR-3 simulator speedup pays
    /// for 30 ms at roughly the old wall cost, which covers ~2/3 more
    /// packets per sweep point and visibly smooths the Fig. 5/7 curves.
    /// `repro --packets N` overrides this knob for any size.
    pub fn paper() -> Self {
        ExpParams { warmup_ms: 8.0, window_ms: 30.0, scale: Scale::Paper, seed: 42, batch_size: 1 }
    }

    /// Fast test-scale measurement (used by unit/integration tests).
    pub fn quick() -> Self {
        ExpParams { warmup_ms: 1.0, window_ms: 3.0, scale: Scale::Test, seed: 42, batch_size: 1 }
    }

    /// Run every flow of the scenario with `batch`-packet vectors. Solo profiles,
    /// SYN ramps, and co-runs measured with the same `batch` compare like
    /// with like — the batched analogue of the paper's methodology.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Resize the measurement window so a batch-1 flow covers roughly
    /// `packets` packets — the one knob `repro --packets N` exposes for
    /// simulation size, replacing per-experiment window constants.
    ///
    /// The conversion assumes the nominal ~1000 cycles/packet that the
    /// realistic workloads average at 2.8 GHz; it is a sizing heuristic,
    /// not a guarantee (MON covers fewer packets per window than IP).
    /// Warmup scales to a third of the window, floored so caches still
    /// reach steady state on tiny windows.
    pub fn with_packets(mut self, packets: u64) -> Self {
        const NOMINAL_CYCLES_PER_PACKET: f64 = 1000.0;
        const NOMINAL_GHZ: f64 = 2.8;
        let window_ms =
            packets.max(1) as f64 * NOMINAL_CYCLES_PER_PACKET / (NOMINAL_GHZ * 1e9) * 1e3;
        self.window_ms = window_ms.max(0.1);
        self.warmup_ms = (self.window_ms / 3.0).max(0.3);
        self
    }

    /// Warmup length in cycles on the given machine config.
    pub fn warmup_cycles(&self, cfg: &MachineConfig) -> Cycles {
        cfg.secs_to_cycles(self.warmup_ms / 1e3)
    }

    /// Window length in cycles on the given machine config.
    pub fn window_cycles(&self, cfg: &MachineConfig) -> Cycles {
        cfg.secs_to_cycles(self.window_ms / 1e3)
    }
}

/// One flow pinned to a core, with its data in a chosen NUMA domain.
#[derive(Debug, Clone, Copy)]
pub struct FlowPlacement {
    /// The core that runs the flow.
    pub core: CoreId,
    /// The flow type.
    pub flow: FlowType,
    /// Where the flow's data structures (and NIC state) live.
    pub domain: MemDomain,
}

/// A complete experiment setup.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Flow placements (distinct cores).
    pub flows: Vec<FlowPlacement>,
    /// Measurement parameters.
    pub params: ExpParams,
}

/// Per-packet residence-time percentiles over a measurement window, read
/// back from the flow's [`LatencyHistogram`](pp_sim::latency::LatencyHistogram)
/// after warmup is discarded. This is the latency-budget read-back the
/// adaptive batch controller verifies its decisions against: `repro
/// adaptive` asserts the achieved `p99_us` of a controller-chosen batch
/// stays within the declared budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median ingress→egress time, microseconds of simulated time.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Mean, microseconds.
    pub mean_us: f64,
    /// Samples recorded in the window (one per completed packet).
    pub samples: u64,
}

impl LatencySummary {
    /// Summarize a histogram at a given core frequency.
    pub fn from_histogram(
        h: &pp_sim::latency::LatencyHistogram,
        freq_ghz: f64,
    ) -> Self {
        let us = |cycles: Cycles| cycles as f64 / (freq_ghz * 1e3);
        LatencySummary {
            p50_us: us(h.p50()),
            p95_us: us(h.p95()),
            p99_us: us(h.p99()),
            mean_us: h.mean() / (freq_ghz * 1e3),
            samples: h.count(),
        }
    }
}

/// Per-flow measurement output.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Where the flow ran.
    pub core: CoreId,
    /// What it was.
    pub flow: FlowType,
    /// Derived per-second / per-packet metrics over the window.
    pub metrics: DerivedMetrics,
    /// Window totals.
    pub counts: Counts,
    /// Per-function-tag window deltas.
    pub tags: Vec<(&'static str, Counts)>,
    /// Bytes of simulated memory this flow's structures occupy.
    pub working_set_bytes: u64,
    /// Ingress→egress residence-time percentiles over the window.
    pub latency: LatencySummary,
    /// Loss ledger over the window: where every packet that did not make
    /// it died ([`DropStats`](pp_sim::fault::DropStats) conservation: `offered` = delivered +
    /// drops). All-zero in an unfaulted run.
    pub drops: pp_sim::fault::DropStats,
}

/// A scenario's complete measurement.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// One result per flow, in scenario order.
    pub flows: Vec<FlowResult>,
    /// The window length used.
    pub window_cycles: Cycles,
}

impl ScenarioResult {
    /// Sum of L3 refs/sec over all flows except the one on `excluding`.
    pub fn competing_refs_per_sec(&self, excluding: CoreId) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.core != excluding)
            .map(|f| f.metrics.l3_refs_per_sec)
            .sum()
    }

    /// Sum of L3 *misses*/sec (cache fills — the eviction pressure) over
    /// all flows except the one on `excluding`. The fill-rate refinement of
    /// the predictor keys on this; see [`Predictor`](crate::predictor).
    pub fn competing_fills_per_sec(&self, excluding: CoreId) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.core != excluding)
            .map(|f| f.metrics.l3_misses_per_sec)
            .sum()
    }
}

/// Derive a per-flow seed from the master seed and the flow's index.
///
/// The target flow of a co-run is always index 0, so its traffic and table
/// seeds are identical in its solo run — drops compare like with like.
fn flow_seed(master: u64, index: usize) -> u64 {
    // SplitMix64 step for decorrelation.
    let mut z = master ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build and measure a scenario on a fresh Westmere machine.
pub fn run_scenario(s: &Scenario) -> ScenarioResult {
    let cfg = MachineConfig::westmere();
    let mut machine = Machine::new(cfg);
    let mut built = Vec::new();
    for (i, p) in s.flows.iter().enumerate() {
        let before = machine.allocator(p.domain).used();
        let b = p.flow.build_with_structure(
            &mut machine,
            p.domain,
            s.params.scale,
            flow_seed(s.params.seed, i),
            p.flow.structure_seed(s.params.seed),
            s.params.batch_size,
        );
        let after = machine.allocator(p.domain).used();
        built.push((*p, b, after - before));
    }
    let mut engine = Engine::new(machine);
    let mut placements = Vec::with_capacity(built.len());
    for (p, b, ws) in built {
        let lat = b.task.latency_handle();
        let drops = b.task.drop_handle();
        engine.set_task(p.core, Box::new(b.task));
        placements.push((p, ws, lat, drops));
    }
    let warmup = s.params.warmup_cycles(engine.machine.config());
    let window = s.params.window_cycles(engine.machine.config());
    // Warm up, discard the warmup's latency samples and loss counts (both
    // recordings are host-side and charge-free, so this leaves every
    // counter bit-for-bit as `engine.measure(warmup, window)` would), then
    // measure the window.
    engine.run_until(warmup);
    for (_, _, lat, drops) in &placements {
        lat.borrow_mut().reset();
        drops.borrow_mut().reset();
    }
    let meas = engine.measure(0, window);
    let freq_ghz = engine.machine.config().freq_ghz;

    let flows = placements
        .iter()
        .map(|(p, ws, lat, drops)| {
            let cm = meas.core(p.core).expect("flow core measured");
            FlowResult {
                core: p.core,
                flow: p.flow,
                metrics: cm.metrics,
                counts: cm.counts.total,
                tags: cm.counts.tags.clone(),
                working_set_bytes: *ws,
                latency: LatencySummary::from_histogram(&lat.borrow(), freq_ghz),
                drops: *drops.borrow(),
            }
        })
        .collect();
    ScenarioResult { flows, window_cycles: window }
}

/// The Fig. 3 contention configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionConfig {
    /// Fig. 3(a): contend only for the shared L3.
    CacheOnly,
    /// Fig. 3(b): contend only for the memory controller.
    MemCtrlOnly,
    /// Fig. 3(c): contend for both (the realistic co-location).
    Both,
}

impl ContentionConfig {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ContentionConfig::CacheOnly => "cache-only",
            ContentionConfig::MemCtrlOnly => "memctrl-only",
            ContentionConfig::Both => "both",
        }
    }
}

/// A solo scenario: the target alone on core 0, data local (domain 0).
pub fn solo_scenario(flow: FlowType, params: ExpParams) -> Scenario {
    Scenario {
        flows: vec![FlowPlacement { core: CoreId(0), flow, domain: MemDomain(0) }],
        params,
    }
}

/// A co-run scenario: the target on core 0 (socket 0, data local) plus
/// `competitors` placed per the contention configuration.
pub fn corun_scenario(
    target: FlowType,
    competitors: &[FlowType],
    cfg: ContentionConfig,
    params: ExpParams,
) -> Scenario {
    assert!(competitors.len() <= 5, "at most 5 competitors on the paper's platform");
    let mut flows =
        vec![FlowPlacement { core: CoreId(0), flow: target, domain: MemDomain(0) }];
    for (i, &c) in competitors.iter().enumerate() {
        let (core, domain) = match cfg {
            // Same socket, remote data.
            ContentionConfig::CacheOnly => (CoreId(1 + i as u16), MemDomain(1)),
            // Other socket, data homed on the target's socket.
            ContentionConfig::MemCtrlOnly => (CoreId(6 + i as u16), MemDomain(0)),
            // Same socket, local data.
            ContentionConfig::Both => (CoreId(1 + i as u16), MemDomain(0)),
        };
        flows.push(FlowPlacement { core, flow: c, domain });
    }
    Scenario { flows, params }
}

/// The outcome of a target-vs-competitors experiment: solo and contended
/// throughput, the drop, and the measured competition.
#[derive(Debug, Clone)]
pub struct CoRunOutcome {
    /// The target flow type.
    pub target: FlowType,
    /// Solo packets/sec.
    pub solo_pps: f64,
    /// Contended packets/sec.
    pub corun_pps: f64,
    /// Performance drop in percent: `(solo - corun) / solo * 100`.
    pub drop_pct: f64,
    /// Competitors' combined L3 refs/sec *measured during the co-run*.
    pub competing_refs_per_sec: f64,
    /// Competitors' combined L3 misses/sec (fills) during the co-run.
    pub competing_fills_per_sec: f64,
    /// The target's full solo measurement.
    pub solo: FlowResult,
    /// The target's full contended measurement.
    pub corun: FlowResult,
    /// All competitor measurements from the co-run.
    pub competitors: Vec<FlowResult>,
}

/// Run solo + co-run and compute the drop. (For sweeps, prefer computing
/// the solo once and using [`corun_against_solo`].)
pub fn run_corun(
    target: FlowType,
    competitors: &[FlowType],
    cfg: ContentionConfig,
    params: ExpParams,
) -> CoRunOutcome {
    let solo = run_scenario(&solo_scenario(target, params));
    corun_against_solo(&solo.flows[0], target, competitors, cfg, params)
}

/// Run only the co-run, reusing a previously measured solo result.
pub fn corun_against_solo(
    solo: &FlowResult,
    target: FlowType,
    competitors: &[FlowType],
    cfg: ContentionConfig,
    params: ExpParams,
) -> CoRunOutcome {
    let co = run_scenario(&corun_scenario(target, competitors, cfg, params));
    let target_res = co.flows[0].clone();
    let competing = co.competing_refs_per_sec(CoreId(0));
    let competing_fills = co.competing_fills_per_sec(CoreId(0));
    let solo_pps = solo.metrics.pps;
    let corun_pps = target_res.metrics.pps;
    CoRunOutcome {
        target,
        solo_pps,
        corun_pps,
        drop_pct: (solo_pps - corun_pps) / solo_pps * 100.0,
        competing_refs_per_sec: competing,
        competing_fills_per_sec: competing_fills,
        solo: solo.clone(),
        corun: target_res,
        competitors: co.flows[1..].to_vec(),
    }
}

/// Co-run each `(target, competitors)` mix against `solo(target)` in the
/// realistic co-location ([`ContentionConfig::Both`]), on `threads`
/// workers, in input order.
pub fn corun_mixes<'a>(
    solo: impl Fn(FlowType) -> &'a FlowResult + Sync,
    mixes: &[(FlowType, Vec<FlowType>)],
    params: ExpParams,
    threads: usize,
) -> Vec<CoRunOutcome> {
    run_many(mixes.iter().collect(), threads, |(target, competitors)| {
        corun_against_solo(solo(*target), *target, competitors, ContentionConfig::Both, params)
    })
}

/// Run `f` over `items` on `threads` worker threads, preserving order.
/// Each item is an independent simulation, so results are identical to a
/// sequential run.
pub fn run_many<I, O, F>(items: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    // A shared work queue plus an mpsc results channel covers the MPMC
    // pattern with std primitives alone (no external channel crate).
    let queue = std::sync::Mutex::new(
        items.into_iter().enumerate().collect::<std::collections::VecDeque<(usize, I)>>(),
    );
    let (out_tx, out_rx) = std::sync::mpsc::channel::<(usize, O)>();
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            let out_tx = out_tx.clone();
            let queue = &queue;
            let f = &f;
            s.spawn(move || loop {
                let next = queue.lock().expect("work queue poisoned").pop_front();
                let Some((i, item)) = next else { break };
                out_tx.send((i, f(item))).expect("result receiver dropped");
            });
        }
        drop(out_tx);
    });
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    while let Ok((i, o)) = out_rx.recv() {
        slots[i] = Some(o);
    }
    slots.into_iter().map(|o| o.expect("worker died")).collect()
}

/// Default worker-thread count for sweeps.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_scenario_measures_one_flow() {
        let r = run_scenario(&solo_scenario(FlowType::Ip, ExpParams::quick()));
        assert_eq!(r.flows.len(), 1);
        assert!(r.flows[0].metrics.pps > 50_000.0);
        assert!(r.flows[0].working_set_bytes > 1 << 20);
    }

    #[test]
    fn unfaulted_runs_report_zero_loss_with_full_conservation() {
        for batch in [0usize, 16] {
            let r = run_scenario(&solo_scenario(
                FlowType::Ip,
                ExpParams::quick().with_batch(batch),
            ));
            let f = &r.flows[0];
            assert_eq!(f.drops.total_dropped(), 0, "batch {batch}: no loss at steady state");
            assert_eq!(
                f.drops.offered, f.counts.packets,
                "batch {batch}: every offered packet was retired"
            );
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_scenario(&solo_scenario(FlowType::Mon, ExpParams::quick()));
        let b = run_scenario(&solo_scenario(FlowType::Mon, ExpParams::quick()));
        assert_eq!(a.flows[0].counts, b.flows[0].counts);
    }

    #[test]
    fn corun_placements_match_fig3() {
        let s = corun_scenario(
            FlowType::Mon,
            &[FlowType::SynMax; 5],
            ContentionConfig::CacheOnly,
            ExpParams::quick(),
        );
        // Competitors on the target's socket with remote data.
        for p in &s.flows[1..] {
            assert!(p.core.0 >= 1 && p.core.0 <= 5);
            assert_eq!(p.domain, MemDomain(1));
        }
        let s = corun_scenario(
            FlowType::Mon,
            &[FlowType::SynMax; 5],
            ContentionConfig::MemCtrlOnly,
            ExpParams::quick(),
        );
        for p in &s.flows[1..] {
            assert!(p.core.0 >= 6);
            assert_eq!(p.domain, MemDomain(0));
        }
    }

    #[test]
    fn contention_reduces_throughput() {
        let out = run_corun(
            FlowType::Mon,
            &[FlowType::SynMax; 5],
            ContentionConfig::Both,
            ExpParams::quick(),
        );
        assert!(
            out.drop_pct > 2.0,
            "5 SYN_MAX competitors must hurt MON, drop = {:.2}%",
            out.drop_pct
        );
        assert!(out.competing_refs_per_sec > 1e6);
        assert_eq!(out.competitors.len(), 5);
    }

    #[test]
    fn cache_contention_dominates_memctrl() {
        let cache = run_corun(
            FlowType::Mon,
            &[FlowType::SynMax; 5],
            ContentionConfig::CacheOnly,
            ExpParams::quick(),
        );
        let mem = run_corun(
            FlowType::Mon,
            &[FlowType::SynMax; 5],
            ContentionConfig::MemCtrlOnly,
            ExpParams::quick(),
        );
        assert!(
            cache.drop_pct > mem.drop_pct,
            "cache-only drop {:.1}% must exceed memctrl-only {:.1}%",
            cache.drop_pct,
            mem.drop_pct
        );
    }

    #[test]
    fn run_many_preserves_order_and_results() {
        let items: Vec<u64> = (0..20).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        let par = run_many(items, 4, |x| x * x);
        assert_eq!(seq, par);
    }

    /// A `Counts` as its fields in declaration order, for compact pins.
    fn fields(c: &Counts) -> [u64; 12] {
        [
            c.instructions,
            c.compute_cycles,
            c.stall_cycles,
            c.l1_refs,
            c.l1_hits,
            c.l2_refs,
            c.l2_hits,
            c.l3_refs,
            c.l3_hits,
            c.l3_misses,
            c.remote_accesses,
            c.packets,
        ]
    }

    /// Six replicas of one type in one machine — `corun6`'s shape at quick
    /// scale: every flow's window counters and footprint, and where the
    /// domain-0 allocator stands after the six builds.
    #[test]
    fn six_same_type_replicas_are_pinned() {
        let params = ExpParams::quick();
        let s = corun_scenario(FlowType::Mon, &[FlowType::Mon; 5], ContentionConfig::Both, params);
        let r = run_scenario(&s);
        let want: [[u64; 12]; 6] = [
            [4628262, 3521320, 4879372, 199743, 93773, 105970, 59589, 46381, 28002, 18379, 0, 3497],
            [4608695, 3506474, 4897969, 198992, 93442, 105550, 58944, 46606, 28082, 18524, 0, 3481],
            [4610334, 3507719, 4894757, 198977, 93354, 105623, 59093, 46530, 28024, 18506, 0, 3483],
            [4620413, 3515464, 4886602, 199280, 93508, 105772, 59287, 46485, 28044, 18441, 0, 3491],
            [4631069, 3523384, 4878819, 199960, 93822, 106138, 59500, 46638, 28340, 18298, 0, 3499],
            [4629486, 3522341, 4881155, 199569, 93492, 106077, 59414, 46663, 28331, 18332, 0, 3499],
        ];
        for (i, (f, want)) in r.flows.iter().zip(want).enumerate() {
            assert_eq!(fields(&f.counts), want, "flow {i}");
            assert_eq!(f.working_set_bytes, 10_881_088, "flow {i}");
        }
        let mut m = Machine::new(MachineConfig::westmere());
        let _built: Vec<_> = s
            .flows
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.flow.build_with_structure(
                    &mut m,
                    p.domain,
                    params.scale,
                    flow_seed(params.seed, i),
                    p.flow.structure_seed(params.seed),
                    params.batch_size,
                )
            })
            .collect();
        assert_eq!(m.allocator(MemDomain(0)).used(), 65_286_592);
    }

    /// Two IP flows written as config text in one machine: the
    /// config-built lookup path, pinned the same way.
    #[test]
    fn two_config_built_ip_flows_are_pinned() {
        use pp_click::pipelines::build_config_flow;
        use pp_net::gen::traffic::TrafficSpec;
        let config = "chk :: CheckIPHeader; rt :: RadixIPLookup(PREFIXES 32000, SEED 7); \
                      ttl :: DecIPTTL; out :: ToDevice; chk -> rt -> ttl -> out;";
        let mut m = Machine::new(MachineConfig::westmere());
        let flows: Vec<_> = (0..2u64)
            .map(|i| {
                let traffic = TrafficSpec::random_dst(64, 100 + i);
                build_config_flow(&mut m, MemDomain(0), "IP", config, traffic).expect("valid config")
            })
            .collect();
        assert_eq!(m.allocator(MemDomain(0)).used(), 13_101_600);
        let mut e = Engine::new(m);
        for (i, f) in flows.into_iter().enumerate() {
            e.set_task(CoreId(i as u16), Box::new(f.task));
        }
        let params = ExpParams::quick();
        let cfg = e.machine.config().clone();
        let meas = e.measure(params.warmup_cycles(&cfg), params.window_cycles(&cfg));
        let want: [[u64; 12]; 2] = [
            [7566304, 5540179, 2861010, 202818, 151162, 51656, 25344, 26312, 17214, 9098, 0, 6478],
            [7563237, 5537791, 2862375, 202958, 151338, 51620, 25146, 26474, 17405, 9069, 0, 6475],
        ];
        for (i, want) in want.into_iter().enumerate() {
            let core = meas.core(CoreId(i as u16)).expect("flow core measured");
            assert_eq!(fields(&core.counts.total), want, "flow {i}");
        }
    }

    #[test]
    fn flow_seed_is_stable_and_distinct() {
        assert_eq!(flow_seed(42, 0), flow_seed(42, 0));
        assert_ne!(flow_seed(42, 0), flow_seed(42, 1));
        assert_ne!(flow_seed(42, 0), flow_seed(43, 0));
    }
}
