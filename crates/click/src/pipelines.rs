//! Standard flow builders: the paper's five realistic workloads plus SYN,
//! in both the parallel (run-to-completion) and pipeline configurations.
//!
//! Chain composition follows §2.1 exactly:
//!
//! * **IP** — full IP forwarding: `CheckIPHeader → RadixIPLookup → DecIPTTL`
//! * **MON** — IP + NetFlow
//! * **FW** — IP + NetFlow + 1000-rule sequential firewall
//! * **RE** — IP + NetFlow + redundancy elimination
//! * **VPN** — IP + NetFlow + AES-128 encryption
//! * **SYN** — configurable CPU ops + random reads over an L3-sized array
//!
//! All flows end in `ToDevice`. Each flow owns private replicas of its data
//! structures (per-client state, as in the paper's multi-tenant setting) in
//! an explicitly chosen NUMA domain — the lever the Fig. 3 configurations
//! use to isolate cache vs. memory-controller contention. (Identical
//! routing-table replicas share one host image; their simulated ranges
//! stay private — see [`IpLookup::bgp`](crate::elements::radix::IpLookup::bgp).)

use crate::config::{build_config, BuildCtx, ConfigError};
use crate::cost::CostModel;
use crate::elements::basic::{CheckIpHeader, DecIpTtl, ToDevice};
use crate::elements::classifier::TupleSpaceClassifier;
use crate::elements::control::ControlHandle;
use crate::elements::dpi::{Dpi, DpiMode};
use crate::elements::firewall::Firewall;
use crate::elements::nat::{Nat, NatConfig};
use crate::elements::netflow::NetFlow;
use crate::elements::queue::SpscQueue;
use crate::elements::radix::RadixIpLookup;
use crate::elements::re::{ReConfig, RedundancyElim};
use crate::elements::synthetic::{SynParams, Synthetic};
use crate::elements::vpn::VpnEncrypt;
use crate::flow::{pipeline_stages, FlowTask, FrameworkChurn, SinkStage, SourceStage};
use crate::graph::ElementGraph;
use pp_net::gen::rules::{generate_classifier_rules, generate_unmatchable_rules};
use pp_net::gen::signatures::generate_signatures;
use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
use pp_sim::machine::Machine;
use pp_sim::nic::NicQueue;
use pp_sim::types::MemDomain;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Which workload a flow runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainKind {
    /// Full IP forwarding.
    Ip,
    /// IP + NetFlow monitoring.
    Mon,
    /// IP + NetFlow + sequential firewall.
    Fw,
    /// IP + NetFlow + redundancy elimination.
    Re,
    /// IP + NetFlow + AES-128 VPN.
    Vpn,
    /// IP + NetFlow + Aho-Corasick deep packet inspection (extension: the
    /// §6 "emerging" workload).
    Dpi,
    /// IP + NetFlow + source NAT (extension: consolidated middlebox
    /// functionality per the paper's introduction).
    Nat,
    /// IP + NetFlow + tuple-space multi-dimensional classification
    /// (extension: related-work workload \[22\]).
    Class,
    /// Synthetic (profiling) workload.
    Syn(SynParams),
}

impl ChainKind {
    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ChainKind::Ip => "IP",
            ChainKind::Mon => "MON",
            ChainKind::Fw => "FW",
            ChainKind::Re => "RE",
            ChainKind::Vpn => "VPN",
            ChainKind::Dpi => "DPI",
            ChainKind::Nat => "NAT",
            ChainKind::Class => "CLASS",
            ChainKind::Syn(_) => "SYN",
        }
    }

    /// Default frame length for this workload (the paper stresses IP/MON/FW
    /// with minimum-size frames; RE and VPN carry payload to process).
    pub fn default_frame_len(&self) -> usize {
        match self {
            ChainKind::Ip | ChainKind::Mon | ChainKind::Fw => 64,
            ChainKind::Vpn => 256,
            ChainKind::Re => 512,
            // DPI scans payload; NAT and CLASS are header workloads.
            ChainKind::Dpi => 512,
            ChainKind::Nat | ChainKind::Class => 64,
            ChainKind::Syn(_) => 64,
        }
    }
}

/// Data-structure scale of the standard flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale: 128 k prefixes, 100 k flows, 1000 rules, RE tables far
    /// beyond L3. Use for regenerating tables/figures.
    Paper,
    /// ~4× smaller structures for fast tests (behaviour class preserved:
    /// each flow's trie+table are cacheable alone but six co-located flows
    /// overflow the L3, and RE's working set stays beyond the L3).
    Test,
}

/// One scale's structure sizes — the only place a standard flow's sizes
/// are written.
struct Sizes {
    /// Routing-table prefixes (paper: 128 000).
    prefixes: usize,
    /// Concurrent-flow population of the traffic (paper: 100 000).
    flows: u32,
    /// log2 of NetFlow table slots (the population at ~0.76 load).
    netflow_log2: u32,
    /// RE fingerprint table and store.
    re: ReConfig,
    /// DPI signatures (extension workload).
    signatures: usize,
    /// NAT pool and binding table (extension workload).
    nat: NatConfig,
    /// Classifier rules (extension workload; ClassBench-scale).
    class_rules: usize,
}

/// Firewall rules at every scale (paper: 1000).
const FW_RULES: usize = 1000;

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Paper => Sizes {
            prefixes: 128_000,
            flows: 100_000,
            netflow_log2: 18,
            re: ReConfig::default(),
            signatures: 1500,
            nat: NatConfig::default(),
            class_rules: 16_000,
        },
        Scale::Test => Sizes {
            prefixes: 32_000,
            flows: 40_000,
            netflow_log2: 16,
            re: ReConfig { log2_fp_slots: 19, store_bytes: 8 << 20, sample_mod: 16 },
            signatures: 300,
            nat: NatConfig {
                n_public_ips: 1,
                ports_per_ip: 49152,
                log2_bindings: 16,
                ..NatConfig::default()
            },
            class_rules: 4000,
        },
    }
}

/// Everything needed to build one flow. Sizes come from `scale`; every
/// element is charged at the default [`CostModel`].
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// The workload.
    pub kind: ChainKind,
    /// The structures' scale.
    pub scale: Scale,
    /// Seed for this flow instance's traffic and access patterns.
    pub seed: u64,
    /// Seed for the flow's *data structures* (routing table, rules, keys).
    /// Instances of the same type share this, so replicas are identical —
    /// as the paper's per-client replicas of one table are — while their
    /// traffic differs per `seed`.
    pub structure_seed: u64,
    /// Packets per engine turn (see [`FlowTask::with_batch_size`]). The
    /// default, 1, is the paper's per-packet platform; 0 means 1.
    pub batch_size: usize,
}

impl FlowSpec {
    /// `kind` at `scale`, traffic and structures from `seed`, one packet
    /// per turn.
    pub fn new(kind: ChainKind, scale: Scale, seed: u64) -> Self {
        FlowSpec { kind, scale, seed, structure_seed: seed, batch_size: 1 }
    }

    fn traffic(&self) -> TrafficSpec {
        let frame_len = self.kind.default_frame_len();
        let Sizes { flows, signatures, .. } = sizes(self.scale);
        match self.kind {
            // IP: "packets with random destination addresses, because this
            // maximizes IP's sensitivity to contention".
            ChainKind::Ip => TrafficSpec::random_dst(frame_len, self.seed ^ 0xA5A5),
            // DPI: payloads crafted to tease the signature automaton into
            // deep states — the DPI analogue of the paper's input crafting.
            ChainKind::Dpi => TrafficSpec::dpi_tease(
                frame_len,
                flows,
                signatures as u32,
                self.structure_seed ^ 0x3333,
                self.seed ^ 0xA5A5,
            ),
            // Others: a fixed flow population (the NetFlow table holds
            // `flows` entries).
            _ => TrafficSpec::flow_population(frame_len, flows, self.seed ^ 0xA5A5),
        }
    }
}

/// The NIC queue every flow is stood up with — 256 descriptors over 512
/// buffers of 2 KB — allocated in `domain`. The one place the sizing is
/// written; a flow's ring comes first in its domain's allocation order
/// (ring, then the graph's structures, then framework churn), which fixes
/// every simulated address downstream.
pub fn nic_queue(machine: &mut Machine, domain: MemDomain) -> Rc<RefCell<NicQueue>> {
    Rc::new(RefCell::new(NicQueue::new(machine.allocator(domain), 256, 512, 2048)))
}

/// Descriptor slots in a pipeline's cross-core handoff ring.
const HANDOFF_SLOTS: usize = 128;

/// Result of building a flow.
pub struct BuiltFlow {
    /// The schedulable task.
    pub task: FlowTask,
}

/// Build the element sub-chain for `spec` (everything between the NIC ends).
fn build_graph(
    machine: &mut Machine,
    domain: MemDomain,
    nic: &Rc<RefCell<NicQueue>>,
    spec: &FlowSpec,
    tx_shared: bool,
) -> ElementGraph {
    let cost = CostModel::default();
    let sizes = sizes(spec.scale);
    let mut g = ElementGraph::new(cost);
    let mut ids = Vec::new();

    match spec.kind {
        ChainKind::Syn(params) => {
            let alloc = machine.allocator(domain);
            ids.push(g.add(Box::new(Synthetic::new(alloc, params, cost))));
        }
        kind => {
            ids.push(g.add(Box::new(CheckIpHeader::new(cost))));
            let alloc = machine.allocator(domain);
            let seed = spec.structure_seed;
            ids.push(g.add(Box::new(RadixIpLookup::bgp(alloc, sizes.prefixes, seed, cost))));
            if !matches!(kind, ChainKind::Ip) {
                let alloc = machine.allocator(domain);
                ids.push(g.add(Box::new(NetFlow::new(alloc, sizes.netflow_log2, cost))));
            }
            match kind {
                ChainKind::Fw => {
                    let rules = generate_unmatchable_rules(FW_RULES, spec.structure_seed ^ 0x2222);
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(Firewall::new(alloc, &rules, cost))));
                }
                ChainKind::Re => {
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(RedundancyElim::new(alloc, sizes.re, cost))));
                }
                ChainKind::Vpn => {
                    let alloc = machine.allocator(domain);
                    let key = spec.structure_seed.to_le_bytes();
                    let mut k = [0u8; 16];
                    k[..8].copy_from_slice(&key);
                    k[8..].copy_from_slice(&key);
                    ids.push(g.add(Box::new(VpnEncrypt::new(alloc, k, spec.seed, cost))));
                }
                ChainKind::Dpi => {
                    let sigs = generate_signatures(sizes.signatures, spec.structure_seed ^ 0x3333);
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(Dpi::new(alloc, &sigs, DpiMode::Detect, cost))));
                }
                ChainKind::Nat => {
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(Nat::new(alloc, sizes.nat, cost))));
                }
                ChainKind::Class => {
                    let rules =
                        generate_classifier_rules(sizes.class_rules, spec.structure_seed ^ 0x4444);
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(TupleSpaceClassifier::new(
                        alloc,
                        &rules,
                        &[],
                        cost,
                    ))));
                }
                _ => {}
            }
            ids.push(g.add(Box::new(DecIpTtl::new(cost))));
        }
    }

    ids.push(g.add(Box::new(ToDevice::new(nic.clone(), tx_shared))));
    g.chain(&ids);
    g
}

/// Build a complete run-to-completion flow whose data structures (and NIC
/// rings/buffers) live in `domain`.
pub fn build_flow(machine: &mut Machine, domain: MemDomain, spec: &FlowSpec) -> BuiltFlow {
    let cost = CostModel::default();
    let nic = nic_queue(machine, domain);
    let graph = build_graph(machine, domain, &nic, spec, false);
    let churn = FrameworkChurn::new(machine.allocator(domain), &cost);
    let gen = TrafficGen::new(spec.traffic());
    let task = FlowTask::new(spec.kind.name(), gen, nic, graph, cost)
        .with_churn(churn)
        .with_batch_size(spec.batch_size);
    BuiltFlow { task }
}

/// A flow built from Click-style configuration text.
pub struct ConfigFlow {
    /// The schedulable task.
    pub task: FlowTask,
    /// Control handles by element name (from `Control` declarations).
    pub controls: HashMap<String, ControlHandle>,
}

/// Stand up a run-to-completion flow whose graph is `config` (see
/// [`crate::config`]) with its ring and structures in `domain`, fed by
/// `traffic`, at the default [`CostModel`]. Seeded elements take their
/// `SEED` from the text. The flow is the minimal one — no
/// [`FrameworkChurn`]; a caller that wants the standard builders'
/// footprint appends [`FlowTask::with_churn`] next, which keeps
/// [`build_flow`]'s allocation order: ring, the graph's structures in
/// declaration order, churn.
pub fn build_config_flow(
    machine: &mut Machine,
    domain: MemDomain,
    label: &str,
    config: &str,
    traffic: TrafficSpec,
) -> Result<ConfigFlow, ConfigError> {
    let cost = CostModel::default();
    let nic = nic_queue(machine, domain);
    let mut ctx = BuildCtx { machine, domain, nic: nic.clone(), cost, seed: 0 };
    let built = build_config(config, &mut ctx)?;
    let task = FlowTask::new(label, TrafficGen::new(traffic), nic, built.graph, cost);
    Ok(ConfigFlow { task, controls: built.controls })
}

/// Placement and burst of a pipeline's cross-core handoff queue — the
/// knobs the queue-placement NUMA scenarios and burst-size sweeps turn.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// NUMA domain holding the queue's descriptor ring and control lines
    /// (the paper homes it with the receiving stage; homing it remotely is
    /// a queue-placement scenario in its own right).
    pub queue_domain: MemDomain,
    /// Packets per cross-core handoff through both stages
    /// ([`pipeline_stages`]).
    /// The default, 1, is §2.2's one queue transaction per packet; 0
    /// means 1.
    pub burst: usize,
}

impl PipelineSpec {
    /// Per-packet handoff with the queue homed in `queue_domain`.
    pub fn new(queue_domain: MemDomain) -> Self {
        PipelineSpec { queue_domain, burst: 1 }
    }

    /// Hand off `burst` packets per queue transaction in both stages.
    pub fn with_burst(mut self, burst: usize) -> Self {
        self.burst = burst;
        self
    }
}

/// A pipeline's first two allocations: the NIC ring in `front_domain`,
/// then the [`HANDOFF_SLOTS`]-slot handoff queue in `pipe`'s domain. The
/// stages' graphs come next.
fn ring_and_queue(
    machine: &mut Machine,
    front_domain: MemDomain,
    pipe: &PipelineSpec,
    cost: CostModel,
) -> (Rc<RefCell<NicQueue>>, Rc<RefCell<SpscQueue>>) {
    let nic = nic_queue(machine, front_domain);
    let queue = SpscQueue::new(machine.allocator(pipe.queue_domain), HANDOFF_SLOTS, cost);
    (nic, Rc::new(RefCell::new(queue)))
}

/// Build the same workload as a two-stage pipeline: stage 1 receives and
/// validates, stage 2 does the heavy processing and transmits. Returns
/// `(front, back, queue)`; bind `front` and `back` to different cores.
/// Queue placement and handoff burst come from `pipe`.
pub fn build_pipeline(
    machine: &mut Machine,
    front_domain: MemDomain,
    back_domain: MemDomain,
    spec: &FlowSpec,
    pipe: &PipelineSpec,
) -> (SourceStage, SinkStage, Rc<RefCell<SpscQueue>>) {
    let cost = CostModel::default();
    let ip_family = !matches!(spec.kind, ChainKind::Syn(_));
    let (nic, queue) = ring_and_queue(machine, front_domain, pipe, cost);
    // Front: CheckIPHeader only (classic RX stage).
    let mut front = ElementGraph::new(cost);
    if ip_family {
        front.add(Box::new(CheckIpHeader::new(cost)));
    }
    let front_churn = FrameworkChurn::new(machine.allocator(front_domain), &cost);
    // Back: everything else — the full graph built in the back domain,
    // entered one element further in (element 0 is the CheckIPHeader
    // the front already ran for IP-family chains).
    let mut back = build_graph(machine, back_domain, &nic, spec, true);
    if ip_family && back.len() > 1 {
        back.set_entry(1);
    }
    let back_churn = FrameworkChurn::new(machine.allocator(back_domain), &cost);
    let graphs = [(front, Some(front_churn)), (back, Some(back_churn))];
    let gen = TrafficGen::new(spec.traffic());
    let (src, sink) = pipeline_stages(spec.kind.name(), gen, nic, &queue, graphs, pipe.burst, cost);
    (src, sink, queue)
}

// The §2.2 crafted two-phase synthetic workload: each packet triggers
// `TWO_PHASE_READS` random reads into each of two structures that together
// are "exactly double the size of an L3 cache". In the parallel
// configuration one core does both phases (working set 2×L3: thrash); in
// the pipeline configuration each phase runs on its own socket with its
// structure local (each fits that socket's L3).

/// Reads into each phase's structure per packet (paper: >100 each).
const TWO_PHASE_READS: u32 = 110;
/// Each phase structure's size (paper: one L3, 12 MB).
const TWO_PHASE_BYTES: u64 = 12 << 20;
/// Seed of the two-phase traffic and of phase 1 (phase 2 flips bit 0).
const TWO_PHASE_SEED: u64 = 7;

/// One phase's element: 50 ops plus the phase's reads over its own
/// structure, allocated in `domain`.
fn two_phase_element(machine: &mut Machine, domain: MemDomain, seed: u64) -> Synthetic {
    let params = SynParams {
        ops_per_packet: 50,
        reads_per_packet: TWO_PHASE_READS,
        working_set_bytes: TWO_PHASE_BYTES,
        mlp: 4,
        seed,
    };
    Synthetic::new(machine.allocator(domain), params, CostModel::default())
}

/// Parallel variant: both phases on one core, both structures in `domain`.
pub fn two_phase_parallel(machine: &mut Machine, domain: MemDomain) -> FlowTask {
    let cost = CostModel::default();
    let nic = nic_queue(machine, domain);
    let mut g = ElementGraph::new(cost);
    let a = g.add(Box::new(two_phase_element(machine, domain, TWO_PHASE_SEED)));
    let b = g.add(Box::new(two_phase_element(machine, domain, TWO_PHASE_SEED ^ 1)));
    let t = g.add(Box::new(ToDevice::new(nic.clone(), false)));
    g.chain(&[a, b, t]);
    let traffic = TrafficGen::new(TrafficSpec::random_dst(64, TWO_PHASE_SEED));
    FlowTask::new("2phase-parallel", traffic, nic, g, cost)
}

/// Pipeline variant: phase 1 on the front core (structure in
/// `front_domain`), phase 2 + transmit on the back core (structure in
/// `back_domain`). Put the cores on different sockets so each phase enjoys
/// a private L3.
pub fn two_phase_pipeline(
    machine: &mut Machine,
    front_domain: MemDomain,
    back_domain: MemDomain,
    pipe: &PipelineSpec,
) -> (SourceStage, SinkStage, Rc<RefCell<SpscQueue>>) {
    let cost = CostModel::default();
    let (nic, queue) = ring_and_queue(machine, front_domain, pipe, cost);
    let mut front = ElementGraph::new(cost);
    front.add(Box::new(two_phase_element(machine, front_domain, TWO_PHASE_SEED)));
    let mut back = ElementGraph::new(cost);
    let b = back.add(Box::new(two_phase_element(machine, back_domain, TWO_PHASE_SEED ^ 1)));
    let t = back.add(Box::new(ToDevice::new(nic.clone(), true)));
    back.chain(&[b, t]);
    let gen = TrafficGen::new(TrafficSpec::random_dst(64, TWO_PHASE_SEED));
    let graphs = [(front, None), (back, None)];
    let (src, sink) = pipeline_stages("2phase", gen, nic, &queue, graphs, pipe.burst, cost);
    (src, sink, queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_sim::config::MachineConfig;
    use pp_sim::engine::Engine;
    use pp_sim::types::CoreId;

    fn run_flow(kind: ChainKind) -> f64 {
        let mut m = Machine::new(MachineConfig::westmere());
        let spec = FlowSpec::new(kind, Scale::Test, 11);
        let built = build_flow(&mut m, MemDomain(0), &spec);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(built.task));
        let meas = e.measure(1_000_000, 5_600_000); // 2 ms window
        meas.core(CoreId(0)).unwrap().metrics.pps
    }

    /// Every standard flow's footprint and first 200 turns at both scales
    /// (seed 7, domain 0 of a fresh Westmere, core 0): bytes allocated by
    /// `build_flow`, then the clock, L1 references and L3 references.
    #[test]
    fn standard_flows_are_pinned_at_both_scales() {
        use pp_sim::engine::CoreTask;
        const TEST: [(u64, u64, u64, u64); 9] = [
            (6_681_920, 748_390, 9_479, 3_651),
            (10_876_224, 898_474, 11_198, 4_528),
            (10_896_192, 5_354_090, 261_398, 4_868),
            (27_653_440, 2_864_425, 25_734, 14_169),
            (10_880_576, 2_227_859, 460_886, 5_274),
            (13_298_496, 2_896_114, 106_958, 24_199),
            (14_284_096, 972_013, 12_397, 4_983),
            (11_086_400, 1_400_514, 22_315, 7_850),
            (13_770_880, 764_881, 17_400, 15_936),
        ];
        const PAPER: [(u64, u64, u64, u64); 9] = [
            (19_913_280, 829_452, 9_960, 4_203),
            (36_690_496, 992_745, 11_777, 5_205),
            (36_710_464, 5_448_991, 261_977, 5_557),
            (103_799_360, 5_204_797, 44_335, 23_735),
            (36_694_848, 2_314_179, 461_388, 5_906),
            (48_463_360, 4_376_096, 107_589, 37_480),
            (51_305_024, 1_067_565, 12_987, 5_679),
            (37_509_952, 1_707_313, 24_289, 9_931),
            (13_770_880, 764_881, 17_400, 15_936),
        ];
        let kinds = [
            ChainKind::Ip,
            ChainKind::Mon,
            ChainKind::Fw,
            ChainKind::Re,
            ChainKind::Vpn,
            ChainKind::Dpi,
            ChainKind::Nat,
            ChainKind::Class,
            ChainKind::Syn(SynParams::max(7)),
        ];
        for (scale, pins) in [(Scale::Test, TEST), (Scale::Paper, PAPER)] {
            for (kind, want) in kinds.into_iter().zip(pins) {
                let spec = FlowSpec::new(kind, scale, 7);
                let mut m = Machine::new(MachineConfig::westmere());
                let mut task = build_flow(&mut m, MemDomain(0), &spec).task;
                let used = m.allocator(MemDomain(0)).used();
                for _ in 0..200 {
                    task.run_turn(&mut m.ctx(CoreId(0)));
                }
                let core = m.core(CoreId(0));
                let total = core.counters.total();
                assert_eq!(total.packets, 200, "{} {scale:?}", kind.name());
                let got = (used, core.clock, total.l1_refs, total.l3_refs);
                assert_eq!(got, want, "{} {scale:?}", kind.name());
            }
        }
    }

    /// Over a 2-ms window every chain forwards more than 10 kpps, or 5 kpps
    /// for RE and the extension chains.
    #[test]
    fn all_chains_forward_packets() {
        use ChainKind::*;
        let fast = [Ip, Mon, Fw, Vpn, Syn(SynParams::moderate(3))];
        for (kinds, floor) in [(&fast[..], 10_000.0), (&[Re, Dpi, Nat, Class][..], 5_000.0)] {
            for &kind in kinds {
                let pps = run_flow(kind);
                assert!(pps > floor, "{} pps = {pps}", kind.name());
            }
        }
    }

    #[test]
    fn chain_costs_are_ordered_like_the_paper() {
        // Table 1 ordering by cycles/packet at small test scale: IP is the
        // cheapest, each add-on costs more, and the FW scan plus RE's
        // per-payload work dominate. (The full paper-scale Table 1
        // comparison — including FW vs RE, which depends on paper-sized
        // structures — is regenerated by `repro table1`.)
        let ip = run_flow(ChainKind::Ip);
        let mon = run_flow(ChainKind::Mon);
        let fw = run_flow(ChainKind::Fw);
        let vpn = run_flow(ChainKind::Vpn);
        let re = run_flow(ChainKind::Re);
        assert!(ip > mon, "IP {ip} vs MON {mon}");
        assert!(mon > vpn, "MON {mon} vs VPN {vpn}");
        assert!(vpn > fw, "VPN {vpn} vs FW {fw}");
        assert!(mon > re, "MON {mon} vs RE {re}");
    }

    /// The two element factories agree on generator seeds: the IP chain
    /// written as config text with `SEED = structure_seed` is, charge for
    /// charge, the flow `build_flow` stands up.
    #[test]
    fn config_text_ip_flow_is_build_flow() {
        use pp_sim::engine::CoreTask;
        let spec = FlowSpec::new(ChainKind::Ip, Scale::Test, 11);
        let after_2000_packets = |mut m: Machine, mut task: FlowTask| {
            for _ in 0..2000 {
                task.run_turn(&mut m.ctx(CoreId(0)));
            }
            assert_eq!(task.processed, 2000);
            (m.core(CoreId(0)).counters.total(), m.core(CoreId(0)).clock)
        };
        let mut m = Machine::new(MachineConfig::westmere());
        let task = build_flow(&mut m, MemDomain(0), &spec).task;
        let want = after_2000_packets(m, task);
        let mut m = Machine::new(MachineConfig::westmere());
        let config = format!(
            "chk :: CheckIPHeader; rt :: RadixIPLookup(PREFIXES {}, SEED {}); \
             ttl :: DecIPTTL; out :: ToDevice; chk -> rt -> ttl -> out;",
            sizes(Scale::Test).prefixes,
            spec.structure_seed
        );
        let flow = build_config_flow(&mut m, MemDomain(0), "IP", &config, spec.traffic())
            .expect("valid config");
        let churn = FrameworkChurn::new(m.allocator(MemDomain(0)), &CostModel::default());
        assert_eq!(after_2000_packets(m, flow.task.with_churn(churn)), want);
    }

    /// The per-packet pipeline (burst 1) forwards, and burst 32 beats it.
    #[test]
    fn burst_pipeline_runs_and_beats_burst_one() {
        let pps_at = |burst: usize| {
            let mut m = Machine::new(MachineConfig::westmere());
            let spec = FlowSpec::new(ChainKind::Mon, Scale::Test, 21);
            let pipe = PipelineSpec::new(MemDomain(0)).with_burst(burst);
            let (src, sink, q) =
                build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
            let lat = sink.latency_handle();
            let mut e = Engine::new(m);
            e.set_task(CoreId(0), Box::new(src));
            e.set_task(CoreId(1), Box::new(sink));
            let meas = e.measure(1_000_000, 5_600_000);
            assert!(q.borrow().dequeued > 0);
            assert!(lat.borrow().count() > 0, "sink must record latencies");
            meas.core(CoreId(1)).unwrap().metrics.pps
        };
        let burst1 = pps_at(1);
        assert!(burst1 > 10_000.0, "pipeline MON pps = {burst1}");
        let burst = pps_at(32);
        assert!(
            burst > burst1 * 1.02,
            "burst-32 handoff should lift MON pipeline throughput: {burst1:.0} -> {burst:.0}"
        );
    }

    #[test]
    fn pipeline_queue_lands_in_requested_domain() {
        let mut m = Machine::new(MachineConfig::westmere());
        let spec = FlowSpec::new(ChainKind::Ip, Scale::Test, 5);
        let before = m.allocator(MemDomain(1)).used();
        let pipe = PipelineSpec::new(MemDomain(1));
        let _ = build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
        let grew = m.allocator(MemDomain(1)).used() - before;
        // 128 slots * 16 B packed + head and tail lines.
        assert_eq!(grew, 128 * 16 + 2 * 64, "only the queue lives in domain 1");
    }

    #[test]
    fn data_lands_in_requested_domain() {
        let mut m = Machine::new(MachineConfig::westmere());
        let before = m.allocator(MemDomain(1)).used();
        let spec = FlowSpec::new(ChainKind::Mon, Scale::Test, 9);
        let _ = build_flow(&mut m, MemDomain(1), &spec);
        let after = m.allocator(MemDomain(1)).used();
        assert!(
            after - before > 1 << 20,
            "MON structures should be several MB in domain 1"
        );
        assert_eq!(m.allocator(MemDomain(0)).used(), 64, "domain 0 untouched");
    }
}
