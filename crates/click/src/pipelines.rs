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
use crate::elements::control::{Control, ControlHandle};
use crate::elements::dpi::{Dpi, DpiMode};
use crate::elements::firewall::Firewall;
use crate::elements::nat::{Nat, NatConfig};
use crate::elements::netflow::NetFlow;
use crate::elements::queue::SpscQueue;
use crate::elements::radix::RadixIpLookup;
use crate::elements::re::{ReConfig, RedundancyElim};
use crate::elements::synthetic::{SynParams, Synthetic};
use crate::elements::vpn::VpnEncrypt;
use crate::flow::{FlowTask, FrameworkChurn, SinkStage, SourceStage};
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

/// Everything needed to build one flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// The workload.
    pub kind: ChainKind,
    /// Seed for this flow instance's traffic and access patterns.
    pub seed: u64,
    /// Seed for the flow's *data structures* (routing table, rules, keys).
    /// Instances of the same type share this, so replicas are identical —
    /// as the paper's per-client replicas of one table are — while their
    /// traffic differs per `seed`.
    pub structure_seed: u64,
    /// Compute-cost model.
    pub cost: CostModel,
    /// Routing-table size (paper: 128 000).
    pub n_prefixes: usize,
    /// Concurrent-flow population for the traffic (paper: 100 000).
    pub flow_population: u32,
    /// log2 of NetFlow table slots (paper population at ~0.76 load).
    pub netflow_log2: u32,
    /// Firewall rule count (paper: 1000).
    pub n_rules: usize,
    /// RE sizing.
    pub re: ReConfig,
    /// DPI signature-set size (extension workload).
    pub n_signatures: usize,
    /// NAT pool and table sizing (extension workload).
    pub nat: NatConfig,
    /// Classifier rule count (extension workload; ClassBench-scale).
    pub n_class_rules: usize,
    /// Prepend a `Control` element (for throttling experiments).
    pub with_control: bool,
    /// Packets per engine turn (see [`FlowTask::with_batch_size`]). The
    /// default, 1, is the paper's per-packet platform; 0 means 1.
    pub batch_size: usize,
}

impl FlowSpec {
    /// Paper-scale defaults for a workload.
    pub fn new(kind: ChainKind, seed: u64) -> Self {
        FlowSpec {
            kind,
            seed,
            structure_seed: seed,
            cost: CostModel::default(),
            n_prefixes: 128_000,
            flow_population: 100_000,
            netflow_log2: 18,
            n_rules: 1000,
            re: ReConfig::default(),
            n_signatures: 1500,
            nat: NatConfig::default(),
            n_class_rules: 16_000,
            with_control: false,
            batch_size: 1,
        }
    }

    /// Scaled-down sizes for fast tests (structures shrink ~4x; behaviour
    /// class is preserved: each flow's trie+table are cacheable alone but
    /// six co-located flows overflow the L3, and RE's working set stays
    /// beyond the L3).
    pub fn small(kind: ChainKind, seed: u64) -> Self {
        FlowSpec {
            n_prefixes: 32_000,
            flow_population: 40_000,
            netflow_log2: 16,
            n_rules: 1000,
            re: ReConfig { log2_fp_slots: 19, store_bytes: 8 << 20, sample_mod: 16 },
            n_signatures: 300,
            nat: NatConfig {
                n_public_ips: 1,
                ports_per_ip: 49152,
                log2_bindings: 16,
                ..NatConfig::default()
            },
            n_class_rules: 4000,
            ..Self::new(kind, seed)
        }
    }

    /// The frame length this spec will generate: its workload's.
    pub fn frame_len(&self) -> usize {
        self.kind.default_frame_len()
    }

    fn traffic(&self) -> TrafficSpec {
        match self.kind {
            // IP: "packets with random destination addresses, because this
            // maximizes IP's sensitivity to contention".
            ChainKind::Ip => TrafficSpec::random_dst(self.frame_len(), self.seed ^ 0xA5A5),
            // DPI: payloads crafted to tease the signature automaton into
            // deep states — the DPI analogue of the paper's input crafting.
            ChainKind::Dpi => TrafficSpec::dpi_tease(
                self.frame_len(),
                self.flow_population,
                self.n_signatures as u32,
                self.structure_seed ^ 0x3333,
                self.seed ^ 0xA5A5,
            ),
            // Others: a fixed flow population (the NetFlow table holds
            // `flow_population` entries).
            _ => TrafficSpec::flow_population(
                self.frame_len(),
                self.flow_population,
                self.seed ^ 0xA5A5,
            ),
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

/// Result of building a flow: the task plus optional control handle.
pub struct BuiltFlow {
    /// The schedulable task.
    pub task: FlowTask,
    /// Present when the spec asked for a control element.
    pub control: Option<ControlHandle>,
}

/// Build the element sub-chain for `spec` (everything between the NIC ends),
/// returning the graph and the optional control handle.
fn build_graph(
    machine: &mut Machine,
    domain: MemDomain,
    nic: &Rc<RefCell<NicQueue>>,
    spec: &FlowSpec,
    tx_shared: bool,
) -> (ElementGraph, Option<ControlHandle>) {
    let cost = spec.cost;
    let mut g = ElementGraph::new(cost);
    let mut ids = Vec::new();
    let mut control = None;

    if spec.with_control {
        let handle = ControlHandle::new();
        ids.push(g.add(Box::new(Control::new(handle.clone(), cost))));
        control = Some(handle);
    }

    match spec.kind {
        ChainKind::Syn(params) => {
            let alloc = machine.allocator(domain);
            ids.push(g.add(Box::new(Synthetic::new(alloc, params, cost))));
        }
        kind => {
            ids.push(g.add(Box::new(CheckIpHeader::new(cost))));
            let alloc = machine.allocator(domain);
            let seed = spec.structure_seed;
            ids.push(g.add(Box::new(RadixIpLookup::bgp(alloc, spec.n_prefixes, seed, cost))));
            if !matches!(kind, ChainKind::Ip) {
                let alloc = machine.allocator(domain);
                ids.push(g.add(Box::new(NetFlow::new(alloc, spec.netflow_log2, cost))));
            }
            match kind {
                ChainKind::Fw => {
                    let rules = generate_unmatchable_rules(spec.n_rules, spec.structure_seed ^ 0x2222);
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(Firewall::new(alloc, &rules, cost))));
                }
                ChainKind::Re => {
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(RedundancyElim::new(alloc, spec.re, cost))));
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
                    let sigs =
                        generate_signatures(spec.n_signatures, spec.structure_seed ^ 0x3333);
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(Dpi::new(alloc, &sigs, DpiMode::Detect, cost))));
                }
                ChainKind::Nat => {
                    let alloc = machine.allocator(domain);
                    ids.push(g.add(Box::new(Nat::new(alloc, spec.nat, cost))));
                }
                ChainKind::Class => {
                    let rules = generate_classifier_rules(
                        spec.n_class_rules,
                        spec.structure_seed ^ 0x4444,
                    );
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
    (g, control)
}

/// Build a complete run-to-completion flow whose data structures (and NIC
/// rings/buffers) live in `domain`.
pub fn build_flow(machine: &mut Machine, domain: MemDomain, spec: &FlowSpec) -> BuiltFlow {
    let nic = nic_queue(machine, domain);
    let (graph, control) = build_graph(machine, domain, &nic, spec, false);
    let churn = FrameworkChurn::new(machine.allocator(domain), &spec.cost);
    let gen = TrafficGen::new(spec.traffic());
    let task = FlowTask::new(spec.kind.name(), gen, nic, graph, spec.cost)
        .with_churn(churn)
        .with_batch_size(spec.batch_size);
    BuiltFlow { task, control }
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

/// Placement and sizing of a pipeline's cross-core handoff queue — the
/// knobs the queue-placement NUMA scenarios and burst-size sweeps turn.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// NUMA domain holding the queue's descriptor ring and control lines
    /// (the paper homes it with the receiving stage; homing it remotely is
    /// a queue-placement scenario in its own right).
    pub queue_domain: MemDomain,
    /// Ring capacity in descriptor slots.
    pub queue_capacity: usize,
    /// Packets per cross-core handoff through both stages
    /// ([`SourceStage::with_batch_size`] / [`SinkStage::with_batch_size`]).
    /// The default, 1, is §2.2's one queue transaction per packet; 0
    /// means 1.
    pub burst: usize,
}

impl PipelineSpec {
    /// Per-packet handoff with the queue homed in `queue_domain` and the
    /// default 128-slot ring.
    pub fn new(queue_domain: MemDomain) -> Self {
        PipelineSpec { queue_domain, queue_capacity: 128, burst: 1 }
    }

    /// Override the ring capacity.
    pub fn with_capacity(mut self, slots: usize) -> Self {
        self.queue_capacity = slots;
        self
    }

    /// Hand off `burst` packets per queue transaction in both stages.
    pub fn with_burst(mut self, burst: usize) -> Self {
        self.burst = burst;
        self
    }
}

/// A pipeline's first two allocations: the NIC ring in `front_domain`,
/// then the handoff queue per `pipe`. The stages' graphs come next.
fn ring_and_queue(
    machine: &mut Machine,
    front_domain: MemDomain,
    pipe: &PipelineSpec,
    cost: CostModel,
) -> (Rc<RefCell<NicQueue>>, Rc<RefCell<SpscQueue>>) {
    let nic = nic_queue(machine, front_domain);
    let queue = SpscQueue::new(machine.allocator(pipe.queue_domain), pipe.queue_capacity, cost);
    (nic, Rc::new(RefCell::new(queue)))
}

/// The one pipeline wiring, over [`ring_and_queue`]'s pair and the two
/// halves' graphs: the sink returns completed packets' frame allocations
/// to the source's generator pool — closing the host-side carcass loop —
/// and the two stages share one loss ledger and one handoff burst.
fn wire_stages(
    label: &str,
    traffic: TrafficSpec,
    nic: Rc<RefCell<NicQueue>>,
    queue: &Rc<RefCell<SpscQueue>>,
    [front, back]: [ElementGraph; 2],
    burst: usize,
    cost: CostModel,
) -> (SourceStage, SinkStage) {
    let src = SourceStage::new(
        format!("{label}-front"),
        TrafficGen::new(traffic),
        nic.clone(),
        front,
        queue.clone(),
        cost,
    );
    let mut sink = SinkStage::new(format!("{label}-back"), queue.clone(), back, nic);
    sink.share_pool(src.pool_handle());
    sink.share_drops(src.drop_handle());
    (src.with_batch_size(burst), sink.with_batch_size(burst))
}

/// Build the same workload as a two-stage pipeline: stage 1 receives and
/// validates, stage 2 does the heavy processing and transmits. Returns
/// `(front, back, queue)`; bind `front` and `back` to different cores.
/// Queue placement, capacity, and handoff burst come from `pipe`.
pub fn build_pipeline(
    machine: &mut Machine,
    front_domain: MemDomain,
    back_domain: MemDomain,
    spec: &FlowSpec,
    pipe: &PipelineSpec,
) -> (SourceStage, SinkStage, Rc<RefCell<SpscQueue>>) {
    let cost = spec.cost;
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
    let (mut back, _) = build_graph(machine, back_domain, &nic, spec, true);
    if ip_family && back.len() > 1 {
        back.set_entry(1);
    }
    let back_churn = FrameworkChurn::new(machine.allocator(back_domain), &cost);
    let (src, sink) =
        wire_stages(spec.kind.name(), spec.traffic(), nic, &queue, [front, back], pipe.burst, cost);
    (src.with_churn(front_churn), sink.with_churn(back_churn), queue)
}

/// The §2.2 crafted two-phase synthetic workload: each packet triggers
/// `reads_per_phase` random reads into each of two structures that together
/// are "exactly double the size of an L3 cache". In the parallel
/// configuration one core does both phases (working set 2×L3: thrash); in
/// the pipeline configuration each phase runs on its own socket with its
/// structure local (each fits that socket's L3).
pub struct TwoPhaseParams {
    /// Reads into each phase's structure per packet (paper: >100 each).
    pub reads_per_phase: u32,
    /// Each structure's size (paper: one L3, 12 MB).
    pub phase_bytes: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for TwoPhaseParams {
    fn default() -> Self {
        TwoPhaseParams { reads_per_phase: 110, phase_bytes: 12 << 20, seed: 7 }
    }
}

impl TwoPhaseParams {
    /// One phase's element: 50 ops plus the phase's reads over its own
    /// structure, allocated in `domain`.
    fn phase(&self, machine: &mut Machine, domain: MemDomain, seed: u64, cost: CostModel) -> Synthetic {
        let params = SynParams {
            ops_per_packet: 50,
            reads_per_packet: self.reads_per_phase,
            working_set_bytes: self.phase_bytes,
            mlp: 4,
            seed,
        };
        Synthetic::new(machine.allocator(domain), params, cost)
    }
}

/// Parallel variant: both phases on one core, both structures in `domain`.
pub fn two_phase_parallel(
    machine: &mut Machine,
    domain: MemDomain,
    p: &TwoPhaseParams,
    cost: CostModel,
) -> FlowTask {
    let nic = nic_queue(machine, domain);
    let mut g = ElementGraph::new(cost);
    let a = g.add(Box::new(p.phase(machine, domain, p.seed, cost)));
    let b = g.add(Box::new(p.phase(machine, domain, p.seed ^ 1, cost)));
    let t = g.add(Box::new(ToDevice::new(nic.clone(), false)));
    g.chain(&[a, b, t]);
    FlowTask::new(
        "2phase-parallel",
        TrafficGen::new(TrafficSpec::random_dst(64, p.seed)),
        nic,
        g,
        cost,
    )
}

/// Pipeline variant: phase 1 on the front core (structure in
/// `front_domain`), phase 2 + transmit on the back core (structure in
/// `back_domain`). Put the cores on different sockets so each phase enjoys
/// a private L3.
pub fn two_phase_pipeline(
    machine: &mut Machine,
    front_domain: MemDomain,
    back_domain: MemDomain,
    p: &TwoPhaseParams,
    cost: CostModel,
    pipe: &PipelineSpec,
) -> (SourceStage, SinkStage, Rc<RefCell<SpscQueue>>) {
    let (nic, queue) = ring_and_queue(machine, front_domain, pipe, cost);
    let mut front = ElementGraph::new(cost);
    front.add(Box::new(p.phase(machine, front_domain, p.seed, cost)));
    let mut back = ElementGraph::new(cost);
    let b = back.add(Box::new(p.phase(machine, back_domain, p.seed ^ 1, cost)));
    let t = back.add(Box::new(ToDevice::new(nic.clone(), true)));
    back.chain(&[b, t]);
    let traffic = TrafficSpec::random_dst(64, p.seed);
    let (src, sink) = wire_stages("2phase", traffic, nic, &queue, [front, back], pipe.burst, cost);
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
        let spec = FlowSpec::small(kind, 11);
        let built = build_flow(&mut m, MemDomain(0), &spec);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(built.task));
        let meas = e.measure(1_000_000, 5_600_000); // 2 ms window
        meas.core(CoreId(0)).unwrap().metrics.pps
    }

    #[test]
    fn all_chains_forward_packets() {
        for kind in [ChainKind::Ip, ChainKind::Mon, ChainKind::Fw, ChainKind::Vpn] {
            let pps = run_flow(kind);
            assert!(pps > 10_000.0, "{} pps = {pps}", kind.name());
        }
    }

    #[test]
    fn re_chain_forwards_packets() {
        let pps = run_flow(ChainKind::Re);
        assert!(pps > 5_000.0, "RE pps = {pps}");
    }

    #[test]
    fn syn_chain_forwards_packets() {
        let pps = run_flow(ChainKind::Syn(SynParams::moderate(3)));
        assert!(pps > 10_000.0, "SYN pps = {pps}");
    }

    #[test]
    fn extension_chains_forward_packets() {
        for kind in [ChainKind::Dpi, ChainKind::Nat, ChainKind::Class] {
            let pps = run_flow(kind);
            assert!(pps > 5_000.0, "{} pps = {pps}", kind.name());
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

    #[test]
    fn control_handle_is_returned_when_requested() {
        let mut m = Machine::new(MachineConfig::westmere());
        let mut spec = FlowSpec::small(ChainKind::Fw, 5);
        spec.with_control = true;
        let built = build_flow(&mut m, MemDomain(0), &spec);
        assert!(built.control.is_some());
    }

    /// The two element factories agree on generator seeds: the IP chain
    /// written as config text with `SEED = structure_seed` is, charge for
    /// charge, the flow `build_flow` stands up.
    #[test]
    fn config_text_ip_flow_is_build_flow() {
        use pp_sim::engine::CoreTask;
        let spec = FlowSpec::small(ChainKind::Ip, 11);
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
            spec.n_prefixes, spec.structure_seed
        );
        let flow = build_config_flow(&mut m, MemDomain(0), "IP", &config, spec.traffic())
            .expect("valid config");
        let churn = FrameworkChurn::new(m.allocator(MemDomain(0)), &spec.cost);
        assert_eq!(after_2000_packets(m, flow.task.with_churn(churn)), want);
    }

    #[test]
    fn pipeline_variant_runs() {
        let mut m = Machine::new(MachineConfig::westmere());
        let spec = FlowSpec::small(ChainKind::Mon, 21);
        let pipe = PipelineSpec::new(MemDomain(0)).with_capacity(64);
        let (src, sink, q) = build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(src));
        e.set_task(CoreId(1), Box::new(sink));
        let meas = e.measure(1_000_000, 5_600_000);
        let pps = meas.core(CoreId(1)).unwrap().metrics.pps;
        assert!(pps > 10_000.0, "pipeline MON pps = {pps}");
        assert!(q.borrow().dequeued > 0);
    }

    #[test]
    fn burst_pipeline_runs_and_beats_burst_one() {
        let pps_at = |burst: usize| {
            let mut m = Machine::new(MachineConfig::westmere());
            let spec = FlowSpec::small(ChainKind::Mon, 21);
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
        let burst = pps_at(32);
        assert!(
            burst > burst1 * 1.02,
            "burst-32 handoff should lift MON pipeline throughput: {burst1:.0} -> {burst:.0}"
        );
    }

    #[test]
    fn pipeline_queue_lands_in_requested_domain() {
        let mut m = Machine::new(MachineConfig::westmere());
        let spec = FlowSpec::small(ChainKind::Ip, 5);
        let before = m.allocator(MemDomain(1)).used();
        let pipe = PipelineSpec::new(MemDomain(1)).with_capacity(256);
        let _ = build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
        let grew = m.allocator(MemDomain(1)).used() - before;
        // 256 slots * 16 B packed + head and tail lines.
        assert_eq!(grew, 256 * 16 + 2 * 64, "only the queue lives in domain 1");
    }

    #[test]
    fn data_lands_in_requested_domain() {
        let mut m = Machine::new(MachineConfig::westmere());
        let before = m.allocator(MemDomain(1)).used();
        let spec = FlowSpec::small(ChainKind::Mon, 9);
        let _ = build_flow(&mut m, MemDomain(1), &spec);
        let after = m.allocator(MemDomain(1)).used();
        assert!(
            after - before > 1 << 20,
            "MON structures should be several MB in domain 1"
        );
        assert_eq!(m.allocator(MemDomain(0)).used(), 64, "domain 0 untouched");
    }
}
