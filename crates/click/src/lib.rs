//! # pp-click — a Click-style packet-processing framework on the simulator
//!
//! Elements ([`element::Element`]) are wired into graphs
//! ([`graph::ElementGraph`]) and bound to simulated cores as flows
//! ([`flow::FlowTask`]), reproducing the software configuration of
//! *Toward Predictable Performance in Software Packet-Processing Platforms*
//! (Dobrescu et al., NSDI 2012): SMP-Click in the *parallel* (one flow per
//! core, run-to-completion) configuration, with the §2.2 *pipeline*
//! configuration also available for the pipeline-vs-parallel experiment.
//!
//! The element library implements the paper's workloads for real — the trie
//! routes, NetFlow counts, the firewall filters, RE fingerprints and
//! deduplicates, AES encrypts — while every data-structure access is charged
//! to the simulated memory hierarchy of `pp-sim`.
//!
//! Use [`pipelines::build_flow`] for ready-made paper workloads, or compose
//! custom graphs from [`elements`].
//!
//! ## Vector execution
//!
//! The datapath is written for packet vectors
//! ([`flow::FlowTask::with_batch_size`]): one engine turn receives a vector
//! from the NIC (`rx_batch`), pushes it through the graph with
//! [`graph::ElementGraph::run_batch_into`], and transmits/recycles it in one
//! amortized NIC transaction. The default vector holds **one** packet —
//! the paper's packet-at-a-time platform, every charge paid once per packet
//! — and there is no second, per-packet implementation beside it. The
//! cost-model contract, one-packet vectors on the left:
//!
//! | charge | batch 1 (the paper's platform) | batch n |
//! |---|---|---|
//! | element dispatch (`element_hop`) + tag scope | per element **per packet** | per element **per batch** |
//! | source/driver overhead | `per_packet_overhead` per packet | `batch_fixed_overhead` per batch + `batch_per_packet_overhead` per packet (the two sum to `per_packet_overhead`) |
//! | [`flow::FrameworkChurn`] (I-cache/metadata footprint) | per packet | per batch |
//! | NIC descriptor ring | read+write per packet | read+write per descriptor *cache line* (4 descriptors/line) |
//! | NIC buffer free list | read+write per packet | read+write per batch |
//! | application work (lookups, scans, crypto, payload) | per packet | per packet (unchanged) |
//!
//! Hot elements (`CheckIPHeader`, `DecIPTTL`, `RadixIPLookup`, `Firewall`,
//! `TupleSpaceClassifier`, `ToDevice`) override
//! [`element::Element::process_vector`] to hoist per-packet setup and issue
//! independent per-packet loads overlapped (`ExecCtx::read_batch` with
//! [`element::BATCH_MLP`] lookahead — software prefetching across lanes);
//! every other element runs unchanged through the default per-packet loop.
//! A one-packet vector never reaches `process_vector`:
//! [`element::Element::process_batch`] sends it to `process`.
//! Batch-size sweeps (`repro batch`) are anchored to the paper's numbers at
//! batch 1, pinned by output digests.
//!
//! ## Burst handoff in the pipeline configuration
//!
//! The §2.2 pipeline ([`flow::SourceStage`] → [`elements::queue::SpscQueue`]
//! → [`flow::SinkStage`]) has the same vector treatment
//! ([`pipelines::PipelineSpec::with_burst`]), with its own cost split:
//!
//! | charge | burst 1 (§2.2's handoff) | burst n |
//! |---|---|---|
//! | `queue_op` compute | per packet | per burst |
//! | head/tail control-line ping-pong | per packet | per burst |
//! | queue descriptor slot lines | one line per packet | one line per 4 packets (16-B slots packed as on a NIC ring) |
//! | packet header pull (sink side) | per packet | per packet (unchanged) |
//! | cross-core free-list recycle | per packet | per burst (`tx_shared_batch`) |
//! | [`flow::FrameworkChurn`] per stage | per packet | per burst |
//!
//! All queue charges carry the `handoff` function tag
//! ([`elements::queue::HANDOFF_TAG`]), so experiments read the cross-core
//! handoff cost directly. The consumer's idle spin uses [`elements::queue::SpscQueue::poll`]
//! (one head-line read, no `queue_op`). Both stages stamp/record per-packet
//! ingress→egress simulated cycles into a
//! [`LatencyHistogram`](pp_sim::latency::LatencyHistogram), making the
//! batching-vs-latency trade-off measurable (`repro pipeline-batch`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod element;
pub mod elements;
pub mod flow;
pub mod graph;
pub mod pipelines;

/// Glob-import of the commonly used names.
pub mod prelude {
    pub use crate::config::{build_config, parse_config, BuildCtx, BuiltConfig, ConfigError};
    pub use crate::cost::CostModel;
    pub use crate::element::{Action, Element, BATCH_MLP};
    pub use crate::elements::aes::Aes128;
    pub use crate::elements::basic::{CheckIpHeader, Counter, DecIpTtl, Discard, ToDevice};
    pub use crate::elements::classifier::{TupleSpaceClassifier, Verdict};
    pub use crate::elements::control::{Control, ControlHandle};
    pub use crate::elements::dpi::{AhoCorasick, Dpi, DpiMode};
    pub use crate::elements::firewall::Firewall;
    pub use crate::elements::lpm::{Dir248IpLookup, Dir248Table};
    pub use crate::elements::nat::{Nat, NatConfig};
    pub use crate::elements::netflow::NetFlow;
    pub use crate::elements::queue::{SpscQueue, HANDOFF_TAG, SLOTS_PER_LINE};
    pub use crate::elements::radix::{
        BinaryRadixTrie, IpLookup, LpmTable, MultibitIpLookup, MultibitTrie, RadixIpLookup,
    };
    pub use crate::elements::re::{ReConfig, RedundancyElim, RollingHash};
    pub use crate::elements::synthetic::{SynParams, Synthetic};
    pub use crate::elements::vpn::VpnEncrypt;
    pub use crate::flow::{FlowTask, SinkStage, SourceStage};
    pub use crate::graph::{BatchOutcome, ElementGraph, ElementId};
    pub use crate::pipelines::{
        build_config_flow, build_flow, build_pipeline, two_phase_parallel, two_phase_pipeline,
        BuiltFlow, ChainKind, ConfigFlow, FlowSpec, PipelineSpec, Scale,
    };
}
