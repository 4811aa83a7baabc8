//! # pp-sim — a deterministic multicore platform simulator
//!
//! This crate is the hardware substrate for the reproduction of *Toward
//! Predictable Performance in Software Packet-Processing Platforms*
//! (Dobrescu et al., NSDI 2012). It models the paper's platform — two
//! sockets of six 2.8 GHz cores, private L1/L2 caches, a shared inclusive
//! L3 per socket, one memory controller per socket, and a QPI interconnect —
//! as a deterministic discrete-event simulation.
//!
//! The design goal is that the paper's phenomena **emerge** from first
//! principles rather than being curve-fit:
//!
//! * hit→miss conversion under cache contention comes from true-LRU sharing
//!   in [`cache::Cache`];
//! * memory-controller contention comes from busy-until queueing in
//!   [`memctrl::MemCtrl`];
//! * NUMA placement effects come from address-domain routing in
//!   [`machine::Machine`] and the [`interconnect::Interconnect`] model.
//!
//! Application code executes *for real* (on host data structures) and pays
//! *simulated* time: every data-structure access goes through an
//! [`ctx::ExecCtx`], which routes it through the cache hierarchy and
//! advances the issuing core's clock. Typed views ([`arena::SimVec`],
//! [`arena::SimRing`]) keep host data and simulated addresses in lockstep.
//!
//! ## Quick tour
//!
//! ```
//! use pp_sim::prelude::*;
//!
//! // Build the paper's platform.
//! let mut machine = Machine::new(MachineConfig::westmere());
//!
//! // Allocate a 1 MiB table in socket 0's memory domain.
//! let table = machine.allocator(MemDomain(0)).alloc_lines(1 << 20);
//!
//! // Issue some accesses from core 0 and read the counters.
//! let mut ctx = machine.ctx(CoreId(0));
//! ctx.read(table);             // cold: goes to DRAM
//! ctx.read(table);             // hot: L1 hit
//! let counts = machine.core(CoreId(0)).counters.total();
//! assert_eq!(counts.l3_misses, 1);
//! assert_eq!(counts.l1_hits, 1);
//! ```
//!
//! Measurement runs attach [`engine::CoreTask`]s (packet-processing flows)
//! to cores and use [`engine::Engine::measure`] for warmup+window counter
//! collection, the simulator's equivalent of the paper's OProfile runs.
//!
//! ## The simulator's own hot path (PR 3)
//!
//! The charging pipeline itself is engineered for wall-clock speed with
//! bit-for-bit identical simulation results, because simulator throughput
//! caps how many packets/cores/sweep points every experiment can afford:
//!
//! * [`cache::Cache`] stores way metadata structure-of-arrays so a lookup
//!   scans one compact tag array instead of an array of `Line` structs;
//! * [`ctx::ExecCtx::read`]/[`write`](ctx::ExecCtx::write) commit L1 hits
//!   (the overwhelming majority of accesses) through the inlined
//!   `Machine::l1_hit_fast` without entering the full hierarchy walk — the
//!   invariants that make the shortcut sound are documented on that
//!   method;
//! * function-tag attribution uses interned [`counters::TagId`] handles
//!   (resolved once at element construction) and a pending-accumulator
//!   [`counters::CoreCounters`] that flushes once per scope boundary.
//!
//! The PR-2-era implementations live on in [`mod@reference`] as executable
//! specifications; property tests drive old and new through identical
//! operation traces and require identical hits, misses, evictions,
//! presence masks, counters, and clocks. The repo's benchmark
//! (`benchmark/`, `BENCHMARK.json`) tracks the resulting simulated packets
//! per host second.
//!
//! PR 5 added empty-cache shortcuts on every read-only probe, a fused
//! single-scan DMA delivery, and an 8+8 split-scan for 16-way sets — all
//! proven bit-identical by the same reference harness. (Its level-synchronous
//! *lockstep* charging engine for `read_batch` was proven identical,
//! measured at parity to 25 % slower than the serial walk, and deleted;
//! ARCHITECTURE.md keeps the finding.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod counters;
pub mod ctx;
pub mod engine;
pub mod fault;
pub mod interconnect;
pub mod latency;
pub mod machine;
pub mod memctrl;
pub mod nic;
pub mod prefetch;
pub mod reference;
pub mod types;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::arena::{DomainAllocator, SimRing, SimVec};
    pub use crate::cache::{Cache, CacheStats, LookupResult};
    pub use crate::cluster::{Cluster, MachineId, TelemetryChannel};
    pub use crate::config::{CacheGeom, MachineConfig};
    pub use crate::counters::{CounterSnapshot, Counts, DerivedMetrics, TagId};
    pub use crate::ctx::ExecCtx;
    pub use crate::engine::{CoreMeasurement, CoreTask, Engine, Measurement, TurnResult};
    pub use crate::fault::{
        DropStats, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultTransition,
        TaskControls,
    };
    pub use crate::interconnect::Interconnect;
    pub use crate::latency::LatencyHistogram;
    pub use crate::machine::{CoreState, Machine};
    pub use crate::memctrl::{MemCtrl, MemCtrlStats};
    pub use crate::nic::NicQueue;
    pub use crate::types::{
        domain_of, line_of, lines_covered, AccessKind, Addr, CoreId, Cycles, MemDomain,
        SocketId, CACHE_LINE,
    };
}
