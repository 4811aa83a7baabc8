//! The element abstraction — the Click programming model.
//!
//! An element receives a packet, does its processing (charging simulated
//! compute and memory), and emits the packet on an output port, drops it,
//! or consumes it (sinks that take ownership of the NIC buffer, like
//! `ToDevice`). Elements are wired into an [`ElementGraph`] and executed on
//! one core; the framework wraps each invocation in the element's function
//! tag so per-function counters work as in the paper's Fig. 7.
//!
//! ## Batched ("vector") execution
//!
//! [`Element::process_batch`] receives a whole vector of packets at once.
//! The default implementation loops over [`Element::process`], so every
//! element works under [`ElementGraph::run_batch_into`] unchanged; hot elements
//! override it to hoist per-packet setup out of the loop and to overlap
//! independent memory accesses across packets
//! ([`ExecCtx::read_batch`] — the software analogue of the lookahead
//! prefetching that batched dataplanes like VPP use). Overrides must charge
//! a one-packet vector exactly as [`Element::process`] does — that vector
//! is the paper's per-packet platform, and a `read_batch` of one address
//! is *not* a `read` (its stall is divided by the MLP) — so the convention
//! is to fall back to the default loop when `pkts.len() == 1`.
//!
//! [`ElementGraph`]: crate::graph::ElementGraph
//! [`ElementGraph::run_batch_into`]: crate::graph::ElementGraph::run_batch_into

use pp_net::packet::Packet;
use pp_sim::ctx::ExecCtx;

/// Memory-level parallelism assumed by batched element overrides when they
/// overlap independent per-packet loads with
/// [`ExecCtx::read_batch`] — the software-lookahead degree. Clamped by the
/// machine's `max_mlp`.
pub const BATCH_MLP: u32 = 4;

/// What an element did with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Emit on output port `n` (follow the graph edge).
    Out(u8),
    /// Discard: processing ends; the flow recycles the NIC buffer.
    Drop,
    /// The element took ownership of the packet and its buffer
    /// (e.g., `ToDevice` transmitted and recycled it).
    Consumed,
}

/// One packet-processing element. See the module docs.
pub trait Element {
    /// The element class name (as would appear in a Click config).
    fn class_name(&self) -> &'static str;

    /// Function tag under which this element's work is counted
    /// (the paper's Fig. 7 profile names: `radix_ip_lookup`,
    /// `flow_statistics`, `check_ip_header`, ...).
    fn tag(&self) -> &'static str;

    /// Process one packet.
    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action;

    /// Process a vector of packets, pushing one [`Action`] per packet (in
    /// packet order) onto `actions`. See the module docs; the default
    /// simply loops over [`process`](Self::process).
    fn process_batch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        for pkt in pkts.iter_mut() {
            actions.push(self.process(ctx, pkt));
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared helpers for element unit tests.

    use pp_net::packet::{Packet, PacketBuilder};
    use pp_sim::config::MachineConfig;
    use pp_sim::machine::Machine;
    use std::net::Ipv4Addr;

    /// A Westmere machine for element tests.
    pub fn machine() -> Machine {
        Machine::new(MachineConfig::westmere())
    }

    /// A valid 64-byte UDP packet.
    pub fn packet() -> Packet {
        PacketBuilder::default().udp(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(93, 184, 216, 34),
            40_000,
            53,
            &[0xAB; 10],
        )
    }

    /// A valid UDP packet with an exact payload.
    pub fn packet_with_payload(payload: &[u8]) -> Packet {
        PacketBuilder::default().udp(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(93, 184, 216, 34),
            40_000,
            53,
            payload,
        )
    }
}
