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
//! [`ElementGraph::run_batch_into`] hands each element a whole vector of
//! packets through [`Element::process_batch`], which states the one-packet
//! rule once for every element: an empty vector does nothing, a one-packet
//! vector is [`Element::process`] — that vector is the paper's per-packet
//! platform, and a `read_batch` of one address is *not* a `read` (its stall
//! is divided by the MLP) — and only a vector of two or more packets
//! reaches [`Element::process_vector`]. Its default loops over `process`;
//! hot elements override it to hoist per-packet setup out of the loop and
//! to overlap independent memory accesses across packets
//! ([`ExecCtx::read_batch`] — the software analogue of the lookahead
//! prefetching that batched dataplanes like VPP use).
//!
//! [`ElementGraph`]: crate::graph::ElementGraph
//! [`ElementGraph::run_batch_into`]: crate::graph::ElementGraph::run_batch_into

use pp_net::packet::Packet;
use pp_sim::ctx::ExecCtx;
use pp_sim::types::Addr;

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
    /// packet order) onto `actions`. Not overridden: it is the one-packet
    /// rule of the module docs.
    fn process_batch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        match pkts {
            [] => {}
            [pkt] => actions.push(self.process(ctx, pkt)),
            _ => self.process_vector(ctx, pkts, actions),
        }
    }

    /// Process a vector of at least two packets, pushing one [`Action`] per
    /// packet (in packet order) onto `actions`. The default loops over
    /// [`process`](Self::process).
    fn process_vector(
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

/// The address `at(pkt)` bytes into each packet that has a simulated
/// buffer, in packet order: the header-line loads a vector overlaps.
pub(crate) fn header_addrs<'a>(
    pkts: &'a [Packet],
    at: impl Fn(&Packet) -> u64 + 'a,
) -> impl Iterator<Item = Addr> + 'a {
    pkts.iter()
        .filter(|p| p.buf_addr != 0)
        .map(move |p| p.buf_addr + at(p))
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

#[cfg(test)]
mod tests {
    use super::test_util::{machine, packet};
    use super::*;
    use crate::cost::CostModel;
    use crate::graph::{BatchOutcome, ElementGraph};
    use pp_sim::types::CoreId;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Counts how the dispatch reaches it: `process` and `process_vector`
    /// calls.
    #[derive(Clone, Default)]
    struct Calls {
        scalar: Rc<Cell<u64>>,
        vectors: Rc<Cell<u64>>,
    }

    impl Element for Calls {
        fn class_name(&self) -> &'static str {
            "Calls"
        }
        fn tag(&self) -> &'static str {
            "calls"
        }
        fn process(&mut self, ctx: &mut ExecCtx<'_>, _pkt: &mut Packet) -> Action {
            self.scalar.set(self.scalar.get() + 1);
            ctx.compute(5, 5);
            Action::Out(0)
        }
        fn process_vector(
            &mut self,
            ctx: &mut ExecCtx<'_>,
            pkts: &mut [Packet],
            actions: &mut Vec<Action>,
        ) {
            assert!(pkts.len() >= 2, "process_vector got {} packets", pkts.len());
            self.vectors.set(self.vectors.get() + 1);
            ctx.compute(5, 5);
            actions.extend(pkts.iter().map(|_| Action::Out(0)));
        }
    }

    #[test]
    fn the_graph_sends_only_two_or_more_packets_to_process_vector() {
        for (n, scalar, vectors) in [(1, 1, 0), (2, 0, 1), (64, 0, 1)] {
            let calls = Calls::default();
            let mut g = ElementGraph::new(CostModel::default());
            let e = g.add(Box::new(calls.clone()));
            g.set_entry(e);
            let mut m = machine();
            let mut ctx = m.ctx(CoreId(0));
            let mut pkts = vec![packet(); n];
            let mut out = BatchOutcome::default();
            g.run_batch_into(&mut ctx, &mut pkts, &mut out);
            assert_eq!(out.returned.len(), n, "vector of {n}");
            assert_eq!(
                (calls.scalar.get(), calls.vectors.get()),
                (scalar, vectors),
                "vector of {n}"
            );
        }
    }

    #[test]
    fn process_batch_does_nothing_on_empty_and_process_on_one() {
        let mut calls = Calls::default();
        let mut m = machine();
        let mut actions = Vec::new();
        let before = {
            let mut ctx = m.ctx(CoreId(0));
            let now = ctx.now();
            calls.process_batch(&mut ctx, &mut [], &mut actions);
            now
        };
        let core = m.core(CoreId(0));
        assert!(actions.is_empty(), "an empty vector emits no action");
        assert_eq!(core.clock, before, "an empty vector charges nothing");
        assert_eq!(core.counters.snapshot().total, Default::default());

        let mut ctx = m.ctx(CoreId(0));
        calls.process_batch(&mut ctx, &mut [packet()], &mut actions);
        assert_eq!(actions, [Action::Out(0)]);
        assert_eq!((calls.scalar.get(), calls.vectors.get()), (1, 0));
        assert!(
            ctx.now() > before,
            "the one packet is charged as by process"
        );
    }
}
