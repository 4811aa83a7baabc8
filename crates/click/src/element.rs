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

    use super::Element;
    use crate::cost::CostModel;
    use pp_net::gen::prefixes::{generate_bgp_table, PrefixEntry};
    use pp_net::packet::{Packet, PacketBuilder};
    use pp_sim::arena::DomainAllocator;
    use pp_sim::config::MachineConfig;
    use pp_sim::counters::Counts;
    use pp_sim::machine::Machine;
    use pp_sim::types::{CoreId, Cycles, MemDomain};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
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

    /// A BGP-shaped table with extra /25–/32 prefixes layered under its
    /// /24s, so DIR-24-8's spill stage is exercised.
    pub fn bgp_with_long(n: usize, seed: u64) -> Vec<PrefixEntry> {
        let mut t = generate_bgp_table(n, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD128);
        let slashes24: Vec<u32> =
            t.iter().filter(|e| e.len == 24).map(|e| e.addr).take(64).collect();
        for (i, &base) in slashes24.iter().enumerate() {
            let len = 25 + (i % 8) as u8;
            let shift = 32 - len as u32;
            // Random low byte under the /24, canonicalized to `len` bits.
            let addr = ((base | (rng.random::<u32>() & 0xFF)) >> shift) << shift;
            t.push(PrefixEntry { addr, len, next_hop: rng.random_range(0..64) });
        }
        t
    }

    /// The LPM-element pin: build an element with `new` over
    /// `bgp_with_long(2000, 11)` (less 240/4's cover) on a fresh machine and push a fixed
    /// 256-packet stream through `process_batch` in vectors of `vector`.
    /// The stream has NIC-buffer addresses (so the header touch is
    /// charged), seeded random destinations with every eighth inside a /24
    /// that holds a longer prefix, and two frames that do not parse as
    /// IPv4. Returns the element, core 0's total `Counts` and its clock.
    pub fn lpm_pin_run<E: Element>(
        new: fn(&mut DomainAllocator, &[PrefixEntry], CostModel) -> E,
        vector: usize,
    ) -> (E, Counts, Cycles) {
        let mut table = bgp_with_long(2000, 11);
        // Un-route 240/4's covering /8s so some destinations have no route.
        table.retain(|e| !(e.len == 8 && e.addr >> 28 == 0xF));
        let long: Vec<u32> = table.iter().filter(|e| e.len > 24).map(|e| e.addr).collect();
        let mut m = machine();
        let mut el = new(m.allocator(MemDomain(0)), &table, CostModel::default());
        let bufs = m.allocator(MemDomain(0)).alloc_lines(256 * 2048);
        let mut rng = SmallRng::seed_from_u64(0x91);
        let mut pkts: Vec<Packet> = (0..256u64)
            .map(|i| {
                let dst = if i % 8 == 7 {
                    (long[(i / 8) as usize % long.len()] & !0xFF) | (rng.random::<u32>() & 0xFF)
                } else {
                    rng.random()
                };
                let mut p = PacketBuilder::default().udp(
                    Ipv4Addr::new(10, 1, 2, 3),
                    Ipv4Addr::from(dst),
                    40_000,
                    53,
                    &[0xAB; 10],
                );
                p.buf_addr = bufs + i * 2048;
                if i == 100 || i == 200 {
                    p.data[14] = 0x65; // IP version 6: `ipv4()` fails
                }
                p
            })
            .collect();
        let mut actions = Vec::new();
        {
            let mut ctx = m.ctx(CoreId(0));
            for chunk in pkts.chunks_mut(vector) {
                el.process_batch(&mut ctx, chunk, &mut actions);
            }
        }
        assert_eq!(actions.len(), 256);
        let core = m.core(CoreId(0));
        (el, core.counters.total(), core.clock)
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
