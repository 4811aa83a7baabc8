//! NetFlow-style per-flow statistics (the paper's MON add-on): hash the
//! 5-tuple, index an open-addressed flow table, update a packet count and a
//! timestamp — "a representative form of memory-intensive packet processing
//! that benefits significantly from the L3 cache".
//!
//! The table is the paper's flat open-addressed array: one 64-byte
//! simulated slot (one cache line) per flow, linear probing. At paper scale
//! `FlowSpec` builds 2^18 slots × 64 B = 16 MB of simulated table for the
//! population of 100 000 concurrent flows accounted in both directions —
//! 200 000 entries, load factor ≈ 0.76, short linear probes. Every pinned
//! repro digest sits on this layout. The host keeps a 32-byte `FlowRecord`
//! per slot, holding only the fields the element reads, so the host table
//! is 8 MB; every charge still covers the whole 64-byte slot.

use crate::cost::CostModel;
use crate::element::{Action, Element};
use pp_net::fivetuple::FlowKey;
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimVec};
use pp_sim::ctx::ExecCtx;

/// Simulated bytes per flow slot: one cache line, the size of the paper's
/// one-line NetFlow v5 record with its full set of counters, timestamps and
/// routing fields. Every probe, update and insert charges this span.
const FLOW_SLOT_BYTES: u64 = 64;

/// The host half of one flow slot: the fields the element reads. 32 bytes,
/// so host records never straddle a host cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
struct FlowRecord {
    src: u32,
    dst: u32,
    /// src_port << 16 | dst_port.
    ports: u32,
    /// protocol in the low byte; bit 31 = occupied.
    proto_flags: u32,
    packets: u32,
    bytes: u32,
    last_seen: u64,
}

const OCCUPIED: u32 = 1 << 31;
/// Probes before giving up and overwriting the first candidate.
const MAX_PROBES: usize = 8;

impl FlowRecord {
    fn matches(&self, key: &FlowKey) -> bool {
        self.proto_flags & OCCUPIED != 0
            && self.src == u32::from(key.src)
            && self.dst == u32::from(key.dst)
            && self.ports == ((key.src_port as u32) << 16 | key.dst_port as u32)
            && (self.proto_flags & 0xFF) as u8 == key.protocol
    }

    fn occupied(&self) -> bool {
        self.proto_flags & OCCUPIED != 0
    }

    /// A fresh record for `key`'s first packet of `len` bytes at `now`.
    fn new_for(key: &FlowKey, len: u32, now: u64) -> FlowRecord {
        FlowRecord {
            src: u32::from(key.src),
            dst: u32::from(key.dst),
            ports: (key.src_port as u32) << 16 | key.dst_port as u32,
            proto_flags: OCCUPIED | key.protocol as u32,
            packets: 1,
            bytes: len,
            last_seen: now,
        }
    }
}

/// The NetFlow element. See the module docs.
pub struct NetFlow {
    table: SimVec<FlowRecord>,
    mask: usize,
    cost: CostModel,
    /// Account the reverse direction too (a monitor tracking both
    /// directions of each conversation, as deployed collectors do).
    pub bidirectional: bool,
    /// Packets that updated an existing entry.
    pub updated: u64,
    /// Packets that created a new entry.
    pub inserted: u64,
    /// Entries overwritten because a probe sequence was exhausted.
    pub evicted: u64,
    /// Total probe reads performed.
    pub probes: u64,
}

impl NetFlow {
    /// A table with `2^log2_capacity` slots in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, log2_capacity: u32, cost: CostModel) -> Self {
        let cap = 1usize << log2_capacity;
        NetFlow {
            table: SimVec::with_slot(alloc, cap, FlowRecord::default(), FLOW_SLOT_BYTES),
            mask: cap - 1,
            cost,
            bidirectional: true,
            updated: 0,
            inserted: 0,
            evicted: 0,
            probes: 0,
        }
    }

    /// Slots in the table.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Entries currently occupied (host-side; diagnostics).
    pub fn occupancy(&self) -> usize {
        (0..=self.mask).filter(|&i| self.table.peek(i).occupied()).count()
    }

    /// Simulated footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.table.footprint()
    }

    /// Host-side read of a flow's record (tests/diagnostics).
    fn host_record(&self, key: &FlowKey) -> Option<FlowRecord> {
        let h = key.hash() as usize;
        for p in 0..MAX_PROBES {
            let rec = self.table.peek((h + p) & self.mask);
            if rec.matches(key) {
                return Some(*rec);
            }
            if !rec.occupied() {
                return None;
            }
        }
        None
    }

    /// Host-side read of a flow's packet count (tests).
    pub fn packet_count(&self, key: &FlowKey) -> Option<u32> {
        self.host_record(key).map(|r| r.packets)
    }

    /// Simulated address of slot `i` (layout pins).
    #[cfg(test)]
    pub(crate) fn slot_addr(&self, i: usize) -> pp_sim::types::Addr {
        self.table.addr_of(i)
    }
}

impl Element for NetFlow {
    fn class_name(&self) -> &'static str {
        "NetFlow"
    }

    fn tag(&self) -> &'static str {
        "flow_statistics"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        // Touch the header line for the 5-tuple (L1 hit in steady state).
        if pkt.buf_addr != 0 {
            ctx.read(pkt.buf_addr + pkt.l3_offset() as u64);
        }
        let Ok(key) = pkt.flow_key() else { return Action::Drop };
        let len = pkt.len() as u32;
        self.account(ctx, &key, len);
        if self.bidirectional {
            let rev = FlowKey {
                src: key.dst,
                dst: key.src,
                protocol: key.protocol,
                src_port: key.dst_port,
                dst_port: key.src_port,
            };
            self.account(ctx, &rev, len);
        }
        Action::Out(0)
    }
}

impl NetFlow {
    /// One direction's table operation: hash, probe, update-or-insert.
    fn account(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey, len: u32) {
        CostModel::charge(ctx, self.cost.netflow_hash);
        let h = key.hash() as usize;
        let now = ctx.now();

        for p in 0..MAX_PROBES {
            let idx = (h + p) & self.mask;
            self.probes += 1;
            let rec = self.table.read(ctx, idx);
            if rec.matches(key) {
                self.table.update(ctx, idx, |r| {
                    r.packets += 1;
                    r.bytes = r.bytes.wrapping_add(len);
                    r.last_seen = now;
                });
                CostModel::charge(ctx, self.cost.netflow_update);
                self.updated += 1;
                return;
            }
            if !rec.occupied() {
                self.table.write(ctx, idx, FlowRecord::new_for(key, len, now));
                CostModel::charge(ctx, self.cost.netflow_update);
                self.inserted += 1;
                return;
            }
        }
        // Probe budget exhausted: evict the home slot (bounded work per
        // packet keeps the element's cost predictable, as the paper's
        // fixed-population setup does by construction).
        self.table.write(ctx, h & self.mask, FlowRecord::new_for(key, len, now));
        CostModel::charge(ctx, self.cost.netflow_update);
        self.evicted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
    use pp_sim::types::{CoreId, MemDomain};

    fn netflow(log2: u32) -> (pp_sim::machine::Machine, NetFlow) {
        let mut m = machine();
        let nf = NetFlow::new(m.allocator(MemDomain(0)), log2, CostModel::default());
        (m, nf)
    }

    #[test]
    fn same_flow_updates_one_entry() {
        let (mut m, mut nf) = netflow(10);
        nf.bidirectional = false;
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        for _ in 0..5 {
            assert_eq!(nf.process(&mut ctx, &mut pkt), Action::Out(0));
        }
        assert_eq!(nf.inserted, 1);
        assert_eq!(nf.updated, 4);
        let key = pkt.flow_key().unwrap();
        assert_eq!(nf.packet_count(&key), Some(5));
        assert_eq!(nf.occupancy(), 1);
    }

    #[test]
    fn bidirectional_accounts_both_directions() {
        let (mut m, mut nf) = netflow(10);
        assert!(nf.bidirectional);
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        nf.process(&mut ctx, &mut pkt);
        // Forward and reverse entries both exist.
        assert_eq!(nf.occupancy(), 2);
        let key = pkt.flow_key().unwrap();
        let rev = pp_net::fivetuple::FlowKey {
            src: key.dst,
            dst: key.src,
            protocol: key.protocol,
            src_port: key.dst_port,
            dst_port: key.src_port,
        };
        assert_eq!(nf.packet_count(&key), Some(1));
        assert_eq!(nf.packet_count(&rev), Some(1));
    }

    #[test]
    fn population_fills_table_to_expected_size() {
        let (mut m, mut nf) = netflow(12); // 4096 slots
        nf.bidirectional = false;
        let mut g = TrafficGen::new(TrafficSpec::flow_population(64, 1000, 3));
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..10_000 {
            let mut p = g.next_packet();
            nf.process(&mut ctx, &mut p);
        }
        let occ = nf.occupancy();
        assert!(occ <= 1000, "at most the population size, got {occ}");
        assert!(occ > 900, "most of the population must be present, got {occ}");
        assert_eq!(nf.evicted, 0, "a 25%-loaded table should not evict");
    }

    #[test]
    fn timestamps_and_bytes_tracked() {
        let (mut m, mut nf) = netflow(10);
        {
            let mut ctx = m.ctx(CoreId(0));
            ctx.compute(500, 1);
            let mut pkt = packet();
            nf.process(&mut ctx, &mut pkt);
        }
        let key = packet().flow_key().unwrap();
        let rec = nf.host_record(&key).expect("record exists");
        assert!(rec.last_seen >= 500);
        assert_eq!(rec.bytes as usize, packet().len());
    }

    #[test]
    fn probe_exhaustion_evicts_bounded() {
        // A 1-slot table forces every distinct flow to evict.
        let (mut m, mut nf) = netflow(0);
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, 8));
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..50 {
            let mut p = g.next_packet();
            assert_eq!(nf.process(&mut ctx, &mut p), Action::Out(0));
        }
        assert!(nf.evicted > 0 || nf.inserted <= 2);
        assert_eq!(nf.occupancy(), 1);
        // The evict arm is never reached at sweep load, so no workload
        // digest sees it: pin its exact charges here.
        let clock = ctx.now();
        assert_eq!((nf.inserted, nf.updated, nf.evicted, nf.probes), (1, 0, 99, 793));
        assert_eq!(clock, 10_428, "core clock after 50 packets through a 1-slot table");
        assert_eq!(
            m.core(CoreId(0)).counters.total(),
            pp_sim::counters::Counts {
                instructions: 6893,
                compute_cycles: 7000,
                stall_cycles: 3428,
                l1_refs: 893,
                l1_hits: 892,
                l2_refs: 1,
                l2_hits: 0,
                l3_refs: 1,
                l3_hits: 0,
                l3_misses: 1,
                remote_accesses: 0,
                packets: 0,
            }
        );
    }

    #[test]
    fn footprint_matches_paper_scale() {
        let (_m, nf) = netflow(17);
        assert_eq!(std::mem::size_of::<FlowRecord>(), 32, "two host records per host line");
        assert_eq!(nf.table.stride(), 64, "one simulated slot per cache line");
        assert_eq!(nf.footprint(), (1 << 17) * 64);
    }
}
