//! NetFlow-style per-flow statistics (the paper's MON add-on): hash the
//! 5-tuple, index an open-addressed flow table, update a packet count and a
//! timestamp — "a representative form of memory-intensive packet processing
//! that benefits significantly from the L3 cache".
//!
//! The table is sized 2^17 entries × 32 B = 4 MB for the paper's population
//! of 100 000 concurrent flows (load factor ≈ 0.76, short linear probes).
//!
//! ## Storage layouts (PR 10)
//!
//! The default layout is the paper's **flat** open-addressed array (one
//! 64-byte record per slot, linear probing) — this path is byte-for-byte
//! unchanged and anchors the pinned repro digests. [`NetFlow::new_bucketed`]
//! opts into the cache-conscious [`FlowTable`] layout instead: 8-entry
//! buckets whose 64-byte header line holds one tag byte per slot, so a probe
//! screens eight candidates with one dependent read and only touches record
//! lines whose tag matches. At Internet scale (1M+ flows, table larger than
//! L3) that turns a multi-line probe chain into header line + one record
//! line. Bucketed mode also enables a batched probe phase
//! ([`Element::process_batch`]): the home-bucket header lines of the whole
//! packet vector are gathered with [`ExecCtx::read_batch`] lookahead before
//! the per-packet update walk.

use crate::cost::CostModel;
use crate::element::{Action, Element, BATCH_MLP};
use pp_net::fivetuple::FlowKey;
use pp_net::flowtab::{FlowTable, Probe, Touch};
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimVec};
use pp_sim::ctx::ExecCtx;
use pp_sim::types::Addr;

/// One flow record, exactly 64 bytes (one cache line), like a NetFlow v5
/// record with its full set of counters and timestamps.
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
    first_seen: u64,
    /// Accumulated TCP flags (v5 semantics).
    tcp_flags: u32,
    /// TOS byte + input/output interface ids, packed.
    tos_ifaces: u32,
    /// Reserved (AS numbers, masks in v5).
    _reserved: [u64; 2],
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

    fn new_for(key: &FlowKey) -> FlowRecord {
        FlowRecord {
            src: u32::from(key.src),
            dst: u32::from(key.dst),
            ports: (key.src_port as u32) << 16 | key.dst_port as u32,
            proto_flags: OCCUPIED | key.protocol as u32,
            ..FlowRecord::default()
        }
    }
}

/// Flow-record storage: the paper's flat array, or the PR 10 cache-conscious
/// bucketed table (see the module docs).
enum Storage {
    Flat { table: SimVec<FlowRecord>, mask: usize },
    Bucketed { tab: FlowTable<FlowKey, FlowRecord>, base: Addr },
}

/// The NetFlow element. See the module docs.
pub struct NetFlow {
    storage: Storage,
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
    /// Scratch: touch spans replayed against the simulated region.
    touched: Vec<Touch>,
    /// Scratch for the batched path.
    hdrs: Vec<u64>,
    keys: Vec<FlowKey>,
    lens: Vec<u32>,
}

impl NetFlow {
    fn with_storage(storage: Storage, cost: CostModel) -> Self {
        NetFlow {
            storage,
            cost,
            bidirectional: true,
            updated: 0,
            inserted: 0,
            evicted: 0,
            probes: 0,
            touched: Vec::new(),
            hdrs: Vec::new(),
            keys: Vec::new(),
            lens: Vec::new(),
        }
    }

    /// A flat table with `2^log2_capacity` slots in `alloc`'s domain
    /// (the paper's layout; the repro-digest default).
    pub fn new(alloc: &mut DomainAllocator, log2_capacity: u32, cost: CostModel) -> Self {
        let cap = 1usize << log2_capacity;
        let storage = Storage::Flat {
            table: SimVec::new(alloc, cap, FlowRecord::default()),
            mask: cap - 1,
        };
        Self::with_storage(storage, cost)
    }

    /// A cache-conscious bucketed table with `2^log2_buckets` buckets
    /// (8 slots each) in `alloc`'s domain. `log2_buckets` 17–19 gives the
    /// PR 10 Internet-scale sizing of 1M–4M entries.
    pub fn new_bucketed(alloc: &mut DomainAllocator, log2_buckets: u32, cost: CostModel) -> Self {
        let tab = FlowTable::new(log2_buckets);
        let base = alloc.alloc_lines(tab.footprint());
        Self::with_storage(Storage::Bucketed { tab, base }, cost)
    }

    /// Whether this instance uses the bucketed layout.
    pub fn is_bucketed(&self) -> bool {
        matches!(self.storage, Storage::Bucketed { .. })
    }

    /// Slots in the table.
    pub fn capacity(&self) -> usize {
        match &self.storage {
            Storage::Flat { mask, .. } => mask + 1,
            Storage::Bucketed { tab, .. } => tab.capacity(),
        }
    }

    /// Entries currently occupied (host-side; diagnostics).
    pub fn occupancy(&self) -> usize {
        match &self.storage {
            Storage::Flat { table, mask } => {
                (0..=*mask).filter(|&i| table.peek(i).occupied()).count()
            }
            Storage::Bucketed { tab, .. } => tab.occupancy(),
        }
    }

    /// Simulated footprint in bytes.
    pub fn footprint(&self) -> u64 {
        match &self.storage {
            Storage::Flat { table, .. } => table.footprint(),
            Storage::Bucketed { tab, .. } => tab.footprint(),
        }
    }

    /// Host-side read of a flow's record (tests/diagnostics).
    fn host_record(&self, key: &FlowKey) -> Option<FlowRecord> {
        match &self.storage {
            Storage::Flat { table, mask } => {
                let h = key.hash() as usize;
                for p in 0..MAX_PROBES {
                    let rec = table.peek((h + p) & mask);
                    if rec.matches(key) {
                        return Some(*rec);
                    }
                    if !rec.occupied() {
                        return None;
                    }
                }
                None
            }
            Storage::Bucketed { tab, .. } => tab.get(key).copied(),
        }
    }

    /// Host-side read of a flow's packet count (tests).
    pub fn packet_count(&self, key: &FlowKey) -> Option<u32> {
        self.host_record(key).map(|r| r.packets)
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

    fn process_batch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        // Flat storage keeps the default per-packet loop (pinned repro
        // digests); so does a one-packet batch (scalar-equivalence
        // convention).
        if pkts.len() <= 1 || matches!(self.storage, Storage::Flat { .. }) {
            for pkt in pkts.iter_mut() {
                actions.push(self.process(ctx, pkt));
            }
            return;
        }
        // Phase 1: the per-packet header-line touches, overlapped.
        self.hdrs.clear();
        for pkt in pkts.iter() {
            if pkt.buf_addr != 0 {
                self.hdrs.push(pkt.buf_addr + pkt.l3_offset() as u64);
            }
        }
        if !self.hdrs.is_empty() {
            ctx.read_batch(&self.hdrs, BATCH_MLP);
        }
        // Phase 2: parse keys; gather every packet's home-bucket header
        // line with lookahead.
        self.keys.clear();
        self.lens.clear();
        self.hdrs.clear();
        {
            let Storage::Bucketed { tab, base } = &self.storage else { unreachable!() };
            for pkt in pkts.iter() {
                match pkt.flow_key() {
                    Ok(key) => {
                        let b = tab.home_bucket(&key);
                        self.hdrs.push(base + tab.header_span(b).0);
                        self.keys.push(key);
                        self.lens.push(pkt.len() as u32);
                        actions.push(Action::Out(0));
                    }
                    Err(_) => actions.push(Action::Drop),
                }
            }
        }
        ctx.read_batch(&self.hdrs, BATCH_MLP);
        // Phase 3: per-packet update walk. The forward probe's first
        // dependent read (the home header line) was charged in phase 2;
        // reverse accounting runs fully scalar.
        for j in 0..self.keys.len() {
            let key = self.keys[j];
            let len = self.lens[j];
            self.account_bucketed(ctx, &key, len, true);
            if self.bidirectional {
                let rev = FlowKey {
                    src: key.dst,
                    dst: key.src,
                    protocol: key.protocol,
                    src_port: key.dst_port,
                    dst_port: key.src_port,
                };
                self.account_bucketed(ctx, &rev, len, false);
            }
        }
    }
}

impl NetFlow {
    /// One direction's table operation: hash, probe, update-or-insert.
    fn account(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey, len: u32) {
        match self.storage {
            Storage::Flat { .. } => self.account_flat(ctx, key, len),
            Storage::Bucketed { .. } => self.account_bucketed(ctx, key, len, false),
        }
    }

    fn account_flat(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey, len: u32) {
        let Storage::Flat { table, mask } = &mut self.storage else { unreachable!() };
        let mask = *mask;
        CostModel::charge(ctx, self.cost.netflow_hash);
        let h = key.hash() as usize;
        let now = ctx.now();

        for p in 0..MAX_PROBES {
            let idx = (h + p) & mask;
            self.probes += 1;
            let rec = table.read(ctx, idx);
            if rec.matches(key) {
                table.update(ctx, idx, |r| {
                    r.packets += 1;
                    r.bytes = r.bytes.wrapping_add(len);
                    r.last_seen = now;
                    if r.first_seen == 0 {
                        r.first_seen = now;
                    }
                });
                CostModel::charge(ctx, self.cost.netflow_update);
                self.updated += 1;
                return;
            }
            if !rec.occupied() {
                let mut fresh = FlowRecord::new_for(key);
                fresh.packets = 1;
                fresh.bytes = len;
                fresh.last_seen = now;
                fresh.first_seen = now;
                table.write(ctx, idx, fresh);
                CostModel::charge(ctx, self.cost.netflow_update);
                self.inserted += 1;
                return;
            }
        }
        // Probe budget exhausted: evict the home slot (bounded work per
        // packet keeps the element's cost predictable, as the paper's
        // fixed-population setup does by construction).
        let idx = h & mask;
        let mut fresh = FlowRecord::new_for(key);
        fresh.packets = 1;
        fresh.bytes = len;
        fresh.last_seen = now;
        fresh.first_seen = now;
        table.write(ctx, idx, fresh);
        CostModel::charge(ctx, self.cost.netflow_update);
        self.evicted += 1;
    }

    /// Bucketed-table accounting: probe via tag bytes, then replay the
    /// recorded cache touches against the simulated region. With
    /// `home_header_charged` the first dependent read (the home-bucket
    /// header) is skipped — the batched probe phase already charged it.
    fn account_bucketed(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        key: &FlowKey,
        len: u32,
        home_header_charged: bool,
    ) {
        let Storage::Bucketed { tab, base } = &mut self.storage else { unreachable!() };
        CostModel::charge(ctx, self.cost.netflow_hash);
        let now = ctx.now();
        self.touched.clear();
        let probe = tab.probe(key, &mut self.touched);
        self.probes += self.touched.len() as u64;
        match probe {
            Probe::Hit { bucket, slot } => {
                tab.update_slot(
                    bucket,
                    slot,
                    |r| {
                        r.packets += 1;
                        r.bytes = r.bytes.wrapping_add(len);
                        r.last_seen = now;
                        if r.first_seen == 0 {
                            r.first_seen = now;
                        }
                    },
                    &mut self.touched,
                );
                self.updated += 1;
            }
            Probe::Empty { bucket, slot } => {
                let mut fresh = FlowRecord::new_for(key);
                fresh.packets = 1;
                fresh.bytes = len;
                fresh.last_seen = now;
                fresh.first_seen = now;
                tab.insert_at(bucket, slot, *key, fresh, &mut self.touched);
                self.inserted += 1;
            }
            Probe::Full { bucket, slot } => {
                // Same bounded-work eviction policy as the flat table.
                let mut fresh = FlowRecord::new_for(key);
                fresh.packets = 1;
                fresh.bytes = len;
                fresh.last_seen = now;
                fresh.first_seen = now;
                tab.insert_at(bucket, slot, *key, fresh, &mut self.touched);
                self.evicted += 1;
            }
        }
        CostModel::charge(ctx, self.cost.netflow_update);
        let base = *base;
        for (i, t) in self.touched.iter().enumerate() {
            if i == 0 && home_header_charged {
                continue;
            }
            if t.write {
                ctx.write_struct(base + t.offset, t.len);
            } else {
                ctx.read_struct(base + t.offset, t.len);
            }
        }
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
        assert_eq!(nf.footprint(), (1 << 17) * 64);
    }

    fn netflow_bucketed(log2_buckets: u32) -> (pp_sim::machine::Machine, NetFlow) {
        let mut m = machine();
        let nf = NetFlow::new_bucketed(m.allocator(MemDomain(0)), log2_buckets, CostModel::default());
        (m, nf)
    }

    #[test]
    fn bucketed_tracks_flows_like_flat() {
        let (mut mf, mut flat) = netflow(12);
        let (mut mb, mut buck) = netflow_bucketed(9); // same 4096-slot capacity
        flat.bidirectional = false;
        buck.bidirectional = false;
        assert_eq!(flat.capacity(), buck.capacity());
        let mut gf = TrafficGen::new(TrafficSpec::flow_population(64, 1000, 3));
        let mut gb = TrafficGen::new(TrafficSpec::flow_population(64, 1000, 3));
        let mut cf = mf.ctx(CoreId(0));
        let mut cb = mb.ctx(CoreId(0));
        for _ in 0..10_000 {
            let mut pf = gf.next_packet();
            let mut pb = gb.next_packet();
            assert_eq!(flat.process(&mut cf, &mut pf), Action::Out(0));
            assert_eq!(buck.process(&mut cb, &mut pb), Action::Out(0));
        }
        // Identical population, identical counts, no evictions either way.
        assert_eq!(flat.evicted, 0);
        assert_eq!(buck.evicted, 0);
        assert_eq!(flat.occupancy(), buck.occupancy());
        let mut g = TrafficGen::new(TrafficSpec::flow_population(64, 1000, 3));
        for _ in 0..1000 {
            let key = g.next_packet().flow_key().unwrap();
            assert_eq!(flat.packet_count(&key), buck.packet_count(&key));
        }
        // The tag bytes screen non-matching slots: a hit is exactly one
        // header line + one record line, regardless of bucket occupancy.
        // (Flat probing averages close to 1 read at this low load but has
        // no such bound; its tail grows with clustering.)
        assert!(
            buck.probes <= 2 * 10_000 + buck.inserted + 100,
            "bucketed probe reads must be ~2 per packet, got {}",
            buck.probes
        );
    }

    #[test]
    fn bucketed_batch_matches_scalar_results() {
        let (mut ms, mut scalar) = netflow_bucketed(9);
        let (mut mb, mut batched) = netflow_bucketed(9);
        let mut gs = TrafficGen::new(TrafficSpec::flow_population(64, 500, 7));
        let mut gb = TrafficGen::new(TrafficSpec::flow_population(64, 500, 7));
        let mut cs = ms.ctx(CoreId(0));
        let mut cb = mb.ctx(CoreId(0));
        for _ in 0..40 {
            let mut batch: Vec<Packet> = (0..32).map(|_| gb.next_packet()).collect();
            let mut actions = Vec::new();
            batched.process_batch(&mut cb, &mut batch, &mut actions);
            for (i, a) in actions.iter().enumerate() {
                let mut p = gs.next_packet();
                assert_eq!(scalar.process(&mut cs, &mut p), *a, "packet {i}");
            }
        }
        assert_eq!(scalar.updated, batched.updated);
        assert_eq!(scalar.inserted, batched.inserted);
        assert_eq!(scalar.evicted, batched.evicted);
        assert_eq!(scalar.occupancy(), batched.occupancy());
        let mut g = TrafficGen::new(TrafficSpec::flow_population(64, 500, 7));
        for _ in 0..500 {
            let key = g.next_packet().flow_key().unwrap();
            assert_eq!(scalar.packet_count(&key), batched.packet_count(&key));
        }
        // Overlapping the home-header gather must not cost extra cycles.
        assert!(cb.now() <= cs.now(), "batched {} > scalar {}", cb.now(), cs.now());
    }

    #[test]
    fn bucketed_batch_of_one_is_charge_identical_to_scalar() {
        let (mut ms, mut scalar) = netflow_bucketed(9);
        let (mut mb, mut batched) = netflow_bucketed(9);
        let mut gs = TrafficGen::new(TrafficSpec::flow_population(64, 100, 11));
        let mut gb = TrafficGen::new(TrafficSpec::flow_population(64, 100, 11));
        {
            let mut cs = ms.ctx(CoreId(0));
            let mut cb = mb.ctx(CoreId(0));
            for _ in 0..200 {
                let mut ps = gs.next_packet();
                scalar.process(&mut cs, &mut ps);
                let mut batch = vec![gb.next_packet()];
                let mut actions = Vec::new();
                batched.process_batch(&mut cb, &mut batch, &mut actions);
            }
            assert_eq!(cs.now(), cb.now(), "batch of 1 must be charge-identical");
        }
        assert_eq!(scalar.probes, batched.probes);
    }

    #[test]
    fn bucketed_footprint_is_internet_scale() {
        let (_m, nf) = netflow_bucketed(17); // 1M+ entries
        assert_eq!(nf.capacity(), 1 << 20);
        // 2^17 buckets × (64 B header + 8 × 64 B records) — larger than any L3.
        assert_eq!(nf.footprint(), (1u64 << 17) * (64 + 8 * 64));
        assert!(nf.footprint() > 64 << 20);
    }
}
