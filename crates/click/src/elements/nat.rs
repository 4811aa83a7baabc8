//! Source NAT (NAPT): rewrite outbound packets to a pool of public
//! addresses, maintaining per-flow bindings.
//!
//! NAT is middlebox functionality of exactly the kind the consolidation
//! argument in the paper's introduction (Sekar et al. \[25\]) wants to place
//! on shared general-purpose platforms. The element implements
//! endpoint-independent ("full-cone") NAPT the way production NATs do:
//!
//! * an **outbound binding table** — open-addressed hash on the inside
//!   `(address, port, protocol)` — decides the public endpoint to use;
//! * a **port-indexed session array** (the reverse table) makes the inbound
//!   lookup a single indexed read and doubles as the port allocator;
//! * the packet is rewritten **in place** with RFC 1624 incremental
//!   checksum patches ([`Packet::rewrite_src`]), never recomputed.
//!
//! Both tables are multi-megabyte simulated structures, so NAT profiles
//! like MON: cacheable state that benefits from (and therefore suffers
//! with) the shared L3.

use crate::cost::CostModel;
use crate::element::{Action, Element};
use pp_net::fivetuple::{fnv1a, FlowKey};
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimVec};
use pp_sim::ctx::ExecCtx;
use std::net::Ipv4Addr;

/// NAT pool and table sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatConfig {
    /// First public address of the pool (addresses are consecutive).
    pub base_ip: Ipv4Addr,
    /// Number of public addresses.
    pub n_public_ips: u16,
    /// First allocatable port on each address.
    pub port_base: u16,
    /// Allocatable ports per address.
    pub ports_per_ip: u16,
    /// log2 of outbound binding-table slots.
    pub log2_bindings: u32,
}

impl Default for NatConfig {
    fn default() -> Self {
        // 4 public IPs × 64512 ports ≈ 258 k bindings: comfortably holds
        // the paper's 100 k-flow population. Outbound table 2^18 × 40 B =
        // 10 MB; session array 258 k × 16 B ≈ 4 MB.
        NatConfig {
            base_ip: Ipv4Addr::new(203, 0, 113, 1),
            n_public_ips: 4,
            port_base: 1024,
            ports_per_ip: 64512,
            log2_bindings: 18,
        }
    }
}

impl NatConfig {
    /// A tiny pool for tests that need port exhaustion quickly.
    pub fn tiny(n_ports: u16) -> Self {
        NatConfig {
            n_public_ips: 1,
            ports_per_ip: n_ports,
            log2_bindings: 8,
            ..Self::default()
        }
    }

    /// Total public endpoints available.
    fn pool_size(&self) -> u32 {
        self.n_public_ips as u32 * self.ports_per_ip as u32
    }
}

/// Simulated bytes per outbound binding: 40, so slots straddle cache lines.
/// Shrinking the slot to 32 B — two per line — would move every pinned NAT
/// number and is its own re-pin.
const BINDING_SLOT_BYTES: u64 = 40;
/// Simulated bytes per session-array entry.
const SESSION_SLOT_BYTES: u64 = 16;

/// Outbound binding record, the host half of one 40-byte binding slot:
/// 32 bytes (`session` pads to the `u64`s' alignment).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C)]
struct Binding {
    inside_ip: u32,
    inside_port: u16,
    proto: u8,
    /// Bit 0 = occupied.
    flags: u8,
    /// Index into the session array (encodes public ip + port).
    session: u32,
    last_used: u64,
    created: u64,
}

const OCCUPIED: u8 = 1;

impl Binding {
    fn matches(&self, key: &FlowKey) -> bool {
        self.flags & OCCUPIED != 0
            && self.inside_ip == u32::from(key.src)
            && self.inside_port == key.src_port
            && self.proto == key.protocol
    }
}

/// Session-array entry, the reverse mapping for one public port: 12 host
/// bytes in a 16-byte simulated slot.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct Session {
    inside_ip: u32,
    inside_port: u16,
    proto: u8,
    /// Bit 0 = allocated.
    flags: u8,
    last_used: u32,
}

/// Probes before evicting in the outbound table.
const MAX_PROBES: usize = 8;
/// Session-array slots examined per allocation before stealing one.
const MAX_ALLOC_SCAN: u32 = 16;

/// The source-NAT element. See the module docs.
pub struct Nat {
    cfg: NatConfig,
    bindings: SimVec<Binding>,
    mask: usize,
    sessions: SimVec<Session>,
    /// Allocation cursor into the session array.
    cursor: u32,
    cost: CostModel,
    /// Packets successfully translated.
    pub translated: u64,
    /// New bindings created.
    pub bindings_created: u64,
    /// Bindings evicted from the outbound table (probe exhaustion).
    pub bindings_evicted: u64,
    /// Ports stolen from an older flow (pool pressure).
    pub port_steals: u64,
    /// Packets dropped (unparseable).
    pub dropped: u64,
}

impl Nat {
    /// Build both tables in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, cfg: NatConfig, cost: CostModel) -> Self {
        let slots = 1usize << cfg.log2_bindings;
        Nat {
            cfg,
            bindings: SimVec::with_slot(alloc, slots, Binding::default(), BINDING_SLOT_BYTES),
            mask: slots - 1,
            sessions: SimVec::with_slot(
                alloc,
                cfg.pool_size() as usize,
                Session::default(),
                SESSION_SLOT_BYTES,
            ),
            cursor: 0,
            cost,
            translated: 0,
            bindings_created: 0,
            bindings_evicted: 0,
            port_steals: 0,
            dropped: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NatConfig {
        &self.cfg
    }

    /// Simulated footprint of both tables.
    pub fn footprint(&self) -> u64 {
        self.bindings.footprint() + self.sessions.footprint()
    }

    /// Public endpoint for session-array index `i`.
    fn endpoint(&self, i: u32) -> (Ipv4Addr, u16) {
        let ip_idx = i / self.cfg.ports_per_ip as u32;
        let port = self.cfg.port_base as u32 + i % self.cfg.ports_per_ip as u32;
        (
            Ipv4Addr::from(u32::from(self.cfg.base_ip) + ip_idx),
            port as u16,
        )
    }

    fn hash(key: &FlowKey) -> usize {
        let mut b = [0u8; 7];
        b[0..4].copy_from_slice(&key.src.octets());
        b[4..6].copy_from_slice(&key.src_port.to_be_bytes());
        b[6] = key.protocol;
        fnv1a(&b) as usize
    }

    /// Host-side query: the public endpoint currently bound to an inside
    /// source, if any (the tests' oracle).
    #[cfg(test)]
    fn binding_for(&self, key: &FlowKey) -> Option<(Ipv4Addr, u16)> {
        let h = Self::hash(key);
        for p in 0..MAX_PROBES {
            let b = self.bindings.peek((h + p) & self.mask);
            if b.matches(key) {
                return Some(self.endpoint(b.session));
            }
            if b.flags & OCCUPIED == 0 {
                return None;
            }
        }
        None
    }

    /// Host-side query: the inside endpoint owning a public port, if any.
    #[cfg(test)]
    fn reverse_of(&self, public_ip: Ipv4Addr, public_port: u16) -> Option<(Ipv4Addr, u16)> {
        let ip_idx = u32::from(public_ip).checked_sub(u32::from(self.cfg.base_ip))?;
        if ip_idx >= self.cfg.n_public_ips as u32 || public_port < self.cfg.port_base {
            return None;
        }
        let pi = public_port as u32 - self.cfg.port_base as u32;
        if pi >= self.cfg.ports_per_ip as u32 {
            return None;
        }
        let s = self.sessions.peek((ip_idx * self.cfg.ports_per_ip as u32 + pi) as usize);
        (s.flags & OCCUPIED != 0).then(|| (Ipv4Addr::from(s.inside_ip), s.inside_port))
    }

    /// Allocate a session slot for `key`, scanning from the cursor and
    /// stealing the oldest candidate if everything scanned is taken.
    fn allocate(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey, now: u64) -> u32 {
        let pool = self.cfg.pool_size();
        let mut victim = self.cursor;
        let mut victim_age = u32::MAX;
        for _ in 0..MAX_ALLOC_SCAN {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % pool;
            let s = self.sessions.read(ctx, i as usize);
            if s.flags & OCCUPIED == 0 {
                self.write_session(ctx, i, key, now);
                return i;
            }
            if s.last_used < victim_age {
                victim_age = s.last_used;
                victim = i;
            }
        }
        // Pool pressure: steal the least-recently-used scanned slot and
        // clear the outbound binding that owned it, so the old flow
        // re-allocates cleanly instead of hijacking the port.
        self.port_steals += 1;
        let old = self.sessions.read(ctx, victim as usize);
        let old_key = FlowKey {
            src: Ipv4Addr::from(old.inside_ip),
            dst: Ipv4Addr::UNSPECIFIED,
            protocol: old.proto,
            src_port: old.inside_port,
            dst_port: 0,
        };
        let h = Self::hash(&old_key);
        for p in 0..MAX_PROBES {
            let idx = (h + p) & self.mask;
            let b = self.bindings.read(ctx, idx);
            if b.matches(&old_key) && b.session == victim {
                self.bindings.update(ctx, idx, |b| b.flags = 0);
                break;
            }
        }
        self.write_session(ctx, victim, key, now);
        victim
    }

    fn write_session(&mut self, ctx: &mut ExecCtx<'_>, i: u32, key: &FlowKey, now: u64) {
        self.sessions.write(
            ctx,
            i as usize,
            Session {
                inside_ip: u32::from(key.src),
                inside_port: key.src_port,
                proto: key.protocol,
                flags: OCCUPIED,
                last_used: (now >> 20) as u32, // coarse ticks (~0.4 ms)
            },
        );
    }

    /// Find or create the binding for `key`; returns the public endpoint.
    fn translate(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey) -> (Ipv4Addr, u16) {
        let h = Self::hash(key);
        let now = ctx.now();
        for p in 0..MAX_PROBES {
            let idx = (h + p) & self.mask;
            let b = self.bindings.read(ctx, idx);
            if b.matches(key) {
                self.bindings.update(ctx, idx, |b| b.last_used = now);
                return self.endpoint(b.session);
            }
            if b.flags & OCCUPIED == 0 {
                return self.bind(ctx, idx, key, now);
            }
        }
        // Probe budget exhausted: evict the home slot (bounded per-packet
        // work, like the NetFlow element).
        self.bindings_evicted += 1;
        self.bind(ctx, h & self.mask, key, now)
    }

    /// Allocate a session for `key` and install its binding in slot `idx`.
    fn bind(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        idx: usize,
        key: &FlowKey,
        now: u64,
    ) -> (Ipv4Addr, u16) {
        let session = self.allocate(ctx, key, now);
        self.bindings.write(
            ctx,
            idx,
            Binding {
                inside_ip: u32::from(key.src),
                inside_port: key.src_port,
                proto: key.protocol,
                flags: OCCUPIED,
                session,
                last_used: now,
                created: now,
            },
        );
        self.bindings_created += 1;
        self.endpoint(session)
    }
}

impl Element for Nat {
    fn class_name(&self) -> &'static str {
        "NAT"
    }

    fn tag(&self) -> &'static str {
        "nat_translate"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        let Ok(key) = pkt.flow_key() else {
            self.dropped += 1;
            return Action::Drop;
        };
        let (ip, port) = self.translate(ctx, &key);
        CostModel::charge(ctx, self.cost.nat_rewrite);
        if pkt.rewrite_src(ip, port).is_err() {
            self.dropped += 1;
            return Action::Drop;
        }
        // The rewrite touches the IP + L4 header lines in the packet buffer.
        if pkt.buf_addr != 0 {
            ctx.write(pkt.buf_addr + pkt.l3_offset() as u64);
        }
        self.translated += 1;
        Action::Out(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::machine;
    use pp_net::headers::Ipv4Header;
    use pp_net::packet::PacketBuilder;
    use pp_sim::types::{CoreId, MemDomain};

    fn nat(cfg: NatConfig) -> (pp_sim::machine::Machine, Nat) {
        let mut m = machine();
        let n = Nat::new(m.allocator(MemDomain(0)), cfg, CostModel::default());
        (m, n)
    }

    fn udp_from(src: [u8; 4], sport: u16) -> Packet {
        PacketBuilder::default().udp_checksummed(
            Ipv4Addr::from(src),
            Ipv4Addr::new(93, 184, 216, 34),
            sport,
            53,
            b"query",
        )
    }

    #[test]
    fn translates_to_pool_address_with_valid_checksums() {
        let (mut m, mut n) = nat(NatConfig::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = udp_from([10, 0, 0, 7], 40000);
        assert_eq!(n.process(&mut ctx, &mut pkt), Action::Out(0));
        let ip = pkt.ipv4().unwrap();
        let pool_base = u32::from(Ipv4Addr::new(203, 0, 113, 1));
        let got = u32::from(ip.src);
        assert!((pool_base..pool_base + 4).contains(&got), "src {} not in pool", ip.src);
        assert!(Ipv4Header::verify_checksum(&pkt.data[pkt.l3_offset()..]));
        assert!(pkt.verify_l4_checksum().unwrap());
        assert_eq!(n.translated, 1);
        assert_eq!(n.bindings_created, 1);
    }

    #[test]
    fn same_flow_keeps_its_binding() {
        let (mut m, mut n) = nat(NatConfig::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut endpoints = std::collections::HashSet::new();
        for _ in 0..10 {
            let mut pkt = udp_from([10, 0, 0, 7], 40000);
            n.process(&mut ctx, &mut pkt);
            let k = pkt.flow_key().unwrap();
            endpoints.insert((k.src, k.src_port));
        }
        assert_eq!(endpoints.len(), 1, "one inside flow, one public endpoint");
        assert_eq!(n.bindings_created, 1);
    }

    #[test]
    fn distinct_flows_get_distinct_endpoints() {
        let (mut m, mut n) = nat(NatConfig::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut endpoints = std::collections::HashSet::new();
        for i in 0..200u16 {
            let mut pkt = udp_from([10, 0, (i >> 8) as u8, i as u8], 1000 + i);
            n.process(&mut ctx, &mut pkt);
            let k = pkt.flow_key().unwrap();
            endpoints.insert((k.src, k.src_port));
        }
        assert_eq!(endpoints.len(), 200, "no two flows may share a public endpoint");
    }

    #[test]
    fn reverse_table_inverts_binding() {
        let (mut m, mut n) = nat(NatConfig::default());
        let mut ctx = m.ctx(CoreId(0));
        for i in 0..50u16 {
            let mut pkt = udp_from([10, 1, 0, i as u8], 2000 + i);
            let inside = pkt.flow_key().unwrap();
            n.process(&mut ctx, &mut pkt);
            let (pub_ip, pub_port) = n.binding_for(&inside).expect("binding exists");
            assert_eq!(
                n.reverse_of(pub_ip, pub_port),
                Some((inside.src, inside.src_port)),
                "session array must invert the binding"
            );
        }
    }

    #[test]
    fn port_exhaustion_steals_oldest_and_stays_consistent() {
        let (mut m, mut n) = nat(NatConfig::tiny(16));
        let mut ctx = m.ctx(CoreId(0));
        for i in 0..64u16 {
            let mut pkt = udp_from([10, 2, 0, i as u8], 3000 + i);
            assert_eq!(n.process(&mut ctx, &mut pkt), Action::Out(0));
        }
        assert!(n.port_steals > 0, "16 ports for 64 flows must steal");
        // The steal arm is never reached at sweep load, so no workload
        // digest sees it: pin its exact charges here.
        let clock = ctx.now();
        assert_eq!((n.port_steals, n.bindings_created, n.bindings_evicted), (48, 64, 0));
        assert_eq!(clock, 18_743, "core clock after 64 flows through 16 ports");
        assert_eq!(
            m.core(CoreId(0)).counters.total(),
            pp_sim::counters::Counts {
                instructions: 4570,
                compute_cycles: 3520,
                stall_cycles: 15_223,
                l1_refs: 1370,
                l1_hits: 1303,
                l2_refs: 67,
                l2_hits: 0,
                l3_refs: 67,
                l3_hits: 0,
                l3_misses: 67,
                remote_accesses: 0,
                packets: 0,
            }
        );
        // Invariant: every live binding's endpoint maps back to it.
        let mut live = 0;
        for i in 0..64u16 {
            let key = udp_from([10, 2, 0, i as u8], 3000 + i).flow_key().unwrap();
            if let Some((ip, port)) = n.binding_for(&key) {
                assert_eq!(
                    n.reverse_of(ip, port),
                    Some((key.src, key.src_port)),
                    "stale binding for flow {i}"
                );
                live += 1;
            }
        }
        assert!(live <= 16, "cannot have more live bindings than ports");
        assert!(live > 0);
    }

    #[test]
    fn tcp_translation_preserves_payload_and_checksums() {
        let (mut m, mut n) = nat(NatConfig::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = PacketBuilder::default().tcp(
            Ipv4Addr::new(172, 16, 0, 8),
            Ipv4Addr::new(8, 8, 4, 4),
            55000,
            443,
            12345,
            b"TLS hello",
        );
        assert_eq!(n.process(&mut ctx, &mut pkt), Action::Out(0));
        assert!(Ipv4Header::verify_checksum(&pkt.data[pkt.l3_offset()..]));
        assert!(pkt.verify_l4_checksum().unwrap());
        assert_eq!(pkt.payload().unwrap(), b"TLS hello");
        assert_eq!(pkt.ipv4().unwrap().dst, Ipv4Addr::new(8, 8, 4, 4), "dst untouched");
    }

    #[test]
    fn footprint_is_multi_megabyte_at_default_scale() {
        let (_m, n) = nat(NatConfig::default());
        assert_eq!(std::mem::size_of::<Binding>(), 32, "host record");
        assert_eq!(n.bindings.stride(), 40, "shrinking the slot is a NAT re-pin");
        assert_eq!((std::mem::size_of::<Session>(), n.sessions.stride()), (12, 16));
        assert!(
            n.footprint() > 8 << 20,
            "NAT state should pressure the L3 ({} B)",
            n.footprint()
        );
    }

    /// NetFlow then NAT at default scale in one machine: where every table
    /// lands and how much it spans. The host records may shrink; the
    /// simulated layout may not.
    #[test]
    fn netflow_and_nat_layout_is_pinned() {
        let mut m = machine();
        let nf = crate::elements::netflow::NetFlow::new(
            m.allocator(MemDomain(0)),
            18,
            CostModel::default(),
        );
        let after_nf = m.allocator(MemDomain(0)).used();
        let n = Nat::new(m.allocator(MemDomain(0)), NatConfig::default(), CostModel::default());
        let after_nat = m.allocator(MemDomain(0)).used();
        assert_eq!((after_nf, after_nat), (16_777_280, 31_391_808));
        assert_eq!(nf.footprint(), 16_777_216);
        assert_eq!((nf.slot_addr(0), nf.slot_addr((1 << 18) - 1)), (64, 16_777_216));
        assert_eq!((n.bindings.footprint(), n.sessions.footprint()), (10_485_760, 4_128_768));
        let (nb, ns) = (n.bindings.len(), n.sessions.len());
        assert_eq!((nb, ns), (1 << 18, 258_048));
        assert_eq!((n.bindings.addr_of(0), n.bindings.addr_of(nb - 1)), (16_777_280, 27_263_000));
        assert_eq!((n.sessions.addr_of(0), n.sessions.addr_of(ns - 1)), (27_263_040, 31_391_792));
    }

    #[test]
    fn non_ip_garbage_is_dropped() {
        let (mut m, mut n) = nat(NatConfig::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut junk = Packet::from_bytes(bytes::BytesMut::zeroed(60));
        assert_eq!(n.process(&mut ctx, &mut junk), Action::Drop);
        assert_eq!(n.dropped, 1);
    }
}
