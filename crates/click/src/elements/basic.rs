//! Small per-packet elements: header validation, TTL decrement, transmit
//! and discard sinks, and a counter.
//!
//! `CheckIPHeader`, `DecIPTTL`, and `ToDevice` override
//! [`Element::process_vector`]: header-line loads are overlapped across the
//! vector ([`ExecCtx::read_batch`] with [`BATCH_MLP`] lookahead), per-packet
//! compute is charged in one hoisted call, and `ToDevice` transmits the
//! whole vector through one amortized `tx_batch`.

use crate::cost::CostModel;
use crate::element::{header_addrs, Action, Element, BATCH_MLP};
use pp_net::headers::{ethertype, Ipv4Header};
use pp_net::packet::Packet;
use pp_sim::ctx::ExecCtx;
use pp_sim::nic::NicQueue;
use pp_sim::types::Addr;
use std::cell::RefCell;
use std::rc::Rc;

/// `CheckIPHeader`: validate EtherType, IP version/IHL, and the full header
/// checksum (really computed over the packet bytes). Invalid packets are
/// dropped. This is the Fig. 7 `check_ip_header` function: it re-references
/// the same packet header lines on every packet, so its cached data is
/// "almost never evicted by competitors".
pub struct CheckIpHeader {
    cost: CostModel,
    /// Scratch header addresses for the batched path (reused every batch).
    addrs: Vec<Addr>,
    /// Packets that passed validation.
    pub ok: u64,
    /// Packets dropped as invalid.
    pub bad: u64,
}

impl CheckIpHeader {
    /// Build with a cost model.
    pub fn new(cost: CostModel) -> Self {
        CheckIpHeader { cost, addrs: Vec::new(), ok: 0, bad: 0 }
    }

    /// Host-side validation (the real checks; no simulated charges).
    #[inline]
    fn validate(pkt: &Packet) -> bool {
        pkt.ethernet()
            .map(|e| e.ethertype == ethertype::IPV4)
            .unwrap_or(false)
            && pkt.ipv4().is_ok()
            && Ipv4Header::verify_checksum(&pkt.data[pkt.l3_offset()..])
    }

    /// Record and translate one validation result.
    #[inline]
    fn verdict(&mut self, valid: bool) -> Action {
        if valid {
            self.ok += 1;
            Action::Out(0)
        } else {
            self.bad += 1;
            Action::Drop
        }
    }
}

impl Element for CheckIpHeader {
    fn class_name(&self) -> &'static str {
        "CheckIPHeader"
    }

    fn tag(&self) -> &'static str {
        "check_ip_header"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        // First touch of the packet in the processing path: Ethernet + IP
        // headers (34 bytes — one line, two if the buffer straddles).
        if pkt.buf_addr != 0 {
            ctx.read_struct(pkt.buf_addr, 34);
        }
        CostModel::charge(ctx, self.cost.check_ip_header);
        let valid = Self::validate(pkt);
        self.verdict(valid)
    }

    fn process_vector(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        // The header lines of distinct packets are independent loads: issue
        // them with lookahead so the DCA-delivered lines stream in
        // overlapped, then charge the validation compute once, hoisted.
        self.addrs.clear();
        self.addrs.extend(header_addrs(pkts, |_| 0));
        ctx.read_batch(&self.addrs, BATCH_MLP);
        CostModel::charge_n(ctx, self.cost.check_ip_header, pkts.len() as u64);
        for pkt in pkts.iter() {
            let valid = Self::validate(pkt);
            actions.push(self.verdict(valid));
        }
    }
}

/// `DecIPTTL`: decrement the TTL and patch the checksum incrementally
/// (RFC 1624). Packets whose TTL reaches zero are dropped. Writes the
/// header line (making it dirty — which is what makes pipeline handoffs of
/// the header expensive).
pub struct DecIpTtl {
    cost: CostModel,
    /// Scratch header addresses for the batched path (reused every batch).
    addrs: Vec<Addr>,
    /// Packets dropped because the TTL expired.
    pub expired: u64,
}

impl DecIpTtl {
    /// Build with a cost model.
    pub fn new(cost: CostModel) -> Self {
        DecIpTtl { cost, addrs: Vec::new(), expired: 0 }
    }

    /// Record and translate one decrement: `false` when the TTL expired.
    #[inline]
    fn verdict(&mut self, alive: bool) -> Action {
        if alive {
            Action::Out(0)
        } else {
            self.expired += 1;
            Action::Drop
        }
    }
}

impl Element for DecIpTtl {
    fn class_name(&self) -> &'static str {
        "DecIPTTL"
    }

    fn tag(&self) -> &'static str {
        "dec_ip_ttl"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        if pkt.buf_addr != 0 {
            let hdr = pkt.buf_addr + pkt.l3_offset() as u64;
            ctx.read(hdr);
            ctx.write(hdr);
        }
        CostModel::charge(ctx, self.cost.dec_ttl);
        self.verdict(pkt.dec_ttl().is_some())
    }

    fn process_vector(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        // Overlap the independent header-line loads across the vector; the
        // dirtying writes stay per packet (stores drain through the store
        // buffer, so they are already cheap).
        self.addrs.clear();
        self.addrs
            .extend(header_addrs(pkts, |p| p.l3_offset() as u64));
        ctx.read_batch(&self.addrs, BATCH_MLP);
        for &a in &self.addrs {
            ctx.write(a);
        }
        CostModel::charge_n(ctx, self.cost.dec_ttl, pkts.len() as u64);
        for pkt in pkts.iter_mut() {
            actions.push(self.verdict(pkt.dec_ttl().is_some()));
        }
    }
}

/// `ToDevice`: transmit the packet (TX descriptor write) and recycle its
/// buffer into the queue's pool. In pipeline mode (`shared = true`), the
/// recycle touches the pool free-list as cross-core shared data — the
/// paper's §2.2 "extra synchronization between the two cores".
pub struct ToDevice {
    nic: Rc<RefCell<NicQueue>>,
    shared: bool,
    /// Scratch buffer addresses (reused every vector).
    bufs: Vec<Addr>,
    /// Packets transmitted.
    pub sent: u64,
}

impl ToDevice {
    /// Transmit into `nic`; `shared` marks cross-core recycling.
    pub fn new(nic: Rc<RefCell<NicQueue>>, shared: bool) -> Self {
        ToDevice { nic, shared, bufs: Vec::new(), sent: 0 }
    }

    /// Transmit and consume `pkts`: one descriptor+free-list transaction
    /// and one NIC borrow for the whole vector. In pipeline mode the free
    /// list is cross-core shared data, its ping-pong paid once per burst
    /// (`tx_shared_batch`).
    fn send(&mut self, ctx: &mut ExecCtx<'_>, pkts: &mut [Packet]) {
        self.bufs.clear();
        self.bufs.extend(header_addrs(pkts, |_| 0));
        let mut nic = self.nic.borrow_mut();
        if self.shared {
            nic.tx_shared_batch(ctx, &self.bufs);
        } else {
            nic.tx_batch(ctx, &self.bufs);
        }
        for pkt in pkts.iter_mut() {
            self.sent += 1;
            pkt.buf_addr = 0;
        }
    }
}

impl Element for ToDevice {
    fn class_name(&self) -> &'static str {
        "ToDevice"
    }

    fn tag(&self) -> &'static str {
        "to_device"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        // The vector body on a one-element slice: `tx_batch(&[buf])` is the
        // per-packet transmit, and going through `bufs` keeps batch size
        // 1's host allocations as they were (heap layout moves
        // `peak_rss_mb`).
        self.send(ctx, std::slice::from_mut(pkt));
        Action::Consumed
    }

    fn process_vector(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        self.send(ctx, pkts);
        for _ in pkts.iter() {
            actions.push(Action::Consumed);
        }
    }
}

/// `Discard`: drop every packet (the flow recycles the buffer).
#[derive(Default)]
pub struct Discard {
    /// Packets discarded.
    pub count: u64,
}

impl Element for Discard {
    fn class_name(&self) -> &'static str {
        "Discard"
    }

    fn tag(&self) -> &'static str {
        "discard"
    }

    fn process(&mut self, _ctx: &mut ExecCtx<'_>, _pkt: &mut Packet) -> Action {
        self.count += 1;
        Action::Drop
    }
}

/// `Counter`: count packets and bytes, pass through.
#[derive(Default)]
pub struct Counter {
    /// Packets seen.
    pub packets: u64,
    /// Bytes seen.
    pub bytes: u64,
}

impl Element for Counter {
    fn class_name(&self) -> &'static str {
        "Counter"
    }

    fn tag(&self) -> &'static str {
        "counter"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        ctx.compute(2, 2);
        self.packets += 1;
        self.bytes += pkt.len() as u64;
        Action::Out(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_sim::counters::Counts;
    use pp_sim::types::{CoreId, Cycles, MemDomain};

    #[test]
    fn check_ip_header_accepts_valid() {
        let mut m = machine();
        let mut el = CheckIpHeader::new(CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(el.ok, 1);
    }

    #[test]
    fn check_ip_header_rejects_corrupt_checksum() {
        let mut m = machine();
        let mut el = CheckIpHeader::new(CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        pkt.data[20] ^= 0xFF; // corrupt a header byte
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Drop);
        assert_eq!(el.bad, 1);
    }

    #[test]
    fn check_ip_header_rejects_non_ip() {
        let mut m = machine();
        let mut el = CheckIpHeader::new(CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        pkt.data[12] = 0x08;
        pkt.data[13] = 0x06; // ARP
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Drop);
    }

    #[test]
    fn dec_ttl_decrements_and_drops_at_zero() {
        let mut m = machine();
        let mut el = DecIpTtl::new(CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet(); // TTL 64
        for _ in 0..64 {
            assert_eq!(el.process(&mut ctx, &mut pkt), Action::Out(0));
        }
        assert_eq!(pkt.ipv4().unwrap().ttl, 0);
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Drop);
        assert_eq!(el.expired, 1);
    }

    #[test]
    fn to_device_transmits_and_recycles() {
        let mut m = machine();
        let nic = Rc::new(RefCell::new(NicQueue::new(
            m.allocator(MemDomain(0)),
            64,
            4,
            2048,
        )));
        let mut el = ToDevice::new(nic.clone(), false);
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        pkt.buf_addr = {
            let mut n = nic.borrow_mut();
            n.rx(&mut ctx, 64).unwrap()
        };
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Consumed);
        assert_eq!(el.sent, 1);
        assert_eq!(pkt.buf_addr, 0);
        assert_eq!(nic.borrow().free_buffers(), 4);
    }

    /// Core 0 receives an 8-buffer pool as one batch, then `ToDevice` on
    /// `core` takes the eight packets one `process` call at a time:
    /// `core`'s total counts and clock.
    fn to_device_one_at_a_time(core: u16, shared: bool) -> (Counts, Cycles) {
        let mut m = machine();
        let nic =
            Rc::new(RefCell::new(NicQueue::new(m.allocator(MemDomain(0)), 64, 8, 2048)));
        let mut bufs = Vec::new();
        {
            let mut ctx = m.ctx(CoreId(0));
            assert_eq!(nic.borrow_mut().rx_batch(&mut ctx, &[64; 8], &mut bufs), 8);
        }
        let mut el = ToDevice::new(nic.clone(), shared);
        {
            let mut ctx = m.ctx(CoreId(core));
            for &b in &bufs {
                let mut pkt = packet();
                pkt.buf_addr = b;
                assert_eq!(el.process(&mut ctx, &mut pkt), Action::Consumed);
                assert_eq!(pkt.buf_addr, 0);
            }
        }
        assert_eq!((el.sent, nic.borrow().free_buffers()), (8, 8));
        let c = m.core(CoreId(core));
        (c.counters.total(), c.clock)
    }

    #[test]
    fn to_device_one_packet_charges_are_pinned() {
        // The same charges `NicQueue`'s `one_packet_tx_charges_are_pinned`
        // holds: the element adds none of its own.
        let local = Counts {
            instructions: 30,
            stall_cycles: 533,
            l1_refs: 30,
            l1_hits: 25,
            l2_refs: 5,
            l3_refs: 5,
            l3_misses: 5,
            ..Counts::default()
        };
        assert_eq!(to_device_one_at_a_time(0, false), (local, 533));
        let shared = Counts {
            instructions: 24,
            stall_cycles: 120,
            l1_refs: 24,
            l1_hits: 21,
            l2_refs: 3,
            l3_refs: 3,
            l3_hits: 1,
            l3_misses: 2,
            ..Counts::default()
        };
        assert_eq!(to_device_one_at_a_time(1, true), (shared, 120));
    }

    #[test]
    fn counter_counts() {
        let mut m = machine();
        let mut c = Counter::default();
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        assert_eq!(c.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(c.packets, 1);
        assert_eq!(c.bytes, pkt.len() as u64);
    }
}
