//! A single-producer single-consumer packet queue in simulated shared
//! memory — the handoff structure of the §2.2 *pipeline* configuration.
//!
//! ## Cost model
//!
//! The queue owns three pieces of cross-core shared state, and every access
//! to them ping-pongs between producer and consumer exactly as the paper
//! describes ("passing socket-buffer descriptors, packet headers, and,
//! potentially, payload between different cores results in compulsory cache
//! misses"):
//!
//! * a **head** control line (producer-written, consumer-read),
//! * a **tail** control line (consumer-written, producer-read),
//! * a ring of 16-byte **descriptor slots** packed 4 per cache line, as
//!   [`NicQueue`](pp_sim::nic::NicQueue) packs its descriptor ring.
//!
//! [`push_burst`](SpscQueue::push_burst) /
//! [`pop_burst`](SpscQueue::pop_burst) pay `queue_op` and the head/tail
//! ping-pong **once per burst** and touch each descriptor *line* once, so
//! a 32-packet burst moves 8 slot lines + 2 control lines where 32
//! one-packet bursts — the paper's per-packet handoff: `queue_op`, pointer
//! read, slot line, pointer publish — move 32 + 64. All queue charges are
//! attributed to the `handoff` function tag so experiments can read the
//! cross-core handoff cost directly.
//!
//! [`poll`](SpscQueue::poll) is the consumer's idle-spin fast path: a single
//! shared head-line read with no `queue_op` compute, so an empty-queue spin
//! does not inflate pipeline-stage cycle counts the way a failed
//! `pop_burst` does.

use crate::cost::CostModel;
use pp_net::packet::Packet;
use pp_sim::arena::DomainAllocator;
use pp_sim::counters::TagId;
use pp_sim::ctx::ExecCtx;
use pp_sim::types::{Addr, CACHE_LINE};
use std::collections::VecDeque;

/// Bytes of one descriptor slot (buffer pointer + length + cookie, as on a
/// NIC ring).
const SLOT_BYTES: u64 = 16;

/// Descriptor slots per cache line — the packing that lets a burst touch
/// `burst / SLOTS_PER_LINE` slot lines instead of `burst`.
pub const SLOTS_PER_LINE: u64 = CACHE_LINE / SLOT_BYTES;

/// Function tag under which all queue charges are attributed.
pub const HANDOFF_TAG: &str = "handoff";

/// The SPSC queue. Wrap in `Rc<RefCell<..>>` to share between the two
/// stage tasks (the simulator is single-threaded; the *simulated* cores
/// contend through the cache model, not through host synchronization).
pub struct SpscQueue {
    slots_addr: Addr,
    head_addr: Addr,
    tail_addr: Addr,
    capacity: usize,
    q: VecDeque<Packet>,
    head: u64,
    tail: u64,
    cost: CostModel,
    /// Successful enqueues.
    pub enqueued: u64,
    /// Successful dequeues.
    pub dequeued: u64,
    /// Enqueue attempts rejected because the queue was full (a cut-short
    /// burst counts once, like a cut-short NIC `rx_batch`).
    pub full_rejects: u64,
    /// **Packets** rejected for queue-full — unlike `full_rejects` (one per
    /// cut-short burst, an event count) this counts every individual packet
    /// the producer offered and the queue refused, which is what loss
    /// accounting (`DropStats::queue_full`) needs for exact conservation.
    /// The caller decides the outcome (drop vs. retry); this counter
    /// records that the rejection was *observed*, never silent.
    pub rejected_packets: u64,
    /// Fault-injection capacity cap: when below `capacity` the queue
    /// admits only this many packets ([`set_capacity_limit`](Self::set_capacity_limit)).
    cap_limit: usize,
    /// [`HANDOFF_TAG`] interned once at construction (`TagId` protocol).
    t_handoff: TagId,
}

impl SpscQueue {
    /// A queue of `capacity` descriptor slots (packed [`SLOTS_PER_LINE`] per
    /// line) plus separate head/tail lines, allocated in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, capacity: usize, cost: CostModel) -> Self {
        assert!(capacity >= 1);
        let slots_addr = alloc.alloc_lines(capacity as u64 * SLOT_BYTES);
        let head_addr = alloc.alloc_lines(CACHE_LINE);
        let tail_addr = alloc.alloc_lines(CACHE_LINE);
        SpscQueue {
            slots_addr,
            head_addr,
            tail_addr,
            capacity,
            q: VecDeque::with_capacity(capacity),
            head: 0,
            tail: 0,
            cost,
            enqueued: 0,
            dequeued: 0,
            full_rejects: 0,
            rejected_packets: 0,
            cap_limit: usize::MAX,
            t_handoff: TagId::intern(HANDOFF_TAG),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Ring capacity in descriptor slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Capacity currently in force: the ring size, clamped by any
    /// fault-injection cap.
    #[inline]
    pub fn effective_capacity(&self) -> usize {
        self.capacity.min(self.cap_limit)
    }

    /// Cap the queue's effective capacity at `limit` slots (fault
    /// injection: queue-capacity pressure). Purely host-side — admission
    /// checks simply see a smaller ring; charges are unchanged. Packets
    /// already queued beyond the new limit stay until drained. Restore
    /// with [`clear_capacity_limit`](Self::clear_capacity_limit).
    pub fn set_capacity_limit(&mut self, limit: usize) {
        assert!(limit >= 1, "a zero-capacity queue would deadlock the pipeline");
        self.cap_limit = limit;
    }

    /// Remove any fault-injection capacity cap.
    pub fn clear_capacity_limit(&mut self) {
        self.cap_limit = usize::MAX;
    }

    /// Free descriptor slots (how large a burst [`push_burst`](Self::push_burst)
    /// can accept right now), under the effective capacity.
    pub fn free_slots(&self) -> usize {
        self.effective_capacity().saturating_sub(self.q.len())
    }

    /// Cache line holding descriptor slot `idx`.
    #[inline]
    fn slot_line(&self, idx: u64) -> Addr {
        self.slots_addr + ((idx % self.capacity as u64) / SLOTS_PER_LINE) * CACHE_LINE
    }

    /// Producer side: enqueue a burst, draining the enqueued prefix from
    /// `pkts` (rejected packets stay, in order) and returning how many were
    /// enqueued.
    ///
    /// Charges `queue_op`, the tail-line read, and the head-line publish
    /// **once per burst**; descriptor slot lines are written once per
    /// *line* ([`SLOTS_PER_LINE`] slots each). A full queue cuts the burst
    /// short and counts one `full_rejects`.
    pub fn push_burst(&mut self, ctx: &mut ExecCtx<'_>, pkts: &mut Vec<Packet>) -> usize {
        if pkts.is_empty() {
            return 0;
        }
        ctx.scoped_id(self.t_handoff, |ctx| {
            CostModel::charge(ctx, self.cost.queue_op);
            // Check for space: read the consumer-written tail pointer.
            ctx.shared_read(self.tail_addr);
            let n = self.free_slots().min(pkts.len());
            if n < pkts.len() {
                self.full_rejects += 1;
                self.rejected_packets += (pkts.len() - n) as u64;
            }
            let mut last_line = None;
            for _ in 0..n {
                let line = self.slot_line(self.head);
                if last_line != Some(line) {
                    ctx.shared_write(line);
                    last_line = Some(line);
                }
                self.head += 1;
            }
            if n > 0 {
                // Publish the new head.
                ctx.shared_write(self.head_addr);
            }
            for p in pkts.drain(..n) {
                self.q.push_back(p);
            }
            self.enqueued += n as u64;
            n
        })
    }

    /// Consumer side: a cheap emptiness probe — one shared head-line read,
    /// no `queue_op` compute. Use before [`pop_burst`](Self::pop_burst) so
    /// an idle spin costs a single line transaction instead of a full
    /// dequeue attempt.
    pub fn poll(&mut self, ctx: &mut ExecCtx<'_>) -> bool {
        ctx.scoped_id(self.t_handoff, |ctx| {
            ctx.shared_read(self.head_addr);
        });
        !self.q.is_empty()
    }

    /// Consumer side: dequeue up to `max` packets in one burst, appending
    /// them to `out` in FIFO order and returning how many were dequeued.
    ///
    /// Charges `queue_op`, the head-line read, and the tail-line publish
    /// **once per burst**; descriptor slot lines are read once per line.
    pub fn pop_burst(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> usize {
        if max == 0 {
            return 0;
        }
        ctx.scoped_id(self.t_handoff, |ctx| {
            CostModel::charge(ctx, self.cost.queue_op);
            // Check for data: read the producer-written head pointer.
            ctx.shared_read(self.head_addr);
            let n = self.q.len().min(max);
            let mut last_line = None;
            for _ in 0..n {
                let line = self.slot_line(self.tail);
                if last_line != Some(line) {
                    ctx.shared_read(line);
                    last_line = Some(line);
                }
                self.tail += 1;
                out.push(self.q.pop_front().expect("length checked"));
            }
            if n > 0 {
                // Publish the new tail.
                ctx.shared_write(self.tail_addr);
            }
            self.dequeued += n as u64;
            n
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_sim::counters::Counts;
    use pp_sim::types::{CoreId, MemDomain};

    fn queue(m: &mut pp_sim::machine::Machine, cap: usize) -> SpscQueue {
        SpscQueue::new(m.allocator(MemDomain(0)), cap, CostModel::default())
    }

    /// Offer `pkt` as a one-packet burst; a full queue hands it back.
    fn push1(q: &mut SpscQueue, ctx: &mut ExecCtx<'_>, pkt: Packet) -> Result<(), Packet> {
        let mut v = vec![pkt];
        match q.push_burst(ctx, &mut v) {
            1 => Ok(()),
            _ => Err(v.pop().expect("rejected packet stays with the caller")),
        }
    }

    /// Drain a one-packet burst.
    fn pop1(q: &mut SpscQueue, ctx: &mut ExecCtx<'_>) -> Option<Packet> {
        let mut out = Vec::new();
        q.pop_burst(ctx, 1, &mut out);
        out.pop()
    }

    fn pkt_with(tagb: u8) -> Packet {
        let mut p = packet();
        p.data[0] = tagb;
        p
    }

    #[test]
    fn fifo_order() {
        let mut m = machine();
        let mut q = queue(&mut m, 8);
        let mut ctx = m.ctx(CoreId(0));
        for i in 0..5u8 {
            push1(&mut q, &mut ctx, pkt_with(i)).unwrap();
        }
        let mut ctx = m.ctx(CoreId(1));
        for i in 0..5u8 {
            assert_eq!(pop1(&mut q, &mut ctx).unwrap().data[0], i);
        }
        assert!(pop1(&mut q, &mut ctx).is_none());
    }

    #[test]
    fn full_queue_rejects() {
        let mut m = machine();
        let mut q = queue(&mut m, 2);
        let mut ctx = m.ctx(CoreId(0));
        push1(&mut q, &mut ctx, packet()).unwrap();
        push1(&mut q, &mut ctx, packet()).unwrap();
        assert!(push1(&mut q, &mut ctx, packet()).is_err());
        assert_eq!(q.full_rejects, 1);
    }

    #[test]
    fn cross_core_handoff_generates_misses() {
        // Producer on core 0, consumer on core 1: after warmup, both sides
        // keep missing L1 on the shared lines (ping-pong), unlike a
        // single-core queue.
        let mut m = machine();
        let mut q = queue(&mut m, 64);
        for _ in 0..50 {
            let mut ctx = m.ctx(CoreId(0));
            push1(&mut q, &mut ctx, packet()).unwrap();
            let mut ctx = m.ctx(CoreId(1));
            pop1(&mut q, &mut ctx).unwrap();
        }
        let c0 = m.core(CoreId(0)).counters.total();
        let c1 = m.core(CoreId(1)).counters.total();
        // The head/tail lines alone force ≥1 private miss per op after
        // warmup on each side.
        let private_misses0 = c0.l1_refs - c0.l1_hits;
        let private_misses1 = c1.l1_refs - c1.l1_hits;
        assert!(
            private_misses0 > 50,
            "producer should keep missing on shared lines, got {private_misses0}"
        );
        assert!(
            private_misses1 > 50,
            "consumer should keep missing on shared lines, got {private_misses1}"
        );
    }

    #[test]
    fn same_core_queue_is_cheap_after_warmup() {
        // Control experiment: both ends on one core — the shared lines stay
        // in its L1 except when stolen (never, here).
        let mut m = machine();
        let mut q = queue(&mut m, 64);
        for _ in 0..50 {
            let mut ctx = m.ctx(CoreId(0));
            push1(&mut q, &mut ctx, packet()).unwrap();
            pop1(&mut q, &mut ctx).unwrap();
        }
        let c = m.core(CoreId(0)).counters.total();
        let hit_rate = c.l1_hits as f64 / c.l1_refs as f64;
        assert!(hit_rate > 0.8, "single-core queue should be L1-resident, {hit_rate}");
    }

    #[test]
    fn queue_charges_attribute_to_the_handoff_tag() {
        let mut m = machine();
        let mut q = queue(&mut m, 8);
        {
            let mut ctx = m.ctx(CoreId(0));
            push1(&mut q, &mut ctx, packet()).unwrap();
        }
        let total = m.core(CoreId(0)).counters.total();
        let tagged = m.core(CoreId(0)).counters.tag(HANDOFF_TAG).unwrap();
        assert_eq!(total.l1_refs, tagged.l1_refs, "every queue access is tagged");
        assert_eq!(total.compute_cycles, tagged.compute_cycles);
    }

    #[test]
    fn burst_of_one_charges_the_pinned_per_packet_sequence() {
        // Two pushes and a full reject on core 0, two pops and an empty pop
        // on core 1, as one-packet bursts, against the counters the
        // per-packet `push`/`pop` bodies produced before they were deleted.
        let mut m = machine();
        let mut q = queue(&mut m, 2);
        {
            let mut ctx = m.ctx(CoreId(0));
            push1(&mut q, &mut ctx, packet()).unwrap();
            push1(&mut q, &mut ctx, packet()).unwrap();
            assert!(push1(&mut q, &mut ctx, packet()).is_err(), "full: packet returned");
        }
        {
            let mut ctx = m.ctx(CoreId(1));
            assert!(pop1(&mut q, &mut ctx).is_some());
            assert!(pop1(&mut q, &mut ctx).is_some());
            assert!(pop1(&mut q, &mut ctx).is_none(), "empty");
        }
        // 3 x queue_op and 7 line operations a side (pointer read, slot
        // line, pointer publish per transfer; pointer read only for the
        // reject / the empty pop). The producer's three misses go to
        // memory, the consumer's hit the lines the producer left in the
        // shared L3.
        let side = |stall_cycles, l3_hits, l3_misses| Counts {
            instructions: 82,
            compute_cycles: 90,
            stall_cycles,
            l1_refs: 7,
            l1_hits: 4,
            l2_refs: 3,
            l3_refs: 3,
            l3_hits,
            l3_misses,
            ..Counts::default()
        };
        let producer = m.core(CoreId(0)).counters.snapshot();
        assert_eq!(producer.total, side(172, 0, 3), "producer totals");
        assert_eq!(producer.tag(HANDOFF_TAG), Some(&producer.total), "all tagged handoff");
        assert_eq!(m.core(CoreId(0)).clock, 262, "producer clock");
        let consumer = m.core(CoreId(1)).counters.snapshot();
        assert_eq!(consumer.total, side(166, 3, 0), "consumer totals");
        assert_eq!(consumer.tag(HANDOFF_TAG), Some(&consumer.total), "all tagged handoff");
        assert_eq!(m.core(CoreId(1)).clock, 256, "consumer clock");
        assert_eq!(q.full_rejects, 1);
    }

    #[test]
    fn burst_fifo_order_across_ring_wrap_around() {
        // Capacity 6 (1.5 slot lines); pushing/popping bursts of 4 wraps
        // the ring repeatedly. Order must survive every wrap.
        let mut m = machine();
        let mut q = queue(&mut m, 6);
        let mut next = 0u8;
        let mut expect = 0u8;
        for _ in 0..12 {
            let mut ctx = m.ctx(CoreId(0));
            let mut v: Vec<Packet> = (0..4).map(|i| pkt_with(next.wrapping_add(i))).collect();
            let pushed = q.push_burst(&mut ctx, &mut v);
            next = next.wrapping_add(pushed as u8);
            let mut ctx = m.ctx(CoreId(1));
            let mut out = Vec::new();
            q.pop_burst(&mut ctx, 4, &mut out);
            for p in out {
                assert_eq!(p.data[0], expect, "FIFO across wrap-around");
                expect = expect.wrapping_add(1);
            }
        }
        assert_eq!(q.enqueued, q.dequeued + q.len() as u64);
        assert!(expect > 40, "the ring cycled several times");
    }

    #[test]
    fn burst_backpressure_cuts_the_burst_short() {
        let mut m = machine();
        let mut q = queue(&mut m, 8);
        let mut ctx = m.ctx(CoreId(0));
        let mut v: Vec<Packet> = (0..12).map(pkt_with).collect();
        assert_eq!(q.push_burst(&mut ctx, &mut v), 8, "only 8 slots available");
        assert_eq!(v.len(), 4, "rejected tail stays with the caller");
        assert_eq!(v[0].data[0], 8, "rejected packets keep their order");
        assert_eq!(q.full_rejects, 1, "a cut-short burst counts once");
        // The rejected tail can be retried after draining.
        let mut ctx = m.ctx(CoreId(1));
        let mut out = Vec::new();
        assert_eq!(q.pop_burst(&mut ctx, 32, &mut out), 8, "partial burst: only 8 queued");
        let mut ctx = m.ctx(CoreId(0));
        assert_eq!(q.push_burst(&mut ctx, &mut v), 4);
        assert!(v.is_empty());
    }

    #[test]
    fn rejections_count_every_packet() {
        let mut m = machine();
        let mut q = queue(&mut m, 8);
        let mut ctx = m.ctx(CoreId(0));
        let mut v: Vec<Packet> = (0..12).map(pkt_with).collect();
        assert_eq!(q.push_burst(&mut ctx, &mut v), 8);
        assert_eq!(q.full_rejects, 1, "event count: once per cut burst");
        assert_eq!(q.rejected_packets, 4, "packet count: one per refused packet");
        // One-packet bursts count per packet too.
        for p in v.drain(..) {
            assert!(push1(&mut q, &mut ctx, p).is_err());
        }
        assert_eq!(q.full_rejects, 5);
        assert_eq!(q.rejected_packets, 8);
    }

    #[test]
    fn capacity_limit_shrinks_admission_then_restores() {
        let mut m = machine();
        let mut q = queue(&mut m, 8);
        {
            let mut ctx = m.ctx(CoreId(0));
            let mut v: Vec<Packet> = (0..6).map(pkt_with).collect();
            assert_eq!(q.push_burst(&mut ctx, &mut v), 6);
        }
        // Cap below current occupancy: full, zero free slots, but the
        // queued packets stay and drain normally.
        q.set_capacity_limit(3);
        assert_eq!(q.effective_capacity(), 3);
        assert_eq!(q.free_slots(), 0);
        {
            let mut ctx = m.ctx(CoreId(0));
            assert!(push1(&mut q, &mut ctx, packet()).is_err());
        }
        {
            let mut ctx = m.ctx(CoreId(1));
            let mut out = Vec::new();
            assert_eq!(q.pop_burst(&mut ctx, 4, &mut out), 4);
        }
        // Under the cap again: 2 queued, 1 free slot.
        assert_eq!(q.free_slots(), 1);
        {
            let mut ctx = m.ctx(CoreId(0));
            push1(&mut q, &mut ctx, packet()).unwrap();
            assert!(push1(&mut q, &mut ctx, packet()).is_err());
        }
        q.clear_capacity_limit();
        assert_eq!(q.effective_capacity(), 8);
        assert_eq!(q.free_slots(), 5, "full ring capacity restored");
        let mut ctx = m.ctx(CoreId(0));
        push1(&mut q, &mut ctx, packet()).unwrap();
    }

    #[test]
    fn pop_burst_returns_partial_bursts() {
        let mut m = machine();
        let mut q = queue(&mut m, 16);
        let mut ctx = m.ctx(CoreId(0));
        let mut v: Vec<Packet> = (0..3).map(pkt_with).collect();
        q.push_burst(&mut ctx, &mut v);
        let mut ctx = m.ctx(CoreId(1));
        let mut out = Vec::new();
        assert_eq!(q.pop_burst(&mut ctx, 8, &mut out), 3, "drains what is there");
        assert_eq!(out.len(), 3);
        assert_eq!(q.pop_burst(&mut ctx, 8, &mut out), 0, "then reports empty");
    }

    #[test]
    fn poll_is_a_single_untaxed_head_read() {
        let mut m = machine();
        let mut q = queue(&mut m, 8);
        {
            let mut ctx = m.ctx(CoreId(1));
            assert!(!q.poll(&mut ctx));
        }
        let c = m.core(CoreId(1)).counters.total();
        assert_eq!(c.l1_refs, 1, "exactly one line read");
        assert_eq!(c.compute_cycles, 0, "no queue_op compute on the poll path");
        {
            let mut ctx = m.ctx(CoreId(0));
            push1(&mut q, &mut ctx, packet()).unwrap();
        }
        let mut ctx = m.ctx(CoreId(1));
        assert!(q.poll(&mut ctx));
    }

    #[test]
    fn burst_touches_one_slot_line_per_four_packets() {
        // 32-packet burst, slots packed 4/line: 1 tail read + 8 slot writes
        // + 1 head write = 10 line accesses, vs 96 for 32 one-packet pushes.
        let mut m = machine();
        let mut q = queue(&mut m, 64);
        {
            let mut ctx = m.ctx(CoreId(0));
            let mut v: Vec<Packet> = (0..32).map(pkt_with).collect();
            q.push_burst(&mut ctx, &mut v);
        }
        let c = m.core(CoreId(0)).counters.tag(HANDOFF_TAG).unwrap();
        assert_eq!(c.l1_refs, 10, "2 control-line ops + 32/4 slot lines");
        let mut m2 = machine();
        let mut q2 = queue(&mut m2, 64);
        {
            let mut ctx = m2.ctx(CoreId(0));
            for i in 0..32 {
                push1(&mut q2, &mut ctx, pkt_with(i)).unwrap();
            }
        }
        let c2 = m2.core(CoreId(0)).counters.tag(HANDOFF_TAG).unwrap();
        assert_eq!(c2.l1_refs, 96, "3 line ops per one-packet push");
    }

    #[test]
    fn cross_core_burst_handoff_has_fewer_private_misses_per_packet() {
        // The tentpole claim at queue level: at burst ≥ 8 the cross-core
        // handoff generates strictly fewer private misses per packet than
        // the per-packet ping-pong. The access interleaving mirrors the
        // engine's turn scheduling: burst 1 alternates one push and one pop
        // per stage turn; burst mode moves 8-packet vectors per turn.
        let run = |burst: usize| {
            let rounds = 40;
            let mut m = machine();
            let mut q = queue(&mut m, 64);
            for _ in 0..rounds {
                if burst == 1 {
                    for i in 0..8 {
                        let mut ctx = m.ctx(CoreId(0));
                        push1(&mut q, &mut ctx, pkt_with(i)).unwrap();
                        let mut ctx = m.ctx(CoreId(1));
                        pop1(&mut q, &mut ctx).unwrap();
                    }
                } else {
                    let mut ctx = m.ctx(CoreId(0));
                    let mut v: Vec<Packet> = (0..8).map(pkt_with).collect();
                    assert_eq!(q.push_burst(&mut ctx, &mut v), 8);
                    let mut ctx = m.ctx(CoreId(1));
                    let mut out = Vec::new();
                    assert_eq!(q.pop_burst(&mut ctx, 8, &mut out), 8);
                }
            }
            let c0 = m.core(CoreId(0)).counters.total();
            let c1 = m.core(CoreId(1)).counters.total();
            let packets = (rounds * 8) as f64;
            ((c0.l1_refs - c0.l1_hits) + (c1.l1_refs - c1.l1_hits)) as f64 / packets
        };
        let burst1 = run(1);
        let burst8 = run(8);
        assert!(
            burst8 < burst1,
            "burst-8 handoff must miss less per packet: burst 1 {burst1:.2} vs burst 8 {burst8:.2}"
        );
        // And the gap is structural, not marginal: at least 2 fewer misses
        // per packet (head+tail ping-pong amortized 8x).
        assert!(burst1 - burst8 > 2.0, "gap too small: {burst1:.2} -> {burst8:.2}");
    }
}
