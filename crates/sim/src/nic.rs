//! NIC model: per-core receive/transmit queues with descriptor rings and a
//! recycled buffer pool, mirroring the paper's Intel 82599 ("Niantic")
//! configuration where each core owns its queues and buffer pool outright
//! (the paper §2.2 eliminates all cross-core sharing in the driver).
//!
//! Every per-packet driver action is charged to the simulated hierarchy
//! under the function tags that Fig. 7 of the paper profiles:
//! `rx_desc` (descriptor fetch/write-back), `skb_alloc` (buffer pool pop),
//! `skb_recycle` (buffer pool push), `tx_desc` (transmit descriptor).
//! The pool's free-list head is a single hot line — which is exactly why the
//! paper observes an insignificant hit→miss conversion rate for
//! `skb_recycle`: the line is re-referenced on every packet and never stays
//! cold long enough to be evicted.

use crate::arena::DomainAllocator;
use crate::counters::TagId;
use crate::ctx::ExecCtx;
use crate::types::Addr;

/// Size of one receive/transmit descriptor in bytes (as on the 82599).
const DESC_BYTES: u64 = 16;

/// Descriptors per cache line (the batched path fetches descriptors a line
/// at a time, which is where real NICs amortize ring overhead).
const DESC_PER_LINE: u64 = crate::types::CACHE_LINE / DESC_BYTES;

/// One core's RX+TX queue pair and private buffer pool.
#[derive(Debug, Clone)]
pub struct NicQueue {
    rx_ring: Addr,
    tx_ring: Addr,
    n_desc: u64,
    next_rx: u64,
    next_tx: u64,
    freelist_addr: Addr,
    buffers: Vec<Addr>,
    free: Vec<u32>,
    buf_bytes: u64,
    /// Packets delivered via [`rx`](Self::rx).
    pub rx_count: u64,
    /// Packets completed via [`tx_batch`](Self::tx_batch) and its shared twin.
    pub tx_count: u64,
    /// RX attempts that failed because the pool was empty.
    pub alloc_failures: u64,
    /// **Packets** dropped to pool exhaustion — unlike `alloc_failures`
    /// (one per cut-short batch, a driver-event count), this counts every
    /// individual packet that could not be delivered, which is what loss
    /// accounting ([`DropStats::nic_rx_exhausted`](crate::fault::DropStats))
    /// needs for exact conservation.
    pub rx_dropped: u64,
    /// Buffers withheld from the pool by [`seize_buffers`](Self::seize_buffers)
    /// (fault injection: pool-capacity pressure).
    seized: Vec<u32>,
    /// Byte stride between consecutive pool buffers when uniform (0 when
    /// irregular): enables O(1) buffer-index recovery in `index_of`.
    buf_stride: u64,
    /// Scratch for the batched-DMA prewarm (reused every batch).
    prewarm_scratch: Vec<Addr>,
    /// Function-tag handles, interned once at construction (the `TagId`
    /// protocol: per-packet scope entry never searches by name).
    t_rx_desc: TagId,
    t_tx_desc: TagId,
    t_skb_alloc: TagId,
    t_skb_recycle: TagId,
}

impl NicQueue {
    /// Build a queue pair with `n_desc` descriptors per ring and a pool of
    /// `n_buffers` buffers of `buf_bytes` each, all allocated in `alloc`'s
    /// NUMA domain.
    pub fn new(
        alloc: &mut DomainAllocator,
        n_desc: u64,
        n_buffers: usize,
        buf_bytes: u64,
    ) -> Self {
        assert!(n_desc >= 1 && n_buffers >= 1);
        let rx_ring = alloc.alloc_lines(n_desc * DESC_BYTES);
        let tx_ring = alloc.alloc_lines(n_desc * DESC_BYTES);
        let freelist_addr = alloc.alloc_lines(64);
        let buffers: Vec<Addr> =
            (0..n_buffers).map(|_| alloc.alloc_lines(buf_bytes)).collect();
        // LIFO free stack: the most recently recycled buffer (hottest in
        // cache) is reused first, as in Click's per-core pools.
        let free = (0..n_buffers as u32).rev().collect();
        let buf_stride = if n_buffers >= 2 {
            let stride = buffers[1] - buffers[0];
            let uniform = buffers.windows(2).all(|w| w[1] - w[0] == stride);
            if uniform && stride > 0 {
                stride
            } else {
                0
            }
        } else {
            1.max(buf_bytes)
        };
        NicQueue {
            rx_ring,
            tx_ring,
            n_desc,
            next_rx: 0,
            next_tx: 0,
            freelist_addr,
            buffers,
            free,
            buf_bytes,
            rx_count: 0,
            tx_count: 0,
            alloc_failures: 0,
            rx_dropped: 0,
            seized: Vec::new(),
            buf_stride,
            prewarm_scratch: Vec::new(),
            t_rx_desc: TagId::intern("rx_desc"),
            t_tx_desc: TagId::intern("tx_desc"),
            t_skb_alloc: TagId::intern("skb_alloc"),
            t_skb_recycle: TagId::intern("skb_recycle"),
        }
    }

    /// Buffer capacity in bytes.
    #[inline]
    pub fn buf_bytes(&self) -> u64 {
        self.buf_bytes
    }

    /// Buffers currently available in the pool.
    #[inline]
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Descriptors per ring — the depth of wire-side buffering a paced
    /// traffic source can model before arrivals overflow at the wire.
    #[inline]
    pub fn ring_depth(&self) -> u64 {
        self.n_desc
    }

    /// Withhold up to `n` buffers from the pool (fault injection:
    /// pool-capacity pressure). Purely host-side — no simulated charges —
    /// the seized buffers simply stop being allocatable until
    /// [`release_seized`](Self::release_seized). Returns how many were
    /// actually seized (bounded by the buffers currently free).
    pub fn seize_buffers(&mut self, n: usize) -> usize {
        let take = n.min(self.free.len());
        // Take from the bottom of the LIFO stack: the *coldest* buffers
        // leave the pool, so the hot reuse pattern of the survivors is
        // disturbed as little as possible.
        self.seized.extend(self.free.drain(..take));
        take
    }

    /// Return every seized buffer to the pool (fault end). Host-side only.
    pub fn release_seized(&mut self) {
        // Returned below the live stack top, again to preserve the hot
        // LIFO reuse order of the buffers that stayed.
        let mut restored: Vec<u32> = std::mem::take(&mut self.seized);
        restored.append(&mut self.free);
        self.free = restored;
    }

    /// Buffers currently withheld by fault injection.
    #[inline]
    pub fn seized_buffers(&self) -> usize {
        self.seized.len()
    }

    /// Receive one packet of `pkt_len` bytes: fetch and write back the RX
    /// descriptor, pop a buffer from the pool, and DMA the packet data into
    /// it (DCA per machine configuration). Returns the buffer's simulated
    /// address, or `None` if the pool is exhausted (the packet is dropped).
    #[inline]
    pub fn rx(&mut self, ctx: &mut ExecCtx<'_>, pkt_len: u64) -> Option<Addr> {
        assert!(pkt_len <= self.buf_bytes, "packet larger than buffer");
        let desc = self.rx_ring + (self.next_rx % self.n_desc) * DESC_BYTES;
        ctx.scoped_id(self.t_rx_desc, |ctx| {
            ctx.read(desc);
            ctx.write(desc);
        });
        let buf_idx = ctx.scoped_id(self.t_skb_alloc, |ctx| {
            ctx.read(self.freelist_addr);
            let idx = self.free.pop();
            if idx.is_some() {
                ctx.write(self.freelist_addr);
            }
            idx
        });
        let Some(buf_idx) = buf_idx else {
            self.alloc_failures += 1;
            self.rx_dropped += 1;
            return None;
        };
        self.next_rx += 1;
        self.rx_count += 1;
        let buf = self.buffers[buf_idx as usize];
        ctx.dma_deliver(buf, pkt_len);
        Some(buf)
    }

    /// Receive up to `pkt_lens.len()` packets as one batch, appending the
    /// buffer addresses (in arrival order) to `out` and returning how many
    /// packets were delivered.
    ///
    /// Cost model (the NIC side of vector processing): descriptor-ring
    /// accesses are charged once per descriptor *cache line* — `DESC_PER_LINE`
    /// descriptors ride on each fetched/written-back line, which is exactly
    /// how the 82599 amortizes ring overhead under batching — and the
    /// buffer-pool free-list head is read/written once per batch (the driver
    /// pops the whole burst against one hot line). Per-packet costs (the DMA
    /// delivery of each buffer) remain per packet. With a one-packet batch
    /// the charges are identical to [`rx`](Self::rx), so batch size 1
    /// reproduces the scalar path bit-for-bit.
    ///
    /// On pool exhaustion the batch is cut short: the failed attempt counts
    /// one `alloc_failures` (as a failed scalar `rx` does) and the remaining
    /// packets are not attempted.
    pub fn rx_batch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkt_lens: &[u64],
        out: &mut Vec<Addr>,
    ) -> usize {
        if pkt_lens.is_empty() {
            return 0;
        }
        if pkt_lens.len() == 1 {
            // One-packet batches take the scalar path so the *order* of
            // charges (descriptor, free list, DMA) is also identical —
            // ordering is observable through LRU state and inclusive-L3
            // back-invalidation.
            return match self.rx(ctx, pkt_lens[0]) {
                Some(buf) => {
                    out.push(buf);
                    1
                }
                None => 0,
            };
        }
        // Pre-touch the L3 set metadata of the buffer lines this batch is
        // about to DMA (the pop order is the tail of the LIFO free stack).
        // Pure host loads — charging below is unchanged; this just
        // overlaps the host-memory latencies of the per-packet
        // `dma_deliver` walks.
        {
            let upcoming = pkt_lens.len().min(self.free.len());
            self.prewarm_scratch.clear();
            for &idx in self.free[self.free.len() - upcoming..].iter().rev() {
                self.prewarm_scratch.push(self.buffers[idx as usize]);
            }
            ctx.prewarm(&self.prewarm_scratch);
        }
        // Free-list head: one read per batch; written back below only if at
        // least one buffer was popped (mirroring the scalar rx's
        // read-then-conditional-write).
        let mut delivered = 0usize;
        let mut last_desc_line = None;
        ctx.scoped_id(self.t_skb_alloc, |ctx| {
            ctx.read(self.freelist_addr);
        });
        for &pkt_len in pkt_lens {
            assert!(pkt_len <= self.buf_bytes, "packet larger than buffer");
            let desc = self.rx_ring + (self.next_rx % self.n_desc) * DESC_BYTES;
            let desc_line = desc / (DESC_BYTES * DESC_PER_LINE);
            if last_desc_line != Some(desc_line) {
                ctx.scoped_id(self.t_rx_desc, |ctx| {
                    ctx.read(desc);
                    ctx.write(desc);
                });
                last_desc_line = Some(desc_line);
            }
            let Some(buf_idx) = self.free.pop() else {
                self.alloc_failures += 1;
                self.rx_dropped += (pkt_lens.len() - delivered) as u64;
                break;
            };
            self.next_rx += 1;
            self.rx_count += 1;
            delivered += 1;
            let buf = self.buffers[buf_idx as usize];
            ctx.dma_deliver(buf, pkt_len);
            out.push(buf);
        }
        if delivered > 0 {
            ctx.scoped_id(self.t_skb_alloc, |ctx| {
                ctx.write(self.freelist_addr);
            });
        }
        delivered
    }

    /// Transmit a batch of packets and recycle their buffers: TX descriptor
    /// writes charged once per descriptor cache line, the free-list head
    /// read/written once per batch. Buffers are pushed back in order, so a
    /// subsequent `rx` reuses the *last* transmitted buffer first (LIFO).
    pub fn tx_batch(&mut self, ctx: &mut ExecCtx<'_>, bufs: &[Addr]) {
        self.tx_burst(ctx, bufs, false);
    }

    /// Transmit and recycle a whole burst from a core that does **not** own
    /// this queue (pipeline mode: "the transmitting core must recycle the
    /// buffer into the receiving core's pool", §2.2): as
    /// [`tx_batch`](Self::tx_batch), with the free-list head touched as
    /// cross-core shared data, so it ping-pongs between the two cores once
    /// per *burst*.
    pub fn tx_shared_batch(&mut self, ctx: &mut ExecCtx<'_>, bufs: &[Addr]) {
        self.tx_burst(ctx, bufs, true);
    }

    /// Recycle a batch of buffers without transmitting (batched drop path):
    /// the free-list head is touched once per batch.
    pub fn recycle_batch(&mut self, ctx: &mut ExecCtx<'_>, bufs: &[Addr]) {
        self.recycle_burst(ctx, bufs, false);
    }

    /// Recycle a burst without transmitting, as cross-core shared data
    /// (pipeline-mode batched drop path): the free-list head ping-pongs once
    /// per burst.
    pub fn recycle_shared_batch(&mut self, ctx: &mut ExecCtx<'_>, bufs: &[Addr]) {
        self.recycle_burst(ctx, bufs, true);
    }

    // `shared` is a constant at each public entry point; always-inline
    // makes each its own specialised copy, as the hand-written twins were
    // (plain `#[inline]` left one out-of-line body testing the flag, and
    // read 1–2 % slower on `ip_scalar` and `method_quick`, 7 of 9 pairs).
    #[inline(always)]
    fn tx_burst(&mut self, ctx: &mut ExecCtx<'_>, bufs: &[Addr], shared: bool) {
        if bufs.is_empty() {
            return;
        }
        let mut last_desc_line = None;
        for &buf in bufs {
            let desc = self.tx_ring + (self.next_tx % self.n_desc) * DESC_BYTES;
            let desc_line = desc / (DESC_BYTES * DESC_PER_LINE);
            if last_desc_line != Some(desc_line) {
                ctx.scoped_id(self.t_tx_desc, |ctx| {
                    ctx.write(desc);
                });
                last_desc_line = Some(desc_line);
            }
            self.free_push(buf, "tx of a buffer this queue does not own");
            self.next_tx += 1;
            self.tx_count += 1;
        }
        self.touch_freelist(ctx, shared);
    }

    #[inline(always)]
    fn recycle_burst(&mut self, ctx: &mut ExecCtx<'_>, bufs: &[Addr], shared: bool) {
        if bufs.is_empty() {
            return;
        }
        self.touch_freelist(ctx, shared);
        for &buf in bufs {
            self.free_push(buf, "recycle of a buffer this queue does not own");
        }
    }

    /// The recycle side's one free-list transaction: the head line read and
    /// written back, as the owning core's private data or (`shared`) as
    /// cross-core shared data.
    #[inline(always)]
    fn touch_freelist(&self, ctx: &mut ExecCtx<'_>, shared: bool) {
        ctx.scoped_id(self.t_skb_recycle, |ctx| {
            if shared {
                ctx.shared_read(self.freelist_addr);
                ctx.shared_write(self.freelist_addr);
            } else {
                ctx.read(self.freelist_addr);
                ctx.write(self.freelist_addr);
            }
        });
    }

    /// Push `buf` back on the host-side free stack (no simulated charge).
    #[inline(always)]
    fn free_push(&mut self, buf: Addr, foreign: &str) {
        let idx = self.index_of(buf, foreign);
        debug_assert!(!self.free.contains(&idx), "double recycle of buffer {idx}");
        self.free.push(idx);
    }

    /// Host-side index of `buf` in the pool (panics with `msg` when the
    /// buffer is foreign). Pool buffers are allocated back to back, so
    /// when the pool is uniformly strided (checked once at construction)
    /// the index is arithmetic; the linear scan remains as the fallback
    /// for irregular pools.
    // `buf_stride == 0` selects the scan fallback rather than guarding the
    // division, so `checked_div` would misstate the intent.
    #[allow(clippy::manual_checked_ops)]
    #[inline]
    fn index_of(&self, buf: Addr, msg: &str) -> u32 {
        if self.buf_stride != 0 {
            let base = self.buffers[0];
            if buf >= base {
                let off = buf - base;
                let idx = off / self.buf_stride;
                if off.is_multiple_of(self.buf_stride)
                    && (idx as usize) < self.buffers.len()
                {
                    debug_assert_eq!(self.buffers[idx as usize], buf);
                    return idx as u32;
                }
            }
            panic!("{msg}");
        }
        self.buffers.iter().position(|&b| b == buf).expect(msg) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::counters::Counts;
    use crate::machine::Machine;
    use crate::types::{CoreId, Cycles, MemDomain, SocketId};

    fn setup() -> (Machine, NicQueue) {
        let mut m = Machine::new(MachineConfig::westmere());
        let q = NicQueue::new(m.allocator(MemDomain(0)), 64, 8, 2048);
        (m, q)
    }

    #[test]
    fn rx_tx_roundtrip_recycles_buffers() {
        let (mut m, mut q) = setup();
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..100 {
            let buf = q.rx(&mut ctx, 64).expect("pool should not exhaust");
            q.tx_batch(&mut ctx, &[buf]);
        }
        assert_eq!(q.rx_count, 100);
        assert_eq!(q.tx_count, 100);
        assert_eq!(q.free_buffers(), 8);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let (mut m, mut q) = setup();
        let mut ctx = m.ctx(CoreId(0));
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(q.rx(&mut ctx, 64).unwrap());
        }
        assert!(q.rx(&mut ctx, 64).is_none());
        assert_eq!(q.alloc_failures, 1);
        q.recycle_batch(&mut ctx, &[held.pop().unwrap()]);
        assert!(q.rx(&mut ctx, 64).is_some());
    }

    #[test]
    fn rx_dma_lands_packet_in_l3() {
        let (mut m, mut q) = setup();
        let buf = {
            let mut ctx = m.ctx(CoreId(0));
            q.rx(&mut ctx, 128).unwrap()
        };
        assert!(m.l3_holds(SocketId(0), buf));
        assert!(m.l3_holds(SocketId(0), buf + 64));
    }

    #[test]
    fn driver_accesses_are_tagged() {
        let (mut m, mut q) = setup();
        {
            let mut ctx = m.ctx(CoreId(0));
            let buf = q.rx(&mut ctx, 64).unwrap();
            q.tx_batch(&mut ctx, &[buf]);
        }
        let cc = &m.core(CoreId(0)).counters;
        for tag in ["rx_desc", "skb_alloc", "skb_recycle", "tx_desc"] {
            assert!(
                cc.tag(tag).map(|c| c.l1_refs).unwrap_or(0) > 0,
                "tag {tag} must have charged accesses"
            );
        }
    }

    #[test]
    fn lifo_reuse_keeps_freelist_hot() {
        let (mut m, mut q) = setup();
        let mut first = None;
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..10 {
            let b = q.rx(&mut ctx, 64).unwrap();
            if let Some(f) = first {
                assert_eq!(b, f, "LIFO pool must reuse the same buffer");
            }
            first = Some(b);
            q.tx_batch(&mut ctx, &[b]);
        }
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn tx_of_foreign_buffer_panics() {
        let (mut m, mut q) = setup();
        let mut ctx = m.ctx(CoreId(0));
        q.tx_batch(&mut ctx, &[0xdead_0000]);
    }

    #[test]
    fn rx_batch_delivers_in_order_and_recycles() {
        let (mut m, mut q) = setup();
        let mut ctx = m.ctx(CoreId(0));
        let mut bufs = Vec::new();
        let n = q.rx_batch(&mut ctx, &[64; 8], &mut bufs);
        assert_eq!(n, 8);
        assert_eq!(bufs.len(), 8);
        assert_eq!(q.free_buffers(), 0);
        q.tx_batch(&mut ctx, &bufs);
        assert_eq!(q.free_buffers(), 8);
        assert_eq!(q.rx_count, 8);
        assert_eq!(q.tx_count, 8);
    }

    #[test]
    fn rx_batch_amortizes_descriptor_lines() {
        // 8 descriptors at 16 B span two cache lines: a scalar loop charges
        // 8 descriptor reads, the batch charges 2.
        let (mut m_scalar, mut q_scalar) = setup();
        {
            let mut ctx = m_scalar.ctx(CoreId(0));
            for _ in 0..8 {
                let b = q_scalar.rx(&mut ctx, 64).unwrap();
                q_scalar.tx_batch(&mut ctx, &[b]);
            }
        }
        let (mut m_batch, mut q_batch) = setup();
        {
            let mut ctx = m_batch.ctx(CoreId(0));
            let mut bufs = Vec::new();
            q_batch.rx_batch(&mut ctx, &[64; 8], &mut bufs);
            q_batch.tx_batch(&mut ctx, &bufs);
        }
        let scalar_desc = m_scalar.core(CoreId(0)).counters.tag("rx_desc").unwrap().l1_refs;
        let batch_desc = m_batch.core(CoreId(0)).counters.tag("rx_desc").unwrap().l1_refs;
        assert_eq!(scalar_desc, 16, "scalar: read+write per packet");
        assert_eq!(batch_desc, 4, "batch: read+write per descriptor line");
        let scalar_alloc =
            m_scalar.core(CoreId(0)).counters.tag("skb_alloc").unwrap().l1_refs;
        let batch_alloc =
            m_batch.core(CoreId(0)).counters.tag("skb_alloc").unwrap().l1_refs;
        assert_eq!(scalar_alloc, 16, "scalar: free-list read+write per packet");
        assert_eq!(batch_alloc, 2, "batch: free-list read+write per batch");
    }

    #[test]
    fn rx_batch_of_one_charges_exactly_like_scalar_rx() {
        let (mut m_scalar, mut q_scalar) = setup();
        {
            let mut ctx = m_scalar.ctx(CoreId(0));
            let b = q_scalar.rx(&mut ctx, 64).unwrap();
            q_scalar.tx_batch(&mut ctx, &[b]);
            let b2 = q_scalar.rx(&mut ctx, 64).unwrap();
            q_scalar.recycle_batch(&mut ctx, &[b2]);
        }
        let (mut m_batch, mut q_batch) = setup();
        {
            let mut ctx = m_batch.ctx(CoreId(0));
            let mut bufs = Vec::new();
            q_batch.rx_batch(&mut ctx, &[64], &mut bufs);
            q_batch.tx_batch(&mut ctx, &bufs);
            bufs.clear();
            q_batch.rx_batch(&mut ctx, &[64], &mut bufs);
            q_batch.recycle_batch(&mut ctx, &bufs);
        }
        let s = m_scalar.core(CoreId(0)).counters.snapshot();
        let b = m_batch.core(CoreId(0)).counters.snapshot();
        assert_eq!(s.total, b.total, "scalar vs batch-of-1 totals");
        for tag in ["rx_desc", "skb_alloc", "skb_recycle", "tx_desc"] {
            assert_eq!(s.tag(tag), b.tag(tag), "tag {tag} must match");
        }
        assert_eq!(m_scalar.core(CoreId(0)).clock, m_batch.core(CoreId(0)).clock);
    }

    #[test]
    fn tx_shared_batch_amortizes_freelist_ping_pong() {
        // Producer core 0 receives 8 buffers; consumer core 1 transmits
        // them back. Scalar tx_shared touches the shared free-list line
        // twice per packet; the batch touches it twice per burst.
        let run = |batched: bool| {
            let (mut m, mut q) = setup();
            let mut bufs = Vec::new();
            {
                let mut ctx = m.ctx(CoreId(0));
                q.rx_batch(&mut ctx, &[64; 8], &mut bufs);
            }
            let mut ctx = m.ctx(CoreId(1));
            if batched {
                q.tx_shared_batch(&mut ctx, &bufs);
            } else {
                for &b in &bufs {
                    q.tx_shared_batch(&mut ctx, &[b]);
                }
            }
            (q.free_buffers(), m.core(CoreId(1)).counters.tag("skb_recycle").unwrap().l1_refs)
        };
        let (scalar_free, scalar_refs) = run(false);
        let (batch_free, batch_refs) = run(true);
        assert_eq!(scalar_free, 8);
        assert_eq!(batch_free, 8, "all buffers recycled either way");
        assert_eq!(scalar_refs, 16, "scalar: shared read+write per packet");
        assert_eq!(batch_refs, 2, "batch: shared read+write per burst");
    }

    /// Core 0 receives the pool's eight buffers as one batch, then `core`
    /// hands them back one at a time through `send`: `core`'s total counts
    /// and clock.
    fn one_at_a_time(
        core: u16,
        send: impl Fn(&mut NicQueue, &mut ExecCtx<'_>, Addr),
    ) -> (Counts, Cycles) {
        let (mut m, mut q) = setup();
        let mut bufs = Vec::new();
        {
            let mut ctx = m.ctx(CoreId(0));
            assert_eq!(q.rx_batch(&mut ctx, &[64; 8], &mut bufs), 8);
        }
        {
            let mut ctx = m.ctx(CoreId(core));
            for &b in &bufs {
                send(&mut q, &mut ctx, b);
            }
        }
        assert_eq!((q.free_buffers(), q.tx_count), (8, 8));
        let c = m.core(CoreId(core));
        (c.counters.total(), c.clock)
    }

    #[test]
    fn one_packet_tx_charges_are_pinned() {
        // Local: the batched receive's 6 accesses, then per buffer one
        // descriptor write and the free-list read/write pair.
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
        assert_eq!(one_at_a_time(0, |q, ctx, b| q.tx_batch(ctx, &[b])), (local, 533));
        // Shared, from core 1: the same three accesses per buffer, the
        // free-list pair as cross-core shared data.
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
        assert_eq!(one_at_a_time(1, |q, ctx, b| q.tx_shared_batch(ctx, &[b])), (shared, 120));
    }

    #[test]
    fn recycle_shared_batch_returns_buffers_with_one_ping_pong() {
        let (mut m, mut q) = setup();
        let mut bufs = Vec::new();
        {
            let mut ctx = m.ctx(CoreId(0));
            q.rx_batch(&mut ctx, &[64; 4], &mut bufs);
        }
        let mut ctx = m.ctx(CoreId(1));
        q.recycle_shared_batch(&mut ctx, &bufs);
        assert_eq!(q.free_buffers(), 8);
        let refs = m.core(CoreId(1)).counters.tag("skb_recycle").unwrap().l1_refs;
        assert_eq!(refs, 2, "one shared read+write per burst");
    }

    #[test]
    fn rx_batch_partial_on_pool_exhaustion() {
        let (mut m, mut q) = setup(); // 8 buffers
        let mut ctx = m.ctx(CoreId(0));
        let mut bufs = Vec::new();
        let n = q.rx_batch(&mut ctx, &[64; 12], &mut bufs);
        assert_eq!(n, 8, "only the pool's 8 buffers can be delivered");
        assert_eq!(q.alloc_failures, 1, "the cut-short attempt counts once");
        assert_eq!(q.rx_dropped, 4, "every undelivered packet counts");
        assert_eq!(q.free_buffers(), 0);
        q.recycle_batch(&mut ctx, &bufs);
        assert_eq!(q.free_buffers(), 8);
    }

    #[test]
    fn scalar_rx_exhaustion_counts_each_dropped_packet() {
        let (mut m, mut q) = setup();
        let mut ctx = m.ctx(CoreId(0));
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(q.rx(&mut ctx, 64).unwrap());
        }
        for _ in 0..3 {
            assert!(q.rx(&mut ctx, 64).is_none());
        }
        assert_eq!(q.alloc_failures, 3);
        assert_eq!(q.rx_dropped, 3, "scalar drops count per packet too");
    }

    #[test]
    fn seize_and_release_round_trip() {
        let (mut m, mut q) = setup(); // 8 buffers
        assert_eq!(q.seize_buffers(6), 6);
        assert_eq!(q.free_buffers(), 2);
        assert_eq!(q.seized_buffers(), 6);
        let mut ctx = m.ctx(CoreId(0));
        let mut bufs = Vec::new();
        let n = q.rx_batch(&mut ctx, &[64; 4], &mut bufs);
        assert_eq!(n, 2, "pressured pool delivers only what is left");
        assert_eq!(q.rx_dropped, 2);
        q.recycle_batch(&mut ctx, &bufs);
        q.release_seized();
        assert_eq!(q.free_buffers(), 8, "release restores the full pool");
        assert_eq!(q.seized_buffers(), 0);
        // The pool still works end to end after a seize/release cycle.
        bufs.clear();
        assert_eq!(q.rx_batch(&mut ctx, &[64; 8], &mut bufs), 8);
        q.tx_batch(&mut ctx, &bufs);
        assert_eq!(q.free_buffers(), 8);
    }

    #[test]
    fn seize_is_bounded_by_free_buffers() {
        let (mut m, mut q) = setup();
        let mut ctx = m.ctx(CoreId(0));
        let held: Vec<_> = (0..5).map(|_| q.rx(&mut ctx, 64).unwrap()).collect();
        assert_eq!(q.seize_buffers(100), 3, "only the free remainder is seizable");
        assert_eq!(q.free_buffers(), 0);
        for b in held {
            q.recycle_batch(&mut ctx, &[b]);
        }
        q.release_seized();
        assert_eq!(q.free_buffers(), 8);
    }
}
