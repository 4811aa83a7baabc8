//! The execution context: the API that packet-processing code programs
//! against.
//!
//! An [`ExecCtx`] borrows the machine on behalf of one core. Element code
//! calls [`compute`](ExecCtx::compute) for arithmetic work, [`read`] /
//! [`write`](ExecCtx::write) for dependent memory accesses, and
//! [`read_batch`](ExecCtx::read_batch) for independent accesses that real
//! out-of-order cores overlap (memory-level parallelism).
//!
//! Dependent loads stall the core for their full latency — this is what
//! makes the paper's δ (extra time per converted miss) appear in end-to-end
//! throughput. Function tags ([`scoped_id`](ExecCtx::scoped_id)) attribute counts
//! to named processing steps, as in Fig. 7.
//!
//! [`read`]: ExecCtx::read

use crate::machine::Machine;
use crate::types::{Addr, CoreId, Cycles, CACHE_LINE};

/// Execution context for one core; see the module docs.
pub struct ExecCtx<'a> {
    machine: &'a mut Machine,
    core: CoreId,
}

impl Machine {
    /// Borrow the machine as an execution context for `core`.
    pub fn ctx(&mut self, core: CoreId) -> ExecCtx<'_> {
        ExecCtx { machine: self, core }
    }
}

impl<'a> ExecCtx<'a> {
    /// The core this context executes on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The machine (immutable; for configuration lookups).
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// Current value of this core's clock.
    pub fn now(&self) -> Cycles {
        self.machine.core(self.core).clock
    }

    /// Spend `cycles` of straight-line compute retiring `instructions`.
    #[inline]
    pub fn compute(&mut self, cycles: Cycles, instructions: u64) {
        let cs = self.machine.core_mut(self.core);
        cs.clock += cycles;
        cs.counters.bump(|c| {
            c.compute_cycles += cycles;
            c.instructions += instructions;
        });
    }

    /// A dependent load from `addr`: the core stalls for the full latency.
    /// Returns the latency, mostly for tests and diagnostics.
    ///
    /// The overwhelming majority of simulated accesses are L1 hits, so the
    /// hit case is committed inline by
    /// `Machine::l1_hit_fast` — one SoA tag scan plus one merged counter
    /// bump — before the out-of-line hierarchy walk is even called. The
    /// fast path's soundness invariants are documented on `l1_hit_fast`;
    /// a miss leaves all state untouched and falls through to the slow
    /// path, whose own L1 stanza then performs the normal miss
    /// bookkeeping, so counters and cache state are bit-for-bit those of
    /// the single-path implementation.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Cycles {
        if let Some(lat) = self.machine.l1_hit_fast(self.core, addr, false) {
            return lat;
        }
        // The fast probe already established the L1 miss (and changed
        // nothing), so the slow path resumes after the L1 lookup instead
        // of re-scanning the set.
        let lat = self.machine.l1_missed_access(self.core, addr, false);
        let cs = self.machine.core_mut(self.core);
        cs.clock += lat;
        cs.counters.bump(|c| {
            c.stall_cycles += lat;
            c.instructions += 1;
        });
        lat
    }

    /// A store to `addr`: the core pays only the issue cost (stores drain
    /// through a store buffer), but the hierarchy state fully updates.
    /// L1 hits take the same inlined fast path as [`read`](Self::read).
    #[inline]
    pub fn write(&mut self, addr: Addr) {
        if self.machine.l1_hit_fast(self.core, addr, true).is_some() {
            return;
        }
        let lat = self.machine.l1_missed_access(self.core, addr, true);
        let cs = self.machine.core_mut(self.core);
        cs.clock += lat;
        cs.counters.bump(|c| {
            c.stall_cycles += lat;
            c.instructions += 1;
        });
    }

    /// Dependent loads covering every cache line of `[addr, addr+len)`.
    #[inline]
    pub fn read_struct(&mut self, addr: Addr, len: u64) {
        let mut line = addr & !(CACHE_LINE - 1);
        let end = addr + len.max(1);
        while line < end {
            self.read(line);
            line += CACHE_LINE;
        }
    }

    /// Stores covering every cache line of `[addr, addr+len)`.
    #[inline]
    pub fn write_struct(&mut self, addr: Addr, len: u64) {
        let mut line = addr & !(CACHE_LINE - 1);
        let end = addr + len.max(1);
        while line < end {
            self.write(line);
            line += CACHE_LINE;
        }
    }

    /// A batch of *independent* loads that the core may overlap, modelling
    /// memory-level parallelism: the stall charged is the sum of individual
    /// latencies divided by `mlp` (clamped to the machine's
    /// [`max_mlp`](crate::config::MachineConfig::max_mlp)), and never less
    /// than one cycle per access.
    ///
    /// Cache and controller state update exactly as for serial accesses, so
    /// bandwidth and occupancy are honest; only the core-visible stall is
    /// reduced.
    pub fn read_batch(&mut self, addrs: &[Addr], mlp: u32) {
        if addrs.is_empty() {
            return;
        }
        let total = self.machine.charge_read_batch(self.core, addrs);
        let n = addrs.len() as u64;
        let mlp = mlp.clamp(1, self.machine.config().max_mlp) as u64;
        let stall = (total / mlp).max(n);
        let cs = self.machine.core_mut(self.core);
        cs.clock += stall;
        cs.counters.bump(|c| {
            c.stall_cycles += stall;
            c.instructions += n;
        });
    }

    /// A load of cross-core shared data (pipeline queues, recycled
    /// buffers): like [`read`](Self::read) but pays a cache-to-cache
    /// transfer if another core holds the line modified.
    #[inline]
    pub fn shared_read(&mut self, addr: Addr) -> Cycles {
        let lat = self.machine.shared_read(self.core, addr);
        let cs = self.machine.core_mut(self.core);
        cs.clock += lat;
        cs.counters.bump(|c| {
            c.stall_cycles += lat;
            c.instructions += 1;
        });
        lat
    }

    /// A store to cross-core shared data: invalidates other cores' private
    /// copies so their next access misses (true cache-line ping-pong).
    #[inline]
    pub fn shared_write(&mut self, addr: Addr) {
        let lat = self.machine.shared_write(self.core, addr);
        let cs = self.machine.core_mut(self.core);
        cs.clock += lat;
        cs.counters.bump(|c| {
            c.stall_cycles += lat;
            c.instructions += 1;
        });
    }

    /// Shared loads covering every line of `[addr, addr+len)`.
    pub fn shared_read_struct(&mut self, addr: Addr, len: u64) {
        let mut line = addr & !(CACHE_LINE - 1);
        let end = addr + len.max(1);
        while line < end {
            self.shared_read(line);
            line += CACHE_LINE;
        }
    }

    /// Attribute everything inside `f` to the function tag `tag`
    /// (innermost-tag-wins, like a profiler's leaf attribution). Callers
    /// resolve the name once with
    /// [`TagId::intern`](crate::counters::TagId::intern); scope entry is an
    /// O(1) table lookup.
    #[inline]
    pub fn scoped_id<R>(
        &mut self,
        tag: crate::counters::TagId,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let cs = self.machine.core_mut(self.core);
        cs.counters.push_tag_id(tag);
        let depth = cs.counters.tag_depth();
        let r = f(self);
        let cs = self.machine.core_mut(self.core);
        debug_assert_eq!(cs.counters.tag_depth(), depth, "unbalanced tag scope");
        cs.counters.pop_tag();
        r
    }

    /// Count one retired packet on this core.
    #[inline]
    pub fn retire_packet(&mut self) {
        self.machine.core_mut(self.core).counters.bump(|c| c.packets += 1);
    }

    /// Count `n` retired packets on this core (batched completion).
    #[inline]
    pub fn retire_packets(&mut self, n: u64) {
        self.machine.core_mut(self.core).counters.bump(|c| c.packets += n);
    }

    /// Pre-touch the host memory of the L3 set metadata for `addrs` (pure
    /// loads, no simulated state — results are bit-identical). Callers
    /// that know a batch of lines they are about to charge (the NIC's
    /// batched DMA delivery) use this to overlap the host-memory
    /// latencies the serial charging loop would otherwise pay one by one.
    #[inline]
    pub(crate) fn prewarm(&self, addrs: &[Addr]) {
        std::hint::black_box(self.machine.prewarm_batch(self.core, addrs));
    }

    /// NIC DMA delivering a packet for this core's socket at the current
    /// clock (Direct Cache Access per machine configuration).
    pub fn dma_deliver(&mut self, addr: Addr, len: u64) {
        let socket = self.machine.socket_of(self.core);
        let now = self.now();
        self.machine.dma_deliver(socket, addr, len, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::types::{AccessKind, MemDomain, SocketId};

    fn machine() -> Machine {
        Machine::new(MachineConfig::westmere())
    }

    #[test]
    fn compute_advances_clock_and_counts() {
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        ctx.compute(100, 80);
        assert_eq!(ctx.now(), 100);
        let c = m.core(CoreId(0)).counters.total();
        assert_eq!(c.compute_cycles, 100);
        assert_eq!(c.instructions, 80);
    }

    #[test]
    fn read_stalls_for_latency() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x100;
        let mut ctx = m.ctx(CoreId(0));
        let lat = ctx.read(a);
        assert_eq!(ctx.now(), lat);
        let lat2 = ctx.read(a);
        assert_eq!(lat2, 4, "second read is an L1 hit");
    }

    #[test]
    fn read_struct_touches_all_lines() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x1000 + 60; // straddles a boundary
        let mut ctx = m.ctx(CoreId(0));
        ctx.read_struct(a, 8);
        let c = m.core(CoreId(0)).counters.total();
        assert_eq!(c.l1_refs, 2, "8 bytes at offset 60 cover two lines");
    }

    #[test]
    fn read_batch_overlaps_stall() {
        let mut m0 = machine();
        let addrs: Vec<Addr> =
            (0..8).map(|i| MemDomain(0).base() + 0x10_000 + i * 4096).collect();
        // Serial cost.
        let mut ctx = m0.ctx(CoreId(0));
        let serial: Cycles = addrs.iter().map(|&a| ctx.read(a)).sum();
        // Overlapped cost on a fresh machine.
        let mut m1 = machine();
        let mut ctx = m1.ctx(CoreId(0));
        ctx.read_batch(&addrs, 4);
        let overlapped = ctx.now();
        assert!(
            overlapped < serial / 2,
            "MLP must reduce stall: serial={serial} overlapped={overlapped}"
        );
        // Same cache state either way.
        assert_eq!(
            m0.core(CoreId(0)).counters.total().l3_misses,
            m1.core(CoreId(0)).counters.total().l3_misses
        );
    }

    #[test]
    fn read_batch_clamps_to_machine_mlp() {
        let mut m = machine();
        let addrs: Vec<Addr> =
            (0..4).map(|i| MemDomain(0).base() + 0x20_000 + i * 4096).collect();
        let mut ctx = m.ctx(CoreId(0));
        // Requesting absurd MLP is clamped; stall is at least 1 cycle/access.
        ctx.read_batch(&addrs, 1000);
        assert!(ctx.now() >= 4);
    }

    #[test]
    fn scoped_tags_attribute() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x100;
        let mut ctx = m.ctx(CoreId(0));
        ctx.scoped_id(crate::counters::TagId::intern("lookup"), |ctx| {
            ctx.read(a);
        });
        ctx.read(a + 4096);
        let cc = &m.core(CoreId(0)).counters;
        assert_eq!(cc.tag("lookup").unwrap().l1_refs, 1);
        assert_eq!(cc.total().l1_refs, 2);
    }

    #[test]
    fn shared_write_invalidates_other_cores() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x400;
        // Core 0 caches the line.
        m.ctx(CoreId(0)).read(a);
        assert!(m.l1_holds(CoreId(0), a));
        // Core 1 writes it as shared data.
        m.ctx(CoreId(1)).shared_write(a);
        assert!(!m.l1_holds(CoreId(0), a), "core 0's copy must be invalidated");
        // Core 0's next read misses L1.
        let before = m.core(CoreId(0)).counters.total().l1_hits;
        m.ctx(CoreId(0)).read(a);
        assert_eq!(m.core(CoreId(0)).counters.total().l1_hits, before);
    }

    #[test]
    fn shared_read_steals_dirty_line() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x800;
        // Core 0 dirties the line in its L1.
        m.ctx(CoreId(0)).write(a);
        assert!(m.l1_holds(CoreId(0), a));
        // Core 1 shared-reads: must pay a transfer and invalidate core 0.
        let plain = {
            let mut m2 = machine();
            m2.dma_deliver(SocketId(0), a, 64, 0); // prime L3 only
            m2.ctx(CoreId(1)).read(a)
        };
        let lat = m.ctx(CoreId(1)).shared_read(a);
        assert!(lat > plain, "dirty steal must cost more than a clean L3 hit");
        assert!(!m.l1_holds(CoreId(0), a));
    }

    #[test]
    fn ping_pong_line_misses_every_time() {
        // Two cores alternately shared-writing one line: every access after
        // the first must miss L1 (the §2.2 pipeline phenomenon).
        let mut m = machine();
        let a = MemDomain(0).base() + 0xc00;
        for _ in 0..10 {
            m.ctx(CoreId(0)).shared_write(a);
            m.ctx(CoreId(1)).shared_write(a);
        }
        let h0 = m.core(CoreId(0)).counters.total().l1_hits;
        let h1 = m.core(CoreId(1)).counters.total().l1_hits;
        assert_eq!(h0 + h1, 0, "ping-pong writes must never hit L1");
    }

    /// Replay random read/write traces through `ctx.read`/`ctx.write`
    /// (fast path engaged) and through a hand-rolled replica of the
    /// historical single-path implementation (`demand_access` + manual
    /// clock/counter bookkeeping). Every counter, both clocks, and the
    /// residency of every touched line must match bit for bit — this is
    /// the in-crate equivalence check that covers the *write* fast path,
    /// which the cross-crate proptests cannot drive independently.
    #[test]
    fn fast_paths_match_historical_single_path_on_random_traces() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut fast = machine();
        let mut slow = machine();
        let base = MemDomain(0).base();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut lines = Vec::new();
        for _ in 0..4000 {
            let line = rng.random_range(0..4096u64);
            lines.push(line);
            let addr = base + line * 64;
            let write = rng.random::<bool>();
            {
                let mut ctx = fast.ctx(CoreId(0));
                if write {
                    ctx.write(addr);
                } else {
                    ctx.read(addr);
                }
            }
            {
                // The pre-fast-path implementation, verbatim.
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let lat = slow.demand_access(CoreId(0), addr, kind);
                let cs = slow.core_mut(CoreId(0));
                cs.clock += lat;
                cs.counters.bump(|c| {
                    c.stall_cycles += lat;
                    c.instructions += 1;
                });
            }
        }
        assert_eq!(
            fast.core(CoreId(0)).counters.total(),
            slow.core(CoreId(0)).counters.total(),
            "counters must match the historical path bit for bit"
        );
        assert_eq!(fast.core(CoreId(0)).clock, slow.core(CoreId(0)).clock);
        assert_eq!(fast.l1_stats(CoreId(0)), slow.l1_stats(CoreId(0)));
        assert_eq!(fast.l2_stats(CoreId(0)), slow.l2_stats(CoreId(0)));
        for &line in &lines {
            let addr = base + line * 64;
            assert_eq!(fast.l1_holds(CoreId(0), addr), slow.l1_holds(CoreId(0), addr));
            assert_eq!(fast.l2_holds(CoreId(0), addr), slow.l2_holds(CoreId(0), addr));
        }
    }

    /// `read_batch` against its specification — one `demand_access` per
    /// address in slice order, then the MLP stall — on random batches built
    /// to hit every way a batch can interact with itself and its
    /// neighbours: all-resident runs; one cold line first, in the middle
    /// or last; same-line duplicates; more lines of one L1 set than it has
    /// ways, so a mid-batch fill evicts a line a later address wanted;
    /// stores that leave dirty victims; and a second core streaming
    /// through the shared L3 between batches, whose fills back-invalidate
    /// the first core's private lines (frequent on the tiny geometry).
    /// Prefetcher off and on. Everything observable must match.
    #[test]
    fn read_batch_matches_serial_demand_access_on_random_batches() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let serial = |m: &mut Machine, core: CoreId, addrs: &[Addr], mlp: u64| {
            let total: Cycles =
                addrs.iter().map(|&a| m.demand_access(core, a, AccessKind::Read)).sum();
            let n = addrs.len() as u64;
            let stall = (total / mlp).max(n);
            let cs = m.core_mut(core);
            cs.clock += stall;
            cs.counters.bump(|c| {
                c.stall_cycles += stall;
                c.instructions += n;
            });
        };
        let mut seed = 0;
        for base_cfg in [MachineConfig::tiny_test(), MachineConfig::westmere()] {
            for prefetch in [false, true] {
                let mut cfg = base_cfg.clone();
                cfg.prefetch.enabled = prefetch;
                seed += 1;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut fast = Machine::new(cfg.clone());
                let mut slow = Machine::new(cfg.clone());
                let base = MemDomain(0).base();
                // Hot lines fit the L1 with room to spare; cold lines
                // overflow the tiny L3 many times over.
                let hot = cfg.l1.num_lines() / 2;
                let cold = 1 << 16;
                let l1_set_stride = cfg.l1.num_sets() * CACHE_LINE;
                let mut touched = Vec::new();
                for round in 0..1500 {
                    let n = rng.random_range(1..=24usize);
                    let mut batch: Vec<Addr> = (0..n)
                        .map(|_| base + rng.random_range(0..hot) * CACHE_LINE)
                        .collect();
                    let cold_line = base + rng.random_range(hot..cold) * CACHE_LINE;
                    match rng.random_range(0..6u32) {
                        0 => {} // all hot
                        1 => batch[0] = cold_line,
                        2 => batch[n / 2] = cold_line,
                        3 => batch[n - 1] = cold_line,
                        4 => {
                            // One L1 set, more lines than ways, revisited.
                            let set = rng.random_range(0..cfg.l1.num_sets()) * CACHE_LINE;
                            let span = cfg.l1.ways as u64 + 3;
                            for a in &mut batch {
                                *a = base + set + rng.random_range(0..span) * l1_set_stride;
                            }
                        }
                        _ => {
                            // Hot and cold mixed, neighbours duplicated.
                            for i in 0..n {
                                if rng.random_range(0..4u32) == 0 {
                                    batch[i] = base + rng.random_range(0..cold) * CACHE_LINE;
                                } else if i > 0 && rng.random_range(0..4u32) == 0 {
                                    batch[i] = batch[i - 1] + rng.random_range(0..CACHE_LINE);
                                }
                            }
                        }
                    }
                    touched.extend_from_slice(&batch);
                    let mlp = rng.random_range(1..=cfg.max_mlp);
                    fast.ctx(CoreId(0)).read_batch(&batch, mlp);
                    serial(&mut slow, CoreId(0), &batch, mlp as u64);
                    if round % 3 == 0 {
                        let a = batch[rng.random_range(0..n)];
                        fast.ctx(CoreId(0)).write(a);
                        slow.ctx(CoreId(0)).write(a);
                    }
                    if round % 4 == 0 {
                        let start = rng.random_range(0..cold);
                        let stream: Vec<Addr> =
                            (0..32).map(|i| base + (start + i) % cold * CACHE_LINE).collect();
                        touched.extend_from_slice(&stream);
                        fast.ctx(CoreId(1)).read_batch(&stream, 4);
                        serial(&mut slow, CoreId(1), &stream, 4);
                    }
                    for core in [CoreId(0), CoreId(1)] {
                        assert_eq!(
                            fast.core(core).counters.total(),
                            slow.core(core).counters.total(),
                            "seed {seed} round {round} {core:?}"
                        );
                        assert_eq!(fast.core(core).clock, slow.core(core).clock);
                    }
                }
                for core in [CoreId(0), CoreId(1)] {
                    assert_eq!(fast.l1_stats(core), slow.l1_stats(core));
                    assert_eq!(fast.l2_stats(core), slow.l2_stats(core));
                    assert_eq!(fast.prefetch_stats(core), slow.prefetch_stats(core));
                    for &a in &touched {
                        assert_eq!(fast.l1_holds(core, a), slow.l1_holds(core, a));
                        assert_eq!(fast.l2_holds(core, a), slow.l2_holds(core, a));
                    }
                }
                assert_eq!(fast.l3_stats(SocketId(0)), slow.l3_stats(SocketId(0)));
                assert_eq!(fast.memctrl_stats(SocketId(0)), slow.memctrl_stats(SocketId(0)));
                for &a in &touched {
                    assert_eq!(fast.l3_holds(SocketId(0), a), slow.l3_holds(SocketId(0), a));
                }
                if cfg.l3.num_lines() < cold {
                    assert!(
                        fast.l1_stats(CoreId(0)).invalidations > 0,
                        "the second core's L3 fills must back-invalidate core 0"
                    );
                }
            }
        }
    }

    #[test]
    fn retire_packet_counts() {
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(3));
        ctx.retire_packet();
        ctx.retire_packet();
        assert_eq!(m.core(CoreId(3)).counters.total().packets, 2);
    }
}
