//! The machine: topology plus the demand-access path that routes every load
//! and store through the cache hierarchy, the home memory controller, and —
//! for remote data — the QPI interconnect.
//!
//! The access path is the simulator's hot loop; it is written as plain
//! branch-and-return code with no allocation.

use crate::arena::DomainAllocator;
use crate::cache::{Cache, CacheStats, LookupResult};
use crate::config::MachineConfig;
use crate::counters::CoreCounters;
use crate::interconnect::Interconnect;
use crate::memctrl::{MemCtrl, MemCtrlStats};
use crate::prefetch::{PrefetchStats, StreamPrefetcher};
use crate::types::{
    domain_of, line_of, AccessKind, Addr, CoreId, Cycles, MemDomain, SocketId, CACHE_LINE,
};

/// Mutable state of one simulated core.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// The core's local clock (cycles since simulation start).
    pub clock: Cycles,
    /// Performance counters (totals and per-tag).
    pub counters: CoreCounters,
    /// The socket this core belongs to.
    pub socket: SocketId,
}

/// The simulated platform. See [`MachineConfig::westmere`] for the default
/// topology (2 sockets × 6 cores, private L1/L2, shared inclusive L3,
/// one memory controller per socket, QPI between sockets).
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<CoreState>,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    memctrl: Vec<MemCtrl>,
    qpi: Interconnect,
    allocators: Vec<DomainAllocator>,
    /// Per-core stream prefetchers (empty when disabled in the config).
    prefetchers: Vec<StreamPrefetcher>,
    /// Lines delivered by DMA since construction (diagnostic).
    pub dma_lines: u64,
}

impl Machine {
    /// Build a machine from a configuration. Panics on invalid geometry.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.total_cores() <= 16,
            "presence masks are u16: at most 16 cores supported"
        );
        let cores = (0..cfg.total_cores())
            .map(|i| CoreState {
                clock: 0,
                counters: CoreCounters::new(),
                socket: SocketId((i / cfg.cores_per_socket as usize) as u8),
            })
            .collect();
        let l1 = (0..cfg.total_cores()).map(|_| Cache::new(cfg.l1)).collect();
        let l2 = (0..cfg.total_cores()).map(|_| Cache::new(cfg.l2)).collect();
        let l3 = (0..cfg.sockets).map(|_| Cache::new(cfg.l3)).collect();
        let memctrl =
            (0..cfg.sockets).map(|_| MemCtrl::new(cfg.memctrl_service)).collect();
        let qpi = Interconnect::new(cfg.sockets, cfg.lat_qpi, cfg.qpi_service);
        let allocators =
            (0..cfg.sockets).map(|d| DomainAllocator::new(MemDomain(d))).collect();
        let prefetchers = if cfg.prefetch.enabled {
            (0..cfg.total_cores())
                .map(|_| StreamPrefetcher::new(cfg.prefetch.streams, cfg.prefetch.degree))
                .collect()
        } else {
            Vec::new()
        };
        Machine {
            cfg,
            cores,
            l1,
            l2,
            l3,
            memctrl,
            qpi,
            allocators,
            prefetchers,
            dma_lines: 0,
        }
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Immutable view of one core's state.
    pub fn core(&self, core: CoreId) -> &CoreState {
        &self.cores[core.index()]
    }

    /// Mutable view of one core's state.
    pub fn core_mut(&mut self, core: CoreId) -> &mut CoreState {
        &mut self.cores[core.index()]
    }

    /// The socket a core belongs to.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        self.cores[core.index()].socket
    }

    /// The allocator for a NUMA domain (used when building data structures).
    pub fn allocator(&mut self, domain: MemDomain) -> &mut DomainAllocator {
        &mut self.allocators[domain.index()]
    }

    /// Aggregate statistics of a core's private L1 (diagnostics).
    pub fn l1_stats(&self, core: CoreId) -> CacheStats {
        self.l1[core.index()].stats()
    }

    /// Aggregate statistics of a core's private L2 (diagnostics).
    pub fn l2_stats(&self, core: CoreId) -> CacheStats {
        self.l2[core.index()].stats()
    }

    /// Aggregate statistics of a socket's L3.
    pub fn l3_stats(&self, socket: SocketId) -> CacheStats {
        self.l3[socket.index()].stats()
    }

    /// Aggregate statistics of a socket's memory controller.
    pub fn memctrl_stats(&self, socket: SocketId) -> MemCtrlStats {
        self.memctrl[socket.index()].stats()
    }

    /// Whether `addr` is resident in a core's L1 (test/diagnostic).
    pub fn l1_holds(&self, core: CoreId, addr: Addr) -> bool {
        self.l1[core.index()].probe(addr)
    }

    /// Whether `addr` is resident in a core's L2 (test/diagnostic).
    pub fn l2_holds(&self, core: CoreId, addr: Addr) -> bool {
        self.l2[core.index()].probe(addr)
    }

    /// Whether `addr` is resident in a socket's L3 (test/diagnostic).
    pub fn l3_holds(&self, socket: SocketId, addr: Addr) -> bool {
        self.l3[socket.index()].probe(addr)
    }

    /// Largest core clock.
    pub fn max_clock(&self) -> Cycles {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    #[inline]
    fn presence_bit(core: CoreId) -> u16 {
        1u16 << core.0
    }

    /// The L3 fill mask for a core: its CAT partition, or all ways.
    #[inline]
    fn l3_mask(&self, ci: usize) -> u64 {
        match &self.cfg.l3_way_masks {
            Some(masks) => masks[ci] as u64,
            None => u64::MAX,
        }
    }

    /// Prefetcher statistics for one core (zeroes when disabled).
    pub fn prefetch_stats(&self, core: CoreId) -> PrefetchStats {
        self.prefetchers
            .get(core.index())
            .map(|p| p.stats)
            .unwrap_or_default()
    }

    /// Train the core's stream prefetcher and perform the fills it
    /// requests. The streamer watches all L2 traffic (hits keep the stream
    /// position current, as on real hardware — training only on misses
    /// would stall the stream the moment it catches up). Prefetch traffic
    /// costs the core nothing directly — it consumes memory-controller
    /// bandwidth and cache space.
    fn prefetch_train(&mut self, ci: usize, addr: Addr, now: Cycles) {
        if self.prefetchers.is_empty() {
            return;
        }
        let (targets, n) = self.prefetchers[ci].train(addr);
        for &line in &targets[..n] {
            // Skip lines already resident (no bandwidth spent).
            if self.l2[ci].probe(line) {
                self.prefetchers[ci].stats.dropped_resident += 1;
                continue;
            }
            let si = self.cores[ci].socket.index();
            let pres = 1u16 << ci;
            if self.l3[si].access(line, false, pres) == LookupResult::Hit {
                self.prefetchers[ci].stats.l3_hits += 1;
            } else {
                // Fill from DRAM: bandwidth-only (the core does not wait).
                let home = domain_of(line).home_socket();
                self.memctrl[home.index()].posted_prefetch(now);
                self.prefetchers[ci].stats.dram_fills += 1;
                let mask = self.l3_mask(ci);
                self.fill_l3(si, line, false, pres, now, mask);
            }
            self.fill_l2(ci, line, now);
        }
    }

    /// Pre-touch the host cache with the L2/L3 set blocks of a batch of
    /// addresses (see [`Cache::prewarm`]): pure loads, no simulated state,
    /// bit-identical results. Called by
    /// [`charge_read_batch`](Self::charge_read_batch) from a batch's first
    /// L1 miss on, and by the NIC's batched DMA delivery through
    /// `ExecCtx::prewarm` — both know their addresses before they walk them.
    #[inline]
    pub(crate) fn prewarm_batch(&self, core: CoreId, addrs: &[Addr]) -> u64 {
        let ci = core.index();
        let si = self.cores[ci].socket.index();
        // The L1 arrays (8 KB) live in the host L1d — touching them here
        // would be pure overhead — but the L2 (64 KB) and L3 (megabytes)
        // set metadata miss it, so their latencies are worth overlapping.
        let mut acc = 0u64;
        for &a in addrs {
            acc ^= self.l2[ci].prewarm(a);
            acc ^= self.l3[si].prewarm(a);
        }
        acc
    }

    /// The L1-hit fast path (PR 3): commit a demand access entirely — cache
    /// state, counters, *and* the core clock — iff it hits the core's L1,
    /// returning the core-visible latency. On a miss nothing simulated
    /// changes and the caller continues with
    /// [`l1_missed_access`](Self::l1_missed_access), which records the
    /// miss and walks on from the L2 without scanning the L1 set again.
    ///
    /// Why skipping the full walk is sound (the fast path's invariants):
    ///
    /// * an L1 hit never trains the L2 stream prefetcher (`prefetch_train`
    ///   runs only after an L1 miss in the slow path);
    /// * it causes no fill, eviction, write-back, or back-invalidation at
    ///   any level, and touches no memory-controller or QPI queue;
    /// * its latency is a config constant (`lat_l1` / `store_issue_cost`),
    ///   independent of machine state;
    /// * private caches carry no presence mask (always zero), so the
    ///   presence-free [`Cache::hit_update`] performs the complete hit.
    ///
    /// Any access that can violate one of these (shared reads/writes with
    /// their dirty-steal scan, DMA) must keep using the full paths.
    /// Counter deltas are identical to the slow path's L1-hit stanza: one
    /// merged bump of `l1_refs`, `l1_hits`, `stall_cycles`, `instructions`.
    #[inline]
    pub(crate) fn l1_hit_fast(
        &mut self,
        core: CoreId,
        addr: Addr,
        write: bool,
    ) -> Option<Cycles> {
        let ci = core.index();
        if !self.l1[ci].hit_update(addr, write) {
            return None;
        }
        let lat = if write { self.cfg.store_issue_cost } else { self.cfg.lat_l1 };
        let cs = &mut self.cores[ci];
        cs.clock += lat;
        cs.counters.bump(|c| {
            c.l1_refs += 1;
            c.l1_hits += 1;
            c.stall_cycles += lat;
            c.instructions += 1;
        });
        Some(lat)
    }

    /// The demand-access path. Returns the core-visible latency; the caller
    /// (an [`ExecCtx`](crate::ctx::ExecCtx)) advances the core clock.
    ///
    /// Counter bumps are merged into one `bump` per exit point (PR-3 audit:
    /// the pending accumulator makes bump *order* unobservable, so the sums
    /// are bit-identical to the historical one-bump-per-event sequence).
    pub(crate) fn demand_access(
        &mut self,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycles {
        let ci = core.index();
        let write = matches!(kind, AccessKind::Write);
        if self.l1[ci].hit_update(addr, write) {
            self.cores[ci].counters.bump(|c| {
                c.l1_refs += 1;
                c.l1_hits += 1;
            });
            return if write { self.cfg.store_issue_cost } else { self.cfg.lat_l1 };
        }
        self.l1_missed_access(core, addr, write)
    }

    /// Continue a demand access whose L1 lookup has already been performed
    /// and missed with state untouched (a failed [`Cache::hit_update`]) —
    /// the fast path's fallback, also the tail of
    /// [`demand_access`](Self::demand_access). Records the L1 miss exactly
    /// as the historical single-pass lookup did, then walks L2 → L3 → the
    /// home memory controller.
    pub(crate) fn l1_missed_access(
        &mut self,
        core: CoreId,
        addr: Addr,
        write: bool,
    ) -> Cycles {
        let ci = core.index();
        let socket = self.cores[ci].socket;
        let si = socket.index();
        let now = self.cores[ci].clock;

        self.l1[ci].record_miss();
        let l2_hit = self.l2[ci].access(addr, false, 0) == LookupResult::Hit;
        // The L2 streamer observes all L2 traffic and may run ahead.
        self.prefetch_train(ci, addr, now);
        if l2_hit {
            self.fill_l1(ci, addr, write, now);
            self.cores[ci].counters.bump(|c| {
                c.l1_refs += 1;
                c.l2_refs += 1;
                c.l2_hits += 1;
            });
            return if write { self.cfg.store_issue_cost } else { self.cfg.lat_l2 };
        }

        // This access reaches the shared last-level cache: the paper's
        // "cache reference".
        let pres = Self::presence_bit(core);
        if self.l3[si].access(addr, false, pres) == LookupResult::Hit {
            self.fill_l2(ci, addr, now);
            self.fill_l1(ci, addr, write, now);
            self.cores[ci].counters.bump(|c| {
                c.l1_refs += 1;
                c.l2_refs += 1;
                c.l3_refs += 1;
                c.l3_hits += 1;
            });
            return if write { self.cfg.store_issue_cost } else { self.cfg.lat_l3 };
        }

        // L3 miss: go to the home memory controller, possibly across QPI.
        let home = domain_of(addr).home_socket();
        let mut lat = self.cfg.lat_dram();
        let remote = (home != socket) as u64;
        if remote != 0 {
            lat += self.qpi.transfer(socket, home, now);
        }
        lat += self.memctrl[home.index()].demand_read(now);

        let mask = self.l3_mask(ci);
        self.fill_l3(si, addr, false, pres, now, mask);
        self.fill_l2(ci, addr, now);
        self.fill_l1(ci, addr, write, now);
        self.cores[ci].counters.bump(|c| {
            c.l1_refs += 1;
            c.l2_refs += 1;
            c.l3_refs += 1;
            c.l3_misses += 1;
            c.remote_accesses += remote;
        });
        if write {
            self.cfg.store_issue_cost
        } else {
            lat
        }
    }

    /// The charging walk of a
    /// [`read_batch`](crate::ctx::ExecCtx::read_batch): commit the run of
    /// L1-resident addresses at the head of the batch in one
    /// [`Cache::hit_run`], walk the first miss through L2 → L3 → memory
    /// with [`l1_missed_access`](Self::l1_missed_access), and start the
    /// next run after it. Returns the summed core-visible latency; the
    /// caller applies the MLP overlap and advances the clock.
    ///
    /// This is the serial walk — one
    /// [`demand_access`](Self::demand_access) per address in slice order —
    /// and serial order is part of the model: memory-controller and QPI
    /// delays depend on arrival order, and a batch's own fills and
    /// back-invalidations decide what its later addresses find. Why the
    /// run form is exact:
    ///
    /// * addresses are still committed strictly in slice order;
    /// * a hit never moves a tag, so the run `hit_run` commits is exactly
    ///   the hits the serial loop would have found before its next miss;
    /// * after every miss walk (fill, eviction, back-invalidation) the next
    ///   `hit_run` reads live cache state, so a duplicate of the line just
    ///   filled hits and a line the fill evicted misses, as they would
    ///   serially;
    /// * `now` is constant inside a batch — `read_batch` advances the core
    ///   clock only after the walk — so when the hits' latency is added
    ///   changes nothing a miss walk can see;
    /// * the hits' counters land in one merged bump after the misses'
    ///   bumps; order is unobservable without a scope boundary
    ///   (ARCHITECTURE.md invariant 6), and none can fall inside a batch.
    ///
    /// The host-cache prewarm is a pure host hint, issued once, from the
    /// batch's first miss on: a batch that never leaves the L1 touches no
    /// L2/L3 metadata at all. (A level-synchronous alternative was built,
    /// proven bit-identical and measured slower; ARCHITECTURE.md keeps the
    /// finding.)
    pub(crate) fn charge_read_batch(&mut self, core: CoreId, addrs: &[Addr]) -> Cycles {
        let ci = core.index();
        let mut missed: Cycles = 0;
        let mut misses = 0u64;
        let mut k = 0;
        loop {
            k += self.l1[ci].hit_run(&addrs[k..]);
            if k == addrs.len() {
                break;
            }
            if misses == 0 {
                // Overlap the host-memory latencies of the set metadata the
                // rest of the batch may walk — the host-side analogue of the
                // MLP this call models.
                std::hint::black_box(self.prewarm_batch(core, &addrs[k..]));
            }
            missed += self.l1_missed_access(core, addrs[k], false);
            misses += 1;
            k += 1;
        }
        let hits = addrs.len() as u64 - misses;
        self.cores[ci].counters.bump(|c| {
            c.l1_refs += hits;
            c.l1_hits += hits;
        });
        missed + hits * self.cfg.lat_l1
    }

    /// Union of the L3 directory masks for a line over all sockets. Because
    /// every L3 is inclusive and every private fill passes through the
    /// filling core's L3 with its presence bit set, this is a superset of
    /// the cores whose L1/L2 may hold the line — the coherence paths below
    /// visit only these cores instead of scanning every private cache
    /// (bit-identical: invalidating or probing a line that is not resident
    /// changes nothing, and non-mask cores cannot hold the line).
    #[inline]
    fn private_holders(&self, line: Addr) -> u16 {
        let mut mask = 0u16;
        for l3 in &self.l3 {
            mask |= l3.probe_presence(line).unwrap_or(0);
        }
        mask
    }

    /// Insert into a core's L1, pushing any dirty victim down the hierarchy.
    fn fill_l1(&mut self, ci: usize, addr: Addr, dirty: bool, now: Cycles) {
        if let Some(ev) = self.l1[ci].insert(addr, dirty, 0) {
            if ev.dirty
                && self.l2[ci].access(ev.line_addr, true, 0) == LookupResult::Miss {
                    // Not in L2 (back-invalidated or capacity-evicted);
                    // forward to L3 / memory.
                    let si = self.cores[ci].socket.index();
                    self.writeback(si, ev.line_addr, now);
                }
        }
    }

    /// Insert into a core's L2, pushing any dirty victim down.
    fn fill_l2(&mut self, ci: usize, addr: Addr, now: Cycles) {
        if let Some(ev) = self.l2[ci].insert(addr, false, 0) {
            if ev.dirty {
                let si = self.cores[ci].socket.index();
                self.writeback(si, ev.line_addr, now);
            }
        }
    }

    /// A dirty line leaving a private cache: update the L3 copy if present,
    /// otherwise post a DRAM write at the line's home controller.
    fn writeback(&mut self, si: usize, line_addr: Addr, now: Cycles) {
        if self.l3[si].access(line_addr, true, 0) == LookupResult::Miss {
            let home = domain_of(line_addr).home_socket();
            self.memctrl[home.index()].posted_write(now);
        }
    }

    /// Insert into a socket's inclusive L3, restricted to `way_mask` (CAT).
    /// Evicting a line back-invalidates every private copy recorded in the
    /// directory mask; dirty data (from the L3 line or any private copy) is
    /// posted to the home controller.
    fn fill_l3(
        &mut self,
        si: usize,
        addr: Addr,
        dirty: bool,
        presence: u16,
        now: Cycles,
        way_mask: u64,
    ) {
        // The unmasked specialization serves the no-CAT common case.
        let ev = if way_mask == u64::MAX {
            self.l3[si].insert(addr, dirty, presence)
        } else {
            self.l3[si].insert_masked(addr, dirty, presence, way_mask)
        };
        let Some(ev) = ev else { return };
        let mut any_dirty = ev.dirty;
        if ev.presence != 0 {
            let mut mask = ev.presence;
            while mask != 0 {
                let c = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if c < self.cores.len() {
                    if let Some(d) = self.l1[c].invalidate(ev.line_addr) {
                        any_dirty |= d;
                    }
                    if let Some(d) = self.l2[c].invalidate(ev.line_addr) {
                        any_dirty |= d;
                    }
                }
            }
        }
        if any_dirty {
            let home = domain_of(ev.line_addr).home_socket();
            self.memctrl[home.index()].posted_write(now);
        }
    }

    /// A load of a line that other cores may hold modified (cross-core
    /// shared data: pipeline queues, recycled buffers). If another core's
    /// private cache holds the line dirty, a cache-to-cache transfer is
    /// modeled: the owner's copy is invalidated, the L3 copy refreshed, and
    /// an extra L3-latency penalty returned on top of the normal access.
    ///
    /// The paper's parallel configuration has *no* such accesses by design
    /// (§2.2); pipeline mode uses them for every cross-core handoff, which
    /// is where its 10–15 extra misses per packet come from.
    pub(crate) fn shared_read(&mut self, core: CoreId, addr: Addr) -> Cycles {
        let penalty = self.steal_dirty_remote(core, addr);
        penalty + self.demand_access(core, addr, AccessKind::Read)
    }

    /// A store to a line other cores may hold: invalidates every other
    /// core's private copy first (so their next access misses), then
    /// performs a normal store.
    pub(crate) fn shared_write(&mut self, core: CoreId, addr: Addr) -> Cycles {
        let mut penalty = self.steal_dirty_remote(core, addr);
        let mut mask =
            self.private_holders(line_of(addr)) & !Self::presence_bit(core);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if i < self.cores.len() {
                self.l1[i].invalidate(addr);
                self.l2[i].invalidate(addr);
            }
        }
        penalty += self.demand_access(core, addr, AccessKind::Write);
        penalty
    }

    /// If any other core's private cache holds `addr` dirty, pull the data:
    /// invalidate the owner's copies, refresh the L3 copy (or post a memory
    /// write if the L3 no longer holds the line), and charge one L3 latency
    /// for the cache-to-cache transfer.
    fn steal_dirty_remote(&mut self, core: CoreId, addr: Addr) -> Cycles {
        let me = core.index();
        let mut transferred = false;
        let mut mask =
            self.private_holders(line_of(addr)) & !Self::presence_bit(core);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if i >= self.cores.len() {
                continue;
            }
            let dirty_l1 = self.l1[i].probe_dirty(addr) == Some(true);
            let dirty_l2 = self.l2[i].probe_dirty(addr) == Some(true);
            if dirty_l1 || dirty_l2 {
                self.l1[i].invalidate(addr);
                self.l2[i].invalidate(addr);
                let si = self.cores[i].socket.index();
                let now = self.cores[me].clock;
                self.writeback(si, addr, now);
                transferred = true;
            }
        }
        if transferred {
            self.cfg.lat_l3
        } else {
            0
        }
    }

    /// NIC DMA delivering `len` bytes at `addr` for a core on `socket`.
    ///
    /// With DCA (the platform default), lines are pushed directly into the
    /// socket's L3 marked dirty — the core's subsequent header reads hit in
    /// L3. Without DCA, the data is posted to DRAM and the first reads miss.
    pub fn dma_deliver(&mut self, socket: SocketId, addr: Addr, len: u64, now: Cycles) {
        let si = socket.index();
        let mut line = line_of(addr);
        let end = addr + len.max(1);
        while line < end {
            self.dma_lines += 1;
            // DMA writes are coherent: any stale private-cache copy of the
            // (recycled) buffer line must be invalidated, or the core would
            // see phantom L1/L2 hits on data the NIC just replaced. Only
            // cores named in the L3 directory masks can hold a copy (see
            // `private_holders`), so the sweep visits those instead of
            // every private cache on the machine.
            //
            // One read-only scan of the home socket's L3 serves both the
            // directory probe and the DCA access that follows (PR 5): the
            // sweep between them touches only private L1/L2 caches, so
            // the scanned way cannot move and the commit primitives
            // (`hit_commit`/`miss_commit`, contracts in `cache.rs`) apply
            // exactly the state the original probe-then-access pair did.
            // Remote sockets' L3s are only probed when non-empty (their
            // `valid`-count shortcut) — in solo runs that skips a cold
            // megabyte-scale tag walk per delivered line.
            let (tag, base, mask_hit, invalid) = self.l3[si].probe_scan(line);
            let way = if mask_hit != 0 {
                Some(mask_hit.trailing_zeros() as usize)
            } else {
                None
            };
            let mut mask = way.map(|w| self.l3[si].presence_at(base, w)).unwrap_or(0);
            for (s, l3) in self.l3.iter().enumerate() {
                if s != si {
                    mask |= l3.probe_presence(line).unwrap_or(0);
                }
            }
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if i < self.cores.len() {
                    self.l1[i].invalidate(line);
                    self.l2[i].invalidate(line);
                }
            }
            if self.cfg.dca {
                match way {
                    Some(w) => self.l3[si].hit_commit(tag, base, w, true, 0),
                    None => {
                        self.l3[si].miss_commit(tag, base, invalid);
                        // IO fills are not subject to any core's CAT mask.
                        self.fill_l3(si, line, true, 0, now, u64::MAX);
                    }
                }
            } else {
                let home = domain_of(line).home_socket();
                self.memctrl[home.index()].posted_write(now);
                // Without DCA the data lands only in DRAM.
                self.l3[si].invalidate(line);
            }
            line += CACHE_LINE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::westmere())
    }

    #[test]
    fn topology_matches_config() {
        let m = machine();
        assert_eq!(m.cores.len(), 12);
        assert_eq!(m.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(m.socket_of(CoreId(5)), SocketId(0));
        assert_eq!(m.socket_of(CoreId(6)), SocketId(1));
        assert_eq!(
            m.cores.iter().filter(|c| c.socket == SocketId(1)).count(),
            6
        );
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_l1() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x1000;
        let lat1 = m.demand_access(CoreId(0), a, AccessKind::Read);
        assert!(lat1 >= m.config().lat_dram(), "cold access must reach DRAM");
        let lat2 = m.demand_access(CoreId(0), a, AccessKind::Read);
        assert_eq!(lat2, m.config().lat_l1);
        let c = m.core(CoreId(0)).counters.total();
        assert_eq!(c.l1_refs, 2);
        assert_eq!(c.l1_hits, 1);
        assert_eq!(c.l3_refs, 1);
        assert_eq!(c.l3_misses, 1);
    }

    #[test]
    fn remote_access_pays_qpi_and_counts() {
        let mut m = machine();
        // Core 0 is on socket 0; address homed in domain 1.
        let a = MemDomain(1).base() + 0x2000;
        let lat = m.demand_access(CoreId(0), a, AccessKind::Read);
        assert!(
            lat >= m.config().lat_dram() + m.config().lat_qpi,
            "remote access must include a QPI hop (lat={lat})"
        );
        assert_eq!(m.core(CoreId(0)).counters.total().remote_accesses, 1);
        // Data is cached in the *requester's* L3 (socket 0).
        assert!(m.l3_holds(SocketId(0), a));
        assert!(!m.l3_holds(SocketId(1), a));
    }

    #[test]
    fn write_returns_store_issue_cost_but_updates_hierarchy() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x3000;
        let lat = m.demand_access(CoreId(2), a, AccessKind::Write);
        assert_eq!(lat, m.config().store_issue_cost);
        assert!(m.l1_holds(CoreId(2), a));
        assert_eq!(m.core(CoreId(2)).counters.total().l3_misses, 1);
    }

    #[test]
    fn l3_hit_after_l2_eviction() {
        // Touch enough distinct lines to overflow L1+L2 but not L3, then
        // re-touch the first line: it should be an L3 hit.
        let mut m = machine();
        let base = MemDomain(0).base();
        let l2_lines = m.config().l2.num_lines();
        let n = l2_lines * 4; // 4x L2 capacity, << L3 capacity
        for i in 0..n {
            m.demand_access(CoreId(0), base + i * CACHE_LINE, AccessKind::Read);
        }
        let before = m.core(CoreId(0)).counters.total().l3_hits;
        m.demand_access(CoreId(0), base, AccessKind::Read);
        let after = m.core(CoreId(0)).counters.total().l3_hits;
        assert_eq!(after, before + 1, "re-touch should hit in L3");
    }

    #[test]
    fn inclusive_l3_back_invalidates_private_copies() {
        // Fill core 0's L1 with a line, then have core 1 (same socket)
        // stream enough lines through the L3 to evict it; core 0's next
        // access must miss all the way to DRAM.
        let mut m = machine();
        let hot = MemDomain(0).base() + 0x40;
        m.demand_access(CoreId(0), hot, AccessKind::Read);
        assert!(m.l1_holds(CoreId(0), hot));
        let l3_lines = m.config().l3.num_lines();
        let base = MemDomain(0).base() + (1u64 << 30);
        for i in 0..(l3_lines * 2) {
            m.demand_access(CoreId(1), base + i * CACHE_LINE, AccessKind::Read);
        }
        assert!(!m.l3_holds(SocketId(0), hot), "hot line should be evicted from L3");
        assert!(!m.l1_holds(CoreId(0), hot), "back-invalidation must purge L1 copy");
        let misses_before = m.core(CoreId(0)).counters.total().l3_misses;
        m.demand_access(CoreId(0), hot, AccessKind::Read);
        assert_eq!(m.core(CoreId(0)).counters.total().l3_misses, misses_before + 1);
    }

    #[test]
    fn dca_dma_lands_in_l3() {
        let mut m = machine();
        let a = MemDomain(0).base() + 0x8000;
        m.dma_deliver(SocketId(0), a, 256, 0);
        assert!(m.l3_holds(SocketId(0), a));
        assert!(m.l3_holds(SocketId(0), a + 192));
        // Core read is an L3 hit, not a DRAM access.
        let lat = m.demand_access(CoreId(0), a, AccessKind::Read);
        assert_eq!(lat, m.config().lat_l3);
    }

    #[test]
    fn dma_without_dca_goes_to_dram() {
        let mut cfg = MachineConfig::westmere();
        cfg.dca = false;
        let mut m = Machine::new(cfg);
        let a = MemDomain(0).base() + 0x8000;
        m.dma_deliver(SocketId(0), a, 64, 0);
        assert!(!m.l3_holds(SocketId(0), a));
        let lat = m.demand_access(CoreId(0), a, AccessKind::Read);
        assert!(lat >= m.config().lat_dram());
        assert!(m.memctrl_stats(SocketId(0)).writes >= 1);
    }

    #[test]
    fn dirty_eviction_writes_back_to_memory_controller() {
        let mut m = machine();
        let base = MemDomain(0).base();
        // Dirty one line, then stream 2x L3 capacity to force it out.
        m.demand_access(CoreId(0), base, AccessKind::Write);
        let l3_lines = m.config().l3.num_lines();
        let far = base + (1u64 << 30);
        for i in 0..(l3_lines * 2) {
            m.demand_access(CoreId(0), far + i * CACHE_LINE, AccessKind::Read);
        }
        assert!(m.memctrl_stats(SocketId(0)).writes >= 1, "dirty data must reach DRAM");
    }

    #[test]
    fn prefetcher_turns_sequential_l2_misses_into_hits() {
        let mut on_cfg = MachineConfig::westmere();
        on_cfg.prefetch.enabled = true;
        let run = |cfg: MachineConfig| {
            let mut m = Machine::new(cfg);
            let base = MemDomain(0).base() + 0x100_000;
            for i in 0..512u64 {
                m.demand_access(CoreId(0), base + i * CACHE_LINE, AccessKind::Read);
            }
            let c = m.core(CoreId(0)).counters.total();
            (c.l2_hits, c.l3_misses, m.prefetch_stats(CoreId(0)))
        };
        let (hits_off, miss_off, _) = run(MachineConfig::westmere());
        let (hits_on, miss_on, pf) = run(on_cfg);
        assert!(pf.issued > 100, "sequential scan must train the streamer");
        assert!(
            hits_on > hits_off + 400,
            "prefetch should convert most L2 misses to hits: {hits_off} -> {hits_on}"
        );
        assert!(
            miss_on < miss_off / 2,
            "demand L3 misses should collapse: {miss_off} -> {miss_on}"
        );
    }

    #[test]
    fn prefetcher_is_useless_for_random_access() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut cfg = MachineConfig::westmere();
        cfg.prefetch.enabled = true;
        let mut m = Machine::new(cfg);
        let mut rng = SmallRng::seed_from_u64(3);
        let base = MemDomain(0).base();
        for _ in 0..2000 {
            let a = base + (rng.random::<u32>() as u64 & 0xFF_FFC0);
            m.demand_access(CoreId(0), a, AccessKind::Read);
        }
        let pf = m.prefetch_stats(CoreId(0));
        assert!(pf.trained > 1500);
        assert!(
            pf.issued < pf.trained / 20,
            "random probes must not look like streams ({} issued)",
            pf.issued
        );
    }

    #[test]
    fn prefetch_disabled_changes_nothing() {
        // The default config must behave identically to a build without the
        // prefetcher code path (calibration safety).
        let mut m = Machine::new(MachineConfig::westmere());
        let base = MemDomain(0).base() + 0x40_000;
        for i in 0..64u64 {
            m.demand_access(CoreId(0), base + i * CACHE_LINE, AccessKind::Read);
        }
        assert_eq!(m.prefetch_stats(CoreId(0)), crate::prefetch::PrefetchStats::default());
        assert_eq!(m.memctrl_stats(SocketId(0)).prefetches, 0);
    }

    #[test]
    fn cat_partition_protects_victim_from_thrash() {
        // Victim (core 0) caches a hot line; aggressor (core 1) streams 2x
        // the L3. Unpartitioned: the hot line is evicted. With equal CAT:
        // it survives, because the aggressor may only fill its own ways.
        let run = |cfg: MachineConfig| {
            let mut m = Machine::new(cfg);
            let hot = MemDomain(0).base() + 0x40;
            m.demand_access(CoreId(0), hot, AccessKind::Read);
            let l3_lines = m.config().l3.num_lines();
            let far = MemDomain(0).base() + (1u64 << 30);
            for i in 0..(l3_lines * 2) {
                m.demand_access(CoreId(1), far + i * CACHE_LINE, AccessKind::Read);
            }
            m.l3_holds(SocketId(0), hot)
        };
        assert!(!run(MachineConfig::westmere()), "unpartitioned: line evicted");
        assert!(
            run(MachineConfig::westmere().with_equal_cat()),
            "CAT: victim's line survives the aggressor"
        );
    }

    #[test]
    fn cat_does_not_block_cross_partition_hits() {
        let mut m = Machine::new(MachineConfig::westmere().with_equal_cat());
        let a = MemDomain(0).base() + 0x9000;
        // Core 1 fills the line into its partition.
        m.demand_access(CoreId(1), a, AccessKind::Read);
        // Core 0 still gets an L3 hit (allocation is constrained, not
        // lookup).
        let lat = m.demand_access(CoreId(0), a, AccessKind::Read);
        assert_eq!(lat, m.config().lat_l3);
    }

    #[test]
    fn allocators_hand_out_domain_addresses() {
        let mut m = machine();
        let a0 = m.allocator(MemDomain(0)).alloc_lines(4096);
        let a1 = m.allocator(MemDomain(1)).alloc_lines(4096);
        assert_eq!(domain_of(a0), MemDomain(0));
        assert_eq!(domain_of(a1), MemDomain(1));
    }
}
