//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement.
//!
//! One [`Cache`] instance models one level (L1d, L2, or a socket's shared
//! L3). The same structure serves all levels; the L3 additionally uses the
//! per-line *presence mask* as an in-cache coherence directory recording
//! which cores' private caches may hold the line (the L3 is inclusive, as on
//! the paper's Westmere platform, so evicting an L3 line must back-invalidate
//! private copies — the caller drives that using the mask returned by
//! [`Cache::insert`]).
//!
//! The paper's central phenomena — hit-to-miss conversion under contention
//! and its flattening shape (Figs. 5, 7) — emerge from exactly this LRU
//! sharing behaviour. The *semantics* are deliberately faithful and
//! unclever; the PR-2-era array-of-structs implementation is preserved
//! verbatim in [`crate::reference`] as the executable specification, and
//! property tests assert this module matches it operation for operation.
//!
//! ## SoA layout and host-speed machinery (PR 3 hot-path overhaul)
//!
//! The simulator's wall-clock is dominated by these lookups, so way
//! metadata is stored structure-of-arrays: a compact `tags` array (the
//! only thing a lookup scans — for an 8-way set that is 64 contiguous
//! bytes, one host cache line, instead of eight 40-byte `Line` structs
//! spread over five) and a packed `meta` array carrying LRU stamp,
//! presence mask, and dirty bit in one word, both indexed
//! `set * ways + way`. Validity is encoded as a tag sentinel
//! (`INVALID_TAG`, unreachable for real addresses because tags are
//! `line_addr >> 6` ≤ 2^58), so the scan needs no separate valid check.
//!
//! The implementation techniques, all policed for exactness by the
//! [`crate::reference`] equivalence proptests:
//!
//! * [`Cache::hit_update`] is the inlineable fast-path entry: it performs
//!   a full hit (LRU refresh, dirty/stats update) but leaves *all*
//!   simulated state untouched on a miss, which is what lets
//!   [`ExecCtx::read`](crate::ctx::ExecCtx::read) commit to the hit
//!   before the full hierarchy walk runs;
//! * [`Cache::hit_run`] is the same hit-commit body as a run kernel: it
//!   commits the leading run of hits of an address slice with the lookup
//!   clock, hit count and MRU hint in registers, and stops at the first
//!   miss under `hit_update`'s miss contract — the simulator's dominant
//!   event, a run of L1-resident loads in a
//!   [`read_batch`](crate::ctx::ExecCtx::read_batch), in one tight loop;
//! * set indexing is division-free for the machine's geometries
//!   (`SetIndex`), scans and victim selection are branchless fixed-width
//!   code for 8/16 ways, and a miss scan memoizes its set base and
//!   invalid-way mask for the fill that always follows;
//! * an MRU way hint short-circuits back-to-back hits on one line (the
//!   dominant pattern at a trie's root levels);
//! * [`Cache::prewarm`] lets batch callers pre-touch set metadata (pure
//!   host loads, zero simulated effect) so the serial charging walk runs
//!   against a warm host cache.

use crate::config::CacheGeom;
use crate::types::{line_of, Addr, CACHE_LINE_SHIFT};

/// Tag sentinel for an invalid way. Real tags are `line_addr >> 6`, so the
/// all-ones pattern can never collide with a resident line.
const INVALID_TAG: u64 = u64::MAX;

/// Result of a cache lookup-with-fill (see [`Cache::access`]).
///
/// `#[repr(u8)]` pins the discriminant so comparisons on the access fast
/// path compile to a byte test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LookupResult {
    /// The line was present.
    Hit,
    /// The line was absent. The caller must fetch it from the next level and
    /// then call [`Cache::insert`].
    Miss,
}

/// A line evicted by an insertion, reported so the caller can write back
/// dirty data and (for an inclusive L3) back-invalidate private copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-granular address of the victim.
    pub line_addr: Addr,
    /// Whether the victim held modified data.
    pub dirty: bool,
    /// Presence mask of the victim (meaningful for the L3 directory).
    pub presence: u16,
}

/// Aggregate statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Evictions of dirty lines (write-backs to the next level).
    pub writebacks: u64,
    /// Lines removed by explicit invalidation.
    pub invalidations: u64,
}

/// Packed per-way metadata word: `dirty:1 | presence:16 | lru:47`. One
/// array next to `tags` keeps a hit (and a victim search) inside two host
/// cache streams instead of four — the L3's metadata is megabytes, and
/// host-cache misses on it are what the simulator's wall-clock is made of.
/// 47 LRU bits bound the per-cache lookup clock at ~1.4e14 accesses, far
/// beyond any run (debug-asserted in `access`).
const META_DIRTY: u64 = 1;
const META_PRESENCE_SHIFT: u32 = 1;
const META_PRESENCE_MASK: u64 = 0xFFFF << META_PRESENCE_SHIFT;
const META_LRU_SHIFT: u32 = 17;

#[inline]
fn meta_pack(lru: u64, presence: u16, dirty: bool) -> u64 {
    debug_assert!(lru < (1 << (64 - META_LRU_SHIFT)));
    (lru << META_LRU_SHIFT)
        | ((presence as u64) << META_PRESENCE_SHIFT)
        | (dirty as u64)
}

/// One level of cache. See the module docs for the SoA layout.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Per-way tags (`line_addr >> 6`; `INVALID_TAG` = way empty),
    /// indexed `set * ways + way`. The hot lookup scans only this array —
    /// one or two contiguous host cache lines per set.
    tags: Vec<u64>,
    /// Per-way packed metadata (see [`meta_pack`]): the LRU stamp (larger
    /// = more recently used), the presence mask — cores whose private
    /// caches may hold the line (L3 directory only; imprecise: bits are
    /// set on fill/hit, never cleared on silent private eviction, which
    /// only causes harmless spurious invalidations) — and the dirty bit.
    /// Packing all three into one word means a hit or victim search
    /// touches two arrays, not four.
    meta: Vec<u64>,
    num_sets: u64,
    /// How the hot set-index computation avoids a 64-bit division (a
    /// division per lookup is measurable at simulator scale): power-of-two
    /// set counts (L1/L2) reduce to a mask, and `c · 2^p` set counts with
    /// `c = 3` (the paper's 12288-set L3 = 3 · 4096) reduce to a shifted
    /// constant-3 remainder the compiler strength-reduces to a multiply.
    /// Anything else falls back to `%` — still exact, just slower.
    set_index: SetIndex,
    ways: usize,
    clock: u64,
    stats: CacheStats,
    /// Host-side scan memo: every demand-path miss is followed by a fill
    /// of the same line into the same set, so the miss scan remembers its
    /// byproducts (set base and invalid-way mask keyed by the line's tag)
    /// and the fill skips recomputing them. Purely an implementation
    /// cache: any tag mutation (insert/invalidate/clear) drops it, hits
    /// never change tags so they leave it intact, and the reference
    /// equivalence proptests police that it can never change simulated
    /// results. `memo_tag == INVALID_TAG` means "no memo".
    memo_tag: u64,
    memo_base: usize,
    memo_invalid: u32,
    /// Host-side MRU hint: the last tag that hit and its way index, so
    /// back-to-back hits on one line (the dominant pattern at a trie's
    /// root levels) skip the set scan. Same staleness rule as the miss
    /// memo: hits never move lines, so only tag mutations drop it.
    mru_tag: u64,
    mru_way: u32,
    /// Number of currently valid lines, maintained by insert/invalidate.
    /// `0` lets every read-only probe (and the coherence paths built on
    /// them) skip the array walk outright — a completely empty cache (an
    /// unused socket's L3 in solo runs) can hold nothing, and scanning
    /// its megabytes of cold tags was measurable wall-clock (PR 5).
    valid: u64,
}

/// Strategy for mapping a tag to its set number; see [`Cache::set_index`].
/// All three arms compute exactly `tag % num_sets`.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// `num_sets` is a power of two: `tag & mask`.
    Mask(u64),
    /// `num_sets = 3 << p`: `((tag >> p) % 3) << p | (tag & ((1<<p)-1))`.
    Times3 { p: u32, low_mask: u64 },
    /// General case: `tag % num_sets`.
    Div(u64),
}

impl SetIndex {
    fn for_sets(num_sets: u64) -> SetIndex {
        let p = num_sets.trailing_zeros();
        if num_sets.is_power_of_two() {
            SetIndex::Mask(num_sets - 1)
        } else if num_sets >> p == 3 {
            SetIndex::Times3 { p, low_mask: (1u64 << p) - 1 }
        } else {
            SetIndex::Div(num_sets)
        }
    }

    /// `tag % num_sets`, by the precomputed strategy.
    #[inline]
    fn of(self, tag: u64) -> u64 {
        match self {
            SetIndex::Mask(m) => tag & m,
            SetIndex::Times3 { p, low_mask } => {
                // tag = q·(3·2^p) + a·2^p + b with a < 3, b < 2^p, so
                // tag mod (3·2^p) = a·2^p + b; `% 3` is a literal constant
                // the compiler turns into a multiply-high.
                (((tag >> p) % 3) << p) | (tag & low_mask)
            }
            SetIndex::Div(d) => tag % d,
        }
    }
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(geom: CacheGeom) -> Self {
        let num_sets = geom.num_sets();
        let ways = geom.ways as usize;
        let n = (num_sets as usize) * ways;
        Cache {
            tags: vec![INVALID_TAG; n],
            meta: vec![0u64; n],
            num_sets,
            set_index: SetIndex::for_sets(num_sets),
            ways,
            clock: 0,
            stats: CacheStats::default(),
            memo_tag: INVALID_TAG,
            memo_base: 0,
            memo_invalid: 0,
            mru_tag: INVALID_TAG,
            mru_way: 0,
            valid: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Statistics accumulated since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The line's tag and its set's first way index.
    #[inline]
    fn locate(&self, addr: Addr) -> (u64, usize) {
        let tag = line_of(addr) >> CACHE_LINE_SHIFT;
        let set = self.set_index.of(tag);
        (tag, set as usize * self.ways)
    }

    /// Way index (0-based within the set) holding `tag` in the set whose
    /// ways start at `base`, if resident. The scan touches only the
    /// contiguous tag words.
    ///
    /// Dispatches once on the associativity into a `const`-width scan for
    /// the common 8/16-way geometries: with the width a compile-time
    /// constant, the equality scan compiles branch-free (vectorized
    /// compares + trailing-zeros) instead of a bounds-checked early-exit
    /// loop — the per-way branches are the bulk of the lookup's dynamic
    /// instructions (PR-3 monomorphization audit; verified by inspecting
    /// `llvm-objdump` output of the fully-inlined `l1_missed_access`).
    #[inline]
    fn find_way(&self, tag: u64, base: usize) -> Option<usize> {
        match self.ways {
            8 => Self::find_way_w::<8>(&self.tags[base..base + 8], tag),
            16 => match Self::find_way_w::<8>(&self.tags[base..base + 8], tag) {
                // Split 8+8 so a first-half hit skips the set's second
                // host cache line (see the contract note on `scan`).
                Some(w) => Some(w),
                None => Self::find_way_w::<8>(&self.tags[base + 8..base + 16], tag)
                    .map(|w| w + 8),
            },
            _ => self.tags[base..base + self.ways].iter().position(|&t| t == tag),
        }
    }

    /// Branch-free fixed-width victim selection: the first invalid way if
    /// any, else the minimum-LRU way (first index on ties) — exactly the
    /// early-exit loop's choice, computed with conditional moves instead
    /// of data-dependent branches.
    #[inline]
    fn victim_w<const W: usize>(tags: &[u64; W], meta: &[u64; W]) -> usize {
        let mut invalid_mask = 0u32;
        for (w, &t) in tags.iter().enumerate() {
            invalid_mask |= ((t == INVALID_TAG) as u32) << w;
        }
        if invalid_mask != 0 {
            return invalid_mask.trailing_zeros() as usize;
        }
        Self::min_lru_w(meta)
    }

    /// Branch-free fixed-width minimum-LRU way (first index on ties); used
    /// when the scan memo already proved there is no invalid way.
    #[inline]
    fn min_lru_w<const W: usize>(meta: &[u64; W]) -> usize {
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for (w, &m) in meta.iter().enumerate() {
            let lru = m >> META_LRU_SHIFT;
            let better = lru < best;
            victim = if better { w } else { victim };
            best = if better { lru } else { best };
        }
        victim
    }

    /// Generic-width arm of [`min_lru_w`](Self::min_lru_w).
    fn min_lru_generic(&self, base: usize) -> usize {
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            let lru = self.meta[base + w] >> META_LRU_SHIFT;
            if lru < best {
                best = lru;
                victim = w;
            }
        }
        victim
    }

    /// Branch-free fixed-width scan (see [`find_way`](Self::find_way)).
    #[inline]
    fn find_way_w<const W: usize>(tags: &[u64], tag: u64) -> Option<usize> {
        let tags: &[u64; W] = tags.try_into().expect("slice is exactly W long");
        let mut mask = 0u32;
        for (w, &t) in tags.iter().enumerate() {
            mask |= ((t == tag) as u32) << w;
        }
        if mask != 0 {
            Some(mask.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// One pass over a set's tags computing the match mask *and* the
    /// invalid-way mask (the two compares vectorize together). The lookup
    /// needs the first; a miss stores the second in the scan memo for the
    /// fill that follows.
    ///
    /// **Contract:** the invalid mask is only meaningful when the match
    /// mask is zero — on a hit the caller discards it, which is what lets
    /// the 16-way arm stop at its first half. A 16-way set's tags span
    /// two host cache lines, and on the megabyte-scale L3 arrays the
    /// second line is a real memory touch: the split arm skips it for the
    /// half of hits that land in ways 0–7 (PR 5; exactness unaffected —
    /// the match result is identical and misses still scan everything).
    ///
    /// Always inlined: left to the compiler it became a call per address
    /// inside the run kernel's loop.
    #[inline(always)]
    fn scan(&self, tag: u64, base: usize) -> (u32, u32) {
        match self.ways {
            8 => Self::scan_w::<8>(&self.tags[base..base + 8], tag),
            16 => {
                let (lo_mask, lo_invalid) =
                    Self::scan_w::<8>(&self.tags[base..base + 8], tag);
                if lo_mask != 0 {
                    return (lo_mask, 0); // invalid unused on a hit
                }
                let (hi_mask, hi_invalid) =
                    Self::scan_w::<8>(&self.tags[base + 8..base + 16], tag);
                (hi_mask << 8, lo_invalid | (hi_invalid << 8))
            }
            _ => {
                let mut mask = 0u32;
                let mut invalid = 0u32;
                for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
                    mask |= ((t == tag) as u32) << w;
                    invalid |= ((t == INVALID_TAG) as u32) << w;
                }
                (mask, invalid)
            }
        }
    }

    /// Fixed-width arm of [`scan`](Self::scan).
    #[inline]
    fn scan_w<const W: usize>(tags: &[u64], tag: u64) -> (u32, u32) {
        let tags: &[u64; W] = tags.try_into().expect("slice is exactly W long");
        let mut mask = 0u32;
        let mut invalid = 0u32;
        for (w, &t) in tags.iter().enumerate() {
            mask |= ((t == tag) as u32) << w;
            invalid |= ((t == INVALID_TAG) as u32) << w;
        }
        (mask, invalid)
    }

    /// Remember a miss scan's byproducts for the fill that follows.
    #[inline]
    fn memoize_miss(&mut self, tag: u64, base: usize, invalid: u32) {
        self.memo_tag = tag;
        self.memo_base = base;
        self.memo_invalid = invalid;
    }

    /// Look up a line; on a hit, refresh LRU, optionally mark dirty, and
    /// merge `presence` bits. On a miss, nothing changes — the caller
    /// fetches from the next level and calls [`insert`](Self::insert).
    ///
    /// `addr` may be any byte address; it is truncated to its line.
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool, presence: u16) -> LookupResult {
        let (tag, base) = self.locate(addr);
        self.clock += 1;
        let (mask, invalid) = self.scan(tag, base);
        if mask != 0 {
            let i = base + mask.trailing_zeros() as usize;
            let keep = self.meta[i] & (META_PRESENCE_MASK | META_DIRTY);
            self.meta[i] = (self.clock << META_LRU_SHIFT)
                | keep
                | ((presence as u64) << META_PRESENCE_SHIFT)
                | (write as u64);
            self.stats.hits += 1;
            LookupResult::Hit
        } else {
            self.memoize_miss(tag, base, invalid);
            self.stats.misses += 1;
            LookupResult::Miss
        }
    }

    /// The fast-path lookup: a *hit* performs the complete `access`
    /// bookkeeping (clock advance, LRU refresh, dirty update, hit count); a
    /// *miss returns with every piece of cache state untouched* — no clock
    /// tick, no miss count — so the caller can continue with
    /// [`record_miss`](Self::record_miss) and the next level and end up
    /// with exactly the state a single [`access`](Self::access) would have
    /// produced. The one-address form of the run kernel below.
    ///
    /// Presence merging is not supported (private L1/L2 caches always pass
    /// a zero mask); use `access` on levels that maintain the directory.
    #[inline]
    pub fn hit_update(&mut self, addr: Addr, write: bool) -> bool {
        self.commit_hit_run(std::slice::from_ref(&addr), write) == 1
    }

    /// The run kernel for loads: commit the leading run of `addrs` that hit
    /// and return its length. Each hit has exactly
    /// [`hit_update`](Self::hit_update)'s effects, in slice order; the
    /// first miss stops the run with that address's lookup not performed —
    /// `hit_update`'s miss contract — so the caller resumes there. Hits
    /// never move tags, so the run is what one `hit_update` per address
    /// would have found.
    #[inline]
    pub fn hit_run(&mut self, addrs: &[Addr]) -> usize {
        self.commit_hit_run(addrs, false)
    }

    /// The one hit-commit body behind [`hit_update`](Self::hit_update) and
    /// [`hit_run`](Self::hit_run). The lookup clock and the MRU hint ride
    /// in locals across the run and are stored once; the hit count is the
    /// run's length. A miss primes the scan memo for the fill that follows
    /// (host-side only) and leaves the MRU hint on the last hit.
    #[inline(always)]
    fn commit_hit_run(&mut self, addrs: &[Addr], write: bool) -> usize {
        let mut clock = self.clock;
        let mut mru_tag = self.mru_tag;
        let mut mru_way = self.mru_way as usize;
        let mut hits = 0usize;
        for &addr in addrs {
            let tag = line_of(addr) >> CACHE_LINE_SHIFT;
            let base = self.set_index.of(tag) as usize * self.ways;
            // Same line as the previous hit: the way is known, and tags
            // cannot have moved (mutations drop the hint).
            if tag != mru_tag {
                let (mask, invalid) = self.scan(tag, base);
                if mask == 0 {
                    self.memoize_miss(tag, base, invalid);
                    break;
                }
                mru_tag = tag;
                mru_way = mask.trailing_zeros() as usize;
            }
            let i = base + mru_way;
            debug_assert_eq!(self.tags[i], tag);
            clock += 1;
            let keep = self.meta[i] & (META_PRESENCE_MASK | META_DIRTY);
            self.meta[i] = (clock << META_LRU_SHIFT) | keep | (write as u64);
            hits += 1;
        }
        if hits != 0 {
            self.clock = clock;
            self.stats.hits += hits as u64;
            self.mru_tag = mru_tag;
            self.mru_way = mru_way as u32;
        }
        hits
    }

    /// Read-only probe for fused DMA delivery: one scan of the set
    /// computing the line's tag, the set's first way index, the match mask,
    /// and the invalid-way mask. Touches no simulated state (and warms the
    /// host cache with the tag block the commit that follows mutates).
    #[inline]
    pub(crate) fn probe_scan(&self, addr: Addr) -> (u64, usize, u32, u32) {
        let (tag, base) = self.locate(addr);
        let (mask, invalid) = self.scan(tag, base);
        (tag, base, mask, invalid)
    }

    /// Commit a hit whose way is already known from a validated probe
    /// ([`probe_scan`](Self::probe_scan)), in the [`access`](Self::access)
    /// shape used for L2/L3 lookups: identical clock, LRU, dirty,
    /// presence-merge, and stats effects, minus the re-scan (and, like
    /// `access`, no MRU-hint update). The caller must have proved the probe
    /// is still current (no tag mutation has touched this set since); the
    /// debug assertion rechecks the contract.
    #[inline]
    pub(crate) fn hit_commit(
        &mut self,
        tag: u64,
        base: usize,
        way: usize,
        write: bool,
        presence: u16,
    ) {
        let i = base + way;
        debug_assert_eq!(self.tags[i], tag, "stale hit hint");
        self.clock += 1;
        let keep = self.meta[i] & (META_PRESENCE_MASK | META_DIRTY);
        self.meta[i] = (self.clock << META_LRU_SHIFT)
            | keep
            | ((presence as u64) << META_PRESENCE_SHIFT)
            | (write as u64);
        self.stats.hits += 1;
    }

    /// Directory presence mask of the way a validated probe matched (no
    /// LRU update, no stats; the fused DMA path reads it off its single
    /// scan instead of probing again).
    #[inline]
    pub(crate) fn presence_at(&self, base: usize, way: usize) -> u16 {
        ((self.meta[base + way] & META_PRESENCE_MASK) >> META_PRESENCE_SHIFT) as u16
    }

    /// Commit a miss established by a validated probe: identical net effect
    /// to the canonical lookup-that-misses (one clock tick, one miss count,
    /// and the scan memo primed for the fill that follows) without
    /// re-scanning the set. Covers both canonical miss shapes — `access`'s
    /// miss arm and `hit_update`-miss followed by
    /// [`record_miss`](Self::record_miss) — whose net state effects are
    /// identical. The caller must have proved the probe's invalid-way mask
    /// is still current (tag mutations are what change it).
    #[inline]
    pub(crate) fn miss_commit(&mut self, tag: u64, base: usize, invalid: u32) {
        debug_assert!(
            self.find_way(tag, base).is_none(),
            "stale miss hint: line became resident"
        );
        self.clock += 1;
        self.stats.misses += 1;
        self.memoize_miss(tag, base, invalid);
    }

    /// Record a lookup known to miss (the fast path already scanned and
    /// found nothing): advances the lookup clock and the miss count exactly
    /// as a full [`access`](Self::access) miss would, without re-scanning
    /// the set. Calling this when the line *is* resident would corrupt the
    /// hit/miss accounting — it is only sound immediately after a failed
    /// [`hit_update`](Self::hit_update) with no intervening mutation.
    #[inline]
    pub fn record_miss(&mut self) {
        self.clock += 1;
        self.stats.misses += 1;
    }

    /// Touch the host memory of the line's set block without reading any
    /// simulated state (returns an opaque word the caller black-boxes so
    /// the load cannot be optimized out). Pre-warming the blocks of a
    /// known batch of addresses lets the host CPU overlap their DRAM
    /// latencies before the serial charging walk runs — simulation state
    /// is untouched, so results are bit-identical.
    #[inline]
    pub fn prewarm(&self, addr: Addr) -> u64 {
        let (_, base) = self.locate(addr);
        // One load per host cache line of the set's tags and meta, all
        // independent — the point is to have their latencies overlap.
        let mut acc = 0u64;
        let mut w = 0;
        while w < self.ways {
            acc ^= self.tags[base + w] ^ self.meta[base + w];
            w += 8;
        }
        acc
    }

    /// Whether the line is currently resident (no LRU update, no stats).
    pub fn probe(&self, addr: Addr) -> bool {
        if self.valid == 0 {
            return false;
        }
        let (tag, base) = self.locate(addr);
        self.find_way(tag, base).is_some()
    }

    /// The directory presence mask of a resident line (no LRU update, no
    /// stats); `None` when the line is absent. On an inclusive L3 the mask
    /// is a superset of the cores whose private caches hold the line, which
    /// is what lets the coherence paths skip scanning every private cache
    /// (see `Machine::dma_deliver`).
    #[inline]
    pub fn probe_presence(&self, addr: Addr) -> Option<u16> {
        if self.valid == 0 {
            return None;
        }
        let (tag, base) = self.locate(addr);
        self.find_way(tag, base).map(|w| {
            ((self.meta[base + w] & META_PRESENCE_MASK) >> META_PRESENCE_SHIFT) as u16
        })
    }

    /// If the line is resident, report whether it is dirty (no LRU update,
    /// no stats) — used by the coherence path to detect a modified copy in
    /// another core's private cache.
    pub fn probe_dirty(&self, addr: Addr) -> Option<bool> {
        if self.valid == 0 {
            return None;
        }
        let (tag, base) = self.locate(addr);
        self.find_way(tag, base).map(|w| self.meta[base + w] & META_DIRTY != 0)
    }

    /// Fill a line after a miss, evicting the LRU victim of its set if the
    /// set is full. Returns the victim, if one was displaced.
    ///
    /// `dirty` marks the fill as modified (write-allocate stores, or DMA
    /// data newer than DRAM). `presence` seeds the directory mask.
    ///
    /// This is the all-ways-allowed specialization of
    /// [`insert_masked`](Self::insert_masked) — identical victim choice and
    /// bookkeeping, minus the per-way mask tests. Every fill on the L1/L2
    /// path (and the L3 path without CAT) lands here, so the loop is kept
    /// branch-lean (PR-3 audit).
    #[inline]
    pub fn insert(&mut self, addr: Addr, dirty: bool, presence: u16) -> Option<Evicted> {
        let tag = line_of(addr) >> CACHE_LINE_SHIFT;
        // Every demand miss is followed by exactly this fill, so the miss
        // scan's memo usually hands us the set base and invalid-way mask.
        let (base, invalid) = if tag == self.memo_tag {
            (self.memo_base, Some(self.memo_invalid))
        } else {
            (self.set_index.of(tag) as usize * self.ways, None)
        };
        self.clock += 1;

        // Prefer an invalid way; otherwise evict the LRU way. The common
        // 8/16-way geometries use the branchless const-width selector
        // (every fill runs this; data-dependent branches on random LRU
        // orders mispredict constantly — PR-3 audit).
        let victim = match invalid {
            Some(inv) if inv != 0 => inv.trailing_zeros() as usize,
            Some(_) => match self.ways {
                8 => Self::min_lru_w::<8>(
                    (&self.meta[base..base + 8]).try_into().expect("8 ways"),
                ),
                16 => Self::min_lru_w::<16>(
                    (&self.meta[base..base + 16]).try_into().expect("16 ways"),
                ),
                _ => self.min_lru_generic(base),
            },
            None => match self.ways {
                8 => Self::victim_w::<8>(
                    (&self.tags[base..base + 8]).try_into().expect("8 ways"),
                    (&self.meta[base..base + 8]).try_into().expect("8 ways"),
                ),
                16 => Self::victim_w::<16>(
                    (&self.tags[base..base + 16]).try_into().expect("16 ways"),
                    (&self.meta[base..base + 16]).try_into().expect("16 ways"),
                ),
                _ => {
                    let mut victim = usize::MAX;
                    let mut best_lru = u64::MAX;
                    for w in 0..self.ways {
                        if self.tags[base + w] == INVALID_TAG {
                            victim = w;
                            break;
                        }
                        let lru = self.meta[base + w] >> META_LRU_SHIFT;
                        if lru < best_lru {
                            best_lru = lru;
                            victim = w;
                        }
                    }
                    victim
                }
            },
        };

        let i = base + victim;
        let old_tag = self.tags[i];
        let evicted = if old_tag != INVALID_TAG {
            debug_assert_ne!(old_tag, tag, "inserting a line that is already present");
            self.stats.evictions += 1;
            let old_meta = self.meta[i];
            let old_dirty = old_meta & META_DIRTY != 0;
            if old_dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted {
                line_addr: old_tag << CACHE_LINE_SHIFT,
                dirty: old_dirty,
                presence: ((old_meta & META_PRESENCE_MASK) >> META_PRESENCE_SHIFT)
                    as u16,
            })
        } else {
            self.valid += 1;
            None
        };

        self.tags[i] = tag;
        self.meta[i] = meta_pack(self.clock, presence, dirty);
        self.memo_tag = INVALID_TAG; // tags changed: memo and MRU are stale
        self.mru_tag = INVALID_TAG;
        evicted
    }

    /// [`insert`](Self::insert) restricted to the ways enabled in
    /// `way_mask` (bit `w` = way `w` of the set is a legal fill target).
    /// This is Intel CAT semantics: allocation is constrained, lookups are
    /// not — a line filled by one mask is still a hit for everyone.
    ///
    /// # Panics
    /// If `way_mask` enables none of this cache's ways.
    pub fn insert_masked(
        &mut self,
        addr: Addr,
        dirty: bool,
        presence: u16,
        way_mask: u64,
    ) -> Option<Evicted> {
        assert!(
            way_mask & (u64::MAX >> (64 - self.ways.min(64))) != 0,
            "way mask enables no way"
        );
        let (tag, base) = self.locate(addr);
        self.clock += 1;

        // Prefer an invalid allowed way; otherwise evict the LRU allowed way.
        let mut victim = usize::MAX;
        let mut best_lru = u64::MAX;
        for w in 0..self.ways {
            if way_mask & (1u64 << w) == 0 {
                continue;
            }
            if self.tags[base + w] == INVALID_TAG {
                victim = w;
                break;
            }
            let lru = self.meta[base + w] >> META_LRU_SHIFT;
            if lru < best_lru {
                best_lru = lru;
                victim = w;
            }
        }
        debug_assert_ne!(victim, usize::MAX);

        let i = base + victim;
        let old_tag = self.tags[i];
        let evicted = if old_tag != INVALID_TAG {
            debug_assert_ne!(old_tag, tag, "inserting a line that is already present");
            self.stats.evictions += 1;
            let old_meta = self.meta[i];
            let old_dirty = old_meta & META_DIRTY != 0;
            if old_dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted {
                line_addr: old_tag << CACHE_LINE_SHIFT,
                dirty: old_dirty,
                presence: ((old_meta & META_PRESENCE_MASK) >> META_PRESENCE_SHIFT)
                    as u16,
            })
        } else {
            self.valid += 1;
            None
        };

        self.tags[i] = tag;
        self.meta[i] = meta_pack(self.clock, presence, dirty);
        self.memo_tag = INVALID_TAG; // tags changed: memo and MRU are stale
        self.mru_tag = INVALID_TAG;
        evicted
    }

    /// Remove a line if present; returns whether it was dirty (the caller
    /// decides whether the data must be pushed down the hierarchy).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        if self.valid == 0 {
            return None;
        }
        let (tag, base) = self.locate(addr);
        if let Some(w) = self.find_way(tag, base) {
            self.tags[base + w] = INVALID_TAG;
            self.valid -= 1;
            self.memo_tag = INVALID_TAG; // tags changed: memo and MRU are stale
            self.mru_tag = INVALID_TAG;
            self.stats.invalidations += 1;
            Some(self.meta[base + w] & META_DIRTY != 0)
        } else {
            None
        }
    }

    /// Number of currently valid lines (O(1): maintained by
    /// insert/invalidate; debug builds verify it against the arrays).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.valid as usize,
            self.tags.iter().filter(|&&t| t != INVALID_TAG).count(),
            "valid-line counter out of sync"
        );
        self.valid as usize
    }

    /// Drop all contents and statistics.
    pub fn clear(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.meta.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
        self.memo_tag = INVALID_TAG;
        self.mru_tag = INVALID_TAG;
        self.valid = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CACHE_LINE;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheGeom::new(512, 2))
    }

    /// Address that maps to `set` with a distinguishing `tag_salt`.
    fn addr_in_set(c: &Cache, set: u64, tag_salt: u64) -> Addr {
        (tag_salt * c.num_sets() + set) * CACHE_LINE
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = addr_in_set(&c, 1, 0);
        assert_eq!(c.access(a, false, 0), LookupResult::Miss);
        assert!(c.insert(a, false, 0).is_none());
        assert_eq!(c.access(a, false, 0), LookupResult::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_set_evicts_lru() {
        let mut c = small();
        let a = addr_in_set(&c, 2, 0);
        let b = addr_in_set(&c, 2, 1);
        let d = addr_in_set(&c, 2, 2);
        c.insert(a, false, 0);
        c.insert(b, false, 0);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(c.access(a, false, 0), LookupResult::Hit);
        let ev = c.insert(d, false, 0).expect("set is full");
        assert_eq!(ev.line_addr, line_of(b));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn eviction_reports_dirty_and_presence() {
        let mut c = small();
        let a = addr_in_set(&c, 0, 0);
        let b = addr_in_set(&c, 0, 1);
        let d = addr_in_set(&c, 0, 2);
        c.insert(a, false, 0b01);
        assert_eq!(c.access(a, true, 0b10), LookupResult::Hit); // dirty + merge
        c.insert(b, false, 0);
        let ev = c.insert(d, false, 0).unwrap();
        assert_eq!(ev.line_addr, line_of(a));
        assert!(ev.dirty);
        assert_eq!(ev.presence, 0b11);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        for set in 0..c.num_sets() {
            c.insert(addr_in_set(&c, set, 0), false, 0);
            c.insert(addr_in_set(&c, set, 1), false, 0);
        }
        assert_eq!(c.occupancy(), 8);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = small();
        let a = addr_in_set(&c, 3, 0);
        c.insert(a, true, 0);
        assert_eq!(c.invalidate(a), Some(true));
        assert!(!c.probe(a));
        assert_eq!(c.invalidate(a), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn sub_line_addresses_alias_to_one_line() {
        let mut c = small();
        c.insert(128, false, 0);
        assert_eq!(c.access(128 + 63, false, 0), LookupResult::Hit);
        assert_eq!(c.access(128 + 64, false, 0), LookupResult::Miss);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = small();
        c.insert(0, true, 1);
        c.access(0, false, 0);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn masked_insert_confines_fills_to_allowed_ways() {
        let mut c = small(); // 2 ways per set
        let protected = addr_in_set(&c, 1, 0);
        c.insert_masked(protected, false, 0, 0b01); // way 0
        // An aggressor restricted to way 1 can never displace it.
        for salt in 1..50 {
            c.insert_masked(addr_in_set(&c, 1, salt), false, 0, 0b10);
        }
        assert!(c.probe(protected), "way-0 line must survive way-1 thrash");
    }

    #[test]
    fn masked_insert_still_hits_across_partitions() {
        let mut c = small();
        let a = addr_in_set(&c, 2, 0);
        c.insert_masked(a, false, 0, 0b10);
        // CAT constrains allocation, not lookup.
        assert_eq!(c.access(a, false, 0), LookupResult::Hit);
    }

    #[test]
    #[should_panic(expected = "no way")]
    fn empty_way_mask_panics() {
        let mut c = small();
        c.insert_masked(0, false, 0, 0);
    }

    #[test]
    fn lru_is_exact_over_long_sequences() {
        // With W ways, a cyclic sweep over W+1 distinct lines in one set must
        // miss every time (the worst case for LRU).
        let mut c = small();
        let lines: Vec<Addr> = (0..3).map(|s| addr_in_set(&c, 1, s)).collect();
        for round in 0..10 {
            for &a in &lines {
                assert_eq!(
                    c.access(a, false, 0),
                    LookupResult::Miss,
                    "round {round} addr {a:#x}"
                );
                c.insert(a, false, 0);
            }
        }
    }
}
