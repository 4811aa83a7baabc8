//! Reference (unclever) implementations kept as executable specifications
//! for the hot-path rewrites of PR 3.
//!
//! [`RefCache`] is the PR-2-era array-of-structs cache, byte-for-byte the
//! implementation that produced every result before the SoA layout landed
//! in [`crate::cache`]. It exists so equivalence is *proved*, not assumed:
//! property tests (`cache_soa_matches_reference` in this module and the
//! trace tests in `tests/properties.rs` at the workspace root) drive both
//! implementations through identical operation sequences and require
//! identical hits, misses, evictions, write-backs, invalidations, LRU
//! victims, and presence masks. If a future optimization of the live cache
//! diverges, these tests — not a benchmark curve — catch it.
//!
//! Nothing in the simulator's production paths uses this module; it is
//! compiled into the library (so external test crates can reach it) but
//! only tests construct a [`RefCache`].

use crate::cache::{CacheStats, Evicted, LookupResult};
use crate::config::CacheGeom;
use crate::types::{line_of, Addr, CACHE_LINE_SHIFT};

/// Per-line metadata of the reference layout. `tag` stores the full line
/// address (address >> 6) for simplicity.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    lru: u64,
    valid: bool,
    dirty: bool,
    presence: u16,
}

/// The PR-2-era array-of-structs cache. Same semantics as
/// [`Cache`](crate::cache::Cache), kept as the specification the SoA
/// implementation is tested against. See the module docs.
#[derive(Debug, Clone)]
pub struct RefCache {
    lines: Vec<Line>,
    num_sets: u64,
    ways: usize,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    /// Build an empty cache with the given geometry.
    pub fn new(geom: CacheGeom) -> Self {
        let num_sets = geom.num_sets();
        let ways = geom.ways as usize;
        RefCache {
            lines: vec![Line::default(); (num_sets as usize) * ways],
            num_sets,
            ways,
            clock: 0,
            stats: CacheStats::default(),
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

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, line_addr: u64) -> (usize, usize) {
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let set = (tag % self.num_sets) as usize;
        let start = set * self.ways;
        (start, start + self.ways)
    }

    /// Lookup-with-fill; see [`Cache::access`](crate::cache::Cache::access).
    pub fn access(&mut self, addr: Addr, write: bool, presence: u16) -> LookupResult {
        let line_addr = line_of(addr);
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let (start, end) = self.set_range(line_addr);
        self.clock += 1;
        for i in start..end {
            let l = &mut self.lines[i];
            if l.valid && l.tag == tag {
                l.lru = self.clock;
                l.dirty |= write;
                l.presence |= presence;
                self.stats.hits += 1;
                return LookupResult::Hit;
            }
        }
        self.stats.misses += 1;
        LookupResult::Miss
    }

    /// Fast-path contract mirror of
    /// [`Cache::hit_update`](crate::cache::Cache::hit_update): a hit does
    /// full `access` bookkeeping, a miss leaves all state untouched.
    pub fn hit_update(&mut self, addr: Addr, write: bool) -> bool {
        let line_addr = line_of(addr);
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let (start, end) = self.set_range(line_addr);
        for i in start..end {
            let l = &mut self.lines[i];
            if l.valid && l.tag == tag {
                self.clock += 1;
                l.lru = self.clock;
                l.dirty |= write;
                self.stats.hits += 1;
                return true;
            }
        }
        false
    }

    /// Residency probe (no LRU update, no stats).
    pub fn probe(&self, addr: Addr) -> bool {
        let line_addr = line_of(addr);
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let (start, end) = self.set_range(line_addr);
        self.lines[start..end].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Dirty probe (no LRU update, no stats).
    pub fn probe_dirty(&self, addr: Addr) -> Option<bool> {
        let line_addr = line_of(addr);
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let (start, end) = self.set_range(line_addr);
        self.lines[start..end]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| l.dirty)
    }

    /// Fill after a miss; see [`Cache::insert`](crate::cache::Cache::insert).
    pub fn insert(&mut self, addr: Addr, dirty: bool, presence: u16) -> Option<Evicted> {
        self.insert_masked(addr, dirty, presence, u64::MAX)
    }

    /// Masked fill (Intel CAT semantics); see
    /// [`Cache::insert_masked`](crate::cache::Cache::insert_masked).
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
        let line_addr = line_of(addr);
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let (start, end) = self.set_range(line_addr);
        self.clock += 1;

        let mut victim = usize::MAX;
        let mut best_lru = u64::MAX;
        for i in start..end {
            if way_mask & (1u64 << (i - start)) == 0 {
                continue;
            }
            let l = &self.lines[i];
            if !l.valid {
                victim = i;
                break;
            }
            if l.lru < best_lru {
                best_lru = l.lru;
                victim = i;
            }
        }
        debug_assert_ne!(victim, usize::MAX);

        let old = self.lines[victim];
        let evicted = if old.valid {
            debug_assert_ne!(old.tag, tag, "inserting a line that is already present");
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted {
                line_addr: old.tag << CACHE_LINE_SHIFT,
                dirty: old.dirty,
                presence: old.presence,
            })
        } else {
            None
        };

        self.lines[victim] = Line { tag, lru: self.clock, valid: true, dirty, presence };
        evicted
    }

    /// Invalidate a line; see
    /// [`Cache::invalidate`](crate::cache::Cache::invalidate).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let line_addr = line_of(addr);
        let tag = line_addr >> CACHE_LINE_SHIFT;
        let (start, end) = self.set_range(line_addr);
        for i in start..end {
            let l = &mut self.lines[i];
            if l.valid && l.tag == tag {
                l.valid = false;
                self.stats.invalidations += 1;
                return Some(l.dirty);
            }
        }
        None
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Drive the live SoA cache and the reference cache through the same
    /// random operation sequence and require identical observable behavior
    /// after every single operation.
    #[test]
    fn cache_soa_matches_reference() {
        for seed in 0..8u64 {
            let geom = CacheGeom::new(2048, 4); // 8 sets x 4 ways
            let mut live = Cache::new(geom);
            let mut spec = RefCache::new(geom);
            let mut rng = SmallRng::seed_from_u64(seed);
            let universe: Vec<Addr> =
                (0..64).map(|i| i * crate::types::CACHE_LINE).collect();
            for step in 0..4000 {
                let addr = universe[rng.random_range(0..universe.len())]
                    + rng.random_range(0..crate::types::CACHE_LINE);
                match rng.random_range(0..7u32) {
                    0 | 1 => {
                        let write = rng.random::<bool>();
                        let pres = rng.random::<u16>();
                        let a = live.access(addr, write, pres);
                        let b = spec.access(addr, write, pres);
                        assert_eq!(a, b, "access diverged at step {step}");
                        if a == LookupResult::Miss {
                            let dirty = rng.random::<bool>();
                            let ev_a = live.insert(addr, dirty, pres);
                            let ev_b = spec.insert(addr, dirty, pres);
                            assert_eq!(ev_a, ev_b, "eviction diverged at step {step}");
                        }
                    }
                    2 => {
                        let write = rng.random::<bool>();
                        let a = live.hit_update(addr, write);
                        let b = spec.hit_update(addr, write);
                        assert_eq!(a, b, "hit_update diverged at step {step}");
                    }
                    6 => {
                        // The run kernel against one `hit_update` per
                        // address: same run length, then a miss that
                        // leaves both untouched.
                        let run: Vec<Addr> = (0..rng.random_range(1..12usize))
                            .map(|_| {
                                universe[rng.random_range(0..universe.len())]
                                    + rng.random_range(0..crate::types::CACHE_LINE)
                            })
                            .collect();
                        let n = live.hit_run(&run);
                        let m = run.iter().take_while(|&&a| spec.hit_update(a, false)).count();
                        assert_eq!(n, m, "hit_run diverged at step {step}");
                    }
                    3 => {
                        let mask = 1u64 << rng.random_range(0..4u32);
                        if live.access(addr, false, 0) == LookupResult::Miss {
                            spec.access(addr, false, 0);
                            let ev_a = live.insert_masked(addr, false, 0, mask);
                            let ev_b = spec.insert_masked(addr, false, 0, mask);
                            assert_eq!(ev_a, ev_b, "masked eviction diverged at {step}");
                        } else {
                            spec.access(addr, false, 0);
                        }
                    }
                    4 => {
                        assert_eq!(
                            live.invalidate(addr),
                            spec.invalidate(addr),
                            "invalidate diverged at step {step}"
                        );
                    }
                    _ => {
                        assert_eq!(live.probe(addr), spec.probe(addr));
                        assert_eq!(live.probe_dirty(addr), spec.probe_dirty(addr));
                    }
                }
                assert_eq!(live.stats(), spec.stats(), "stats diverged at step {step}");
                assert_eq!(live.occupancy(), spec.occupancy());
            }
            // Final sweep: every line's residency and dirtiness agree.
            for &a in &universe {
                assert_eq!(live.probe(a), spec.probe(a));
                assert_eq!(live.probe_dirty(a), spec.probe_dirty(a));
            }
        }
    }
}
