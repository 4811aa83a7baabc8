//! Hardware stream prefetcher (the L2 "streamer").
//!
//! Intel cores since Core 2 ship an L2 stream prefetcher: it trains on L2
//! demand misses, detects constant-stride streams within a 4 KB page, and
//! runs ahead of the demand stream by a configurable degree. The paper's
//! platform had it enabled; our default configuration leaves it **off**
//! because the calibration constants in `pp-click::cost` were fitted
//! without it — it exists as a first-class ablation
//! (`repro ablate`, prefetch section) showing which of the paper's
//! workloads it would help (FW's sequential rule scan) and which it cannot
//! (MON's and NAT's hash probes, DPI's automaton walk).
//!
//! Only the *training and target selection* live here; the fills (and their
//! bandwidth cost at the memory controller) are performed by the
//! [`Machine`](crate::machine::Machine), which owns the caches.
//!
//! **Training order is part of the simulated semantics** — each
//! L2-observed access advances stream state, and the fills a confident
//! stream issues land at *neighbouring* lines, coupling every address in a
//! batch to every other through sets no per-address plan can predict. A
//! `read_batch` therefore trains (and fills) in exact access order (see
//! `Machine::charge_read_batch`).

use crate::types::{Addr, CACHE_LINE_SHIFT};

/// Page shift: streams do not cross 4 KB boundaries (as on real hardware,
/// where the physical-address stream ends at the page).
const PAGE_SHIFT: u32 = 12;
/// Confidence needed before prefetches are issued.
const CONF_THRESHOLD: u8 = 2;
/// Confidence ceiling.
const CONF_MAX: u8 = 3;
/// Upper bound on the prefetch degree (targets returned per training).
pub const MAX_DEGREE: usize = 8;

/// One tracked stream.
#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    valid: bool,
    /// 4 KB page being tracked.
    page: u64,
    /// Last line index (global, line-granular) seen in this page.
    last_line: i64,
    /// Detected stride in lines.
    stride: i64,
    /// Consecutive confirmations of `stride`.
    confidence: u8,
    /// LRU stamp for entry replacement.
    lru: u64,
}

/// Counters for one core's prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// L2 misses used for training.
    pub trained: u64,
    /// Prefetch targets issued to the fill path.
    pub issued: u64,
    /// Issued targets that were already in L2 (dropped).
    pub dropped_resident: u64,
    /// Fills satisfied by the L3.
    pub l3_hits: u64,
    /// Fills that went to DRAM (bandwidth consumed).
    pub dram_fills: u64,
}

/// A per-core stream prefetcher. See the module docs.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    entries: Vec<StreamEntry>,
    degree: usize,
    clock: u64,
    /// Accumulated statistics.
    pub stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// A prefetcher tracking `streams` concurrent pages, running `degree`
    /// lines ahead once confident.
    pub fn new(streams: u8, degree: u8) -> Self {
        StreamPrefetcher {
            entries: vec![StreamEntry::default(); streams.max(1) as usize],
            degree: (degree as usize).clamp(1, MAX_DEGREE),
            clock: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Train on an L2 demand miss at `addr`. Returns the line addresses to
    /// prefetch (up to the degree), all within the same 4 KB page.
    pub fn train(&mut self, addr: Addr) -> ([Addr; MAX_DEGREE], usize) {
        self.clock += 1;
        self.stats.trained += 1;
        let line = (addr >> CACHE_LINE_SHIFT) as i64;
        let page = addr >> PAGE_SHIFT;
        let mut out = [0u64; MAX_DEGREE];
        let mut n = 0;

        // Find the stream for this page, or the LRU victim.
        let mut found: Option<usize> = None;
        let mut victim = 0;
        let mut victim_lru = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            if e.valid && e.page == page {
                found = Some(i);
                break;
            }
            let lru = if e.valid { e.lru } else { 0 };
            if lru < victim_lru {
                victim_lru = lru;
                victim = i;
            }
        }

        match found {
            Some(i) => {
                let e = &mut self.entries[i];
                let stride = line - e.last_line;
                e.lru = self.clock;
                if stride == 0 {
                    return (out, 0);
                }
                if stride == e.stride {
                    e.confidence = (e.confidence + 1).min(CONF_MAX);
                } else {
                    e.stride = stride;
                    e.confidence = 1;
                }
                e.last_line = line;
                if e.confidence >= CONF_THRESHOLD {
                    let stride = e.stride;
                    for k in 1..=self.degree as i64 {
                        let target = line + stride * k;
                        if target < 0 {
                            break;
                        }
                        let target_addr = (target as u64) << CACHE_LINE_SHIFT;
                        if target_addr >> PAGE_SHIFT != page {
                            break; // streams stop at the page boundary
                        }
                        out[n] = target_addr;
                        n += 1;
                    }
                    self.stats.issued += n as u64;
                }
            }
            None => {
                self.entries[victim] = StreamEntry {
                    valid: true,
                    page,
                    last_line: line,
                    stride: 0,
                    confidence: 0,
                    lru: self.clock,
                };
            }
        }
        (out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CACHE_LINE;

    fn targets(pf: &mut StreamPrefetcher, addr: Addr) -> Vec<Addr> {
        let (buf, n) = pf.train(addr);
        buf[..n].to_vec()
    }

    #[test]
    fn sequential_stream_trains_then_issues() {
        let mut pf = StreamPrefetcher::new(16, 2);
        let base = 0x10_000u64;
        assert!(targets(&mut pf, base).is_empty(), "first touch only allocates");
        assert!(targets(&mut pf, base + 64).is_empty(), "stride seen once");
        let t = targets(&mut pf, base + 128);
        assert_eq!(t, vec![base + 192, base + 256], "confident stream runs ahead");
    }

    #[test]
    fn descending_stream_detected() {
        let mut pf = StreamPrefetcher::new(16, 2);
        let base = 0x20_000u64 + 10 * CACHE_LINE;
        targets(&mut pf, base);
        targets(&mut pf, base - 64);
        let t = targets(&mut pf, base - 128);
        assert_eq!(t, vec![base - 192, base - 256]);
    }

    #[test]
    fn larger_strides_detected() {
        let mut pf = StreamPrefetcher::new(16, 2);
        let base = 0x30_000u64;
        targets(&mut pf, base);
        targets(&mut pf, base + 256); // stride 4 lines
        let t = targets(&mut pf, base + 512);
        assert_eq!(t, vec![base + 768, base + 1024]);
    }

    #[test]
    fn random_pattern_never_issues() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut pf = StreamPrefetcher::new(16, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2000 {
            let addr: u64 = (rng.random::<u32>() as u64) << 6;
            let _ = pf.train(addr);
        }
        // Random lines land in random pages: the odds of two consecutive
        // same-stride hits in one page are negligible.
        assert!(
            pf.stats.issued < 20,
            "random traffic issued {} prefetches",
            pf.stats.issued
        );
    }

    #[test]
    fn streams_stop_at_page_boundary() {
        let mut pf = StreamPrefetcher::new(16, 8);
        // Train at the end of a page: line 61, 62, 63 of page 0.
        targets(&mut pf, 61 * 64);
        targets(&mut pf, 62 * 64);
        let t = targets(&mut pf, 63 * 64);
        assert!(t.is_empty(), "next line would cross the page: {t:?}");
    }

    #[test]
    fn interleaved_streams_tracked_independently() {
        let mut pf = StreamPrefetcher::new(16, 1);
        let a = 0x100_000u64;
        let b = 0x200_000u64;
        targets(&mut pf, a);
        targets(&mut pf, b);
        targets(&mut pf, a + 64);
        targets(&mut pf, b + 64);
        assert_eq!(targets(&mut pf, a + 128), vec![a + 192]);
        assert_eq!(targets(&mut pf, b + 128), vec![b + 192]);
    }

    #[test]
    fn lru_entry_replaced_when_full() {
        let mut pf = StreamPrefetcher::new(2, 1);
        let pages = [0x1000u64, 0x2000, 0x3000];
        targets(&mut pf, pages[0]);
        targets(&mut pf, pages[1]);
        targets(&mut pf, pages[2]); // evicts the page-0 stream
        // Re-training page 0 must start from scratch: two more touches
        // before it can issue.
        targets(&mut pf, pages[0] + 64);
        targets(&mut pf, pages[0] + 128);
        let t = targets(&mut pf, pages[0] + 192);
        assert_eq!(t.len(), 1, "needs re-training after eviction");
    }

    #[test]
    fn degree_clamped() {
        let pf = StreamPrefetcher::new(4, 100);
        assert_eq!(pf.degree, MAX_DEGREE);
        let pf = StreamPrefetcher::new(4, 0);
        assert_eq!(pf.degree, 1);
    }
}
