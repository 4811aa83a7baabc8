//! Performance counters — the simulator's equivalent of the paper's OProfile
//! measurements.
//!
//! Counters are maintained **per core** and, within each core, **per function
//! tag**. Tags let experiments attribute cache behaviour to individual
//! processing functions the way Fig. 7 of the paper breaks MON down into
//! `radix_ip_lookup`, `flow_statistics`, `check_ip_header`, and
//! `skb_recycle`.
//!
//! All counts are exact (the simulator observes every access), so unlike
//! sampled hardware counters there is no measurement variance.
//!
//! ## Hot-path design (PR 3)
//!
//! Counter maintenance sits on the simulator's innermost loop, so two
//! things are optimized away from the naive implementation while keeping
//! observable results bit-for-bit identical:
//!
//! * **The `TagId` protocol.** Tag names are interned once into a global
//!   registry ([`TagId::intern`]) at *construction* time (element graphs,
//!   NIC queues, SPSC queues resolve their tags when they are built).
//!   Entering a scope by [`CoreCounters::push_tag_id`] is then an O(1)
//!   table lookup instead of a per-scope linear string search; there is
//!   no by-name entry point. Reported tag *order* is still per-core first-use
//!   order, so measurement output does not depend on interning order.
//!   Since PR 9 the registry is additionally *pre-registered* from the
//!   canonical `KNOWN_TAGS` list, so a known tag's ID is a process-wide
//!   constant even when parallel sweep workers build engines (and intern
//!   concurrently) in scheduler-dependent order.
//! * **The pending accumulator.** [`CoreCounters::bump`] no longer writes
//!   the running total *and* the innermost tag's bundle on every event; it
//!   accumulates into a single hot `pending` bundle that is flushed to
//!   both destinations once per scope boundary (push/pop). Reads
//!   (`total`, `tag`, `snapshot`) fold the pending bundle in on the fly,
//!   so intermediate observations are exact; only the number of memory
//!   writes per event changes, never any count.

use crate::types::Cycles;
use std::sync::{Mutex, OnceLock};

/// Every tag name the workspace interns at construction time, in canonical
/// order. The registry is seeded with this list before the first lookup, so
/// a known tag's `TagId` is its position here — a process-wide constant —
/// no matter which thread interns it first. Without pre-registration,
/// first-come ID assignment made the IDs an artifact of scheduling when
/// parallel sweep workers built their engines concurrently. (Reported
/// counter output was already ID-independent — per-core tag tables key by
/// name in first-use order — but stable IDs make that a non-event instead
/// of a rule to remember.) Tags not on this list still intern fine; their
/// IDs are assigned under the registry lock in first-come order.
const KNOWN_TAGS: &[&str] = &[
    // Substrate (pp-sim): NIC descriptor rings and buffer pool.
    "rx_desc",
    "tx_desc",
    "skb_alloc",
    "skb_recycle",
    // Datapath framework (pp-click): per-turn overhead + cross-core ring.
    "framework",
    "handoff",
    // Element graph internals.
    "emit",
    "scatter",
    "dropper",
    "sink",
    // Processing elements, `Element::tag()` order of appearance.
    "check_ip_header",
    "dec_ip_ttl",
    "radix_ip_lookup",
    "to_device",
    "discard",
    "counter",
    "classify_tuples",
    "flow_statistics",
    "firewall_filter",
    "redundancy_elim",
    "nat_translate",
    "dpi_scan",
    "vpn_encrypt",
    "syn",
    "control",
    "latent_aggressor",
];

/// The global tag-name registry behind [`TagId`], seeded with
/// [`KNOWN_TAGS`]. Tag sets are tiny (a few dozen distinct names per
/// process) and interning happens at construction time, so a mutex-guarded
/// linear scan is plenty.
static TAG_REGISTRY: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();

/// The registry, initialized on first touch with the canonical tag list.
fn tag_registry() -> &'static Mutex<Vec<&'static str>> {
    TAG_REGISTRY.get_or_init(|| Mutex::new(KNOWN_TAGS.to_vec()))
}

/// A precomputed handle for a function-tag name, resolved once (at element
/// construction) and then used for O(1) scope entry on the hot path. See
/// the module docs for the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagId(u32);

impl TagId {
    /// Intern `name`, returning its process-wide handle. Idempotent;
    /// intended to be called once per tag at construction time, not on the
    /// per-access hot path.
    pub fn intern(name: &'static str) -> TagId {
        let mut names = tag_registry().lock().expect("tag registry poisoned");
        if let Some(i) =
            names.iter().position(|&n| std::ptr::eq(n, name) || n == name)
        {
            TagId(i as u32)
        } else {
            names.push(name);
            TagId((names.len() - 1) as u32)
        }
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        tag_registry().lock().expect("tag registry poisoned")[self.0 as usize]
    }

    /// Index usable for table addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One bundle of event counts. Also used for deltas between snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Retired instructions (computed work; memory operations included).
    pub instructions: u64,
    /// Cycles spent in straight-line compute (excludes memory stalls).
    pub compute_cycles: Cycles,
    /// Cycles spent stalled on memory.
    pub stall_cycles: Cycles,
    /// Loads+stores issued (L1 references).
    pub l1_refs: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Accesses that reached L2 (= L1 misses).
    pub l2_refs: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Accesses that reached the shared L3 (= L2 misses). This is the
    /// paper's "cache refs" quantity.
    pub l3_refs: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses (went to DRAM).
    pub l3_misses: u64,
    /// Accesses served by a remote socket's memory controller (over QPI).
    pub remote_accesses: u64,
    /// Packets retired (counted once per packet at end of processing).
    pub packets: u64,
}

impl Counts {
    /// Elementwise difference `self - earlier`; saturates at zero so a
    /// mismatched snapshot cannot underflow.
    pub fn delta(&self, earlier: &Counts) -> Counts {
        Counts {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            compute_cycles: self.compute_cycles.saturating_sub(earlier.compute_cycles),
            stall_cycles: self.stall_cycles.saturating_sub(earlier.stall_cycles),
            l1_refs: self.l1_refs.saturating_sub(earlier.l1_refs),
            l1_hits: self.l1_hits.saturating_sub(earlier.l1_hits),
            l2_refs: self.l2_refs.saturating_sub(earlier.l2_refs),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            l3_refs: self.l3_refs.saturating_sub(earlier.l3_refs),
            l3_hits: self.l3_hits.saturating_sub(earlier.l3_hits),
            l3_misses: self.l3_misses.saturating_sub(earlier.l3_misses),
            remote_accesses: self.remote_accesses.saturating_sub(earlier.remote_accesses),
            packets: self.packets.saturating_sub(earlier.packets),
        }
    }

    /// Elementwise in-place sum (the flush path; avoids a 96-byte copy).
    #[inline]
    pub fn accumulate(&mut self, other: &Counts) {
        self.instructions += other.instructions;
        self.compute_cycles += other.compute_cycles;
        self.stall_cycles += other.stall_cycles;
        self.l1_refs += other.l1_refs;
        self.l1_hits += other.l1_hits;
        self.l2_refs += other.l2_refs;
        self.l2_hits += other.l2_hits;
        self.l3_refs += other.l3_refs;
        self.l3_hits += other.l3_hits;
        self.l3_misses += other.l3_misses;
        self.remote_accesses += other.remote_accesses;
        self.packets += other.packets;
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Counts) -> Counts {
        Counts {
            instructions: self.instructions + other.instructions,
            compute_cycles: self.compute_cycles + other.compute_cycles,
            stall_cycles: self.stall_cycles + other.stall_cycles,
            l1_refs: self.l1_refs + other.l1_refs,
            l1_hits: self.l1_hits + other.l1_hits,
            l2_refs: self.l2_refs + other.l2_refs,
            l2_hits: self.l2_hits + other.l2_hits,
            l3_refs: self.l3_refs + other.l3_refs,
            l3_hits: self.l3_hits + other.l3_hits,
            l3_misses: self.l3_misses + other.l3_misses,
            remote_accesses: self.remote_accesses + other.remote_accesses,
            packets: self.packets + other.packets,
        }
    }

    /// Total cycles accounted to this bundle (compute + memory stalls).
    pub fn cycles(&self) -> Cycles {
        self.compute_cycles + self.stall_cycles
    }

    /// Cycles per instruction over this bundle; `None` when no instructions
    /// retired.
    pub fn cpi(&self) -> Option<f64> {
        if self.instructions == 0 {
            None
        } else {
            Some(self.cycles() as f64 / self.instructions as f64)
        }
    }
}

/// Sentinel in the `TagId` → local-index table: tag not yet seen here.
const NO_LOCAL: u32 = u32::MAX;

/// Per-core counter state: a running total plus a breakdown by function tag.
///
/// The *current tag* is a small stack so nested scopes attribute to the
/// innermost tag, mirroring how a profiler attributes samples to the leaf
/// function. Events accumulate into a `pending` bundle flushed at scope
/// boundaries; see the module docs for why observable counts are exactly
/// those of the naive write-both-on-every-event implementation.
#[derive(Debug, Clone)]
pub struct CoreCounters {
    total: Counts,
    /// Events since the last scope boundary, not yet folded into `total`
    /// and the innermost tag's bundle.
    pending: Counts,
    /// Per-tag bundles in first-use order (the reporting order).
    tags: Vec<(&'static str, Counts)>,
    /// `TagId::index()` → index into `tags` (`NO_LOCAL` = not seen yet).
    by_id: Vec<u32>,
    tag_stack: Vec<u32>,
}

impl Default for CoreCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl CoreCounters {
    /// Fresh counters with no tags registered.
    pub fn new() -> Self {
        CoreCounters {
            total: Counts::default(),
            pending: Counts::default(),
            tags: Vec::new(),
            by_id: Vec::new(),
            tag_stack: Vec::new(),
        }
    }

    fn tag_index(&mut self, name: &'static str) -> usize {
        // Linear scan by name, once per (core, tag): `push_tag_id` caches
        // the result by handle.
        if let Some(i) = self.tags.iter().position(|(n, _)| *n == name) {
            i
        } else {
            self.tags.push((name, Counts::default()));
            self.tags.len() - 1
        }
    }

    /// Fold the pending bundle into the total and the innermost tag.
    #[inline]
    fn flush(&mut self) {
        self.total.accumulate(&self.pending);
        if let Some(&i) = self.tag_stack.last() {
            self.tags[i as usize].1.accumulate(&self.pending);
        }
        self.pending = Counts::default();
    }

    /// Enter a tag scope: accesses are attributed to `tag` until the
    /// matching [`pop_tag`](Self::pop_tag). O(1), no string search — callers
    /// resolve the name once with [`TagId::intern`].
    #[inline]
    pub fn push_tag_id(&mut self, tag: TagId) {
        self.flush();
        let idx = tag.index();
        if idx >= self.by_id.len() {
            self.by_id.resize(idx + 1, NO_LOCAL);
        }
        let mut local = self.by_id[idx];
        if local == NO_LOCAL {
            // First use on this core: the registry lookup happens once.
            local = self.tag_index(tag.name()) as u32;
            self.by_id[idx] = local;
        }
        self.tag_stack.push(local);
    }

    /// Leave the innermost tag scope.
    #[inline]
    pub fn pop_tag(&mut self) {
        self.flush();
        self.tag_stack.pop();
    }

    /// Depth of the tag stack (used by scope guards to detect imbalance).
    pub fn tag_depth(&self) -> usize {
        self.tag_stack.len()
    }

    /// Apply a mutation to the event counts. The mutation lands in the
    /// pending bundle and is folded into the total and the innermost tag's
    /// bundle at the next scope boundary (observably equivalent — reads
    /// fold pending in on the fly).
    #[inline]
    pub fn bump(&mut self, f: impl FnOnce(&mut Counts)) {
        f(&mut self.pending);
    }

    /// The core's running totals (pending events included).
    pub fn total(&self) -> Counts {
        self.total.add(&self.pending)
    }

    /// Counts attributed to one tag, if it has been seen (pending events
    /// included when `name` is the innermost open scope).
    pub fn tag(&self, name: &str) -> Option<Counts> {
        self.tags.iter().position(|(n, _)| *n == name).map(|i| {
            let c = self.tags[i].1;
            if self.tag_stack.last() == Some(&(i as u32)) {
                c.add(&self.pending)
            } else {
                c
            }
        })
    }

    /// Snapshot the full state (totals and per-tag bundles, pending events
    /// included).
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut tags: Vec<(&'static str, Counts)> =
            self.tags.iter().map(|(n, c)| (*n, *c)).collect();
        if let Some(&i) = self.tag_stack.last() {
            tags[i as usize].1.accumulate(&self.pending);
        }
        CounterSnapshot { total: self.total.add(&self.pending), tags }
    }
}

/// An immutable copy of a core's counters at one instant; subtract two
/// snapshots to obtain the events within a measurement window.
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    /// Totals at snapshot time.
    pub total: Counts,
    /// Per-tag bundles at snapshot time.
    pub tags: Vec<(&'static str, Counts)>,
}

impl CounterSnapshot {
    /// Events between `earlier` and `self`, per tag and in total. Tags
    /// missing from `earlier` are treated as starting from zero.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let tags = self
            .tags
            .iter()
            .map(|(name, c)| {
                let before = earlier
                    .tags
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, c)| *c)
                    .unwrap_or_default();
                (*name, c.delta(&before))
            })
            .collect();
        CounterSnapshot { total: self.total.delta(&earlier.total), tags }
    }

    /// Look up one tag's bundle in this snapshot.
    pub fn tag(&self, name: &str) -> Option<&Counts> {
        self.tags.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
    }
}

/// Derived per-second and per-packet metrics over a measurement window — the
/// quantities Table 1 of the paper reports.
#[derive(Debug, Clone, Copy)]
pub struct DerivedMetrics {
    /// Window length in seconds.
    pub seconds: f64,
    /// Packets per second.
    pub pps: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// L3 (last-level cache) references per second.
    pub l3_refs_per_sec: f64,
    /// L3 hits per second.
    pub l3_hits_per_sec: f64,
    /// L3 misses per second.
    pub l3_misses_per_sec: f64,
    /// Cycles per packet.
    pub cycles_per_packet: f64,
    /// L3 references per packet.
    pub l3_refs_per_packet: f64,
    /// L3 misses per packet.
    pub l3_misses_per_packet: f64,
    /// L3 hits per packet.
    pub l3_hits_per_packet: f64,
    /// L2 hits per packet.
    pub l2_hits_per_packet: f64,
    /// Instructions per packet.
    pub instructions_per_packet: f64,
}

impl DerivedMetrics {
    /// Compute derived metrics from a count delta over `window_cycles` at
    /// `freq_ghz`. Per-packet figures are `NaN`-free: they are zero when no
    /// packets retired.
    pub fn from_counts(c: &Counts, window_cycles: Cycles, freq_ghz: f64) -> Self {
        let seconds = window_cycles as f64 / (freq_ghz * 1e9);
        let per_sec = |v: u64| v as f64 / seconds;
        let per_pkt =
            |v: u64| if c.packets == 0 { 0.0 } else { v as f64 / c.packets as f64 };
        DerivedMetrics {
            seconds,
            pps: per_sec(c.packets),
            cpi: c.cpi().unwrap_or(0.0),
            l3_refs_per_sec: per_sec(c.l3_refs),
            l3_hits_per_sec: per_sec(c.l3_hits),
            l3_misses_per_sec: per_sec(c.l3_misses),
            cycles_per_packet: per_pkt(c.cycles()),
            l3_refs_per_packet: per_pkt(c.l3_refs),
            l3_misses_per_packet: per_pkt(c.l3_misses),
            l3_hits_per_packet: per_pkt(c.l3_hits),
            l2_hits_per_packet: per_pkt(c.l2_hits),
            instructions_per_packet: per_pkt(c.instructions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_attributes_to_total_and_tag() {
        let mut cc = CoreCounters::new();
        cc.bump(|c| c.instructions += 1);
        cc.push_tag_id(TagId::intern("lookup"));
        cc.bump(|c| c.instructions += 2);
        cc.pop_tag();
        cc.bump(|c| c.instructions += 4);
        assert_eq!(cc.total().instructions, 7);
        assert_eq!(cc.tag("lookup").unwrap().instructions, 2);
        assert!(cc.tag("absent").is_none());
    }

    #[test]
    fn nested_tags_attribute_to_innermost() {
        let mut cc = CoreCounters::new();
        cc.push_tag_id(TagId::intern("outer"));
        cc.bump(|c| c.l3_refs += 1);
        cc.push_tag_id(TagId::intern("inner"));
        cc.bump(|c| c.l3_refs += 10);
        cc.pop_tag();
        cc.bump(|c| c.l3_refs += 100);
        cc.pop_tag();
        assert_eq!(cc.tag("outer").unwrap().l3_refs, 101);
        assert_eq!(cc.tag("inner").unwrap().l3_refs, 10);
        assert_eq!(cc.total().l3_refs, 111);
    }

    #[test]
    fn snapshot_delta_isolates_window() {
        let mut cc = CoreCounters::new();
        cc.push_tag_id(TagId::intern("a"));
        cc.bump(|c| c.packets += 5);
        cc.pop_tag();
        let s1 = cc.snapshot();
        cc.push_tag_id(TagId::intern("a"));
        cc.bump(|c| c.packets += 3);
        cc.pop_tag();
        cc.push_tag_id(TagId::intern("b"));
        cc.bump(|c| c.packets += 2);
        cc.pop_tag();
        let s2 = cc.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.total.packets, 5);
        assert_eq!(d.tag("a").unwrap().packets, 3);
        // Tag "b" did not exist at s1; its whole count is in the delta.
        assert_eq!(d.tag("b").unwrap().packets, 2);
    }

    #[test]
    fn counts_delta_saturates() {
        let a = Counts { l3_refs: 3, ..Default::default() };
        let b = Counts { l3_refs: 10, ..Default::default() };
        assert_eq!(a.delta(&b).l3_refs, 0);
        assert_eq!(b.delta(&a).l3_refs, 7);
    }

    #[test]
    fn derived_metrics_per_second_and_packet() {
        let c = Counts {
            instructions: 1000,
            compute_cycles: 1400,
            stall_cycles: 600,
            l3_refs: 200,
            l3_hits: 150,
            l3_misses: 50,
            l2_hits: 300,
            packets: 100,
            ..Default::default()
        };
        // 2.8e9 cycles = 1 second.
        let m = DerivedMetrics::from_counts(&c, 2_800_000_000, 2.8);
        assert!((m.seconds - 1.0).abs() < 1e-12);
        assert!((m.pps - 100.0).abs() < 1e-9);
        assert!((m.cpi - 2.0).abs() < 1e-12);
        assert!((m.l3_refs_per_sec - 200.0).abs() < 1e-9);
        assert!((m.cycles_per_packet - 20.0).abs() < 1e-9);
        assert!((m.l2_hits_per_packet - 3.0).abs() < 1e-9);
    }

    #[test]
    fn derived_metrics_no_packets_is_finite() {
        let c = Counts { l3_refs: 10, ..Default::default() };
        let m = DerivedMetrics::from_counts(&c, 2_800_000, 2.8);
        assert_eq!(m.cycles_per_packet, 0.0);
        assert!(m.l3_refs_per_sec > 0.0);
    }

    #[test]
    fn cpi_none_without_instructions() {
        assert!(Counts::default().cpi().is_none());
    }

    #[test]
    fn known_tag_ids_are_positional_constants() {
        for (i, &name) in KNOWN_TAGS.iter().enumerate() {
            assert_eq!(TagId::intern(name).index(), i, "{name} must sit at its slot");
            assert_eq!(TagId::intern(name).name(), name);
        }
    }

    #[test]
    fn concurrent_first_intern_is_order_independent() {
        // Eight threads intern the full tag list, each walking a different
        // rotation, racing for the registry's first touch. Every thread
        // must resolve every known name to its canonical (positional)
        // handle — pre-registration makes the winner of the race
        // irrelevant.
        let per_thread: Vec<Vec<(usize, TagId)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t: usize| {
                    s.spawn(move || {
                        (0..KNOWN_TAGS.len())
                            .map(|i| {
                                let k = (i + t * 3) % KNOWN_TAGS.len();
                                (k, TagId::intern(KNOWN_TAGS[k]))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("intern thread")).collect()
        });
        for ids in &per_thread {
            for &(k, id) in ids {
                assert_eq!(id.index(), k, "{} raced to a non-canonical ID", KNOWN_TAGS[k]);
            }
        }
    }

    #[test]
    fn counter_reports_are_independent_of_intern_and_use_order() {
        // Two cores record the same per-tag events but enter the scopes in
        // opposite first-use order; name-keyed reads must agree exactly,
        // whatever the local table order ended up being.
        let lookup = TagId::intern("radix_ip_lookup");
        let stats = TagId::intern("flow_statistics");
        let record = |cc: &mut CoreCounters, first: TagId, second: TagId| {
            for &(tag, refs) in &[(first, 0u64), (second, 0)] {
                cc.push_tag_id(tag);
                cc.bump(|c| c.l3_refs += refs);
                cc.pop_tag();
            }
            for _ in 0..3 {
                cc.push_tag_id(lookup);
                cc.bump(|c| c.l3_refs += 7);
                cc.pop_tag();
                cc.push_tag_id(stats);
                cc.bump(|c| c.l3_refs += 2);
                cc.pop_tag();
            }
        };
        let mut a = CoreCounters::new();
        let mut b = CoreCounters::new();
        record(&mut a, lookup, stats);
        record(&mut b, stats, lookup);
        assert_eq!(a.tag("radix_ip_lookup"), b.tag("radix_ip_lookup"));
        assert_eq!(a.tag("flow_statistics"), b.tag("flow_statistics"));
        assert_eq!(a.total(), b.total());
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.tag("radix_ip_lookup"), sb.tag("radix_ip_lookup"));
        assert_eq!(sa.tag("flow_statistics"), sb.tag("flow_statistics"));
    }
}
