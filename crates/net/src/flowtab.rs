//! Cache-conscious open-addressed flow table (PR 10).
//!
//! The paper's flow-state workloads (NetFlow's record table, NAT's binding
//! table) are open-addressed hash tables probed once per packet. Their flat
//! linear-probe layout reads one record-sized line per probe, so a miss that
//! probes `p` slots costs `p` dependent cache lines. This module provides the
//! cache-conscious alternative: **8-entry cache-line buckets with tag bytes**.
//! Each bucket stores a 64-byte header line holding one tag byte per slot
//! (plus padding) followed by the eight records. A probe reads the header
//! line, compares eight tags at once, and only touches the record lines whose
//! tag matches — typically exactly one. Misses resolve from the header line
//! alone, and an entire 8-slot bucket is screened with a single dependent
//! read.
//!
//! The crate is simulator-free (pp-net is substrate), so the table does not
//! charge accesses itself. Instead every operation appends the cache
//! accesses it performed — in dependent order — to a caller-supplied
//! [`Touch`] list as `(offset, len, write)` spans relative to the table
//! base. Simulator-aware callers (the pp-click elements) replay the spans
//! against the simulated region they allocated for the table; host-only
//! callers ignore them. This keeps the host structure and the simulated
//! charging in lockstep without coupling the crates.
//!
//! Layout per bucket (offsets relative to the table base):
//!
//! ```text
//! +0    header line: 8 tag bytes (0 = empty slot), 56 B padding/metadata
//! +64   slot 0: V  (size_of::<V>() bytes)
//! +64+s*size_of::<V>()  slot s
//! ```
//!
//! Probing visits up to [`PROBE_BUCKETS`] consecutive buckets (wrapping).
//! Insertion takes the first empty slot in that window; a probe stops early
//! at any bucket with an empty slot (the key cannot live further, because
//! inserts never skip a bucket with space). If the whole window is full the
//! probe reports [`Probe::Full`] with a hash-chosen victim slot in the home
//! bucket, and the caller decides eviction policy (the elements overwrite,
//! like their flat tables' bounded-work eviction).

use std::marker::PhantomData;

/// Slots per bucket: one tag byte each fits the 64-byte header line.
pub const BUCKET_SLOTS: usize = 8;

/// Consecutive buckets probed before declaring the table full here.
/// 4 buckets × 8 slots = a 32-slot probe window, far deeper than the flat
/// tables' 8 linear probes, while reading at most 4 dependent header lines.
pub const PROBE_BUCKETS: usize = 4;

/// Bytes of the per-bucket header line (tags + padding).
pub const HEADER_BYTES: u64 = 64;

/// A key storable in a [`FlowTable`]: hashable to 64 bits. The hash drives
/// bucket choice (low bits), the tag byte (bits 48..56) and the eviction
/// victim (bits 56..64), so it must be well-mixed.
pub trait TabKey: Copy + Eq {
    /// The key's 64-bit hash.
    fn tab_hash(&self) -> u64;
}

impl TabKey for crate::fivetuple::FlowKey {
    fn tab_hash(&self) -> u64 {
        self.hash()
    }
}

/// One cache access performed by a table operation: a byte span relative to
/// the table base, in dependent order. Callers that simulate memory replay
/// these as line-covering reads/writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Byte offset from the table base.
    pub offset: u64,
    /// Span length in bytes.
    pub len: u64,
    /// True for a store, false for a load.
    pub write: bool,
}

/// Outcome of a probe: where the key is, where it would go, or who to evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The key is present at `(bucket, slot)`.
    Hit {
        /// Bucket index.
        bucket: usize,
        /// Slot within the bucket.
        slot: usize,
    },
    /// The key is absent; `(bucket, slot)` is the first free slot in the
    /// probe window (where an insert must go).
    Empty {
        /// Bucket index.
        bucket: usize,
        /// Slot within the bucket.
        slot: usize,
    },
    /// The key is absent and the probe window is full; `(bucket, slot)` is
    /// the hash-chosen eviction victim in the home bucket.
    Full {
        /// Bucket index.
        bucket: usize,
        /// Slot within the bucket.
        slot: usize,
    },
}

impl Probe {
    /// The `(bucket, slot)` this probe points at, whatever the outcome.
    pub fn target(&self) -> (usize, usize) {
        match *self {
            Probe::Hit { bucket, slot }
            | Probe::Empty { bucket, slot }
            | Probe::Full { bucket, slot } => (bucket, slot),
        }
    }
}

/// The cache-conscious table. See the module docs.
#[derive(Debug, Clone)]
pub struct FlowTable<K, V> {
    slots: Vec<[Option<(K, V)>; BUCKET_SLOTS]>,
    tags: Vec<[u8; BUCKET_SLOTS]>,
    /// Sticky per-bucket flag: some insert spilled past this bucket while it
    /// was full. A probe may stop early at an empty slot only in buckets
    /// that never overflowed; otherwise a removal could strand a spilled key
    /// behind a hole. Lives in the header-line padding conceptually, so it
    /// costs no extra simulated traffic.
    overflowed: Vec<bool>,
    mask: usize,
    vsize: u64,
    occupied: usize,
    _marker: PhantomData<(K, V)>,
}

fn tag_of(hash: u64) -> u8 {
    // Tag 0 means "empty slot", so real tags map into 1..=255.
    let t = (hash >> 48) as u8;
    if t == 0 {
        1
    } else {
        t
    }
}

impl<K: TabKey, V: Copy> FlowTable<K, V> {
    /// A table with `2^log2_buckets` buckets (8 slots each).
    pub fn new(log2_buckets: u32) -> Self {
        let buckets = 1usize << log2_buckets;
        let vsize = std::mem::size_of::<V>() as u64;
        assert!(vsize > 0 && vsize.is_multiple_of(8), "record size must be a positive multiple of 8");
        FlowTable {
            slots: vec![[None; BUCKET_SLOTS]; buckets],
            tags: vec![[0u8; BUCKET_SLOTS]; buckets],
            overflowed: vec![false; buckets],
            mask: buckets - 1,
            vsize,
            occupied: 0,
            _marker: PhantomData,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.mask + 1
    }

    /// Total slots (buckets × 8).
    pub fn capacity(&self) -> usize {
        self.buckets() * BUCKET_SLOTS
    }

    /// Occupied slots.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Bytes per bucket (header line + 8 records).
    pub fn bucket_bytes(&self) -> u64 {
        HEADER_BYTES + BUCKET_SLOTS as u64 * self.vsize
    }

    /// Total table bytes (what a simulated region must reserve).
    pub fn footprint(&self) -> u64 {
        self.buckets() as u64 * self.bucket_bytes()
    }

    /// The bucket a key hashes to.
    pub fn home_bucket(&self, key: &K) -> usize {
        (key.tab_hash() as usize) & self.mask
    }

    /// Byte span of bucket `b`'s header line.
    pub fn header_span(&self, bucket: usize) -> (u64, u64) {
        (bucket as u64 * self.bucket_bytes(), HEADER_BYTES)
    }

    /// Byte span of slot `s` in bucket `b`.
    pub fn slot_span(&self, bucket: usize, slot: usize) -> (u64, u64) {
        (bucket as u64 * self.bucket_bytes() + HEADER_BYTES + slot as u64 * self.vsize, self.vsize)
    }

    /// Find `key`: header-line reads plus one record read per tag match,
    /// appended to `touched` in dependent order.
    pub fn probe(&self, key: &K, touched: &mut Vec<Touch>) -> Probe {
        let h = key.tab_hash();
        let tag = tag_of(h);
        let home = (h as usize) & self.mask;
        let mut first_empty = None;
        for p in 0..PROBE_BUCKETS {
            let b = (home + p) & self.mask;
            let (off, len) = self.header_span(b);
            touched.push(Touch { offset: off, len, write: false });
            for s in 0..BUCKET_SLOTS {
                if self.tags[b][s] == tag {
                    let (off, len) = self.slot_span(b, s);
                    touched.push(Touch { offset: off, len, write: false });
                    if let Some((k, _)) = &self.slots[b][s] {
                        if k == key {
                            return Probe::Hit { bucket: b, slot: s };
                        }
                    }
                }
            }
            if let Some(s) = self.tags[b].iter().position(|&t| t == 0) {
                if first_empty.is_none() {
                    first_empty = Some((b, s));
                }
                if !self.overflowed[b] {
                    // Nothing ever spilled past this bucket, so the key
                    // cannot live further: stop scanning.
                    break;
                }
            }
        }
        if let Some((bucket, slot)) = first_empty {
            return Probe::Empty { bucket, slot };
        }
        Probe::Full { bucket: home, slot: (h >> 56) as usize % BUCKET_SLOTS }
    }

    /// Store `(key, value)` at a slot a probe chose (empty or victim).
    /// Writes the record and dirties the header line for the tag byte.
    pub fn insert_at(&mut self, bucket: usize, slot: usize, key: K, value: V, touched: &mut Vec<Touch>) {
        if self.slots[bucket][slot].is_none() {
            self.occupied += 1;
        }
        // Mark every full bucket this key spilled past (see `overflowed`).
        let home = self.home_bucket(&key);
        let mut b = home;
        while b != bucket {
            self.overflowed[b] = true;
            b = (b + 1) & self.mask;
        }
        self.tags[bucket][slot] = tag_of(key.tab_hash());
        self.slots[bucket][slot] = Some((key, value));
        let (hoff, hlen) = self.header_span(bucket);
        touched.push(Touch { offset: hoff, len: hlen, write: true });
        let (soff, slen) = self.slot_span(bucket, slot);
        touched.push(Touch { offset: soff, len: slen, write: true });
    }

    /// Read-modify-write the record at `(bucket, slot)` (must be occupied).
    pub fn update_slot(&mut self, bucket: usize, slot: usize, f: impl FnOnce(&mut V), touched: &mut Vec<Touch>) {
        let entry = self.slots[bucket][slot].as_mut().expect("update_slot on empty slot");
        f(&mut entry.1);
        let (off, len) = self.slot_span(bucket, slot);
        touched.push(Touch { offset: off, len, write: false });
        touched.push(Touch { offset: off, len, write: true });
    }

    /// Clear `(bucket, slot)`: zero the tag, drop the record.
    pub fn clear_slot(&mut self, bucket: usize, slot: usize, touched: &mut Vec<Touch>) {
        if self.slots[bucket][slot].is_some() {
            self.occupied -= 1;
        }
        self.tags[bucket][slot] = 0;
        self.slots[bucket][slot] = None;
        let (off, len) = self.header_span(bucket);
        touched.push(Touch { offset: off, len, write: true });
    }

    /// The entry at `(bucket, slot)`, if occupied (host-side).
    pub fn entry_at(&self, bucket: usize, slot: usize) -> Option<&(K, V)> {
        self.slots[bucket][slot].as_ref()
    }

    /// Host-side lookup oracle: no touch reporting, no charging.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut sink = Vec::new();
        match self.probe(key, &mut sink) {
            Probe::Hit { bucket, slot } => self.slots[bucket][slot].as_ref().map(|(_, v)| v),
            _ => None,
        }
    }

    /// Remove `key` if present; reports the probe + header-write touches.
    pub fn remove(&mut self, key: &K, touched: &mut Vec<Touch>) -> bool {
        match self.probe(key, touched) {
            Probe::Hit { bucket, slot } => {
                self.clear_slot(bucket, slot, touched);
                true
            }
            _ => false,
        }
    }

    /// Iterate over occupied entries (host-side; bucket order).
    pub fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.slots.iter().flat_map(|b| b.iter().filter_map(|s| s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Test key with a fully controllable hash (collisions on demand).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct TKey {
        id: u64,
        h: u64,
    }

    impl TabKey for TKey {
        fn tab_hash(&self) -> u64 {
            self.h
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    type Tab = FlowTable<TKey, [u64; 4]>;

    fn insert(tab: &mut Tab, key: TKey, val: [u64; 4], touched: &mut Vec<Touch>) -> Probe {
        let pr = tab.probe(&key, touched);
        let (b, s) = pr.target();
        match pr {
            Probe::Hit { .. } => tab.update_slot(b, s, |v| *v = val, touched),
            Probe::Empty { .. } | Probe::Full { .. } => tab.insert_at(b, s, key, val, touched),
        }
        pr
    }

    #[test]
    fn matches_hashmap_oracle_under_mixed_workload() {
        let mut tab: Tab = FlowTable::new(6); // 64 buckets, 512 slots
        let mut oracle: HashMap<TKey, [u64; 4]> = HashMap::new();
        let mut rng = 0x1234u64;
        let mut touched = Vec::new();
        for step in 0..4000 {
            let id = splitmix(&mut rng) % 300; // working set smaller than capacity
            let mut hs = id.wrapping_mul(0xA24B_AED4_963E_E407);
            let h = splitmix(&mut hs);
            let key = TKey { id, h };
            touched.clear();
            match step % 4 {
                0 | 1 => {
                    let val = [step, id, h, 7];
                    match insert(&mut tab, key, val, &mut touched) {
                        Probe::Full { bucket, slot } => {
                            // Mirror the eviction in the oracle.
                            if let Some((victim, _)) = tab.entry_at(bucket, slot) {
                                if *victim != key {
                                    unreachable!("insert_at already replaced the victim");
                                }
                            }
                            oracle.retain(|k, _| tab.get(k).is_some());
                            oracle.insert(key, val);
                        }
                        _ => {
                            oracle.insert(key, val);
                        }
                    }
                }
                2 => {
                    assert_eq!(tab.get(&key).copied(), oracle.get(&key).copied(), "step {step}");
                }
                _ => {
                    let removed = tab.remove(&key, &mut touched);
                    assert_eq!(removed, oracle.remove(&key).is_some(), "step {step}");
                }
            }
        }
        assert_eq!(tab.occupancy(), oracle.len());
        for (k, v) in &oracle {
            assert_eq!(tab.get(k), Some(v));
        }
    }

    #[test]
    fn hit_touches_one_header_and_one_slot() {
        let mut tab: Tab = FlowTable::new(4);
        let key = TKey { id: 1, h: 0x0123_4567_89AB_CDEF };
        let mut touched = Vec::new();
        insert(&mut tab, key, [9; 4], &mut touched);
        touched.clear();
        let pr = tab.probe(&key, &mut touched);
        let (b, s) = match pr {
            Probe::Hit { bucket, slot } => (bucket, slot),
            other => panic!("expected hit, got {other:?}"),
        };
        // Exactly: home header read, then the matching slot read.
        assert_eq!(touched.len(), 2);
        assert_eq!(touched[0], Touch { offset: tab.header_span(b).0, len: HEADER_BYTES, write: false });
        let (soff, slen) = tab.slot_span(b, s);
        assert_eq!(touched[1], Touch { offset: soff, len: slen, write: false });
    }

    #[test]
    fn miss_in_bucket_with_space_reads_header_only() {
        let mut tab: Tab = FlowTable::new(4);
        let present = TKey { id: 1, h: 0x42 };
        let mut touched = Vec::new();
        insert(&mut tab, present, [1; 4], &mut touched);
        // Same bucket, different tag: the header line screens it out.
        let absent = TKey { id: 2, h: 0x42 | (0x99 << 48) };
        touched.clear();
        let pr = tab.probe(&absent, &mut touched);
        assert!(matches!(pr, Probe::Empty { .. }));
        assert_eq!(touched.len(), 1, "one header read resolves the miss: {touched:?}");
        assert!(!touched[0].write);
    }

    #[test]
    fn tag_collision_costs_one_extra_slot_read_but_stays_correct() {
        let mut tab: Tab = FlowTable::new(4);
        // Two distinct keys, same bucket, same tag byte.
        let a = TKey { id: 1, h: 0x0055_0000_0000_0003 };
        let b = TKey { id: 2, h: 0x0055_0000_0000_0003 };
        let mut touched = Vec::new();
        insert(&mut tab, a, [1; 4], &mut touched);
        insert(&mut tab, b, [2; 4], &mut touched);
        touched.clear();
        let pr = tab.probe(&b, &mut touched);
        assert!(matches!(pr, Probe::Hit { .. }));
        // Header read + false-positive slot read (a) + real slot read (b).
        assert_eq!(touched.len(), 3);
        assert_eq!(tab.get(&a), Some(&[1; 4]));
        assert_eq!(tab.get(&b), Some(&[2; 4]));
    }

    #[test]
    fn bucket_overflow_spills_to_next_bucket() {
        let mut tab: Tab = FlowTable::new(4);
        let mut touched = Vec::new();
        // 9 keys in the same home bucket: 8 fill it, the 9th spills.
        for i in 0..9u64 {
            let key = TKey { id: i, h: 0x0700 | ((i + 1) << 48) };
            let pr = insert(&mut tab, key, [i; 4], &mut touched);
            if i < 8 {
                assert_eq!(pr.target().0, 0x0700 & tab.mask, "key {i} in home bucket");
            } else {
                assert_eq!(pr.target().0, (0x0700 & tab.mask) + 1, "key {i} spills");
            }
        }
        for i in 0..9u64 {
            let key = TKey { id: i, h: 0x0700 | ((i + 1) << 48) };
            assert_eq!(tab.get(&key), Some(&[i; 4]), "key {i} retrievable");
        }
    }

    #[test]
    fn full_window_reports_victim_in_home_bucket() {
        let mut tab: Tab = FlowTable::new(2); // 4 buckets = the whole probe window
        let mut touched = Vec::new();
        // Fill all 32 slots via same-home keys (spilling covers all buckets).
        for i in 0..32u64 {
            insert(&mut tab, TKey { id: i, h: (i % 255 + 1) << 48 }, [i; 4], &mut touched);
        }
        assert_eq!(tab.occupancy(), 32);
        let newcomer = TKey { id: 999, h: (0xAAu64 << 48) | (5u64 << 56) };
        touched.clear();
        let pr = tab.probe(&newcomer, &mut touched);
        assert_eq!(pr.target(), (0, 5), "victim slot from hash bits 56.., home bucket");
        assert!(matches!(pr, Probe::Full { .. }));
        let (b, s) = pr.target();
        insert(&mut tab, newcomer, [999; 4], &mut touched);
        assert_eq!(tab.occupancy(), 32, "eviction replaces, never grows");
        assert_eq!(tab.entry_at(b, s).map(|(k, _)| *k), Some(newcomer));
    }

    #[test]
    fn spans_are_line_aligned_and_inside_footprint() {
        let tab: Tab = FlowTable::new(5);
        assert_eq!(tab.bucket_bytes() % 64, 0, "bucket must be a line multiple");
        assert_eq!(tab.footprint(), 32 * (64 + 8 * 32));
        for b in 0..tab.buckets() {
            let (hoff, hlen) = tab.header_span(b);
            assert_eq!(hoff % 64, 0);
            assert_eq!(hlen, HEADER_BYTES);
            for s in 0..BUCKET_SLOTS {
                let (soff, slen) = tab.slot_span(b, s);
                assert!(soff + slen <= tab.footprint());
                assert_eq!(slen, 32);
            }
        }
    }

    #[test]
    fn flowkey_tab_hash_is_fivetuple_hash() {
        let key = crate::fivetuple::FlowKey {
            src: std::net::Ipv4Addr::new(10, 0, 0, 1),
            dst: std::net::Ipv4Addr::new(10, 0, 0, 2),
            protocol: 17,
            src_port: 1000,
            dst_port: 2000,
        };
        assert_eq!(key.tab_hash(), key.hash());
    }
}
