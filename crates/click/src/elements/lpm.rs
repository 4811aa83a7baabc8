//! DIR-24-8 compressed longest-prefix match — the Internet-scale lookup
//! structure (Gupta/Lin/McKeown's DIR-24-8-BASIC, the classic "compressed
//! LPM" fix that *Data Path Processing in Fast Programmable Routers*
//! motivates).
//!
//! The paper's radix trie walks 12–20 *dependent* reads per lookup; at
//! full-BGP scale (~1M prefixes) those reads spread over tens of megabytes
//! and every one of them is a potential DRAM round trip. DIR-24-8 trades
//! memory for depth: a 16M-entry direct-index array answers any prefix of
//! length ≤ 24 in **one** read, and the rare destinations under a /24 that
//! contains longer prefixes take exactly one more read into that /24's
//! 256-entry second-stage block. The structure is 64 MB+ and deliberately
//! DRAM-resident — the table itself becomes the dominant memory traffic,
//! which is the regime `repro tables` measures.
//!
//! Spill blocks are **per-/24** because that is the unit the first stage
//! indexes: marking a first-stage slot as spilled redirects all 256 of its
//! host addresses into one private block, so the block can be fully
//! leaf-pushed at build time (initialized with the /24's inherited best
//! match, then overwritten by each longer prefix in ascending-length
//! order) and a lookup never needs to consult both stages' values.
//!
//! Route-for-route equivalence with [`BinaryRadixTrie`] (the executable
//! spec) is pinned by the tests here and the proptests in
//! `crates/bench/tests/tables_equiv.rs`. The element over this table is
//! the shared [`IpLookup`].
//!
//! [`BinaryRadixTrie`]: crate::elements::radix::BinaryRadixTrie

use crate::elements::radix::{push_covering_lines, IpLookup, LpmTable};
use pp_net::gen::prefixes::PrefixEntry;
use pp_sim::arena::{DomainAllocator, SimPlacement};
use pp_sim::ctx::ExecCtx;
use std::rc::Rc;

/// First-stage index width: the top 24 bits of the destination.
const STAGE1_BITS: u32 = 24;
/// First-stage entries (16M).
const STAGE1_ENTRIES: usize = 1 << STAGE1_BITS;
/// Entries per second-stage block (one per /24, covering its low 8 bits).
const BLOCK: usize = 256;

/// Packed table entry.
///
/// * `0` — empty (no matching prefix).
/// * bit 31 set — first stage only: spilled /24; low 24 bits index a
///   second-stage block.
/// * bit 30 set — leaf: bits 29..24 = prefix length, bits 23..0 = next hop
///   (the same packing as the radix tries, so hop values are interchangeable
///   across all three structures).
const SPILL: u32 = 1 << 31;
const LEAF: u32 = 1 << 30;

#[inline]
fn leaf(len: u8, hop: u32) -> u32 {
    debug_assert!(hop < (1 << 24), "next hop must fit 24 bits");
    LEAF | ((len as u32) << 24) | (hop & 0x00FF_FFFF)
}

#[inline]
fn decode(e: u32) -> Option<u32> {
    if e & LEAF != 0 {
        Some(e & 0x00FF_FFFF)
    } else {
        None
    }
}

/// The DIR-24-8 table: a flat 16M-entry first stage plus per-/24 spill
/// blocks, both placed in simulated memory so every lookup's reads are
/// charged like any other structure walk.
pub struct Dir248Table {
    image: Rc<Dir248Image>,
    stage1: SimPlacement<u32>,
    stage2: SimPlacement<u32>,
}

/// [`Dir248Table`]'s host data.
pub struct Dir248Image {
    /// One entry per /24 (64 MB simulated — deliberately DRAM-resident).
    stage1: Vec<u32>,
    /// Concatenated 256-entry spill blocks for /24s containing longer
    /// prefixes.
    stage2: Vec<u32>,
    n_prefixes: usize,
}

/// Reusable per-batch walk state for
/// [`Dir248Table::lookup_batch_into`] (host-side only).
#[derive(Debug, Default)]
pub struct Dir248Scratch {
    addrs: Vec<u64>,
    entries: Vec<u32>,
    /// Spilled lanes as `(second-stage index, lane)`, sorted by index so
    /// the second gather visits blocks in address order.
    spill: Vec<(usize, usize)>,
}

impl Dir248Table {
    /// Number of prefixes inserted.
    pub fn prefix_count(&self) -> usize {
        self.image.n_prefixes
    }

    /// Total simulated footprint in bytes (first stage + spill blocks).
    pub fn footprint(&self) -> u64 {
        self.stage1.footprint() + self.stage2.footprint()
    }

    /// Host-only lookup (no simulated cost) — the test-oracle interface.
    pub fn lookup_host(&self, dst: u32) -> Option<u32> {
        let e = self.image.stage1[(dst >> 8) as usize];
        if e & SPILL != 0 {
            let idx = ((e & !SPILL) as usize) * BLOCK + (dst & 0xFF) as usize;
            decode(self.image.stage2[idx])
        } else {
            decode(e)
        }
    }
}

impl LpmTable for Dir248Table {
    const CLASS: &'static str = "Dir248IPLookup";
    type Scratch = Dir248Scratch;
    type Image = Dir248Image;

    /// Two leaf-pushing phases, each in ascending prefix-length order
    /// (stable, so a duplicated `(addr, len)` resolves to the later table
    /// entry — the same tie-break as both radix tries): first every
    /// prefix of length ≤ 24 expands over its covered first-stage range,
    /// then every longer prefix spills its /24 into a block initialized
    /// from the finished first stage and overwrites its covered slots.
    fn image(prefixes: &[PrefixEntry]) -> Dir248Image {
        let mut stage1 = vec![0u32; STAGE1_ENTRIES];
        let mut short: Vec<&PrefixEntry> = prefixes.iter().filter(|p| p.len <= 24).collect();
        short.sort_by_key(|p| p.len);
        for p in short {
            let start = (p.addr >> 8) as usize;
            let count = 1usize << (24 - p.len);
            for e in &mut stage1[start..start + count] {
                *e = leaf(p.len, p.next_hop);
            }
        }
        let mut stage2: Vec<u32> = Vec::new();
        let mut long: Vec<&PrefixEntry> = prefixes.iter().filter(|p| p.len > 24).collect();
        long.sort_by_key(|p| p.len);
        for p in long {
            assert!(p.len <= 32);
            let s1 = (p.addr >> 8) as usize;
            let block = if stage1[s1] & SPILL != 0 {
                (stage1[s1] & !SPILL) as usize
            } else {
                let b = stage2.len() / BLOCK;
                stage2.resize(stage2.len() + BLOCK, stage1[s1]);
                stage1[s1] = SPILL | b as u32;
                b
            };
            let start = block * BLOCK + (p.addr & 0xFF) as usize;
            let count = 1usize << (32 - p.len);
            for e in &mut stage2[start..start + count] {
                *e = leaf(p.len, p.next_hop);
            }
        }
        Dir248Image { stage1, stage2, n_prefixes: prefixes.len() }
    }

    fn place(alloc: &mut DomainAllocator, image: Rc<Dir248Image>) -> Self {
        let stage1 = SimPlacement::new(alloc, image.stage1.len());
        let stage2 = SimPlacement::new(alloc, image.stage2.len());
        Dir248Table { image, stage1, stage2 }
    }

    /// One direct-indexed read, plus one dependent block read when the /24
    /// is spilled: `steps` ∈ {1, 2}.
    fn lookup(&self, ctx: &mut ExecCtx<'_>, dst: u32) -> (Option<u32>, u32) {
        let e = self.stage1.read(ctx, &self.image.stage1, (dst >> 8) as usize);
        if e & SPILL != 0 {
            let idx = ((e & !SPILL) as usize) * BLOCK + (dst & 0xFF) as usize;
            (decode(self.stage2.read(ctx, &self.image.stage2, idx)), 2)
        } else {
            (decode(e), 1)
        }
    }

    /// Gathers every lane's first-stage line as one overlapped
    /// [`read_batch`](ExecCtx::read_batch) (the lanes are fully
    /// independent — there is no level synchronization to speak of), then
    /// visits the spilled lanes' second-stage lines **sorted by address**
    /// in a second overlapped gather.
    fn lookup_batch_into(
        &self,
        ctx: &mut ExecCtx<'_>,
        dsts: &[u32],
        mlp: u32,
        scratch: &mut Dir248Scratch,
        out: &mut Vec<(Option<u32>, u32)>,
    ) {
        let Dir248Scratch { addrs, entries, spill } = scratch;
        // Stage 1: one gather over every lane's direct-index line.
        addrs.clear();
        entries.clear();
        spill.clear();
        for (l, &dst) in dsts.iter().enumerate() {
            let i = (dst >> 8) as usize;
            push_covering_lines(addrs, self.stage1.addr_of(i), self.stage1.stride());
            let e = self.image.stage1[i];
            entries.push(e);
            if e & SPILL != 0 {
                let idx = ((e & !SPILL) as usize) * BLOCK + (dst & 0xFF) as usize;
                spill.push((idx, l));
            }
        }
        ctx.read_batch(addrs, mlp);
        // Stage 2: the spilled lanes only, visited in block-address order.
        spill.sort_unstable();
        addrs.clear();
        for &(idx, _) in spill.iter() {
            push_covering_lines(addrs, self.stage2.addr_of(idx), self.stage2.stride());
        }
        ctx.read_batch(addrs, mlp);
        out.clear();
        out.extend(dsts.iter().zip(entries.iter()).map(|(&dst, &e)| {
            if e & SPILL != 0 {
                let idx = ((e & !SPILL) as usize) * BLOCK + (dst & 0xFF) as usize;
                (decode(self.image.stage2[idx]), 2)
            } else {
                (decode(e), 1)
            }
        }));
    }
}

/// `Dir248IPLookup`: longest-prefix match through the DIR-24-8 table —
/// computes the same routes as `RadixIPLookup` in 1–2 reads instead of
/// 12–20.
pub type Dir248IpLookup = IpLookup<Dir248Table>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::machine;
    use crate::elements::radix::checks::{self, bgp_with_long, lpm_pin_run};
    use crate::elements::radix::BinaryRadixTrie;
    use pp_net::gen::prefixes::{generate_prefixes, linear_lpm};
    use pp_sim::types::{CoreId, MemDomain};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn build(prefixes: &[PrefixEntry]) -> (pp_sim::machine::Machine, Dir248Table) {
        let mut m = machine();
        let t = Dir248Table::build(m.allocator(MemDomain(0)), prefixes);
        (m, t)
    }

    #[test]
    fn lpm_ordering_with_long_prefixes() {
        let table = vec![
            PrefixEntry { addr: 0x0a00_0000, len: 8, next_hop: 1 },
            PrefixEntry { addr: 0x0a01_0000, len: 16, next_hop: 2 },
            PrefixEntry { addr: 0x0a01_0200, len: 24, next_hop: 3 },
            PrefixEntry { addr: 0x0a01_0203, len: 32, next_hop: 4 },
            PrefixEntry { addr: 0x0a01_0280, len: 25, next_hop: 5 },
        ];
        let (_m, t) = build(&table);
        assert_eq!(t.lookup_host(0x0a01_0203), Some(4));
        assert_eq!(t.lookup_host(0x0a01_0204), Some(3));
        assert_eq!(t.lookup_host(0x0a01_02ff), Some(5));
        assert_eq!(t.lookup_host(0x0a01_ff00), Some(2));
        assert_eq!(t.lookup_host(0x0aff_0000), Some(1));
        assert_eq!(t.lookup_host(0x0b00_0000), None);
        assert_eq!(t.stage2.len(), BLOCK, "one spill block");
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut table = vec![
            PrefixEntry { addr: 0x0a01_0280, len: 25, next_hop: 5 },
            PrefixEntry { addr: 0x0a01_0203, len: 32, next_hop: 4 },
            PrefixEntry { addr: 0x0a01_0200, len: 24, next_hop: 3 },
            PrefixEntry { addr: 0x0a00_0000, len: 8, next_hop: 1 },
            PrefixEntry { addr: 0x0a01_0000, len: 16, next_hop: 2 },
        ];
        let (_m1, t1) = build(&table);
        table.reverse();
        let (_m2, t2) = build(&table);
        for ip in [0x0a01_0203u32, 0x0a01_0204, 0x0a01_02ff, 0x0a01_ff00, 0x0aff_0000] {
            assert_eq!(t1.lookup_host(ip), t2.lookup_host(ip), "ip {ip:#x}");
        }
    }

    #[test]
    fn matches_linear_oracle() {
        let mut prefixes = generate_prefixes(2000, 77, true);
        // Layer some /25–/32s under existing /24s.
        let mut rng = SmallRng::seed_from_u64(99);
        let slashes24: Vec<u32> =
            prefixes.iter().filter(|e| e.len == 24).map(|e| e.addr).take(40).collect();
        for &base in &slashes24 {
            let len: u8 = rng.random_range(25..=32);
            let shift = 32 - len as u32;
            let addr = ((base | (rng.random::<u32>() & 0xFF)) >> shift) << shift;
            prefixes.push(PrefixEntry { addr, len, next_hop: rng.random_range(0..64) });
        }
        let (_m, t) = build(&prefixes);
        for _ in 0..3000 {
            let ip: u32 = rng.random();
            let want = linear_lpm(&prefixes, ip).map(|e| e.next_hop);
            assert_eq!(t.lookup_host(ip), want, "mismatch for {ip:#x}");
        }
        // And specifically addresses inside the spilled /24s.
        for &base in &slashes24 {
            for _ in 0..20 {
                let ip = base | (rng.random::<u32>() & 0xFF);
                let want = linear_lpm(&prefixes, ip).map(|e| e.next_hop);
                assert_eq!(t.lookup_host(ip), want, "mismatch for {ip:#x}");
            }
        }
    }

    #[test]
    fn agrees_with_binary_radix_spec() {
        let prefixes = bgp_with_long(3000, 21);
        let (_m1, dir) = build(&prefixes);
        let mut m2 = machine();
        let bin = BinaryRadixTrie::build(m2.allocator(MemDomain(0)), &prefixes);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..3000 {
            let ip: u32 = rng.random();
            assert_eq!(dir.lookup_host(ip), bin.lookup_host(ip), "ip {ip:#x}");
        }
    }

    #[test]
    fn simulated_lookup_agrees_with_host_and_charges() {
        let prefixes = bgp_with_long(1000, 2);
        let (mut m, t) = build(&prefixes);
        let mut ctx = m.ctx(CoreId(0));
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..300 {
            let ip: u32 = rng.random();
            let (hop, reads) = t.lookup(&mut ctx, ip);
            assert_eq!(hop, t.lookup_host(ip));
            assert!((1..=2).contains(&reads));
        }
        assert!(m.core(CoreId(0)).counters.total().l1_refs >= 300);
    }

    #[test]
    fn batch_results_equal_scalar_results() {
        checks::batch_results_equal_scalar_results::<Dir248Table>();
    }

    #[test]
    fn batched_element_charges_less_than_scalar() {
        checks::batched_element_charges_less_than_scalar::<Dir248Table>();
        // Pin, taken from the per-table element before the three became one
        // `IpLookup<T>`: the fixed 256-packet stream in vectors of 64.
        let (el, counts, clock) = lpm_pin_run(Dir248IpLookup::new, 64);
        assert_eq!((el.found, el.no_route), (245, 9));
        assert_eq!((el.avg_depth() * 254.0).round(), 286.0, "reads over the 254 lookups");
        assert_eq!(clock, 24_487);
        // Same accesses as the one-packet vectors; only the stall overlaps.
        let (_, scalar_counts, _) = lpm_pin_run(Dir248IpLookup::new, 1);
        assert_eq!(counts, pp_sim::counters::Counts { stall_cycles: 22_485, ..scalar_counts });
    }

    #[test]
    fn batch_of_one_is_charge_identical_to_scalar() {
        checks::batch_of_one_is_charge_identical_to_scalar::<Dir248Table>();
        // Pin, taken from the per-table element before the three became one
        // `IpLookup<T>`: the fixed 256-packet stream in vectors of 1.
        let (el, counts, clock) = lpm_pin_run(Dir248IpLookup::new, 1);
        assert_eq!((el.found, el.no_route), (245, 9));
        assert_eq!((el.avg_depth() * 254.0).round(), 286.0, "reads over the 254 lookups");
        assert_eq!(clock, 88_570);
        assert_eq!(
            counts,
            pp_sim::counters::Counts {
                instructions: 2830,
                compute_cycles: 2002,
                stall_cycles: 86_568,
                l1_refs: 542,
                l1_hits: 1,
                l2_refs: 541,
                l2_hits: 0,
                l3_refs: 541,
                l3_hits: 0,
                l3_misses: 541,
                remote_accesses: 0,
                packets: 0,
            }
        );
    }

    #[test]
    fn footprint_is_dram_resident_scale() {
        let prefixes = bgp_with_long(20_000, 4);
        let (_m, t) = build(&prefixes);
        let mb = t.footprint() as f64 / (1024.0 * 1024.0);
        assert!(mb >= 64.0, "the direct stage alone is 64 MB, got {mb:.1} MB");
        assert!(!t.stage2.is_empty(), "spill blocks must exist");
        assert_eq!(
            t.footprint(),
            (STAGE1_ENTRIES * 4) as u64 + (t.stage2.len() * 4) as u64
        );
    }

    #[test]
    fn element_routes_and_drops() {
        checks::element_routes_and_drops::<Dir248Table>(2.0);
    }
}
