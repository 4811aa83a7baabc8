//! Property tests for the PR 10 internet-scale tables: the DIR-24-8
//! compressed LPM and both tries must agree route-for-route with the
//! linear LPM oracle on random inputs — including the batched paths, which
//! must be lane-wise identical to per-lane scalar lookups (batching may
//! only overlap charges, never change results).

use pp_click::elements::lpm::{Dir248Scratch, Dir248Table};
use pp_click::elements::radix::{
    BinaryRadixTrie, LookupScratch, LpmTable, MultibitScratch, MultibitTrie,
};
use pp_net::gen::prefixes::{linear_lpm, PrefixEntry};
use pp_sim::config::MachineConfig;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};
use proptest::prelude::*;

/// A random routing table: canonicalized, deduplicated prefixes with
/// lengths across the whole /8../32 band (>24 exercises the DIR-24-8
/// spill blocks).
fn table_strategy() -> impl Strategy<Value = Vec<PrefixEntry>> {
    proptest::collection::vec((any::<u32>(), 8u8..=32, 0u32..64), 1..48).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (ip, len, next_hop) in raw {
            let shift = 32 - len as u32;
            let addr = if shift == 32 { 0 } else { (ip >> shift) << shift };
            if seen.insert((addr, len)) {
                out.push(PrefixEntry { addr, len, next_hop });
            }
        }
        out
    })
}

/// Destinations that actually exercise the table: raw random addresses
/// plus, for every prefix, one address inside it (its base perturbed in
/// the low bits).
fn probes_for(table: &[PrefixEntry], raw: &[u32]) -> Vec<u32> {
    let mut dsts: Vec<u32> = raw.to_vec();
    for e in table {
        dsts.push(e.addr);
        dsts.push(e.addr | (e.addr >> 7) & !(u32::MAX << (32 - e.len as u32).min(31)));
    }
    dsts
}

proptest! {
    // Every case builds the 16M-entry stage-1 array, so keep the count
    // modest — coverage comes from the randomized tables, not volume.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DIR-24-8 and both tries route every probe exactly like the linear
    /// LPM oracle on random tables.
    #[test]
    fn structures_agree_with_linear_lpm_oracle(
        table in table_strategy(),
        raw in proptest::collection::vec(any::<u32>(), 1..32),
    ) {
        let mut m = Machine::new(MachineConfig::westmere());
        let alloc = m.allocator(MemDomain(0));
        let dir = Dir248Table::build(alloc, &table);
        let radix = BinaryRadixTrie::build(alloc, &table);
        let multibit = MultibitTrie::build(alloc, &table);
        for dst in probes_for(&table, &raw) {
            let want = linear_lpm(&table, dst).map(|e| e.next_hop);
            prop_assert_eq!(dir.lookup_host(dst), want, "dir-24-8 at {:#x}", dst);
            prop_assert_eq!(radix.lookup_host(dst), want, "radix at {:#x}", dst);
            prop_assert_eq!(multibit.lookup_host(dst), want, "multibit at {:#x}", dst);
        }
    }

    /// The batched walks are lane-wise identical to scalar lookups —
    /// same next hop AND same per-lane read count — including batches of
    /// one (the scalar anchor) and batches with duplicate destinations.
    #[test]
    fn batched_lookups_equal_scalar_lanewise(
        table in table_strategy(),
        raw in proptest::collection::vec(any::<u32>(), 1..24),
        dup_from in any::<usize>(),
    ) {
        let mut m = Machine::new(MachineConfig::westmere());
        let alloc = m.allocator(MemDomain(0));
        let dir = Dir248Table::build(alloc, &table);
        let radix = BinaryRadixTrie::build(alloc, &table);
        let multibit = MultibitTrie::build(alloc, &table);

        // Force duplicate keys into the batch: repeat one destination
        // three times (gathers must not merge or reorder lanes).
        let mut dsts = probes_for(&table, &raw);
        let dup = dsts[dup_from % dsts.len()];
        dsts.push(dup);
        dsts.push(dup);
        dsts.push(dup);

        let mut ctx = m.ctx(CoreId(0));
        let mut out = Vec::new();
        for batch in [&dsts[..1], &dsts[..]] {
            let scalar: Vec<(Option<u32>, u32)> =
                batch.iter().map(|&d| dir.lookup(&mut ctx, d)).collect();
            dir.lookup_batch_into(&mut ctx, batch, 4, &mut Dir248Scratch::default(), &mut out);
            prop_assert_eq!(&out, &scalar, "dir-24-8 batch of {}", batch.len());

            let scalar: Vec<(Option<u32>, u32)> =
                batch.iter().map(|&d| radix.lookup(&mut ctx, d)).collect();
            radix.lookup_batch_into(&mut ctx, batch, 4, &mut LookupScratch::default(), &mut out);
            prop_assert_eq!(&out, &scalar, "radix batch of {}", batch.len());

            let scalar: Vec<(Option<u32>, u32)> =
                batch.iter().map(|&d| multibit.lookup(&mut ctx, d)).collect();
            multibit
                .lookup_batch_into(&mut ctx, batch, 4, &mut MultibitScratch::default(), &mut out);
            prop_assert_eq!(&out, &scalar, "multibit batch of {}", batch.len());
        }
    }
}
