//! Property-based tests (proptest) on the core data structures and
//! invariants across all crates.

use predictable_pp::prelude::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- checksums ----------------

    /// A freshly computed checksum always verifies.
    #[test]
    fn checksum_self_verifies(data in proptest::collection::vec(any::<u8>(), 2..256)) {
        let mut buf = data.clone();
        // Even length with a checksum field at offset 0.
        if buf.len() % 2 == 1 { buf.push(0); }
        buf[0] = 0; buf[1] = 0;
        let ck = predictable_pp::net::checksum::checksum(&buf);
        buf[0..2].copy_from_slice(&ck.to_be_bytes());
        prop_assert!(predictable_pp::net::checksum::verify(&buf));
    }

    /// Incremental update (RFC 1624) equals full recomputation for any
    /// single 16-bit word change.
    #[test]
    fn incremental_checksum_equals_recompute(
        mut data in proptest::collection::vec(any::<u8>(), 4..128),
        idx in 1usize..60,
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 { data.push(0); }
        let words = data.len() / 2;
        let idx = (idx % (words - 1)) + 1; // never the checksum word itself
        data[0] = 0; data[1] = 0;
        let ck0 = predictable_pp::net::checksum::checksum(&data);
        let old_word = u16::from_be_bytes([data[2*idx], data[2*idx+1]]);
        let incr = predictable_pp::net::checksum::update16(ck0, old_word, new_word);
        data[2*idx..2*idx+2].copy_from_slice(&new_word.to_be_bytes());
        let full = predictable_pp::net::checksum::checksum(&data);
        // One's-complement checksums have two zero representations; compare
        // by verification semantics.
        data[0..2].copy_from_slice(&incr.to_be_bytes());
        prop_assert!(predictable_pp::net::checksum::verify(&data),
            "incr {incr:#06x} full {full:#06x}");
    }

    // ---------------- packets ----------------

    /// Built packets always parse back with the same addressing.
    #[test]
    fn packet_roundtrip(
        src in any::<u32>(), dst in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let p = PacketBuilder::default().udp(
            Ipv4Addr::from(src), Ipv4Addr::from(dst), sport, dport, &payload);
        let ip = p.ipv4().unwrap();
        prop_assert_eq!(ip.src, Ipv4Addr::from(src));
        prop_assert_eq!(ip.dst, Ipv4Addr::from(dst));
        prop_assert_eq!(p.payload().unwrap(), &payload[..]);
        let key = p.flow_key().unwrap();
        prop_assert_eq!(key.src_port, sport);
        prop_assert_eq!(key.dst_port, dport);
        prop_assert!(predictable_pp::net::headers::Ipv4Header::verify_checksum(
            &p.data[p.l3_offset()..]));
    }

    /// TTL decrement keeps the header checksum valid for any TTL.
    #[test]
    fn dec_ttl_checksum_invariant(ttl in 1u8..=255) {
        let mut p = PacketBuilder { ttl, ..Default::default() }.udp(
            Ipv4Addr::new(1,2,3,4), Ipv4Addr::new(5,6,7,8), 9, 10, b"x");
        while p.dec_ttl().is_some() {
            prop_assert!(predictable_pp::net::headers::Ipv4Header::verify_checksum(
                &p.data[p.l3_offset()..]));
        }
        prop_assert_eq!(p.ipv4().unwrap().ttl, 0);
    }

    // ---------------- LPM tries ----------------

    /// Both trie implementations agree with the linear-scan oracle on
    /// arbitrary tables and lookups.
    #[test]
    fn tries_match_oracle(seed in any::<u64>(), n in 50usize..400, ips in proptest::collection::vec(any::<u32>(), 20)) {
        use predictable_pp::sim::config::MachineConfig;
        use predictable_pp::sim::machine::Machine;
        use predictable_pp::sim::types::MemDomain;
        let table = generate_bgp_table(n, seed);
        let mut m = Machine::new(MachineConfig::westmere());
        let bin = BinaryRadixTrie::build(m.allocator(MemDomain(0)), &table);
        let multi = MultibitTrie::build(m.allocator(MemDomain(0)), &table);
        for ip in ips {
            let want = linear_lpm(&table, ip).map(|e| e.next_hop);
            prop_assert_eq!(bin.lookup_host(ip), want, "binary mismatch ip={:#x}", ip);
            prop_assert_eq!(multi.lookup_host(ip), want, "multibit mismatch ip={:#x}", ip);
        }
    }

    // ---------------- AES ----------------

    /// CTR encryption is an involution (encrypting twice with the same
    /// keystream restores the plaintext) and never the identity for
    /// non-degenerate keys.
    #[test]
    fn aes_ctr_roundtrip(key in any::<[u8; 16]>(), nonce in any::<u64>(),
                         msg in proptest::collection::vec(any::<u8>(), 1..200)) {
        let aes = Aes128::new(key);
        let ks = aes.ctr_keystream_traced(nonce, 0, msg.len(), &mut |_, _| {});
        let ct: Vec<u8> = msg.iter().zip(&ks).map(|(m, k)| m ^ k).collect();
        let pt: Vec<u8> = ct.iter().zip(&ks).map(|(c, k)| c ^ k).collect();
        prop_assert_eq!(&pt, &msg);
    }

    /// Block encryption is a permutation: distinct plaintexts yield
    /// distinct ciphertexts.
    #[test]
    fn aes_is_injective(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        prop_assume!(a != b);
        let aes = Aes128::new(key);
        prop_assert_ne!(aes.encrypt_block(a), aes.encrypt_block(b));
    }

    // ---------------- cache ----------------

    /// After any access sequence: occupancy never exceeds capacity, and an
    /// immediately re-accessed line always hits.
    #[test]
    fn cache_invariants(addrs in proptest::collection::vec(0u64..(1 << 16), 1..300)) {
        use predictable_pp::sim::cache::{Cache, LookupResult};
        use predictable_pp::sim::config::CacheGeom;
        let mut c = Cache::new(CacheGeom::new(4096, 4)); // 64 lines
        for a in addrs {
            if c.access(a, false, 0) == LookupResult::Miss {
                c.insert(a, false, 0);
            }
            prop_assert_eq!(c.access(a, false, 0), LookupResult::Hit);
            prop_assert!(c.occupancy() <= 64);
        }
        let s = c.stats();
        prop_assert!(s.hits >= s.misses, "every miss is followed by a hit here");
    }

    /// LRU: within one set, the most recently touched line survives an
    /// insertion that forces an eviction.
    #[test]
    fn lru_keeps_most_recent(salts in proptest::collection::vec(0u64..64, 3..10)) {
        use predictable_pp::sim::cache::Cache;
        use predictable_pp::sim::config::CacheGeom;
        let mut c = Cache::new(CacheGeom::new(512, 2)); // 4 sets x 2 ways
        let addr = |salt: u64| (salt * 4) * 64; // all in set 0
        let mut distinct: Vec<u64> = salts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assume!(distinct.len() >= 3);
        c.insert(addr(distinct[0]), false, 0);
        c.insert(addr(distinct[1]), false, 0);
        c.access(addr(distinct[1]), false, 0); // make [0] the LRU victim
        c.insert(addr(distinct[2]), false, 0);
        prop_assert!(c.probe(addr(distinct[1])), "MRU line must survive");
        prop_assert!(!c.probe(addr(distinct[0])), "LRU line must be evicted");
    }

    // ---------------- sensitivity curves ----------------

    /// Interpolation is bounded by the curve's extremes and exact at knots.
    #[test]
    fn curve_interpolation_bounded(
        mut ys in proptest::collection::vec(0.0f64..60.0, 2..10),
        q in 0.0f64..400e6,
    ) {
        ys.sort_by(|a, b| a.total_cmp(b));
        let pts: Vec<(f64, f64)> =
            ys.iter().enumerate().map(|(i, &y)| ((i as f64 + 1.0) * 30e6, y)).collect();
        let c = SensitivityCurve::from_points(pts.clone());
        let v = c.interpolate(q);
        let max = ys.last().copied().unwrap_or(0.0);
        prop_assert!(v >= 0.0 && v <= max + 1e-9, "{v} outside [0, {max}]");
        for (x, y) in pts {
            prop_assert!((c.interpolate(x) - y).abs() < 1e-9);
        }
    }

    // ---------------- analytical models ----------------

    /// Equation 1 is monotone in each argument and bounded in [0, 1).
    #[test]
    fn eq1_monotone_bounded(k1 in 0.0f64..1.0, k2 in 0.0f64..1.0, h in 0.0f64..1e9) {
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let d_lo = eq1_drop(lo, PAPER_DELTA_SECS, h);
        let d_hi = eq1_drop(hi, PAPER_DELTA_SECS, h);
        prop_assert!(d_lo <= d_hi + 1e-12);
        prop_assert!((0.0..1.0).contains(&d_hi));
    }

    /// The Appendix A conversion rate is monotone in competition.
    #[test]
    fn appendix_model_monotone(r1 in 0.0f64..500e6, r2 in 0.0f64..500e6) {
        let m = CacheModel {
            cache_lines: 196_608.0,
            target_working_lines: 100_000.0,
            target_hits_per_sec: 20e6,
        };
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(m.conversion_rate(lo) <= m.conversion_rate(hi) + 1e-12);
    }

    // ---------------- rules & flows ----------------

    /// Generated unmatchable rules never match generated unicast traffic.
    #[test]
    fn unmatchable_rules_never_match(rule_seed in any::<u64>(), traffic_seed in any::<u64>()) {
        let rules = generate_unmatchable_rules(50, rule_seed);
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, traffic_seed));
        for _ in 0..50 {
            let key = g.next_packet().flow_key().unwrap();
            prop_assert!(rules.iter().all(|r| !r.matches(&key)));
        }
    }

    /// The rolling hash is position-independent: equal windows hash equal.
    #[test]
    fn rolling_hash_window_pure(prefix in proptest::collection::vec(any::<u8>(), 0..40),
                                window in proptest::collection::vec(any::<u8>(), 32..33)) {
        let mut h1 = RollingHash::new();
        let mut v1 = None;
        for &b in prefix.iter().chain(window.iter()) { v1 = h1.roll(b); }
        let mut h2 = RollingHash::new();
        let mut v2 = None;
        for &b in window.iter() { v2 = h2.roll(b); }
        prop_assert_eq!(v1.unwrap(), v2.unwrap());
    }

    // ---------------- DPI (Aho-Corasick) ----------------

    /// The automaton finds exactly what a naive scan finds — including
    /// overlapping and nested matches — on dense small-alphabet inputs.
    #[test]
    fn aho_corasick_matches_naive(
        pats in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..6), 1..20),
        hay in proptest::collection::vec(0u8..4, 0..200),
    ) {
        let mut pats = pats;
        pats.sort();
        pats.dedup();
        let ac = AhoCorasick::build(&pats);
        let mut got = ac.find_all(&hay);
        got.sort_unstable();
        let mut want = Vec::new();
        for i in 0..hay.len() {
            for (id, p) in pats.iter().enumerate() {
                if i + p.len() <= hay.len() && &hay[i..i + p.len()] == p.as_slice() {
                    want.push((i + p.len(), id as u32));
                }
            }
        }
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Walk depth never exceeds the longest pattern.
    #[test]
    fn aho_corasick_depth_bounded(
        pats in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..12), 1..15),
        hay in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let ac = AhoCorasick::build(&pats);
        let (max_depth, _) = ac.walk_depth(&hay);
        let longest = pats.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert!(max_depth as usize <= longest);
    }

    // ---------------- tuple-space classification ----------------

    /// Tuple-space search returns exactly the highest-priority matching
    /// rule that a linear scan returns.
    #[test]
    fn classifier_matches_linear_scan(rule_seed in any::<u64>(), traffic_seed in any::<u64>()) {
        use predictable_pp::sim::config::MachineConfig;
        use predictable_pp::sim::machine::Machine;
        use predictable_pp::sim::types::MemDomain;
        let rules = generate_classifier_rules(300, rule_seed);
        let mut m = Machine::new(MachineConfig::tiny_test());
        let cls = TupleSpaceClassifier::new(
            m.allocator(MemDomain(0)), &rules, &[], CostModel::default());
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, traffic_seed));
        for _ in 0..40 {
            let key = g.next_packet().flow_key().unwrap();
            let got = cls.classify_host(&key).map(|v| v.rule);
            let want = rules.iter().position(|r| r.matches(&key)).map(|i| i as u16);
            prop_assert_eq!(got, want);
        }
    }

    // ---------------- NAT rewrites ----------------

    /// Arbitrary source rewrites keep both checksums valid, and rewriting
    /// back restores the original frame exactly.
    #[test]
    fn nat_rewrite_checksum_and_inverse(
        src in any::<u32>(), dst in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
        new_ip in any::<u32>(), new_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use predictable_pp::net::headers::Ipv4Header;
        let orig = PacketBuilder::default().udp_checksummed(
            Ipv4Addr::from(src), Ipv4Addr::from(dst), sport, dport, &payload);
        let mut p = orig.clone();
        p.rewrite_src(Ipv4Addr::from(new_ip), new_port).unwrap();
        prop_assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        prop_assert!(p.verify_l4_checksum().unwrap());
        p.rewrite_src(Ipv4Addr::from(src), sport).unwrap();
        prop_assert_eq!(&p.data[..], &orig.data[..]);
    }

    // ---------------- CAT way masks ----------------

    /// A line filled outside a mask's ways is never displaced by masked
    /// fills, no matter the access sequence.
    #[test]
    fn masked_fills_respect_partitions(
        salts in proptest::collection::vec(1u64..1000, 1..40),
    ) {
        use predictable_pp::sim::cache::Cache;
        use predictable_pp::sim::config::CacheGeom;
        let mut c = Cache::new(CacheGeom::new(4096, 4)); // 16 sets x 4 ways
        // The protected line goes into way 0 of set 3.
        let set = 3u64;
        let addr = |salt: u64| (salt * 16 + set) * 64;
        c.insert_masked(addr(0), false, 0, 0b0001);
        for &s in &salts {
            // Honour the miss-then-insert protocol (duplicate salts would
            // otherwise re-insert a resident line).
            if !c.probe(addr(s)) {
                c.insert_masked(addr(s), false, 0, 0b1110);
            }
        }
        prop_assert!(c.probe(addr(0)), "protected line evicted by masked fills");
    }

    // ---------------- PR-3 hot-path equivalence ----------------

    /// The SoA cache (with its fast-path machinery: scan memo, MRU hint,
    /// branchless victim selection) behaves operation-for-operation like
    /// the preserved PR-2 reference implementation on random traces:
    /// identical hits, misses, eviction victims, dirty bits, and presence
    /// masks.
    #[test]
    fn cache_matches_reference_on_random_traces(
        kinds in proptest::collection::vec(0u8..6, 200..1200),
        lines in proptest::collection::vec(0u64..96, 200..1200),
        writes in proptest::collection::vec(any::<bool>(), 200..1200),
        presences in proptest::collection::vec(any::<u16>(), 200..1200),
    ) {
        use predictable_pp::sim::cache::{Cache, LookupResult};
        use predictable_pp::sim::config::CacheGeom;
        use predictable_pp::sim::reference::RefCache;
        let geom = CacheGeom::new(2048, 4); // 8 sets x 4 ways
        let mut live = Cache::new(geom);
        let mut spec = RefCache::new(geom);
        for (((&kind, &line), &write), &pres) in kinds
            .iter()
            .zip(lines.iter().cycle())
            .zip(writes.iter().cycle())
            .zip(presences.iter().cycle())
        {
            let addr = line * 64 + (line % 64);
            match kind {
                0 | 1 => {
                    let a = live.access(addr, write, pres);
                    let b = spec.access(addr, write, pres);
                    prop_assert_eq!(a, b);
                    if a == LookupResult::Miss {
                        prop_assert_eq!(
                            live.insert(addr, write, pres),
                            spec.insert(addr, write, pres)
                        );
                    }
                }
                2 => prop_assert_eq!(live.hit_update(addr, write), spec.hit_update(addr, write)),
                3 => prop_assert_eq!(live.invalidate(addr), spec.invalidate(addr)),
                4 => prop_assert_eq!(live.probe_dirty(addr), spec.probe_dirty(addr)),
                _ => prop_assert_eq!(live.probe(addr), spec.probe(addr)),
            }
            prop_assert_eq!(live.stats(), spec.stats());
            prop_assert_eq!(live.occupancy(), spec.occupancy());
        }
    }

    /// `ExecCtx::read`'s inlined L1-hit fast path (`l1_hit_fast`) and
    /// `read_batch`'s run kernel (`Cache::hit_run` + the miss walk) are two
    /// routes to the same cache events: two machines fed the same random
    /// access trace — one via `read`/`write`, one via `read_batch` with
    /// MLP 1 chunks of one — end with identical counters, cache residency,
    /// and stats. (`read_batch` against the serial `demand_access` walk
    /// itself is pinned inside pp-sim.)
    #[test]
    fn fast_path_matches_full_walk_on_random_traces(
        lines in proptest::collection::vec(0u64..4096, 100..600),
        writes in proptest::collection::vec(any::<bool>(), 100..600),
    ) {
        use predictable_pp::sim::config::MachineConfig;
        use predictable_pp::sim::machine::Machine;
        use predictable_pp::sim::types::{CoreId, MemDomain};
        let mut fast = Machine::new(MachineConfig::westmere());
        let mut slow = Machine::new(MachineConfig::westmere());
        let base = MemDomain(0).base();
        for (&line, &write) in lines.iter().zip(writes.iter().cycle()) {
            let addr = base + line * 64;
            {
                let mut ctx = fast.ctx(CoreId(0));
                if write { ctx.write(addr); } else { ctx.read(addr); }
            }
            {
                // Reads go through the run kernel one address at a time;
                // writes have no batched variant, so use write() on both
                // machines.
                let mut ctx = slow.ctx(CoreId(0));
                if write { ctx.write(addr); } else { ctx.read_batch(&[addr], 1); }
            }
        }
        let cf = fast.core(CoreId(0)).counters.total();
        let cs = slow.core(CoreId(0)).counters.total();
        // read() charges differ from read_batch() only in stall/instr
        // accounting (read_batch floors the stall at 1 cycle per access);
        // every cache-observable counter must match exactly.
        prop_assert_eq!(cf.l1_refs, cs.l1_refs);
        prop_assert_eq!(cf.l1_hits, cs.l1_hits);
        prop_assert_eq!(cf.l2_refs, cs.l2_refs);
        prop_assert_eq!(cf.l2_hits, cs.l2_hits);
        prop_assert_eq!(cf.l3_refs, cs.l3_refs);
        prop_assert_eq!(cf.l3_hits, cs.l3_hits);
        prop_assert_eq!(cf.l3_misses, cs.l3_misses);
        prop_assert_eq!(fast.l1_stats(CoreId(0)), slow.l1_stats(CoreId(0)));
        prop_assert_eq!(fast.l2_stats(CoreId(0)), slow.l2_stats(CoreId(0)));
        for &line in &lines {
            let addr = base + line * 64;
            prop_assert_eq!(fast.l1_holds(CoreId(0), addr), slow.l1_holds(CoreId(0), addr));
            prop_assert_eq!(fast.l2_holds(CoreId(0), addr), slow.l2_holds(CoreId(0), addr));
        }
    }

    // ---------------- fault injection ----------------

    /// A seeded fault plan resolves to one timeline: the transition trace
    /// is identical however `advance` is chunked, a fresh injector from
    /// the same plan replays it bit-for-bit, and every event begins
    /// exactly once strictly before it ends exactly once.
    #[test]
    fn fault_injector_trace_is_deterministic_and_balanced(
        seed in any::<u64>(),
        events in proptest::collection::vec(any::<u64>(), 1..12),
        jumps in proptest::collection::vec(1u32..9, 1..40),
    ) {
        use predictable_pp::sim::fault::{FaultInjector, FaultKind, FaultPlan};
        let mut plan = FaultPlan::seeded(seed);
        for (i, &e) in events.iter().enumerate() {
            // Decode (at, duration, jitter) from one generated word: the
            // compat proptest shim has no tuple strategies.
            let at = (e % 40) as u32;
            let dur = 1 + ((e >> 8) % 19) as u32;
            let jitter = ((e >> 16) % 6) as u32;
            plan = plan.with_jittered(
                at, at + dur, jitter,
                FaultKind::RateBurst { multiplier: i as u32 + 2 },
            );
        }
        let horizon = plan.last_window() + 2;
        let mut stepped = FaultInjector::new(plan.clone());
        for w in 0..=horizon { stepped.advance(w); }
        let mut jumped = FaultInjector::new(plan.clone());
        let mut w = 0u32;
        for &j in &jumps {
            w = (w + j).min(horizon);
            jumped.advance(w);
        }
        jumped.advance(horizon);
        let mut replay = FaultInjector::new(plan);
        replay.advance(horizon);
        prop_assert_eq!(stepped.trace(), jumped.trace(), "chunking changed the trace");
        prop_assert_eq!(stepped.trace(), replay.trace(), "same seed must replay identically");
        for i in 0..events.len() {
            let evs: Vec<_> = stepped.trace().iter().filter(|t| t.event == i).collect();
            prop_assert_eq!(evs.len(), 2, "event {} must begin and end once", i);
            prop_assert!(evs[0].begin && !evs[1].begin);
            prop_assert!(evs[0].window < evs[1].window);
        }
    }

    // ---------------- stream prefetcher ----------------

    /// Prefetch targets always stay inside the training access's 4 KB page
    /// and follow the detected stride.
    #[test]
    fn prefetch_targets_in_page_and_on_stride(
        page in 0u64..1024, start_line in 0u64..64, stride in 1i64..8,
    ) {
        use predictable_pp::sim::prefetch::StreamPrefetcher;
        let mut pf = StreamPrefetcher::new(8, 4);
        let base = page << 12;
        let mut line = start_line as i64;
        for _ in 0..6 {
            let addr = base + (line as u64) * 64;
            if !(0..64).contains(&line) { break; }
            let (targets, n) = pf.train(addr);
            for &t in &targets[..n] {
                prop_assert_eq!(t >> 12, page, "prefetch crossed the page");
                let tl = ((t >> 6) & 63) as i64;
                prop_assert_eq!((tl - ((addr >> 6) & 63) as i64) % stride, 0);
            }
            line += stride;
        }
    }
}
