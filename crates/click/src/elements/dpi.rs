//! Deep packet inspection: multi-pattern signature matching over payload
//! bytes with an Aho-Corasick automaton.
//!
//! DPI is the canonical "emerging" workload the paper's §6 motivates
//! programmable platforms with ("deep packet inspection, application
//! acceleration ... would require several megabytes of frequently accessed
//! data"). We implement the automaton the way high-rate IDS engines do
//! (Snort's `acsmx` "full" format): the goto/failure trie is compiled into a
//! dense DFA — one 256-entry row of `u32` per state — so matching costs
//! exactly one dependent table load per payload byte.
//!
//! The access pattern is what makes DPI interesting for contention: benign
//! traffic keeps the automaton in shallow states whose rows stay cached
//! (hot-spot behaviour, like the radix-trie root in the paper's Fig. 7),
//! while adversarial "teaser" traffic that echoes signature prefixes drags
//! the walk into deep, cold rows. The same code path thus spans the
//! sensitivity spectrum depending on input — precisely the "hidden
//! aggressiveness" risk §4 ends on.

use crate::cost::CostModel;
use crate::element::{Action, Element};
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimPlacement, SimVec};
use pp_sim::ctx::ExecCtx;
use std::collections::BTreeMap;

/// Next-state mask in a DFA entry (24 bits: up to 16 M states).
const STATE_MASK: u32 = 0x00FF_FFFF;
/// Entry flag: the target state has at least one pattern ending in it.
const OUTPUT_BIT: u32 = 1 << 31;

/// A compiled Aho-Corasick automaton (host side).
///
/// Built once from a pattern set; provides the dense transition table the
/// [`Dpi`] element walks in simulated memory, plus host-only queries used by
/// oracles and diagnostics.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Dense row-major transition table: `dfa[s * 256 + byte]`.
    dfa: Vec<u32>,
    /// `(start, len)` into [`out_list`](Self::out_list) per state.
    out_spans: Vec<(u32, u32)>,
    /// Flattened pattern ids, grouped by state.
    out_list: Vec<u32>,
    /// Trie depth of each state (root = 0).
    depth: Vec<u16>,
}

impl AhoCorasick {
    /// Compile a pattern set. Empty patterns are rejected; duplicate
    /// patterns share an end state (both ids are reported on a match).
    ///
    /// # Panics
    /// If any pattern is empty or the automaton exceeds 2^24 states.
    pub fn build(patterns: &[Vec<u8>]) -> AhoCorasick {
        assert!(patterns.iter().all(|p| !p.is_empty()), "empty pattern");

        // 1. Goto trie.
        let mut children: Vec<BTreeMap<u8, u32>> = vec![BTreeMap::new()];
        let mut outs: Vec<Vec<u32>> = vec![Vec::new()];
        let mut depth: Vec<u16> = vec![0];
        for (id, pat) in patterns.iter().enumerate() {
            let mut s = 0u32;
            for &b in pat {
                s = match children[s as usize].get(&b) {
                    Some(&t) => t,
                    None => {
                        let t = children.len() as u32;
                        assert!(t <= STATE_MASK, "automaton exceeds 2^24 states");
                        children[s as usize].insert(b, t);
                        children.push(BTreeMap::new());
                        outs.push(Vec::new());
                        depth.push(depth[s as usize] + 1);
                        t
                    }
                };
            }
            outs[s as usize].push(id as u32);
        }
        let n = children.len();

        // 2. Failure links by BFS, merging outputs; 3. DFA closure in the
        // same order (a state's fail link is strictly shallower, so its row
        // is already complete when we need it).
        let mut fail = vec![0u32; n];
        let mut dfa = vec![0u32; n * 256];
        let mut queue = std::collections::VecDeque::new();
        for b in 0..=255u8 {
            if let Some(&t) = children[0].get(&b) {
                dfa[b as usize] = t;
                queue.push_back(t);
            }
        }
        while let Some(s) = queue.pop_front() {
            let su = s as usize;
            let f = fail[su];
            // Merge the fail state's outputs (patterns ending mid-path).
            if !outs[f as usize].is_empty() {
                let inherited = outs[f as usize].clone();
                outs[su].extend(inherited);
            }
            for b in 0..=255u16 {
                let bi = b as usize;
                match children[su].get(&(b as u8)) {
                    Some(&t) => {
                        fail[t as usize] = dfa[f as usize * 256 + bi] & STATE_MASK;
                        dfa[su * 256 + bi] = t;
                        queue.push_back(t);
                    }
                    None => {
                        dfa[su * 256 + bi] = dfa[f as usize * 256 + bi] & STATE_MASK;
                    }
                }
            }
        }

        // 4. Flatten outputs and set the output bit on every entry that
        // *enters* an output state, so the walker tests one bit per byte.
        let mut out_spans = Vec::with_capacity(n);
        let mut out_list = Vec::new();
        for o in &outs {
            out_spans.push((out_list.len() as u32, o.len() as u32));
            out_list.extend_from_slice(o);
        }
        for e in dfa.iter_mut() {
            let t = *e & STATE_MASK;
            if out_spans[t as usize].1 > 0 {
                *e |= OUTPUT_BIT;
            }
        }

        AhoCorasick { dfa, out_spans, out_list, depth }
    }

    /// Number of automaton states.
    pub fn state_count(&self) -> usize {
        self.out_spans.len()
    }

    /// Bytes of the dense transition table.
    pub fn table_bytes(&self) -> u64 {
        (self.dfa.len() * 4) as u64
    }

    /// Trie depth of `state`.
    pub fn state_depth(&self, state: u32) -> u16 {
        self.depth[state as usize]
    }

    /// Host-side walk: all matches in `hay` as `(end_offset, pattern_id)`,
    /// where `end_offset` is the index one past the match's last byte.
    /// This is the oracle the simulated walk is tested against.
    pub fn find_all(&self, hay: &[u8]) -> Vec<(usize, u32)> {
        let mut state = 0u32;
        let mut hits = Vec::new();
        for (i, &b) in hay.iter().enumerate() {
            let e = self.dfa[state as usize * 256 + b as usize];
            state = e & STATE_MASK;
            if e & OUTPUT_BIT != 0 {
                let (start, len) = self.out_spans[state as usize];
                for k in 0..len {
                    hits.push((i + 1, self.out_list[(start + k) as usize]));
                }
            }
        }
        hits
    }

    /// Host-side walk reporting the maximum and mean state depth reached —
    /// the diagnostic separating benign from teaser traffic.
    pub fn walk_depth(&self, hay: &[u8]) -> (u16, f64) {
        let mut state = 0u32;
        let (mut max, mut sum) = (0u16, 0u64);
        for &b in hay {
            state = self.dfa[state as usize * 256 + b as usize] & STATE_MASK;
            let d = self.depth[state as usize];
            max = max.max(d);
            sum += d as u64;
        }
        (max, if hay.is_empty() { 0.0 } else { sum as f64 / hay.len() as f64 })
    }
}

/// What the element does when a signature matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpiMode {
    /// IDS: count and annotate, keep forwarding.
    Detect,
    /// IPS: drop the packet on the first match.
    Prevent,
}

/// Output span record in simulated memory (8 bytes).
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct OutSpan {
    start: u32,
    len: u32,
}

/// The DPI element. See the module docs.
pub struct Dpi {
    auto: AhoCorasick,
    /// Where the automaton's DFA rows sit in simulated memory (the
    /// contended structure); the host rows are `auto`'s own.
    table: SimPlacement<u32>,
    /// Per-state output spans, read only on a match.
    spans: SimVec<OutSpan>,
    /// Flattened pattern-id list.
    out_ids: SimVec<u32>,
    mode: DpiMode,
    cost: CostModel,
    /// Total signature matches seen.
    pub matches: u64,
    /// Packets with at least one match.
    pub alert_packets: u64,
    /// Packets dropped (Prevent mode).
    pub dropped: u64,
    /// Payload bytes scanned.
    pub scanned_bytes: u64,
    /// Deepest automaton state entered (diagnostics).
    pub max_depth_seen: u16,
}

impl Dpi {
    /// Compile `patterns` and materialize the automaton in `alloc`'s domain.
    pub fn new(
        alloc: &mut DomainAllocator,
        patterns: &[Vec<u8>],
        mode: DpiMode,
        cost: CostModel,
    ) -> Self {
        let auto = AhoCorasick::build(patterns);
        let table = SimPlacement::new(alloc, auto.dfa.len());
        let spans = SimVec::from_vec(
            alloc,
            auto.out_spans.iter().map(|&(start, len)| OutSpan { start, len }).collect(),
        );
        let out_ids = SimVec::from_vec(alloc, auto.out_list.clone());
        Dpi {
            auto,
            table,
            spans,
            out_ids,
            mode,
            cost,
            matches: 0,
            alert_packets: 0,
            dropped: 0,
            scanned_bytes: 0,
            max_depth_seen: 0,
        }
    }

    /// The compiled automaton (for oracles and diagnostics).
    pub fn automaton(&self) -> &AhoCorasick {
        &self.auto
    }

    /// Simulated footprint of the DFA table plus output structures.
    pub fn footprint(&self) -> u64 {
        self.table.footprint() + self.spans.footprint() + self.out_ids.footprint()
    }

    /// Scan `payload`, charging one table load per byte. Returns the number
    /// of matches (stopping early in Prevent mode).
    fn scan(&mut self, ctx: &mut ExecCtx<'_>, payload: &[u8]) -> u64 {
        let mut state = 0u32;
        let mut found = 0u64;
        for &b in payload {
            CostModel::charge(ctx, self.cost.dpi_byte);
            let e = self.table.read(ctx, &self.auto.dfa, state as usize * 256 + b as usize);
            state = e & STATE_MASK;
            let d = self.auto.state_depth(state);
            if d > self.max_depth_seen {
                self.max_depth_seen = d;
            }
            if e & OUTPUT_BIT != 0 {
                CostModel::charge(ctx, self.cost.dpi_match);
                let span = self.spans.read(ctx, state as usize);
                for k in 0..span.len {
                    let _id = self.out_ids.read(ctx, (span.start + k) as usize);
                    found += 1;
                }
                if self.mode == DpiMode::Prevent {
                    break;
                }
            }
        }
        self.scanned_bytes += payload.len() as u64;
        self.matches += found;
        found
    }
}

impl Element for Dpi {
    fn class_name(&self) -> &'static str {
        "DPI"
    }

    fn tag(&self) -> &'static str {
        "dpi_scan"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        let Ok(payload) = pkt.payload().map(<[u8]>::to_vec) else {
            return Action::Drop;
        };
        // Stream the payload out of the packet buffer (mostly L1 hits after
        // the DMA/DCA delivery and earlier elements touched the frame).
        if pkt.buf_addr != 0 {
            if let Ok(off) = pkt.payload_offset() {
                ctx.read_struct(pkt.buf_addr + off as u64, payload.len() as u64);
            }
        }
        let found = self.scan(ctx, &payload);
        if found > 0 {
            self.alert_packets += 1;
            if self.mode == DpiMode::Prevent {
                self.dropped += 1;
                return Action::Drop;
            }
        }
        Action::Out(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet_with_payload};
    use pp_net::gen::signatures::generate_signatures;
    use pp_sim::types::{CoreId, MemDomain};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn classic() -> Vec<Vec<u8>> {
        [b"he".to_vec(), b"she".to_vec(), b"his".to_vec(), b"hers".to_vec()].to_vec()
    }

    /// Naive multi-pattern search used as the ground-truth oracle.
    fn naive(patterns: &[Vec<u8>], hay: &[u8]) -> Vec<(usize, u32)> {
        let mut hits = Vec::new();
        for (i, _) in hay.iter().enumerate() {
            for (id, p) in patterns.iter().enumerate() {
                if i + p.len() <= hay.len() && &hay[i..i + p.len()] == p.as_slice() {
                    hits.push((i + p.len(), id as u32));
                }
            }
        }
        hits.sort_unstable();
        hits
    }

    #[test]
    fn classic_aho_corasick_example() {
        let ac = AhoCorasick::build(&classic());
        let mut hits = ac.find_all(b"ushers");
        hits.sort_unstable();
        // "ushers": she@1..4, he@2..4, hers@2..6.
        assert_eq!(hits, vec![(4, 0), (4, 1), (6, 3)]);
    }

    #[test]
    fn overlapping_matches_against_naive_oracle() {
        // Tiny alphabet forces dense overlaps and failure-link traffic.
        let mut rng = SmallRng::seed_from_u64(42);
        for round in 0..20 {
            let n_pat = rng.random_range(1..=30);
            let patterns: Vec<Vec<u8>> = (0..n_pat)
                .map(|_| {
                    let len = rng.random_range(1..=6);
                    (0..len).map(|_| rng.random_range(0..4u8)).collect()
                })
                .collect();
            // Dedup (AC shares end states; naive double-reports duplicates).
            let mut patterns: Vec<Vec<u8>> = patterns;
            patterns.sort();
            patterns.dedup();
            let hay: Vec<u8> = (0..200).map(|_| rng.random_range(0..4u8)).collect();
            let ac = AhoCorasick::build(&patterns);
            let mut got = ac.find_all(&hay);
            got.sort_unstable();
            assert_eq!(got, naive(&patterns, &hay), "round {round}");
        }
    }

    #[test]
    fn build_rejects_empty_patterns() {
        let r = std::panic::catch_unwind(|| AhoCorasick::build(&[vec![]]));
        assert!(r.is_err());
    }

    #[test]
    fn depth_tracks_trie_position() {
        let ac = AhoCorasick::build(&classic());
        assert_eq!(ac.state_depth(0), 0);
        let (max, avg) = ac.walk_depth(b"hers");
        assert_eq!(max, 4, "walking 'hers' reaches the deepest state");
        assert!(avg > 1.0);
    }

    #[test]
    fn state_count_bounded_by_pattern_bytes() {
        let sigs = generate_signatures(500, 3);
        let total: usize = sigs.iter().map(Vec::len).sum();
        let ac = AhoCorasick::build(&sigs);
        assert!(ac.state_count() <= total + 1);
        // Prefix sharing must compress the trie below the raw byte count.
        assert!(
            ac.state_count() < total,
            "stem sharing should merge prefixes: {} states for {} bytes",
            ac.state_count(),
            total
        );
        assert_eq!(ac.table_bytes(), ac.state_count() as u64 * 1024);
    }

    fn dpi(mode: DpiMode, patterns: &[Vec<u8>]) -> (pp_sim::machine::Machine, Dpi) {
        let mut m = machine();
        let d = Dpi::new(m.allocator(MemDomain(0)), patterns, mode, CostModel::default());
        (m, d)
    }

    #[test]
    fn detect_mode_counts_and_forwards() {
        let (mut m, mut d) = dpi(DpiMode::Detect, &classic());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet_with_payload(b"xx ushers yy");
        assert_eq!(d.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(d.matches, 3, "she, he, hers");
        assert_eq!(d.alert_packets, 1);
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn prevent_mode_drops_on_first_match() {
        let (mut m, mut d) = dpi(DpiMode::Prevent, &classic());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet_with_payload(b"xx ushers yy");
        assert_eq!(d.process(&mut ctx, &mut pkt), Action::Drop);
        assert_eq!(d.dropped, 1);
        assert_eq!(d.matches, 2, "stops at the first output state (she+he)");
    }

    #[test]
    fn benign_payload_passes_clean() {
        let (mut m, mut d) = dpi(DpiMode::Prevent, &classic());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet_with_payload(b"0123456789 no sigz");
        assert_eq!(d.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(d.matches, 0);
        assert_eq!(d.alert_packets, 0);
    }

    #[test]
    fn one_table_load_per_scanned_byte() {
        let (mut m, mut d) = dpi(DpiMode::Detect, &classic());
        let payload = b"abcdefghij-klmnopqrst";
        let before = m.core(CoreId(0)).counters.total().l1_refs;
        {
            let mut ctx = m.ctx(CoreId(0));
            let mut pkt = packet_with_payload(payload);
            d.process(&mut ctx, &mut pkt);
        }
        let refs = m.core(CoreId(0)).counters.total().l1_refs - before;
        assert_eq!(d.scanned_bytes, payload.len() as u64);
        // Exactly one DFA load per byte: the test packet has no NIC buffer
        // (buf_addr = 0), there are no matches, so the table loads are the
        // only memory traffic.
        assert_eq!(refs, payload.len() as u64, "one table load per byte");
    }

    #[test]
    fn teaser_traffic_reaches_deeper_states_than_random() {
        use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
        let sigs = generate_signatures(300, 77);
        let (mut m, mut d) = dpi(DpiMode::Detect, &sigs);
        let mut teaser =
            TrafficGen::new(TrafficSpec::dpi_tease(512, 100, 300, 77, 5));
        let mut random = TrafficGen::new(TrafficSpec::flow_population(512, 100, 5));

        let mut ctx = m.ctx(CoreId(0));
        let mut sum_teaser = 0.0;
        let mut sum_random = 0.0;
        for _ in 0..40 {
            let mut tp = teaser.next_packet();
            d.process(&mut ctx, &mut tp);
            sum_teaser += d.auto.walk_depth(tp.payload().unwrap()).1;
            let rp = random.next_packet();
            sum_random += d.auto.walk_depth(rp.payload().unwrap()).1;
        }
        assert!(
            sum_teaser > 2.0 * sum_random,
            "teaser mean depth {sum_teaser:.2} should dwarf random {sum_random:.2}"
        );
        assert!(d.max_depth_seen >= 4);
    }

    #[test]
    fn paper_scale_footprint_exceeds_l3_slice() {
        let mut m = machine();
        let sigs = generate_signatures(1500, 9);
        let d = Dpi::new(m.allocator(MemDomain(0)), &sigs, DpiMode::Detect, CostModel::default());
        // The DFA of a realistic signature set is megabytes — the frequently
        // accessed multi-MB structure §6 describes.
        assert!(
            d.footprint() > 4 << 20,
            "DFA footprint {} should be several MB",
            d.footprint()
        );
    }

    /// The DFA is on the host once, in the automaton: the element's table
    /// is a placement (address, stride, length) spanning exactly the
    /// automaton's bytes.
    #[test]
    fn dfa_is_held_once_on_the_host() {
        let mut m = machine();
        let sigs = generate_signatures(1500, 9);
        let d = Dpi::new(m.allocator(MemDomain(0)), &sigs, DpiMode::Detect, CostModel::default());
        assert_eq!(std::mem::size_of::<SimPlacement<u32>>(), 24);
        assert_eq!((d.table.len(), d.table.stride()), (d.auto.dfa.len(), 4));
        assert_eq!(d.table.footprint(), d.auto.table_bytes());
        assert_eq!(d.footprint(), 11_423_016);
    }

    /// The DPI pin: 300 signatures on a fresh machine, then a fixed seeded
    /// teaser stream with NIC-buffer addresses (so the payload stream is
    /// charged). Pins core 0's `Counts`, its clock and the match count.
    #[test]
    fn seeded_teaser_stream_is_pinned() {
        use pp_net::gen::traffic::{PayloadKind, TrafficGen, TrafficSpec};
        let sigs = generate_signatures(300, 77);
        let (mut m, mut d) = dpi(DpiMode::Detect, &sigs);
        let bufs = m.allocator(MemDomain(0)).alloc_lines(64 * 2048);
        let mut g = TrafficGen::new(TrafficSpec {
            frame_len: 512,
            n_flows: Some(100),
            payload: PayloadKind::SignatureTease {
                n_signatures: 300,
                corpus_seed: 77,
                full_match_per_mille: 100,
            },
            seed: 5,
        });
        {
            let mut ctx = m.ctx(CoreId(0));
            for i in 0..64u64 {
                let mut p = g.next_packet();
                p.buf_addr = bufs + i * 2048;
                assert_eq!(d.process(&mut ctx, &mut p), Action::Out(0));
            }
        }
        let core = m.core(CoreId(0));
        assert_eq!((d.matches, d.alert_packets, d.scanned_bytes), (13, 12, 30_080));
        assert_eq!(core.clock, 982_294);
        assert_eq!(
            core.counters.total(),
            pp_sim::counters::Counts {
                instructions: 121_183,
                compute_cycles: 60_550,
                stall_cycles: 921_744,
                l1_refs: 30_618,
                l1_hits: 16_482,
                l2_refs: 14_136,
                l2_hits: 7678,
                l3_refs: 6458,
                l3_hits: 2084,
                l3_misses: 4374,
                remote_accesses: 0,
                packets: 0,
            }
        );
    }

    #[test]
    fn simulated_walk_agrees_with_host_oracle() {
        let sigs = generate_signatures(100, 21);
        let (mut m, mut d) = dpi(DpiMode::Detect, &sigs);
        let mut g = pp_net::gen::traffic::TrafficGen::new(
            pp_net::gen::traffic::TrafficSpec {
                frame_len: 512,
                n_flows: Some(10),
                payload: pp_net::gen::traffic::PayloadKind::SignatureTease {
                    n_signatures: 100,
                    corpus_seed: 21,
                    full_match_per_mille: 400,
                },
                seed: 3,
            },
        );
        let mut ctx = m.ctx(CoreId(0));
        let mut oracle_total = 0u64;
        for _ in 0..100 {
            let mut p = g.next_packet();
            oracle_total += d.auto.find_all(p.payload().unwrap()).len() as u64;
            d.process(&mut ctx, &mut p);
        }
        assert_eq!(d.matches, oracle_total, "simulated scan must agree with oracle");
        assert!(d.matches > 0, "teaser traffic at 40% should produce matches");
    }
}
