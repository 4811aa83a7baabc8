//! Multi-dimensional packet classification by tuple-space search.
//!
//! The paper's related work cites Ma et al. \[22\] ("Leveraging Parallelism
//! for Multi-dimensional Packet Classification on Software Routers") as one
//! of the conventional workloads general-purpose platforms must carry. We
//! implement the classic tuple-space approach (Srinivasan & Varghese): rules
//! are grouped by their `(src prefix length, dst prefix length)` tuple, each
//! tuple gets an exact-match hash table on the masked address pair, and a
//! lookup probes **every** tuple table, keeping the best (lowest) priority
//! match.
//!
//! The access pattern is a fixed fan of dependent hash probes per packet —
//! per-packet work is almost input-independent (like the paper's FW scan),
//! but the state is a multi-hundred-KB set of hash tables that lives in
//! L2/L3 (like MON's flow table), so the element sits between those two
//! sensitivity classes.

use crate::cost::CostModel;
use crate::element::{header_addrs, Action, Element, BATCH_MLP};
use crate::elements::radix::push_covering_lines;
use pp_net::fivetuple::{fnv1a, FlowKey};
use pp_net::gen::rules::Rule;
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimVec};
use pp_sim::ctx::ExecCtx;

/// A rule packed for tuple-table storage: 24 bytes.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct ClassRec {
    src: u32,
    dst: u32,
    dport_lo: u16,
    dport_hi: u16,
    sport_lo: u16,
    sport_hi: u16,
    /// 255 = any protocol.
    proto: u8,
    /// Bit 0 = occupied, bit 1 = deny.
    flags: u8,
    /// Rule index in the original set; lower wins.
    priority: u16,
}

const OCCUPIED: u8 = 1;
const DENY: u8 = 2;

/// One tuple's metadata: 12 bytes, the hot top of the structure.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct TupleMeta {
    /// Prefix lengths this tuple matches at.
    src_len: u8,
    dst_len: u8,
    _pad: u16,
    /// First slot of this tuple's table within the shared slot array.
    table_off: u32,
    /// Slot-count mask (table sizes are powers of two).
    mask: u32,
}

#[inline]
fn mask_addr(ip: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        let shift = 32 - len as u32;
        (ip >> shift) << shift
    }
}

fn tuple_hash(src_masked: u32, dst_masked: u32) -> u64 {
    let mut b = [0u8; 8];
    b[0..4].copy_from_slice(&src_masked.to_be_bytes());
    b[4..8].copy_from_slice(&dst_masked.to_be_bytes());
    fnv1a(&b)
}

/// The classification verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Index of the winning rule in the original rule set.
    pub rule: u16,
    /// Whether that rule denies the packet.
    pub deny: bool,
}

/// The tuple-space classifier element. See the module docs.
pub struct TupleSpaceClassifier {
    tuples: SimVec<TupleMeta>,
    slots: SimVec<ClassRec>,
    n_rules: usize,
    cost: CostModel,
    /// Packets that matched a non-default rule.
    pub specific_matches: u64,
    /// Packets that fell through to the default rule.
    pub default_matches: u64,
    /// Packets denied (and dropped).
    pub denied: u64,
    /// Total tuple-table probe reads.
    pub probes: u64,
}

impl TupleSpaceClassifier {
    /// Build the tuple tables in `alloc`'s domain. Rule index is priority
    /// (lower wins); `deny` lists rule indices whose action is deny.
    ///
    /// # Panics
    /// If `rules` is empty or holds more than `u16::MAX` entries.
    pub fn new(
        alloc: &mut DomainAllocator,
        rules: &[Rule],
        deny: &[u16],
        cost: CostModel,
    ) -> Self {
        assert!(!rules.is_empty() && rules.len() <= u16::MAX as usize);
        let deny: std::collections::HashSet<u16> = deny.iter().copied().collect();

        // Group rule indices by tuple, preserving priority order.
        let mut groups: std::collections::BTreeMap<(u8, u8), Vec<u16>> =
            std::collections::BTreeMap::new();
        for (i, r) in rules.iter().enumerate() {
            groups.entry((r.src_net.1, r.dst_net.1)).or_default().push(i as u16);
        }

        let mut metas = Vec::with_capacity(groups.len());
        let mut slots: Vec<ClassRec> = Vec::new();
        for (&(src_len, dst_len), members) in &groups {
            let size = (members.len() * 2).next_power_of_two().max(4);
            let mask = (size - 1) as u32;
            let off = slots.len() as u32;
            slots.resize(slots.len() + size, ClassRec::default());
            for &ri in members {
                let r = &rules[ri as usize];
                let h = tuple_hash(r.src_net.0, r.dst_net.0);
                let mut p = h as u32 & mask;
                // Static table, no deletions: linear probe to first hole.
                while slots[(off + p) as usize].flags & OCCUPIED != 0 {
                    p = (p + 1) & mask;
                }
                slots[(off + p) as usize] = ClassRec {
                    src: r.src_net.0,
                    dst: r.dst_net.0,
                    dport_lo: r.dst_ports.0,
                    dport_hi: r.dst_ports.1,
                    sport_lo: r.src_ports.0,
                    sport_hi: r.src_ports.1,
                    proto: r.protocol.unwrap_or(255),
                    flags: OCCUPIED | if deny.contains(&ri) { DENY } else { 0 },
                    priority: ri,
                };
            }
            metas.push(TupleMeta { src_len, dst_len, _pad: 0, table_off: off, mask });
        }

        TupleSpaceClassifier {
            tuples: SimVec::from_vec(alloc, metas),
            slots: SimVec::from_vec(alloc, slots),
            n_rules: rules.len(),
            cost,
            specific_matches: 0,
            default_matches: 0,
            denied: 0,
            probes: 0,
        }
    }

    /// Simulated footprint of metadata plus all tuple tables.
    pub fn footprint(&self) -> u64 {
        self.tuples.footprint() + self.slots.footprint()
    }

    #[inline]
    fn rec_matches(rec: &ClassRec, key: &FlowKey, src_m: u32, dst_m: u32) -> bool {
        rec.flags & OCCUPIED != 0
            && rec.src == src_m
            && rec.dst == dst_m
            && (rec.dport_lo..=rec.dport_hi).contains(&key.dst_port)
            && (rec.sport_lo..=rec.sport_hi).contains(&key.src_port)
            && (rec.proto == 255 || rec.proto == key.protocol)
    }

    /// Classify through the simulated memory hierarchy.
    pub fn classify(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey) -> Option<Verdict> {
        let src = u32::from(key.src);
        let dst = u32::from(key.dst);
        let mut best: Option<(u16, bool)> = None;
        for t in 0..self.tuples.len() {
            let meta = self.tuples.read(ctx, t);
            CostModel::charge(ctx, self.cost.class_tuple);
            let src_m = mask_addr(src, meta.src_len);
            let dst_m = mask_addr(dst, meta.dst_len);
            let h = tuple_hash(src_m, dst_m) as u32;
            let mut p = h & meta.mask;
            loop {
                self.probes += 1;
                let rec = self.slots.read(ctx, (meta.table_off + p) as usize);
                if rec.flags & OCCUPIED == 0 {
                    break;
                }
                if Self::rec_matches(&rec, key, src_m, dst_m)
                    && best.map(|(bp, _)| rec.priority < bp).unwrap_or(true)
                {
                    best = Some((rec.priority, rec.flags & DENY != 0));
                }
                p = (p + 1) & meta.mask;
            }
        }
        best.map(|(rule, deny)| Verdict { rule, deny })
    }

    /// Batched classification: for each tuple, the metadata record is read
    /// **once per batch** (amortized — every packet probes every tuple, so
    /// the scalar path re-reads it per packet), and each probe round's slot
    /// reads are issued overlapped across lanes
    /// ([`read_batch`](ExecCtx::read_batch)): probe chains are dependent
    /// within a lane but independent across lanes. Matching semantics,
    /// probe counts, and per-packet `class_tuple` compute are identical to
    /// per-packet [`classify`](Self::classify) calls.
    fn classify_batch(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        keys: &[FlowKey],
        mlp: u32,
    ) -> Vec<Option<Verdict>> {
        let n = keys.len();
        if n == 0 {
            // No parsable packets: charge nothing, exactly as the scalar
            // path (which drops before classifying) would.
            return Vec::new();
        }
        let mut best: Vec<Option<(u16, bool)>> = vec![None; n];
        let mut probe: Vec<u32> = vec![0; n];
        let mut masked: Vec<(u32, u32)> = vec![(0, 0); n];
        let mut alive: Vec<usize> = Vec::with_capacity(n);
        let mut addrs: Vec<u64> = Vec::with_capacity(n);
        let mut next_alive: Vec<usize> = Vec::with_capacity(n);
        for t in 0..self.tuples.len() {
            let meta = self.tuples.read(ctx, t);
            CostModel::charge_n(ctx, self.cost.class_tuple, n as u64);
            alive.clear();
            for (l, key) in keys.iter().enumerate() {
                let src_m = mask_addr(u32::from(key.src), meta.src_len);
                let dst_m = mask_addr(u32::from(key.dst), meta.dst_len);
                masked[l] = (src_m, dst_m);
                probe[l] = tuple_hash(src_m, dst_m) as u32 & meta.mask;
                alive.push(l);
            }
            while !alive.is_empty() {
                // One probe round: every live lane's slot, overlapped.
                addrs.clear();
                for &l in &alive {
                    push_covering_lines(
                        &mut addrs,
                        self.slots.addr_of((meta.table_off + probe[l]) as usize),
                        self.slots.stride(),
                    );
                }
                ctx.read_batch(&addrs, mlp);
                next_alive.clear();
                for &l in &alive {
                    self.probes += 1;
                    let rec = *self.slots.peek((meta.table_off + probe[l]) as usize);
                    if rec.flags & OCCUPIED == 0 {
                        continue; // chain ends for this lane
                    }
                    let (src_m, dst_m) = masked[l];
                    if Self::rec_matches(&rec, &keys[l], src_m, dst_m)
                        && best[l].map(|(bp, _)| rec.priority < bp).unwrap_or(true)
                    {
                        best[l] = Some((rec.priority, rec.flags & DENY != 0));
                    }
                    probe[l] = (probe[l] + 1) & meta.mask;
                    next_alive.push(l);
                }
                std::mem::swap(&mut alive, &mut next_alive);
            }
        }
        best.into_iter()
            .map(|b| b.map(|(rule, deny)| Verdict { rule, deny }))
            .collect()
    }

    /// Record and translate one classification: the highest rule index
    /// counts as the default (the generated sets end with a catch-all), and
    /// no match at all (a set with no default) drops.
    #[inline]
    fn verdict(&mut self, v: Option<Verdict>) -> Action {
        let Some(v) = v else {
            self.denied += 1;
            return Action::Drop;
        };
        if v.rule as usize + 1 == self.n_rules {
            self.default_matches += 1;
        } else {
            self.specific_matches += 1;
        }
        if v.deny {
            self.denied += 1;
            Action::Drop
        } else {
            Action::Out(0)
        }
    }

    /// Host-side classification (no simulated charges): the oracle used by
    /// tests against a linear scan of the rule set.
    pub fn classify_host(&self, key: &FlowKey) -> Option<Verdict> {
        let src = u32::from(key.src);
        let dst = u32::from(key.dst);
        let mut best: Option<(u16, bool)> = None;
        for t in 0..self.tuples.len() {
            let meta = self.tuples.peek(t);
            let src_m = mask_addr(src, meta.src_len);
            let dst_m = mask_addr(dst, meta.dst_len);
            let h = tuple_hash(src_m, dst_m) as u32;
            let mut p = h & meta.mask;
            loop {
                let rec = self.slots.peek((meta.table_off + p) as usize);
                if rec.flags & OCCUPIED == 0 {
                    break;
                }
                if Self::rec_matches(rec, key, src_m, dst_m)
                    && best.map(|(bp, _)| rec.priority < bp).unwrap_or(true)
                {
                    best = Some((rec.priority, rec.flags & DENY != 0));
                }
                p = (p + 1) & meta.mask;
            }
        }
        best.map(|(rule, deny)| Verdict { rule, deny })
    }
}

impl Element for TupleSpaceClassifier {
    fn class_name(&self) -> &'static str {
        "TupleSpaceClassifier"
    }

    fn tag(&self) -> &'static str {
        "classify_tuples"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        if pkt.buf_addr != 0 {
            ctx.read(pkt.buf_addr + pkt.l3_offset() as u64);
        }
        let Ok(key) = pkt.flow_key() else { return Action::Drop };
        let v = self.classify(ctx, &key);
        self.verdict(v)
    }

    fn process_vector(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        let hdrs: Vec<u64> = header_addrs(pkts, |p| p.l3_offset() as u64).collect();
        ctx.read_batch(&hdrs, BATCH_MLP);
        let mut keys = Vec::with_capacity(pkts.len());
        let mut lanes = Vec::with_capacity(pkts.len());
        for (i, pkt) in pkts.iter().enumerate() {
            if let Ok(key) = pkt.flow_key() {
                keys.push(key);
                lanes.push(i);
            }
        }
        let verdicts = self.classify_batch(ctx, &keys, BATCH_MLP);
        let mut out = vec![Action::Drop; pkts.len()];
        for (&lane, v) in lanes.iter().zip(verdicts) {
            out[lane] = self.verdict(v);
        }
        actions.extend(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_net::gen::rules::{generate_classifier_rules, Rule};
    use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
    use pp_sim::types::{CoreId, MemDomain};

    fn classifier(
        rules: &[Rule],
        deny: &[u16],
    ) -> (pp_sim::machine::Machine, TupleSpaceClassifier) {
        let mut m = machine();
        let c = TupleSpaceClassifier::new(
            m.allocator(MemDomain(0)),
            rules,
            deny,
            CostModel::default(),
        );
        (m, c)
    }

    /// Linear-scan ground truth: the lowest-index matching rule.
    fn linear(rules: &[Rule], key: &FlowKey) -> Option<u16> {
        rules.iter().position(|r| r.matches(key)).map(|i| i as u16)
    }

    #[test]
    fn agrees_with_linear_scan_on_random_traffic() {
        let rules = generate_classifier_rules(2000, 17);
        let (mut m, mut c) = classifier(&rules, &[]);
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, 5));
        let mut ctx = m.ctx(CoreId(0));
        for i in 0..500 {
            let key = g.next_packet().flow_key().unwrap();
            let got = c.classify(&mut ctx, &key).map(|v| v.rule);
            assert_eq!(got, linear(&rules, &key), "packet {i}: {key}");
        }
    }

    #[test]
    fn host_oracle_equals_simulated_walk() {
        let rules = generate_classifier_rules(500, 23);
        let (mut m, mut c) = classifier(&rules, &[]);
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, 6));
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..200 {
            let key = g.next_packet().flow_key().unwrap();
            assert_eq!(c.classify(&mut ctx, &key), c.classify_host(&key));
        }
    }

    #[test]
    fn default_rule_catches_everything() {
        let rules = generate_classifier_rules(100, 2);
        let (mut m, mut c) = classifier(&rules, &[]);
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, 9));
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..100 {
            let key = g.next_packet().flow_key().unwrap();
            assert!(c.classify(&mut ctx, &key).is_some(), "default must match {key}");
        }
    }

    #[test]
    fn lowest_index_wins_among_overlaps() {
        // Rule 0 and rule 1 both match; priority goes to rule 0.
        let rules = vec![
            Rule {
                dst_ports: (53, 53),
                ..Rule::any()
            },
            Rule::any(),
        ];
        let (mut m, mut c) = classifier(&rules, &[]);
        let mut ctx = m.ctx(CoreId(0));
        let key = packet().flow_key().unwrap(); // dst port 53
        assert_eq!(c.classify(&mut ctx, &key), Some(Verdict { rule: 0, deny: false }));
        let mut other = key;
        other.dst_port = 80;
        assert_eq!(c.classify(&mut ctx, &other), Some(Verdict { rule: 1, deny: false }));
    }

    #[test]
    fn deny_rules_drop_packets() {
        let rules = vec![
            Rule {
                dst_ports: (53, 53),
                ..Rule::any()
            },
            Rule::any(),
        ];
        let (mut m, mut c) = classifier(&rules, &[0]);
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet(); // dst port 53 -> rule 0 -> deny
        assert_eq!(c.process(&mut ctx, &mut pkt), Action::Drop);
        assert_eq!(c.denied, 1);
    }

    #[test]
    fn every_tuple_is_probed_per_packet() {
        let rules = generate_classifier_rules(1000, 4);
        let (mut m, mut c) = classifier(&rules, &[]);
        let tuples = c.tuples.len() as u64;
        assert!(tuples >= 12);
        let mut ctx = m.ctx(CoreId(0));
        let key = packet().flow_key().unwrap();
        c.classify(&mut ctx, &key);
        assert!(
            c.probes >= tuples,
            "at least one probe per tuple ({} probes, {} tuples)",
            c.probes,
            tuples
        );
    }

    #[test]
    fn footprint_scales_with_rules() {
        let small = generate_classifier_rules(1000, 7);
        let large = generate_classifier_rules(16000, 7);
        let (_m1, c1) = classifier(&small, &[]);
        let (_m2, c2) = classifier(&large, &[]);
        assert!(c2.footprint() > 8 * c1.footprint());
        // Paper-scale (16 k rules) state is hundreds of KB — cacheable, like
        // MON's flow table.
        assert!(c2.footprint() > 512 << 10, "{} B", c2.footprint());
    }

    #[test]
    fn forwards_and_accounts_specific_vs_default() {
        let rules = generate_classifier_rules(4000, 11);
        let (mut m, mut c) = classifier(&rules, &[]);
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, 31));
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..300 {
            let mut p = g.next_packet();
            assert_eq!(c.process(&mut ctx, &mut p), Action::Out(0));
        }
        assert_eq!(c.specific_matches + c.default_matches, 300);
        assert!(c.specific_matches > 10, "some traffic matches specific rules");
        assert!(c.default_matches > 100, "most traffic falls through");
    }
}
