//! The small firewall (the paper's FW add-on): every packet is checked
//! sequentially against 1000 rules; matches are discarded. The paper uses
//! sequential search deliberately — the rule set fits in the L2 cache, so FW
//! is "a representative form of packet processing that benefits
//! significantly from all the levels of the cache hierarchy" and is the
//! *least* sensitive/aggressive workload.

use crate::cost::CostModel;
use crate::element::{header_addrs, Action, Element, BATCH_MLP};
use pp_net::fivetuple::FlowKey;
use pp_net::gen::rules::Rule;
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimVec};
use pp_sim::ctx::ExecCtx;

/// A rule packed for the scan: 20 bytes, ~3 rules per cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct RuleRec {
    src: u32,
    dst: u32,
    sport_lo: u16,
    sport_hi: u16,
    dport_lo: u16,
    dport_hi: u16,
    src_len: u8,
    dst_len: u8,
    /// 255 = any protocol.
    proto: u8,
    _pad: u8,
}

impl RuleRec {
    fn from_rule(r: &Rule) -> Self {
        RuleRec {
            src: r.src_net.0,
            dst: r.dst_net.0,
            sport_lo: r.src_ports.0,
            sport_hi: r.src_ports.1,
            dport_lo: r.dst_ports.0,
            dport_hi: r.dst_ports.1,
            src_len: r.src_net.1,
            dst_len: r.dst_net.1,
            proto: r.protocol.unwrap_or(255),
            _pad: 0,
        }
    }

    #[inline]
    fn matches(&self, src: u32, dst: u32, sport: u16, dport: u16, proto: u8) -> bool {
        let pm = |net: u32, len: u8, ip: u32| {
            if len == 0 {
                true
            } else {
                let shift = 32 - len as u32;
                (ip >> shift) == (net >> shift)
            }
        };
        pm(self.src, self.src_len, src)
            && pm(self.dst, self.dst_len, dst)
            && (self.sport_lo..=self.sport_hi).contains(&sport)
            && (self.dport_lo..=self.dport_hi).contains(&dport)
            && (self.proto == 255 || self.proto == proto)
    }
}

/// The sequential-scan firewall element.
pub struct Firewall {
    rules: SimVec<RuleRec>,
    cost: CostModel,
    /// Packets dropped by a matching rule.
    pub matched: u64,
    /// Packets that passed the full scan.
    pub passed: u64,
}

impl Firewall {
    /// Pack a rule set into `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, rules: &[Rule], cost: CostModel) -> Self {
        let recs = rules.iter().map(RuleRec::from_rule).collect();
        Firewall { rules: SimVec::from_vec(alloc, recs), cost, matched: 0, passed: 0 }
    }

    /// Simulated footprint in bytes (the paper's 1000 rules ≈ 20 KB, which
    /// "can fit in the L2 cache").
    pub fn footprint(&self) -> u64 {
        self.rules.footprint()
    }

    fn scan(&mut self, ctx: &mut ExecCtx<'_>, key: &FlowKey) -> Option<usize> {
        let src = u32::from(key.src);
        let dst = u32::from(key.dst);
        let n = self.rules.len();
        for i in 0..n {
            let rec = self.rules.read(ctx, i);
            CostModel::charge(ctx, self.cost.fw_rule);
            if rec.matches(src, dst, key.src_port, key.dst_port, key.protocol) {
                return Some(i);
            }
        }
        None
    }

    /// Record and translate one scan result: a matching rule drops.
    #[inline]
    fn verdict(&mut self, matched: bool) -> Action {
        if matched {
            self.matched += 1;
            Action::Drop
        } else {
            self.passed += 1;
            Action::Out(0)
        }
    }
}

impl Element for Firewall {
    fn class_name(&self) -> &'static str {
        "Firewall"
    }

    fn tag(&self) -> &'static str {
        "firewall_filter"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        if pkt.buf_addr != 0 {
            ctx.read(pkt.buf_addr + pkt.l3_offset() as u64);
        }
        let Ok(key) = pkt.flow_key() else { return Action::Drop };
        let matched = self.scan(ctx, &key).is_some();
        self.verdict(matched)
    }

    fn process_vector(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        // Header touches overlapped across the vector.
        let hdrs: Vec<u64> = header_addrs(pkts, |p| p.l3_offset() as u64).collect();
        ctx.read_batch(&hdrs, BATCH_MLP);
        // Loop interchange: outer over rules, inner over packets. Each rule
        // record is *read once per batch* instead of once per packet (the
        // classic batched-scan amortization); the per-rule evaluation
        // arithmetic stays per packet. Per-packet early exit on match is
        // preserved — a matched lane stops being evaluated.
        let mut keys: Vec<Option<FlowKey>> = Vec::with_capacity(pkts.len());
        let mut alive = 0usize;
        for pkt in pkts.iter() {
            match pkt.flow_key() {
                Ok(k) => {
                    keys.push(Some(k));
                    alive += 1;
                }
                Err(_) => keys.push(None),
            }
        }
        let mut verdicts: Vec<Option<Action>> = keys
            .iter()
            .map(|k| if k.is_none() { Some(Action::Drop) } else { None })
            .collect();
        let n_rules = self.rules.len();
        for i in 0..n_rules {
            if alive == 0 {
                break;
            }
            let rec = self.rules.read(ctx, i);
            for (lane, key) in keys.iter().enumerate() {
                if verdicts[lane].is_some() {
                    continue;
                }
                let key = key.as_ref().expect("alive lane has a key");
                CostModel::charge(ctx, self.cost.fw_rule);
                if rec.matches(
                    u32::from(key.src),
                    u32::from(key.dst),
                    key.src_port,
                    key.dst_port,
                    key.protocol,
                ) {
                    verdicts[lane] = Some(self.verdict(true));
                    alive -= 1;
                }
            }
        }
        for v in verdicts {
            actions.push(v.unwrap_or_else(|| self.verdict(false)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_net::gen::rules::{generate_port_rules, generate_unmatchable_rules};
    use pp_sim::types::{CoreId, MemDomain};

    #[test]
    fn unmatchable_rules_pass_everything_after_full_scan() {
        let mut m = machine();
        let rules = generate_unmatchable_rules(1000, 4);
        let mut fw = Firewall::new(m.allocator(MemDomain(0)), &rules, CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        assert_eq!(fw.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(fw.passed, 1);
        // The full scan charges at least 1000 rule-cost computations.
        let c = m.core(CoreId(0)).counters.total();
        assert!(
            c.compute_cycles >= 1000 * CostModel::default().fw_rule.0,
            "compute {} too low for a full scan",
            c.compute_cycles
        );
    }

    #[test]
    fn matching_rule_drops_and_stops_scan() {
        let mut m = machine();
        // Rule 3 matches dst port 53 (our test packet's port 53 is at idx 53-50).
        let rules = generate_port_rules(10, 50);
        let mut fw = Firewall::new(m.allocator(MemDomain(0)), &rules, CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet(); // dst port 53
        assert_eq!(fw.process(&mut ctx, &mut pkt), Action::Drop);
        assert_eq!(fw.matched, 1);
        // Early exit: fewer than 10 rule charges.
        let c = m.core(CoreId(0)).counters.total();
        assert!(c.compute_cycles < 10 * CostModel::default().fw_rule.0 + 200);
    }

    #[test]
    fn footprint_fits_l2() {
        let mut m = machine();
        let rules = generate_unmatchable_rules(1000, 4);
        let fw = Firewall::new(m.allocator(MemDomain(0)), &rules, CostModel::default());
        assert_eq!(fw.rules.len(), 1000);
        assert!(
            fw.footprint() <= m.config().l2.size_bytes / 2 * 2,
            "rules ({} B) should be L2-cacheable",
            fw.footprint()
        );
    }

    #[test]
    fn scan_cost_matches_paper_order() {
        // ~14.7k instructions per packet for the 1000-rule scan (Table 1:
        // FW retires 23907/1.63 ≈ 14.7k instructions).
        let mut m = machine();
        let rules = generate_unmatchable_rules(1000, 4);
        let mut fw = Firewall::new(m.allocator(MemDomain(0)), &rules, CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        fw.process(&mut ctx, &mut pkt);
        let instr = m.core(CoreId(0)).counters.total().instructions;
        assert!(
            (10_000..25_000).contains(&instr),
            "instructions/packet = {instr}, expected paper order of magnitude"
        );
    }
}
