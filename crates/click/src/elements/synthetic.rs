//! The SYN workload: "for each received packet, we perform a configurable
//! number of CPU operations and read a configurable number of random memory
//! locations from a data structure that has the size of the L3 cache".
//!
//! SYN is the knob the paper turns to ramp *competing cache references per
//! second* (Figs. 4, 5, 7), and `SYN_MAX` — no compute, only back-to-back
//! reads — is "the most aggressive synthetic application we were able to
//! run". The reads are independent random locations, so they are issued
//! with full memory-level parallelism (the real workload's loads are
//! independent array reads, not a pointer chase).

use crate::cost::CostModel;
use crate::element::{Action, Element};
use pp_net::packet::Packet;
use pp_sim::arena::DomainAllocator;
use pp_sim::ctx::ExecCtx;
use pp_sim::types::{Addr, CACHE_LINE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for a SYN element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynParams {
    /// CPU operations per packet (each costs `CostModel::syn_op`).
    pub ops_per_packet: u64,
    /// Random memory reads per packet.
    pub reads_per_packet: u32,
    /// Size of the touched data structure (paper: the L3 size, 12 MB).
    pub working_set_bytes: u64,
    /// Memory-level parallelism granted to the reads.
    pub mlp: u32,
    /// RNG seed for the access pattern.
    pub seed: u64,
}

impl SynParams {
    /// A mid-intensity SYN (used as a building block for ramps).
    pub fn moderate(seed: u64) -> Self {
        SynParams {
            ops_per_packet: 800,
            reads_per_packet: 32,
            working_set_bytes: 12 << 20,
            mlp: 8,
            seed,
        }
    }

    /// SYN_MAX: "no other processing but consecutive memory accesses at the
    /// highest possible rate".
    pub fn max(seed: u64) -> Self {
        SynParams {
            ops_per_packet: 0,
            reads_per_packet: 64,
            working_set_bytes: 12 << 20,
            mlp: 8,
            seed,
        }
    }

    /// A ramp of SYN intensities producing increasing cache refs/sec:
    /// fixed reads per packet, decreasing compute per packet. `level` 0 is
    /// the gentlest; `levels-1` is close to SYN_MAX.
    pub fn ramp(level: u32, levels: u32, seed: u64) -> Self {
        assert!(levels >= 2 && level < levels);
        // Geometrically decreasing compute: 12800, ..., down to 0.
        let max_ops: u64 = 12_800;
        let ops = if level + 1 == levels {
            0
        } else {
            max_ops >> level
        };
        SynParams {
            ops_per_packet: ops,
            reads_per_packet: 32,
            working_set_bytes: 12 << 20,
            mlp: 8,
            seed,
        }
    }
}

/// The SYN element. See the module docs.
pub struct Synthetic {
    region: Addr,
    lines: u64,
    params: SynParams,
    rng: SmallRng,
    cost: CostModel,
    addrs: Vec<Addr>,
    /// Packets processed.
    pub packets: u64,
}

impl Synthetic {
    /// Allocate the working set in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, params: SynParams, cost: CostModel) -> Self {
        assert!(params.working_set_bytes >= CACHE_LINE);
        let region = alloc.alloc_lines(params.working_set_bytes);
        Synthetic {
            region,
            lines: params.working_set_bytes / CACHE_LINE,
            rng: SmallRng::seed_from_u64(params.seed),
            params,
            cost,
            addrs: Vec::with_capacity(64),
            packets: 0,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &SynParams {
        &self.params
    }
}

impl Element for Synthetic {
    fn class_name(&self) -> &'static str {
        "Synthetic"
    }

    fn tag(&self) -> &'static str {
        "syn"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, _pkt: &mut Packet) -> Action {
        if self.params.ops_per_packet > 0 {
            CostModel::charge(
                ctx,
                (
                    self.cost.syn_op.0 * self.params.ops_per_packet,
                    self.cost.syn_op.1 * self.params.ops_per_packet,
                ),
            );
        }
        self.addrs.clear();
        for _ in 0..self.params.reads_per_packet {
            let line = self.rng.random_range(0..self.lines);
            self.addrs.push(self.region + line * CACHE_LINE);
        }
        ctx.read_batch(&self.addrs, self.params.mlp);
        self.packets += 1;
        Action::Out(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_sim::types::{CoreId, MemDomain};

    #[test]
    fn reads_land_in_working_set() {
        let mut m = machine();
        let params = SynParams {
            ops_per_packet: 10,
            reads_per_packet: 16,
            working_set_bytes: 1 << 20,
            mlp: 4,
            seed: 1,
        };
        let mut syn = Synthetic::new(m.allocator(MemDomain(0)), params, CostModel::default());
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        assert_eq!(syn.process(&mut ctx, &mut pkt), Action::Out(0));
        let c = m.core(CoreId(0)).counters.total();
        assert_eq!(c.l1_refs, 16);
        assert_eq!(c.compute_cycles, 10 * CostModel::default().syn_op.0);
    }

    #[test]
    fn syn_max_does_no_compute() {
        let mut m = machine();
        let mut syn = Synthetic::new(
            m.allocator(MemDomain(0)),
            SynParams::max(2),
            CostModel::default(),
        );
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        syn.process(&mut ctx, &mut pkt);
        assert_eq!(m.core(CoreId(0)).counters.total().compute_cycles, 0);
        assert_eq!(m.core(CoreId(0)).counters.total().l1_refs, 64);
    }

    #[test]
    fn ramp_is_monotone_in_intensity() {
        // Higher ramp level = fewer compute ops = higher refs/sec.
        let mut prev = u64::MAX;
        for level in 0..8 {
            let p = SynParams::ramp(level, 8, 0);
            assert!(p.ops_per_packet <= prev, "level {level} not monotone");
            prev = p.ops_per_packet;
            assert_eq!(p.reads_per_packet, 32);
        }
        assert_eq!(SynParams::ramp(7, 8, 0).ops_per_packet, 0);
    }

    #[test]
    fn working_set_is_l3_sized_by_default() {
        let p = SynParams::max(0);
        assert_eq!(p.working_set_bytes, 12 << 20);
    }

    #[test]
    fn retuning_changes_behavior() {
        let mut m = machine();
        let mut syn = Synthetic::new(
            m.allocator(MemDomain(0)),
            SynParams::max(3),
            CostModel::default(),
        );
        syn.params.ops_per_packet = 100;
        syn.params.reads_per_packet = 4;
        let mut ctx = m.ctx(CoreId(0));
        let mut pkt = packet();
        syn.process(&mut ctx, &mut pkt);
        let c = m.core(CoreId(0)).counters.total();
        assert_eq!(c.l1_refs, 4);
        assert!(c.compute_cycles > 0);
    }

    #[test]
    fn access_pattern_is_deterministic() {
        let mut m1 = machine();
        let mut m2 = machine();
        let mk = |m: &mut pp_sim::machine::Machine| {
            Synthetic::new(
                m.allocator(MemDomain(0)),
                SynParams::moderate(9),
                CostModel::default(),
            )
        };
        let mut s1 = mk(&mut m1);
        let mut s2 = mk(&mut m2);
        for _ in 0..50 {
            let mut p = packet();
            s1.process(&mut m1.ctx(CoreId(0)), &mut p);
            let mut p = packet();
            s2.process(&mut m2.ctx(CoreId(0)), &mut p);
        }
        assert_eq!(
            m1.core(CoreId(0)).counters.total(),
            m2.core(CoreId(0)).counters.total()
        );
    }
}
