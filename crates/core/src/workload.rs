//! Workload taxonomy: the paper's flow types and how to build them.
//!
//! A [`FlowType`] is the *identity* the prediction machinery keys on (the
//! paper profiles "IP", "MON", ... as types, then predicts any mix of
//! them); [`Scale`] (pp-click's, re-exported here) selects paper-sized or
//! test-sized data structures.

use pp_click::elements::synthetic::SynParams;
use pp_click::pipelines::{build_flow, BuiltFlow, ChainKind, FlowSpec};
pub use pp_click::pipelines::Scale;
use pp_sim::machine::Machine;
use pp_sim::types::MemDomain;

/// A packet-processing flow type, as profiled and predicted by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowType {
    /// Full IP forwarding.
    Ip,
    /// IP + NetFlow.
    Mon,
    /// IP + NetFlow + firewall.
    Fw,
    /// IP + NetFlow + redundancy elimination.
    Re,
    /// IP + NetFlow + AES-128 VPN.
    Vpn,
    /// IP + NetFlow + deep packet inspection (extension beyond the paper's
    /// five: the §6 "emerging" workload, with teaser traffic).
    Dpi,
    /// IP + NetFlow + source NAT (extension: consolidated middlebox).
    Nat,
    /// IP + NetFlow + tuple-space classification (extension: the
    /// related-work workload \[22\]).
    Class,
    /// Synthetic with a compute/memory ratio indexed by ramp `level`
    /// (0 = gentlest) out of `levels`.
    Syn {
        /// Ramp position (0-based).
        level: u8,
        /// Total ramp length.
        levels: u8,
    },
    /// "The most aggressive synthetic application we were able to run."
    SynMax,
}

/// The five realistic types, in the paper's figure order.
pub const REALISTIC: [FlowType; 5] =
    [FlowType::Ip, FlowType::Mon, FlowType::Fw, FlowType::Re, FlowType::Vpn];

/// The extension types this reproduction adds beyond the paper: the
/// "emerging" workloads §6 argues the platform must absorb. Used by the
/// `repro extended` experiment to show the prediction method generalizes
/// to applications that were never part of its design.
pub const EXTENDED: [FlowType; 3] = [FlowType::Dpi, FlowType::Nat, FlowType::Class];

impl FlowType {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            FlowType::Ip => "IP".into(),
            FlowType::Mon => "MON".into(),
            FlowType::Fw => "FW".into(),
            FlowType::Re => "RE".into(),
            FlowType::Vpn => "VPN".into(),
            FlowType::Dpi => "DPI".into(),
            FlowType::Nat => "NAT".into(),
            FlowType::Class => "CLASS".into(),
            FlowType::Syn { level, .. } => format!("SYN{level}"),
            FlowType::SynMax => "SYN_MAX".into(),
        }
    }

    /// Whether this is one of the realistic (non-synthetic) types.
    pub fn is_realistic(&self) -> bool {
        !matches!(self, FlowType::Syn { .. } | FlowType::SynMax)
    }

    fn chain_kind(&self, seed: u64) -> ChainKind {
        match self {
            FlowType::Ip => ChainKind::Ip,
            FlowType::Mon => ChainKind::Mon,
            FlowType::Fw => ChainKind::Fw,
            FlowType::Re => ChainKind::Re,
            FlowType::Vpn => ChainKind::Vpn,
            FlowType::Dpi => ChainKind::Dpi,
            FlowType::Nat => ChainKind::Nat,
            FlowType::Class => ChainKind::Class,
            FlowType::Syn { level, levels } => {
                ChainKind::Syn(SynParams::ramp(*level as u32, *levels as u32, seed))
            }
            FlowType::SynMax => ChainKind::Syn(SynParams::max(seed)),
        }
    }

    /// The flow spec for this type at a given scale and seed.
    pub fn spec(&self, scale: Scale, seed: u64) -> FlowSpec {
        // Note: the synthetic working set stays L3-sized at every scale —
        // SYN's whole point is to pressure the shared cache, and the
        // simulated L3 does not shrink at test scale.
        FlowSpec::new(self.chain_kind(seed), scale, seed)
    }

    /// A deterministic per-type structure seed: all instances of one type
    /// build identical table replicas (the paper's per-client replicas of
    /// the same routing table), while traffic still differs per instance.
    pub fn structure_seed(&self, master: u64) -> u64 {
        pp_net::fivetuple::fnv1a(self.name().as_bytes()) ^ master.rotate_left(17)
    }

    /// Build this flow's task with data in `domain`.
    pub fn build(
        &self,
        machine: &mut Machine,
        domain: MemDomain,
        scale: Scale,
        seed: u64,
    ) -> BuiltFlow {
        build_flow(machine, domain, &self.spec(scale, seed))
    }

    /// Build with an explicit structure seed (shared across instances) and
    /// datapath batch size (packets per engine turn; see
    /// [`FlowSpec::batch_size`](pp_click::pipelines::FlowSpec)).
    pub fn build_with_structure(
        &self,
        machine: &mut Machine,
        domain: MemDomain,
        scale: Scale,
        seed: u64,
        structure_seed: u64,
        batch_size: usize,
    ) -> BuiltFlow {
        let mut spec = self.spec(scale, seed);
        spec.structure_seed = structure_seed;
        spec.batch_size = batch_size;
        build_flow(machine, domain, &spec)
    }
}

impl std::fmt::Display for FlowType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(FlowType::Ip.name(), "IP");
        assert_eq!(FlowType::SynMax.name(), "SYN_MAX");
        assert_eq!(FlowType::Syn { level: 3, levels: 8 }.name(), "SYN3");
    }

    #[test]
    fn realistic_classification() {
        for t in REALISTIC {
            assert!(t.is_realistic());
        }
        for t in EXTENDED {
            assert!(t.is_realistic(), "{t} is a realistic (non-synthetic) workload");
        }
        assert!(!FlowType::SynMax.is_realistic());
        assert!(!FlowType::Syn { level: 0, levels: 2 }.is_realistic());
    }

    #[test]
    fn extended_builds_run() {
        use pp_sim::config::MachineConfig;
        use pp_sim::engine::Engine;
        use pp_sim::types::CoreId;
        for t in EXTENDED {
            let mut m = Machine::new(MachineConfig::westmere());
            let built = t.build(&mut m, MemDomain(0), Scale::Test, 3);
            let mut e = Engine::new(m);
            e.set_task(CoreId(0), Box::new(built.task));
            let meas = e.measure(500_000, 2_800_000);
            assert!(
                meas.core(CoreId(0)).unwrap().metrics.pps > 5_000.0,
                "{t} must forward packets"
            );
        }
    }

    #[test]
    fn flow_types_are_hashable_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(FlowType::Mon, 1);
        m.insert(FlowType::Syn { level: 1, levels: 8 }, 2);
        assert_eq!(m[&FlowType::Mon], 1);
        assert_ne!(
            FlowType::Syn { level: 1, levels: 8 },
            FlowType::Syn { level: 2, levels: 8 }
        );
    }

    #[test]
    fn builds_run() {
        use pp_sim::config::MachineConfig;
        use pp_sim::engine::Engine;
        use pp_sim::types::CoreId;
        let mut m = Machine::new(MachineConfig::westmere());
        let built = FlowType::Ip.build(&mut m, MemDomain(0), Scale::Test, 3);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(built.task));
        let meas = e.measure(500_000, 2_800_000);
        assert!(meas.core(CoreId(0)).unwrap().metrics.pps > 10_000.0);
    }
}
