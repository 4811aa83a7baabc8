//! Flow-to-core placement: enumeration and evaluation (the paper's §5,
//! "Minimizing Contention via Scheduling").
//!
//! On the two-socket platform, only the multiset of flows sharing each L3
//! matters (cores within a socket are symmetric), so the placement space of
//! 12 flows collapses to the distinct 6/6 multiset splits — small enough to
//! evaluate exhaustively, both by simulation ("measured") and through the
//! predictor.

use crate::experiment::{run_many, run_scenario, ExpParams, Scenario};
use crate::predictor::Predictor;
use crate::workload::FlowType;
use pp_sim::types::{CoreId, MemDomain};
use std::collections::BTreeMap;

/// An assignment of flows to the two sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Flows on socket 0 (data local to domain 0).
    pub socket0: Vec<FlowType>,
    /// Flows on socket 1 (data local to domain 1).
    pub socket1: Vec<FlowType>,
}

impl Placement {
    /// Canonical form: each side sorted, sides ordered, so symmetric
    /// placements compare equal.
    pub fn canonical(&self) -> Placement {
        let mut a = self.socket0.clone();
        let mut b = self.socket1.clone();
        a.sort();
        b.sort();
        if b < a {
            std::mem::swap(&mut a, &mut b);
        }
        Placement { socket0: a, socket1: b }
    }

    /// Expand into a runnable scenario: socket 0 flows on cores 0..,
    /// socket 1 flows on cores 6.., all data local to the home socket.
    pub fn scenario(&self, params: ExpParams) -> Scenario {
        assert!(self.socket0.len() <= 6 && self.socket1.len() <= 6);
        let mut flows = Vec::new();
        for (i, &f) in self.socket0.iter().enumerate() {
            flows.push(crate::experiment::FlowPlacement {
                core: CoreId(i as u16),
                flow: f,
                domain: MemDomain(0),
            });
        }
        for (i, &f) in self.socket1.iter().enumerate() {
            flows.push(crate::experiment::FlowPlacement {
                core: CoreId(6 + i as u16),
                flow: f,
                domain: MemDomain(1),
            });
        }
        Scenario { flows, params }
    }

    /// Human-readable form like `[3xMON 3xFW | 3xMON 3xFW]`.
    pub fn describe(&self) -> String {
        let side = |v: &[FlowType]| {
            let mut counts: BTreeMap<FlowType, usize> = BTreeMap::new();
            for &f in v {
                *counts.entry(f).or_default() += 1;
            }
            counts
                .iter()
                .map(|(f, n)| format!("{n}x{f}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!("[{} | {}]", side(&self.socket0), side(&self.socket1))
    }
}

/// Enumerate all distinct placements of `flows` split `per_socket` /
/// `per_socket` across two sockets (deduplicating socket symmetry).
pub fn enumerate_placements(flows: &[FlowType], per_socket: usize) -> Vec<Placement> {
    assert_eq!(flows.len(), per_socket * 2, "need exactly two sockets' worth of flows");
    // Count multiplicities.
    let mut counts: BTreeMap<FlowType, usize> = BTreeMap::new();
    for &f in flows {
        *counts.entry(f).or_default() += 1;
    }
    let types: Vec<(FlowType, usize)> = counts.into_iter().collect();

    // Choose how many of each type go on socket 0.
    let mut out = Vec::new();
    let mut chosen = vec![0usize; types.len()];
    fn recurse(
        types: &[(FlowType, usize)],
        chosen: &mut Vec<usize>,
        idx: usize,
        remaining: usize,
        out: &mut Vec<Placement>,
    ) {
        if idx == types.len() {
            if remaining == 0 {
                let mut s0 = Vec::new();
                let mut s1 = Vec::new();
                for (i, &(t, total)) in types.iter().enumerate() {
                    for _ in 0..chosen[i] {
                        s0.push(t);
                    }
                    for _ in 0..total - chosen[i] {
                        s1.push(t);
                    }
                }
                out.push(Placement { socket0: s0, socket1: s1 }.canonical());
            }
            return;
        }
        let (_, total) = types[idx];
        for k in 0..=total.min(remaining) {
            chosen[idx] = k;
            recurse(types, chosen, idx + 1, remaining - k, out);
        }
        chosen[idx] = 0;
    }
    recurse(&types, &mut chosen, 0, per_socket, &mut out);
    out.sort_by_key(|p| p.describe());
    out.dedup();
    out
}

/// A placement's evaluation: per-flow drops and the average (the paper's
/// overall metric in Fig. 10a).
#[derive(Debug, Clone)]
pub struct PlacementEval {
    /// The placement evaluated.
    pub placement: Placement,
    /// Per-flow `(type, drop %)` in scenario order.
    pub per_flow: Vec<(FlowType, f64)>,
    /// Average per-flow drop (%).
    pub avg_drop: f64,
}

impl PlacementEval {
    fn from_drops(placement: Placement, per_flow: Vec<(FlowType, f64)>) -> Self {
        let avg_drop = if per_flow.is_empty() {
            0.0
        } else {
            per_flow.iter().map(|(_, d)| d).sum::<f64>() / per_flow.len() as f64
        };
        PlacementEval { placement, per_flow, avg_drop }
    }
}

/// Evaluate a placement by *simulation*: run it, compare each flow's
/// throughput to its solo throughput (`solo_pps` keyed by type).
pub fn evaluate_measured(
    placement: &Placement,
    solo_pps: &BTreeMap<FlowType, f64>,
    params: ExpParams,
) -> PlacementEval {
    let result = run_scenario(&placement.scenario(params));
    let per_flow = result
        .flows
        .iter()
        .map(|f| {
            let solo = solo_pps[&f.flow];
            (f.flow, (solo - f.metrics.pps) / solo * 100.0)
        })
        .collect();
    PlacementEval::from_drops(placement.clone(), per_flow)
}

/// Evaluate a placement through the predictor (no simulation of the mix):
/// each socket is one co-located mix.
pub fn evaluate_predicted(placement: &Placement, predictor: &Predictor) -> PlacementEval {
    let per_flow = [&placement.socket0, &placement.socket1]
        .into_iter()
        .flat_map(|side| predictor.predict_mix(side))
        .map(|m| (m.flow, m.predicted))
        .collect();
    PlacementEval::from_drops(placement.clone(), per_flow)
}

/// Exhaustive placement study: evaluate every distinct placement of
/// `flows`, returning `(best, worst, all)` by average drop.
pub fn study_measured(
    flows: &[FlowType],
    solo_pps: &BTreeMap<FlowType, f64>,
    params: ExpParams,
    threads: usize,
) -> (PlacementEval, PlacementEval, Vec<PlacementEval>) {
    let placements = enumerate_placements(flows, flows.len() / 2);
    let evals: Vec<PlacementEval> = run_many(placements, threads, |p| {
        evaluate_measured(&p, solo_pps, params)
    });
    pick_best_worst(evals)
}

/// Exhaustive placement study through the predictor.
pub fn study_predicted(
    flows: &[FlowType],
    predictor: &Predictor,
) -> (PlacementEval, PlacementEval, Vec<PlacementEval>) {
    let placements = enumerate_placements(flows, flows.len() / 2);
    let evals: Vec<PlacementEval> =
        placements.iter().map(|p| evaluate_predicted(p, predictor)).collect();
    pick_best_worst(evals)
}

fn pick_best_worst(
    evals: Vec<PlacementEval>,
) -> (PlacementEval, PlacementEval, Vec<PlacementEval>) {
    assert!(!evals.is_empty());
    let best = evals
        .iter()
        .min_by(|a, b| a.avg_drop.total_cmp(&b.avg_drop))
        .unwrap()
        .clone();
    let worst = evals
        .iter()
        .max_by(|a, b| a.avg_drop.total_cmp(&b.avg_drop))
        .unwrap()
        .clone();
    (best, worst, evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_counts_6mon_6fw() {
        // #MON on socket 0 can be 0..=6, symmetric dedup leaves 4.
        let mut flows = vec![FlowType::Mon; 6];
        flows.extend(vec![FlowType::Fw; 6]);
        let ps = enumerate_placements(&flows, 6);
        assert_eq!(ps.len(), 4);
    }

    #[test]
    fn enumeration_single_type_is_trivial() {
        let flows = vec![FlowType::Ip; 12];
        let ps = enumerate_placements(&flows, 6);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn enumeration_three_types() {
        let mut flows = vec![FlowType::Mon; 4];
        flows.extend(vec![FlowType::Fw; 4]);
        flows.extend(vec![FlowType::Re; 4]);
        let ps = enumerate_placements(&flows, 6);
        // Splits (m,f,r) with m+f+r=6, m,f,r<=4: 3+4+5+4+3 = 19, minus
        // symmetry: for each pair {x, complement}, keep one → (19+1)/2 = 10
        // (one self-symmetric split: 2,2,2).
        assert_eq!(ps.len(), 10);
        for p in &ps {
            assert_eq!(p.socket0.len(), 6);
            assert_eq!(p.socket1.len(), 6);
            assert_eq!(p, &p.canonical());
        }
    }

    #[test]
    fn canonical_is_symmetric() {
        let a = Placement {
            socket0: vec![FlowType::Mon, FlowType::Fw],
            socket1: vec![FlowType::Re, FlowType::Ip],
        };
        let b = Placement {
            socket0: vec![FlowType::Ip, FlowType::Re],
            socket1: vec![FlowType::Fw, FlowType::Mon],
        };
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn scenario_places_on_both_sockets() {
        let p = Placement {
            socket0: vec![FlowType::Mon; 3],
            socket1: vec![FlowType::Fw; 3],
        };
        let s = p.scenario(ExpParams::quick());
        assert_eq!(s.flows.len(), 6);
        assert!(s.flows[0..3].iter().all(|f| f.core.0 < 6 && f.domain == MemDomain(0)));
        assert!(s.flows[3..6].iter().all(|f| f.core.0 >= 6 && f.domain == MemDomain(1)));
    }

    #[test]
    fn describe_is_stable() {
        let p = Placement {
            socket0: vec![FlowType::Fw, FlowType::Mon, FlowType::Mon],
            socket1: vec![FlowType::Re],
        };
        assert_eq!(p.describe(), "[2xMON 1xFW | 1xRE]");
    }

    #[test]
    fn measured_study_small() {
        // 2 MON + 2 FW split across sockets (1/socket-pair scale for speed).
        let flows = vec![FlowType::Mon, FlowType::Mon, FlowType::Fw, FlowType::Fw];
        let solo_mon =
            crate::profiler::SoloProfile::measure(FlowType::Mon, ExpParams::quick()).pps;
        let solo_fw =
            crate::profiler::SoloProfile::measure(FlowType::Fw, ExpParams::quick()).pps;
        let mut solo = BTreeMap::new();
        solo.insert(FlowType::Mon, solo_mon);
        solo.insert(FlowType::Fw, solo_fw);
        let (best, worst, all) = study_measured(&flows, &solo, ExpParams::quick(), 2);
        assert_eq!(all.len(), 2); // {MM|FF} and {MF|MF}
        assert!(best.avg_drop <= worst.avg_drop);
    }
}
