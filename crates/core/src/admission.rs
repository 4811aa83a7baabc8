//! SLA-driven admission control — the operational loop the paper's
//! prediction method enables.
//!
//! Sekar et al. \[25\] (the consolidation argument in the paper's
//! introduction) assume an operator can pack packet-processing functions
//! onto shared boxes; the missing piece is knowing, *before* placing a
//! flow, whether everyone's service level survives. The predictor answers
//! exactly that from offline profiles, so admission control reduces to
//! bookkeeping:
//!
//! 1. every protected flow declares the throughput drop it can tolerate;
//! 2. a candidate placement is admitted iff every flow's *predicted* drop
//!    stays within its tolerance;
//! 3. "how many more X tenants fit?" is a monotone search over 2.
//!
//! Formally, placement `S = {f_1..f_n}` with SLA limits `L_i` is admitted
//! iff for every flow `i`:
//!
//! `curve_{f_i}(Σ_{j≠i} r_j) ≤ L_i`
//!
//! where `r_j` is flow `j`'s solo refs/sec — the predictor's formula
//! applied once per flow, with the rest of the socket as its competitors.
//!
//! Prediction is the paper's refs/sec method
//! ([`Predictor::predict_mix`]). Throughput SLAs are one half of a viable
//! placement; the other half — per-flow latency budgets resolved to batch
//! sizes — is [`plan_socket`](crate::batch_control::plan_socket), which
//! combines this controller with the adaptive batch controller.

use crate::predictor::Predictor;
use crate::workload::FlowType;

/// A service-level agreement for one flow type: the largest
/// contention-induced throughput drop (percent) the tenant tolerates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// The protected flow type.
    pub flow: FlowType,
    /// Maximum tolerated drop, in percent of solo throughput.
    pub max_drop_pct: f64,
}

/// One flow's evaluation within a candidate placement.
#[derive(Debug, Clone, Copy)]
pub struct FlowVerdict {
    /// The flow.
    pub flow: FlowType,
    /// Predicted drop (%) given its co-runners in the placement.
    pub predicted_drop_pct: f64,
    /// The applicable SLA limit, if any.
    pub limit_pct: Option<f64>,
}

impl FlowVerdict {
    /// Whether this flow's prediction respects its SLA (no SLA = always).
    pub fn ok(&self) -> bool {
        self.limit_pct.map(|l| self.predicted_drop_pct <= l).unwrap_or(true)
    }
}

/// The outcome of evaluating one candidate placement.
#[derive(Debug, Clone)]
pub struct AdmissionDecision {
    /// Per-flow verdicts, in placement order.
    pub verdicts: Vec<FlowVerdict>,
}

impl AdmissionDecision {
    /// Whether every flow's SLA holds.
    pub fn admitted(&self) -> bool {
        self.verdicts.iter().all(FlowVerdict::ok)
    }

    /// The flows whose SLAs the placement would violate.
    pub fn violations(&self) -> Vec<&FlowVerdict> {
        self.verdicts.iter().filter(|v| !v.ok()).collect()
    }
}

/// Prediction-backed admission control. See the module docs.
pub struct AdmissionController<'a> {
    predictor: &'a Predictor,
}

impl<'a> AdmissionController<'a> {
    /// A controller over `predictor`'s refs/sec prediction.
    pub fn new(predictor: &'a Predictor) -> Self {
        AdmissionController { predictor }
    }

    /// Evaluate a candidate socket placement against a set of SLAs. Flows
    /// without a matching SLA are unconstrained (pure best-effort tenants);
    /// when several SLAs name the same type, the strictest applies.
    pub fn evaluate(&self, socket: &[FlowType], slas: &[Sla]) -> AdmissionDecision {
        let limit_for = |f: FlowType| {
            slas.iter()
                .filter(|s| s.flow == f)
                .map(|s| s.max_drop_pct)
                .fold(None, |acc: Option<f64>, l| Some(acc.map_or(l, |a| a.min(l))))
        };
        let verdicts = self
            .predictor
            .predict_mix(socket)
            .into_iter()
            .map(|m| FlowVerdict {
                flow: m.flow,
                predicted_drop_pct: m.predicted,
                limit_pct: limit_for(m.flow),
            })
            .collect();
        AdmissionDecision { verdicts }
    }

    /// The largest `n ≤ max_candidates` such that `base` plus `n` copies of
    /// `candidate` is admitted under `slas`. Returns 0 when even one
    /// candidate violates an SLA.
    ///
    /// Predicted drop is monotone in added competition (competition
    /// estimates are sums of non-negative solo rates and curves are
    /// monotone), so a linear scan from 1 is exact and the first rejection
    /// is final.
    pub fn max_admissible(
        &self,
        base: &[FlowType],
        slas: &[Sla],
        candidate: FlowType,
        max_candidates: usize,
    ) -> usize {
        let mut best = 0;
        let mut socket = base.to_vec();
        for n in 1..=max_candidates {
            socket.push(candidate);
            if self.evaluate(&socket, slas).admitted() {
                best = n;
            } else {
                break;
            }
        }
        best
    }

    /// Re-admission check for the supervisor's half-open breaker probe:
    /// would putting `candidate` back next to the currently `resident`
    /// flows keep every SLA (including the candidate's own)? The
    /// supervisor consults this *before* spending a trial window — a probe
    /// that prediction already rules out only re-opens the breaker and
    /// burns a window of the evicted tenant's traffic.
    pub fn readmit(
        &self,
        resident: &[FlowType],
        slas: &[Sla],
        candidate: FlowType,
    ) -> AdmissionDecision {
        let mut socket = resident.to_vec();
        socket.push(candidate);
        self.evaluate(&socket, slas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExpParams;

    fn predictor() -> Predictor {
        Predictor::profile(
            &[FlowType::Mon, FlowType::Fw, FlowType::SynMax],
            3,
            ExpParams::quick(),
            2,
        )
    }

    #[test]
    fn benign_placement_admitted_hostile_rejected() {
        let p = predictor();
        let ac = AdmissionController::new(&p);
        let slas = [Sla { flow: FlowType::Mon, max_drop_pct: 8.0 }];
        // MON with gentle FW co-runners: predicted drop tiny -> admit.
        let gentle = [FlowType::Mon, FlowType::Fw, FlowType::Fw];
        assert!(ac.evaluate(&gentle, &slas).admitted());
        // MON with five SYN_MAX: way past 8% -> reject, and the violation
        // names MON.
        let hostile =
            [FlowType::Mon, FlowType::SynMax, FlowType::SynMax, FlowType::SynMax,
             FlowType::SynMax, FlowType::SynMax];
        let d = ac.evaluate(&hostile, &slas);
        assert!(!d.admitted());
        assert_eq!(d.violations()[0].flow, FlowType::Mon);
    }

    #[test]
    fn flows_without_sla_are_unconstrained() {
        let p = predictor();
        let ac = AdmissionController::new(&p);
        let hostile = [FlowType::Mon, FlowType::SynMax, FlowType::SynMax];
        // No SLA at all: everything is admitted regardless of drops.
        assert!(ac.evaluate(&hostile, &[]).admitted());
    }

    #[test]
    fn strictest_sla_wins_on_duplicates() {
        let p = predictor();
        let ac = AdmissionController::new(&p);
        let slas = [
            Sla { flow: FlowType::Mon, max_drop_pct: 90.0 },
            Sla { flow: FlowType::Mon, max_drop_pct: 0.001 },
        ];
        let d = ac.evaluate(&[FlowType::Mon, FlowType::SynMax], &slas);
        assert_eq!(d.verdicts[0].limit_pct, Some(0.001));
        assert!(!d.admitted(), "the strict limit must apply");
    }

    #[test]
    fn max_admissible_monotone_in_sla() {
        let p = predictor();
        let ac = AdmissionController::new(&p);
        let strict = [Sla { flow: FlowType::Mon, max_drop_pct: 1.0 }];
        let loose = [Sla { flow: FlowType::Mon, max_drop_pct: 50.0 }];
        let base = [FlowType::Mon];
        let n_strict = ac.max_admissible(&base, &strict, FlowType::SynMax, 5);
        let n_loose = ac.max_admissible(&base, &loose, FlowType::SynMax, 5);
        assert!(n_loose >= n_strict, "looser SLA admits at least as many");
        assert!(n_loose >= 1, "a 50% SLA tolerates at least one SYN_MAX");
    }

    #[test]
    fn readmit_is_evaluate_with_the_candidate_appended() {
        let p = predictor();
        let ac = AdmissionController::new(&p);
        let slas = [Sla { flow: FlowType::Mon, max_drop_pct: 8.0 }];
        // A benign neighbourhood re-admits the evicted MON tenant...
        let d = ac.readmit(&[FlowType::Fw, FlowType::Fw], &slas, FlowType::Mon);
        assert!(d.admitted());
        assert_eq!(d.verdicts.last().unwrap().flow, FlowType::Mon);
        // ...a hostile one predicts the SLA still breaks: don't probe yet.
        let hostile = [FlowType::SynMax; 5];
        assert!(!ac.readmit(&hostile, &slas, FlowType::Mon).admitted());
    }
}
