//! Adaptive batch control: the first closed loop in the codebase —
//! **model → decision → measurement → verification**.
//!
//! PRs 1–2 gave the datapath a batch-size knob and two fitted cost models;
//! this module turns the knob automatically. The paper's thesis is
//! *predictable* performance: an operator should be able to commit to a
//! service level before running the workload. Batching complicates that in
//! both directions — it raises throughput (framework and handoff charges
//! amortize as `F/b + p` and `C/b + S·ceil(b/L)/b`) but costs latency
//! (every packet waits for its whole vector). The controller resolves the
//! tension from the models alone:
//!
//! 1. **Calibrate** ([`BatchController::calibrate`]): profile the flow solo
//!    at two probe batch sizes (via [`SoloProfile`], on the batched
//!    datapath), fit [`BatchAmortization`] to the measured cycles/packet,
//!    and record a *tail factor* — the worst ratio of measured p99
//!    residence to the model's mean turn time, which captures how much
//!    fatter the tail is than the mean without assuming why.
//! 2. **Decide** ([`BatchController::choose`]): a batch of `b` packets
//!    completes together after one turn of `F + b·p` cycles, so predicted
//!    p99 residence is `tail_factor · (F + b·p) / freq`. Turn time is
//!    strictly increasing in `b` while cycles/packet is strictly
//!    decreasing, so the largest batch whose predicted p99 fits the budget
//!    is also the throughput-best feasible one — the decision is a scan,
//!    no search.
//! 3. **Verify** ([`BatchController::verify`]): run the flow at the chosen
//!    size and read the achieved p99 back from the
//!    [`LatencyHistogram`](pp_sim::latency::LatencyHistogram) (surfaced as
//!    [`LatencySummary`] on every [`FlowResult`](crate::experiment::FlowResult)).
//!    `repro adaptive` asserts the budget holds in every scenario and that
//!    the chosen batch keeps ≥ 90% of the best fixed batch's throughput
//!    under the same budget.
//!
//! The loop closes on the *predictor* too ([`revalidate_predictor`]):
//! batching changes every per-packet cost, so the paper's <3% contention-
//! prediction claim must be re-established on the batched datapath. The
//! same three-step method (solo refs/sec, SYN-ramp sensitivity curve,
//! curve lookup at Σ solo refs/sec) is run entirely at `batch > 1`.
//! Measurement verdict (paper scale): the amortization indeed leaves the
//! sensitivity *mechanism* intact at moderate batches, but the refs/sec
//! abstraction degrades as the batch grows — a batched turn commits a
//! whole vector's accesses as one block, so co-runners interleave at the
//! shared cache in vector-sized chunks the SYN calibration cannot
//! emulate. Worst-case error: <3 pp scalar, ~5 pp at batch 8, ~8 pp at
//! batch 64 (after densifying the curve's low-competition region).
//! `repro adaptive` reports per-mix refs/fill-rate/perfect predictions
//! and asserts the measured envelope (<12 pp at paper scale) as a
//! regression tripwire; see ROADMAP for the paths to tighten it.
//!
//! When even batch 1 cannot meet a budget, batching is the wrong lever:
//! the choice comes back with [`BatchChoice::feasible`] `false`, and what
//! remains is the §4 containment loop
//! ([`ThrottleController`](crate::throttle::ThrottleController)) — slowing
//! the *co-runners* is the only remaining way to win back latency. And for
//! placement-time decisions, [`plan_socket`] combines this controller's
//! latency budgets with the predictor-backed throughput SLAs of
//! [`AdmissionController`]: a
//! placement is viable iff every flow has an admissible drop *and* a
//! feasible batch.

use crate::admission::{AdmissionController, AdmissionDecision, Sla};
use crate::experiment::{corun_mixes, run_many, ExpParams, LatencySummary};
use crate::model::BatchAmortization;
use crate::predictor::{ErrorStats, PredictionError, Predictor};
use crate::profiler::SoloProfile;
use crate::sensitivity::SensitivityCurve;
use crate::workload::FlowType;
use pp_sim::config::MachineConfig;

/// The candidate batch sizes the controller picks from — the same
/// power-of-two ladder the `repro batch` sweep measures, so every choice
/// is a size whose fixed-batch behaviour is characterized.
pub const CANDIDATE_BATCHES: [usize; 6] = [1, 4, 8, 16, 32, 64];

/// A per-flow latency budget: the largest acceptable 99th-percentile
/// ingress→egress residence time, in microseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBudget {
    /// p99 residence-time budget, microseconds.
    pub p99_us: f64,
}

impl LatencyBudget {
    /// A budget of `p99_us` microseconds.
    pub fn us(p99_us: f64) -> Self {
        LatencyBudget { p99_us }
    }
}

/// One calibration probe: the flow measured solo at a fixed batch size.
#[derive(Debug, Clone)]
pub struct BatchProbe {
    /// The probe's batch size.
    pub batch: usize,
    /// Measured total cycles per packet.
    pub cycles_per_packet: f64,
    /// Measured throughput, packets/sec.
    pub pps: f64,
    /// Measured residence-time percentiles.
    pub latency: LatencySummary,
}

/// The controller's decision for one flow under one budget.
#[derive(Debug, Clone, Copy)]
pub struct BatchChoice {
    /// The chosen batch size (always one of [`CANDIDATE_BATCHES`]).
    pub batch: usize,
    /// Model-predicted p99 residence at that size, microseconds.
    pub predicted_p99_us: f64,
    /// Model-predicted total cycles/packet at that size.
    pub predicted_cycles_per_packet: f64,
    /// Whether the prediction fits the budget. `false` means even batch 1
    /// is predicted to miss — the choice is then the least-bad size (1).
    pub feasible: bool,
}

/// A verified decision: the choice plus the measured outcome at that size.
#[derive(Debug, Clone)]
pub struct VerifiedChoice {
    /// The model's decision.
    pub choice: BatchChoice,
    /// The measurement at the chosen size.
    pub achieved: BatchProbe,
    /// Whether the *measured* p99 met the budget.
    pub met_budget: bool,
}

/// Per-flow adaptive batch controller. See the module docs for the loop.
#[derive(Debug, Clone)]
pub struct BatchController {
    /// The flow this controller was calibrated for.
    pub flow: FlowType,
    /// The fitted `F/b + p` amortization model (total cycles/packet).
    pub model: BatchAmortization,
    /// Measured-p99 / model-mean-turn-time ratio at the low probe. A batch
    /// of 1 exposes every per-turn cost fluctuation, so this is usually
    /// the fatter tail.
    pub tail_lo: f64,
    /// The same ratio at the high probe. A 64-packet turn averages 64
    /// per-packet draws, so its p99 hugs the mean — tails *shrink* as
    /// batches grow, which is why one global factor would misprice the
    /// interior sizes.
    pub tail_hi: f64,
    /// Core frequency used to convert model cycles to (simulated)
    /// microseconds. Taken from [`MachineConfig::westmere`] — the same
    /// single config `run_scenario` builds every measurement machine
    /// from, so the probes' `LatencySummary` (converted there) and the
    /// model predictions (converted here) always use one frequency. If
    /// the experiment layer ever grows per-scenario machine configs, this
    /// must start travelling with the probes.
    pub freq_ghz: f64,
    /// The calibration probes (endpoints of [`CANDIDATE_BATCHES`]).
    pub probes: Vec<BatchProbe>,
}

impl BatchController {
    /// Probe one batch size: a solo run of `flow` on the batched datapath.
    fn probe(flow: FlowType, batch: usize, params: ExpParams) -> BatchProbe {
        let p = SoloProfile::measure(flow, params.with_batch(batch));
        BatchProbe {
            batch,
            cycles_per_packet: p.cycles_per_packet,
            pps: p.pps,
            latency: p.raw.latency,
        }
    }

    /// Build a controller from two already-measured probes (ascending
    /// batch sizes). Sweeps that measure the fixed-batch ladder anyway use
    /// this to calibrate without re-running the endpoints; co-run
    /// controllers calibrate from probes measured *in* the co-run (profile
    /// in context, like everything else in the paper's method).
    pub fn from_probes(flow: FlowType, lo: BatchProbe, hi: BatchProbe) -> Self {
        assert!(lo.batch < hi.batch, "probes must be distinct ascending batch sizes");
        let model = BatchAmortization::fit(
            (lo.batch as f64, lo.cycles_per_packet),
            (hi.batch as f64, hi.cycles_per_packet),
        );
        let freq_ghz = MachineConfig::westmere().freq_ghz;
        // Per-probe tail factor: measured p99 over the model's mean turn
        // time, clamped at ≥ 1 (a p99 cannot undercut the mean).
        let tail_at = |p: &BatchProbe| {
            let mean_turn_us =
                p.batch as f64 * model.cycles_per_packet(p.batch as f64) / (freq_ghz * 1e3);
            if mean_turn_us > 0.0 && p.latency.samples > 0 {
                (p.latency.p99_us / mean_turn_us).max(1.0)
            } else {
                1.0
            }
        };
        let (tail_lo, tail_hi) = (tail_at(&lo), tail_at(&hi));
        BatchController { flow, model, tail_lo, tail_hi, freq_ghz, probes: vec![lo, hi] }
    }

    /// Calibrate a controller for `flow`: solo probe runs at batch 1 and
    /// 64 (the ladder's endpoints), a two-point [`BatchAmortization::fit`],
    /// and the per-probe tail factors. Probes run in parallel across host
    /// threads.
    pub fn calibrate(flow: FlowType, params: ExpParams, threads: usize) -> Self {
        let probe_sizes = [CANDIDATE_BATCHES[0], CANDIDATE_BATCHES[5]];
        let mut probes: Vec<BatchProbe> = run_many(probe_sizes.to_vec(), threads, move |b| {
            Self::probe(flow, b, params)
        });
        let hi = probes.pop().expect("two probes");
        let lo = probes.pop().expect("two probes");
        Self::from_probes(flow, lo, hi)
    }

    /// Tail factor at batch `b`: log-log interpolation between the probes'
    /// factors (tails decay smoothly as turn averaging grows), clamped to
    /// the probe interval.
    fn tail_at(&self, batch: usize) -> f64 {
        let (b_lo, b_hi) = (self.probes[0].batch as f64, self.probes[1].batch as f64);
        let t = ((batch as f64).ln() - b_lo.ln()) / (b_hi.ln() - b_lo.ln());
        let t = t.clamp(0.0, 1.0);
        (self.tail_lo.ln() * (1.0 - t) + self.tail_hi.ln() * t).exp()
    }

    /// Model-predicted p99 residence at batch `b`, microseconds: one turn
    /// is `b · cycles_per_packet(b) = F + b·p` cycles and the whole vector
    /// completes together, scaled by the interpolated tail factor.
    pub fn predicted_p99_us(&self, batch: usize) -> f64 {
        let turn_cycles = batch as f64 * self.model.cycles_per_packet(batch as f64);
        self.tail_at(batch) * turn_cycles / (self.freq_ghz * 1e3)
    }

    /// Model-predicted solo throughput at batch `b`, packets/sec:
    /// `freq / cycles_per_packet(b)`. This is the envelope reference the
    /// supervisor's drift detector compares clean windows against — when
    /// measured pps diverges from this for sustained *non-fault* windows,
    /// the model (not the tenant) is wrong, and the right move is a re-fit
    /// rather than a walk down the degradation ladder.
    pub fn predicted_pps(&self, batch: usize) -> f64 {
        self.freq_ghz * 1e9 / self.model.cycles_per_packet(batch as f64)
    }

    /// Pick the largest candidate batch whose predicted p99 fits `budget`.
    /// Monotonicity makes this optimal: turn time rises with `b`, so the
    /// largest feasible size is unique, and cycles/packet falls with `b`,
    /// so it is also the feasible throughput maximum. When nothing fits,
    /// falls back to the least-bad size (1), marked infeasible.
    pub fn choose(&self, budget: LatencyBudget) -> BatchChoice {
        let feasible = CANDIDATE_BATCHES
            .iter()
            .rev()
            .find(|&&b| self.predicted_p99_us(b) <= budget.p99_us);
        let batch = feasible.copied().unwrap_or(1);
        BatchChoice {
            batch,
            predicted_p99_us: self.predicted_p99_us(batch),
            predicted_cycles_per_packet: self.model.cycles_per_packet(batch as f64),
            feasible: feasible.is_some(),
        }
    }

    /// Close the loop with a **solo** run: measure the flow alone at the
    /// chosen size and read the achieved p99 back from the latency
    /// histogram. Verification must match the calibration context — use
    /// this only for controllers calibrated from solo probes
    /// ([`calibrate`](Self::calibrate)); a controller built from co-run
    /// probes must be verified against a measurement of the same co-run.
    pub fn verify(
        &self,
        choice: BatchChoice,
        budget: LatencyBudget,
        params: ExpParams,
    ) -> VerifiedChoice {
        let achieved = Self::probe(self.flow, choice.batch, params);
        let met_budget = achieved.latency.p99_us <= budget.p99_us;
        VerifiedChoice { choice, achieved, met_budget }
    }
}

/// Outcome of re-running the paper's prediction methodology entirely on
/// the batched datapath. See [`revalidate_predictor`].
pub struct Revalidation {
    /// The batch size everything (solos, ramps, co-runs) ran at.
    pub batch: usize,
    /// The predictor profiled at that batch size.
    pub predictor: Predictor,
    /// Prediction-vs-measurement comparisons for the requested mixes.
    pub errors: Vec<PredictionError>,
}

impl Revalidation {
    /// Worst absolute prediction error (pp) over all mixes — the batched
    /// analogue of the paper's "<3%" claim.
    pub fn worst_abs_error(&self) -> f64 {
        ErrorStats::of(self.errors.iter().map(PredictionError::error)).max
    }
}

/// Re-validate the contention predictor under batching: profile `types`
/// (solo + SYN ramp) at `batch` packets per turn, then predict and measure
/// each `(target, competitors)` mix at the same batch size. The per-packet
/// costs all change under batching; the claim under test is that the
/// *sensitivity mechanism* — drop as a function of competing refs/sec —
/// does not, so the three-step method keeps its accuracy.
///
/// One methodological addition over the scalar ramp: batched sensitivity
/// curves are cliff-shaped at low competition (a single 64-packet
/// competitor turn already evicts a lot per interleave), and the standard
/// 5-copy SYN ramp cannot sample below five times the gentlest SYN's
/// refs/sec — every mix landing in that gap would be interpolated
/// linearly from the `(0, 0)` anchor and badly under-predicted. The
/// profiling phase therefore **densifies the low-competition region**
/// with 1-, 2-, and 3-copy runs of the gentlest SYN level (still pure
/// offline SYN profiling — no predicted mix is ever measured).
pub fn revalidate_predictor(
    types: &[FlowType],
    mixes: &[(FlowType, Vec<FlowType>)],
    batch: usize,
    levels: u8,
    params: ExpParams,
    threads: usize,
) -> Revalidation {
    let batched = params.with_batch(batch);
    let profiled = Predictor::profile(types, levels, batched, threads);

    // Low-competition densification (see the doc comment above).
    let gentlest = FlowType::Syn { level: 0, levels };
    let low_mixes: Vec<(FlowType, Vec<FlowType>)> =
        types.iter().flat_map(|&t| [1usize, 2, 3].map(|n| (t, vec![gentlest; n]))).collect();
    let solo = |t| &profiled.solo(t).expect("profiled").raw;
    let low_outcomes = corun_mixes(solo, &low_mixes, batched, threads);
    let augment = |t: FlowType, pts: &[(f64, f64)], by_fills: bool| {
        let mut pts = pts.to_vec();
        pts.extend(low_outcomes.iter().filter(|o| o.target == t).map(|o| {
            let x =
                if by_fills { o.competing_fills_per_sec } else { o.competing_refs_per_sec };
            (x, o.drop_pct)
        }));
        SensitivityCurve::from_points(pts)
    };
    let curves = types
        .iter()
        .map(|&t| (t, augment(t, profiled.curve(t).expect("profiled").points(), false)))
        .collect();
    let fill_curves = types
        .iter()
        .map(|&t| (t, augment(t, profiled.fill_curve(t).expect("profiled").points(), true)))
        .collect();
    let solo_profiles: Vec<SoloProfile> =
        types.iter().map(|&t| profiled.solo(t).expect("profiled").clone()).collect();
    let predictor =
        Predictor::from_parts(solo_profiles, curves, levels).with_fill_curves(fill_curves);
    let errors = predictor.validate(mixes, batched, threads);
    Revalidation { batch, predictor, errors }
}

/// A placement-time plan for one socket: throughput SLAs checked by the
/// predictor-backed admission controller, latency budgets resolved to
/// batch sizes by the per-flow controllers.
#[derive(Debug)]
pub struct SocketPlan {
    /// The admission verdicts (throughput-drop SLAs).
    pub admission: AdmissionDecision,
    /// Per-flow batch decisions, in socket order. `None` for flows with no
    /// declared latency budget (they default to the largest candidate).
    pub batches: Vec<(FlowType, BatchChoice)>,
}

impl SocketPlan {
    /// Whether the placement is viable: every SLA admitted and every
    /// budgeted flow has a feasible batch.
    pub fn viable(&self) -> bool {
        self.admission.admitted() && self.batches.iter().all(|(_, c)| c.feasible)
    }
}

/// Combine admission control with batch control for a candidate socket
/// placement: flow `i` runs at the batch its controller picks for its
/// budget, and the whole placement is admitted only if the predicted
/// throughput drops also respect `slas`. Controllers are looked up by
/// flow type. A flow with neither controller nor budget runs wide open
/// (ladder top, trivially feasible); a flow that *declares a budget* but
/// has no calibrated controller is **infeasible** — an SLA nobody can
/// certify must flag the plan, not silently pass.
pub fn plan_socket(
    controllers: &[BatchController],
    admission: &AdmissionController<'_>,
    socket: &[FlowType],
    slas: &[Sla],
    budgets: &[(FlowType, LatencyBudget)],
) -> SocketPlan {
    let decision = admission.evaluate(socket, slas);
    let batches = socket
        .iter()
        .map(|&f| {
            let ctl = controllers.iter().find(|c| c.flow == f);
            let budget = budgets.iter().find(|(t, _)| *t == f).map(|(_, b)| *b);
            let choice = match (ctl, budget) {
                (Some(c), Some(b)) => c.choose(b),
                (Some(c), None) => c.choose(LatencyBudget::us(f64::INFINITY)),
                // Unconstrained and uncalibrated: run wide open.
                (None, None) => BatchChoice {
                    batch: *CANDIDATE_BATCHES.last().unwrap(),
                    predicted_p99_us: 0.0,
                    predicted_cycles_per_packet: 0.0,
                    feasible: true,
                },
                // A declared budget with no controller cannot be certified:
                // surface it as infeasible at the safe size.
                (None, Some(b)) => BatchChoice {
                    batch: 1,
                    predicted_p99_us: f64::INFINITY,
                    predicted_cycles_per_packet: f64::INFINITY,
                    feasible: b.p99_us.is_infinite(),
                },
            };
            (f, choice)
        })
        .collect();
    SocketPlan { admission: decision, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> BatchController {
        BatchController::calibrate(FlowType::Ip, ExpParams::quick(), 2)
    }

    #[test]
    fn calibration_fits_a_falling_curve() {
        let c = controller();
        assert_eq!(c.probes.len(), 2);
        assert!(c.model.per_batch_cycles > 0.0, "F = {}", c.model.per_batch_cycles);
        assert!(c.model.per_packet_cycles > 0.0, "p = {}", c.model.per_packet_cycles);
        assert!(c.tail_lo >= 1.0 && c.tail_hi >= 1.0, "tail factors below 1");
        assert!(
            c.tail_lo >= c.tail_hi * 0.5,
            "batch-1 tails should not be wildly thinner than batch-64 tails"
        );
        // Sanity: predicted p99 grows with batch size (turn time dominates).
        assert!(c.predicted_p99_us(64) > c.predicted_p99_us(1));
    }

    #[test]
    fn predicted_pps_rises_with_batch_and_inverts_cycles() {
        let c = controller();
        // Larger batches amortize F: cycles/packet falls, pps rises.
        assert!(c.predicted_pps(64) > c.predicted_pps(1));
        // And the definition holds: pps * cycles/packet = core frequency.
        let b = 32;
        let back = c.predicted_pps(b) * c.model.cycles_per_packet(b as f64);
        assert!((back / (c.freq_ghz * 1e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loose_budget_picks_the_top_tight_budget_picks_one() {
        let c = controller();
        let loose = c.choose(LatencyBudget::us(1e9));
        assert_eq!(loose.batch, 64);
        assert!(loose.feasible);
        // A budget below even the batch-1 prediction is infeasible.
        let tight = c.choose(LatencyBudget::us(c.predicted_p99_us(1) * 0.5));
        assert_eq!(tight.batch, 1);
        assert!(!tight.feasible);
    }

    #[test]
    fn choice_is_monotone_in_the_budget() {
        let c = controller();
        let mut last = 0usize;
        for mult in [0.9, 2.0, 8.0, 32.0, 128.0, 1024.0] {
            let b = c.choose(LatencyBudget::us(c.predicted_p99_us(1) * mult)).batch;
            assert!(b >= last, "budget x{mult}: batch {b} < previous {last}");
            last = b;
        }
        assert_eq!(last, 64, "a huge budget must reach the ladder top");
    }

    #[test]
    fn verified_choice_meets_a_sane_budget() {
        // The end-to-end loop at test scale: pick for a budget 4x the
        // measured batch-1 p99, then verify the measurement agrees.
        let c = controller();
        let budget = LatencyBudget::us(c.probes[0].latency.p99_us * 4.0);
        let choice = c.choose(budget);
        assert!(choice.feasible);
        assert!(choice.batch >= 1);
        let v = c.verify(choice, budget, ExpParams::quick());
        assert!(
            v.met_budget,
            "chosen batch {} achieved p99 {:.2}us over budget {:.2}us",
            choice.batch, v.achieved.latency.p99_us, budget.p99_us
        );
    }

    #[test]
    fn revalidation_reports_errors_for_requested_mixes() {
        // Tiny scale: 2 types, 2 mixes, batch 8, short ramp. The <3pp
        // paper-scale assertion lives in `repro adaptive`; here we check
        // the plumbing (batched profiling + batched co-runs + error calc).
        let types = [FlowType::Mon, FlowType::Fw];
        let mixes = vec![
            (FlowType::Mon, vec![FlowType::Fw; 5]),
            (FlowType::Fw, vec![FlowType::Mon; 5]),
        ];
        let r = revalidate_predictor(&types, &mixes, 8, 3, ExpParams::quick(), 2);
        assert_eq!(r.batch, 8);
        assert_eq!(r.errors.len(), 2);
        for e in &r.errors {
            assert!(e.measured.is_finite() && e.predicted.is_finite());
        }
        // Quick-scale windows are tiny; the bound here is the plumbing
        // bound, not the paper's.
        assert!(
            r.worst_abs_error() < 25.0,
            "batched prediction should be in the right ballpark: {:.1}pp",
            r.worst_abs_error()
        );
    }

    #[test]
    fn socket_plan_combines_admission_and_batching() {
        let predictor = Predictor::profile(
            &[FlowType::Mon, FlowType::Fw],
            3,
            ExpParams::quick(),
            2,
        );
        let admission = AdmissionController::new(&predictor);
        let controllers = vec![controller()]; // IP only
        let socket = [FlowType::Mon, FlowType::Fw];
        let slas = [Sla { flow: FlowType::Mon, max_drop_pct: 99.0 }];
        let plan = plan_socket(&controllers, &admission, &socket, &slas, &[]);
        assert_eq!(plan.batches.len(), 2);
        // No controller and no budget for MON/FW: both run wide open.
        assert!(plan.batches.iter().all(|(_, c)| c.batch == 64 && c.feasible));
        assert!(plan.viable(), "a 99% SLA with feasible batches is viable");
    }

    #[test]
    fn declared_budget_without_controller_is_infeasible() {
        let predictor = Predictor::profile(&[FlowType::Mon], 3, ExpParams::quick(), 2);
        let admission = AdmissionController::new(&predictor);
        // MON declares a tight p99 budget but nobody calibrated a MON
        // controller: the plan must flag it rather than silently admit.
        let plan = plan_socket(
            &[],
            &admission,
            &[FlowType::Mon],
            &[],
            &[(FlowType::Mon, LatencyBudget::us(1.0))],
        );
        assert!(!plan.batches[0].1.feasible, "an uncertifiable SLA cannot be feasible");
        assert_eq!(plan.batches[0].1.batch, 1, "fall back to the safe size");
        assert!(!plan.viable());
    }
}
