//! The paper's contention predictor (§4).
//!
//! Method, verbatim from the paper:
//!
//! 1. Measure the L3 refs/sec `r_i` each flow performs **during a solo
//!    run** (offline profiling).
//! 2. Co-run the target with SYN flows, ramping their refs/sec, and plot
//!    the target's drop as a function of competing refs/sec (the
//!    [`SensitivityCurve`]).
//! 3. Predict the target's drop under any mix as the curve value at
//!    `Σ r_i` over its co-runners.
//!
//! Formally, with `curve_T` the target's measured drop-vs-competition
//! curve and `r_i` competitor `i`'s solo L3 refs/sec:
//!
//! `predicted_drop(T, {c_1..c_n}) = curve_T(Σ_i r_i)`
//!
//! The *perfect-knowledge* variant (Fig. 8b) replaces `Σ r_i` with the
//! competitors' refs/sec as actually measured during the contended run,
//! isolating the error contributed by assumption 2 (solo refs/sec
//! overestimate contended refs/sec).
//!
//! Both the paper and this reproduction land all errors below 3 pp on the
//! scalar datapath (`repro fig8`/`fig9`), and the claim is re-established
//! on the *batched* datapath at batch 64 by
//! [`revalidate_predictor`](crate::batch_control::revalidate_predictor)
//! (`repro adaptive`): batching rescales every per-packet cost, but the
//! sensitivity mechanism — drop as a function of competing refs/sec — is
//! unchanged.
//!
//! ## The fill-rate refinement (beyond the paper)
//!
//! The paper's choice of refs/sec rests on a stated assumption (§3.3):
//! co-running flows access "a total amount of data significantly larger
//! than the cache ... close to uniformly", so every reference is equally
//! likely to evict someone else's line. Workloads with strong hot-spot
//! locality break this: a DPI automaton's shallow rows or a classifier's
//! skewed tuple tables are re-referenced so often they stay resident, so
//! most of their L3 *references* are hits that evict nothing. For such
//! competitors, refs/sec overstates aggressiveness (by 2–3x in our
//! extension experiments).
//!
//! The refinement keys aggressiveness on the competitors' L3 **miss**
//! rate — each miss is a fill, and each fill is exactly one potential
//! eviction of the target's data. The offline cost is identical: the same
//! SYN ramp yields both curves, and the solo profile already contains
//! misses/sec. For workloads satisfying the paper's uniformity assumption
//! the two methods agree (SYN references nearly all miss); for hot-spot
//! workloads the fill-rate method is strictly better. See `repro extended`.

use crate::experiment::{corun_mixes, ContentionConfig, ExpParams};
use crate::profiler::SoloProfile;
use crate::sensitivity::SensitivityCurve;
use crate::workload::FlowType;
use std::collections::{BTreeMap, HashMap};

/// A profiled predictor over a set of flow types.
pub struct Predictor {
    solo: HashMap<FlowType, SoloProfile>,
    curves: HashMap<FlowType, SensitivityCurve>,
    /// Drop vs competing *fills*/sec, from the same ramp runs (empty when
    /// built [`from_parts`](Self::from_parts) without
    /// [`with_fill_curves`](Self::with_fill_curves)).
    fill_curves: HashMap<FlowType, SensitivityCurve>,
    /// SYN ramp length used for the curves.
    pub levels: u8,
}

impl Predictor {
    /// Profile `types` (solo runs + SYN-ramp curves) and build a predictor.
    ///
    /// This is the paper's entire offline phase: each type is profiled
    /// *alone* — no mix that will later be predicted is ever measured.
    /// Both the refs/sec curve (the paper's) and the fills/sec curve (the
    /// refinement) come from the same ramp runs at no extra cost.
    pub fn profile(
        types: &[FlowType],
        levels: u8,
        params: ExpParams,
        threads: usize,
    ) -> Self {
        let solo_profiles = SoloProfile::measure_all(types, params, threads);
        let mut solo = HashMap::new();
        for p in solo_profiles {
            solo.insert(p.flow, p);
        }
        let mut curves = HashMap::new();
        let mut fill_curves = HashMap::new();
        for &t in types {
            let (by_refs, by_fills, _) = SensitivityCurve::measure_both_with_solo(
                &solo[&t].raw,
                t,
                ContentionConfig::Both,
                levels,
                params,
                threads,
            );
            curves.insert(t, by_refs);
            fill_curves.insert(t, by_fills);
        }
        Predictor { solo, curves, fill_curves, levels }
    }

    /// Build from pre-measured parts (e.g., loaded from a previous run).
    /// Fill-rate curves are absent; add them with
    /// [`with_fill_curves`](Self::with_fill_curves) if available.
    pub fn from_parts(
        solo: Vec<SoloProfile>,
        curves: Vec<(FlowType, SensitivityCurve)>,
        levels: u8,
    ) -> Self {
        Predictor {
            solo: solo.into_iter().map(|p| (p.flow, p)).collect(),
            curves: curves.into_iter().collect(),
            fill_curves: HashMap::new(),
            levels,
        }
    }

    /// Attach fill-rate curves to a predictor built from parts.
    pub fn with_fill_curves(mut self, curves: Vec<(FlowType, SensitivityCurve)>) -> Self {
        self.fill_curves = curves.into_iter().collect();
        self
    }

    /// The solo profile of a type.
    pub fn solo(&self, t: FlowType) -> Option<&SoloProfile> {
        self.solo.get(&t)
    }

    /// Every profiled type's solo packets/sec — the baseline
    /// [`evaluate_measured`](crate::placement::evaluate_measured) takes a
    /// placement's drops against.
    pub fn solo_pps(&self) -> BTreeMap<FlowType, f64> {
        self.solo.iter().map(|(&t, p)| (t, p.pps)).collect()
    }

    /// The sensitivity curve of a type.
    pub fn curve(&self, t: FlowType) -> Option<&SensitivityCurve> {
        self.curves.get(&t)
    }

    /// Sum of the co-runners' solo refs/sec (the paper's competition
    /// estimate).
    pub fn estimated_competition(&self, competitors: &[FlowType]) -> f64 {
        competitors
            .iter()
            .map(|c| {
                self.solo
                    .get(c)
                    .map(|p| p.l3_refs_per_sec)
                    .expect("competitor type was not profiled")
            })
            .sum()
    }

    /// Predict the drop (%) a `target` suffers when co-running with
    /// `competitors`.
    pub fn predict_drop(&self, target: FlowType, competitors: &[FlowType]) -> f64 {
        let curve = self.curves.get(&target).expect("target type was not profiled");
        curve.interpolate(self.estimated_competition(competitors))
    }

    /// Predict with perfect knowledge of the actual competing refs/sec.
    pub fn predict_drop_perfect(&self, target: FlowType, actual_competing: f64) -> f64 {
        let curve = self.curves.get(&target).expect("target type was not profiled");
        curve.interpolate(actual_competing)
    }

    /// The fill-rate curve of a type, when available.
    pub fn fill_curve(&self, t: FlowType) -> Option<&SensitivityCurve> {
        self.fill_curves.get(&t)
    }

    /// Sum of the co-runners' solo L3 misses/sec (the fill-rate
    /// refinement's competition estimate).
    pub fn estimated_fill_competition(&self, competitors: &[FlowType]) -> f64 {
        competitors
            .iter()
            .map(|c| {
                let p = self.solo.get(c).expect("competitor type was not profiled");
                p.l3_refs_per_sec - p.l3_hits_per_sec
            })
            .sum()
    }

    /// Predict the drop (%) using the fill-rate refinement: interpolate the
    /// target's drop-vs-competing-fills curve at the sum of the co-runners'
    /// solo miss rates. Falls back to the paper's method when the fill
    /// curve was not measured (predictor built from legacy parts).
    pub fn predict_drop_fillrate(&self, target: FlowType, competitors: &[FlowType]) -> f64 {
        match self.fill_curves.get(&target) {
            Some(curve) => curve.interpolate(self.estimated_fill_competition(competitors)),
            None => self.predict_drop(target, competitors),
        }
    }

    /// Predict the contended throughput (packets/sec) of a target.
    pub fn predict_pps(&self, target: FlowType, competitors: &[FlowType]) -> f64 {
        let solo = self.solo.get(&target).expect("target type was not profiled");
        solo.pps * (1.0 - self.predict_drop(target, competitors) / 100.0)
    }

    /// Predict every flow of a co-located `mix` (one socket's flows): a
    /// flow's competitors are the mix minus that flow, in mix order. This
    /// is the one place that rule is written.
    pub fn predict_mix(&self, mix: &[FlowType]) -> Vec<MixPrediction> {
        (0..mix.len())
            .map(|i| {
                let competitors: Vec<FlowType> = mix
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, &c)| c)
                    .collect();
                MixPrediction {
                    flow: mix[i],
                    predicted: self.predict_drop(mix[i], &competitors),
                    predicted_fillrate: self.predict_drop_fillrate(mix[i], &competitors),
                    competitors,
                }
            })
            .collect()
    }

    /// The method's validation: co-run each `(target, competitors)` mix
    /// against this predictor's own solo baseline ([`corun_mixes`]) and
    /// set the measured drop beside the predictions, in input order. No
    /// mix is used for fitting — the predictor only ever saw solos and SYN
    /// ramps.
    pub fn validate(
        &self,
        mixes: &[(FlowType, Vec<FlowType>)],
        params: ExpParams,
        threads: usize,
    ) -> Vec<PredictionError> {
        let solo = |t| &self.solo(t).expect("target type was not profiled").raw;
        let outcomes = corun_mixes(solo, mixes, params, threads);
        mixes
            .iter()
            .zip(outcomes)
            .map(|((target, competitors), o)| PredictionError {
                target: *target,
                competitors: competitors.clone(),
                measured: o.drop_pct,
                predicted: self.predict_drop(*target, competitors),
                predicted_fillrate: self.predict_drop_fillrate(*target, competitors),
                predicted_perfect: self.predict_drop_perfect(*target, o.competing_refs_per_sec),
            })
            .collect()
    }

    /// All profiled types.
    pub fn types(&self) -> Vec<FlowType> {
        let mut t: Vec<FlowType> = self.solo.keys().copied().collect();
        t.sort();
        t
    }
}

/// One flow of a co-located mix as [`Predictor::predict_mix`] sees it.
#[derive(Debug, Clone)]
pub struct MixPrediction {
    /// The flow.
    pub flow: FlowType,
    /// Its competitors: the mix minus this flow.
    pub competitors: Vec<FlowType>,
    /// Predicted drop (%), the paper's refs/sec method.
    pub predicted: f64,
    /// Predicted drop (%), the fill-rate refinement.
    pub predicted_fillrate: f64,
}

/// One prediction-vs-measurement comparison (a bar of Fig. 8/9).
#[derive(Debug, Clone)]
pub struct PredictionError {
    /// The target flow.
    pub target: FlowType,
    /// Its competitors.
    pub competitors: Vec<FlowType>,
    /// Measured drop (%).
    pub measured: f64,
    /// Our prediction (%).
    pub predicted: f64,
    /// Fill-rate-refinement prediction (%).
    pub predicted_fillrate: f64,
    /// Perfect-knowledge prediction (%).
    pub predicted_perfect: f64,
}

impl PredictionError {
    /// Signed error of our prediction (predicted − measured).
    pub fn error(&self) -> f64 {
        self.predicted - self.measured
    }

    /// Signed error of the fill-rate refinement.
    pub fn error_fillrate(&self) -> f64 {
        self.predicted_fillrate - self.measured
    }

    /// Signed error of the perfect-knowledge prediction.
    pub fn error_perfect(&self) -> f64 {
        self.predicted_perfect - self.measured
    }
}

/// Distribution of a set of absolute prediction errors (pp) — the one fold
/// behind every worst / mean / percentile a figure reports.
#[derive(Debug, Clone, Copy)]
pub struct ErrorStats {
    /// Mean absolute error (pp), summed in input order.
    pub mean: f64,
    /// Median (pp).
    pub p50: f64,
    /// 95th percentile (pp).
    pub p95: f64,
    /// Maximum (pp).
    pub max: f64,
}

impl ErrorStats {
    /// Fold signed `errors` by absolute value; all zero when there are none.
    pub fn of(errors: impl IntoIterator<Item = f64>) -> Self {
        let mut errs: Vec<f64> = errors.into_iter().map(f64::abs).collect();
        let n = errs.len().max(1);
        let mean = errs.iter().sum::<f64>() / n as f64;
        errs.sort_by(f64::total_cmp);
        let q = |p: f64| errs.get((((n - 1) as f64) * p).round() as usize).copied().unwrap_or(0.0);
        ErrorStats { mean, p50: q(0.50), p95: q(0.95), max: q(1.0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionController;
    use crate::experiment::{corun_against_solo, run_corun, FlowResult, LatencySummary};
    use crate::placement::{evaluate_predicted, Placement};
    use pp_sim::counters::{Counts, DerivedMetrics};
    use pp_sim::types::CoreId;

    fn quick_predictor() -> Predictor {
        Predictor::profile(
            &[FlowType::Mon, FlowType::Fw],
            3,
            ExpParams::quick(),
            2,
        )
    }

    /// A solo profile with hand-written rates: `packets`, `l3_refs` and
    /// `l3_hits` counted over a 1 ms window at 2.8 GHz.
    fn hand_profile(flow: FlowType, packets: u64, l3_refs: u64, l3_hits: u64) -> SoloProfile {
        let counts = Counts {
            packets,
            l3_refs,
            l3_hits,
            l3_misses: l3_refs - l3_hits,
            ..Counts::default()
        };
        SoloProfile::from_result(&FlowResult {
            core: CoreId(0),
            flow,
            metrics: DerivedMetrics::from_counts(&counts, 2_800_000, 2.8),
            counts,
            tags: Vec::new(),
            working_set_bytes: 0,
            latency: LatencySummary::default(),
            drops: Default::default(),
        })
    }

    /// A predictor over MON, FW and RE written out by hand — no simulation.
    fn hand_predictor() -> Predictor {
        let curve = |pts: &[(f64, f64)]| SensitivityCurve::from_points(pts.to_vec());
        Predictor::from_parts(
            vec![
                hand_profile(FlowType::Mon, 1_229, 27_263, 21_317),
                hand_profile(FlowType::Fw, 117, 2_711, 2_129),
                hand_profile(FlowType::Re, 102, 18_181, 5_519),
            ],
            vec![
                (FlowType::Mon, curve(&[(21.3e6, 4.7), (64.9e6, 13.1), (139.7e6, 24.3)])),
                (FlowType::Fw, curve(&[(19.9e6, 0.9), (71.3e6, 2.7), (141.1e6, 4.9)])),
                (FlowType::Re, curve(&[(23.1e6, 2.3), (67.7e6, 6.1), (137.3e6, 9.7)])),
            ],
            3,
        )
        .with_fill_curves(vec![
            (FlowType::Mon, curve(&[(6.1e6, 5.3), (27.9e6, 12.7), (61.3e6, 25.1)])),
            (FlowType::Fw, curve(&[(5.3e6, 0.7), (29.1e6, 2.9), (63.7e6, 4.3)])),
            (FlowType::Re, curve(&[(7.7e6, 2.9), (28.7e6, 5.9), (59.1e6, 10.3)])),
        ])
    }

    /// The pinned mix, and per flow its predicted drop by refs/sec and by
    /// fills/sec, as `f64::to_bits`.
    const PIN_MIX: [FlowType; 6] = [
        FlowType::Mon,
        FlowType::Re,
        FlowType::Fw,
        FlowType::Mon,
        FlowType::Re,
        FlowType::Re,
    ];
    const PIN_REFS: [u64; 6] = [
        0x4030098ccee71b3d,
        0x401dc227680636f1,
        0x400f1f98280b6864,
        0x4030098ccee71b3d,
        0x401dc227680636f1,
        0x401dc227680636f1,
    ];
    const PIN_FILLS: [u64; 6] = [
        0x4032de39f509551f,
        0x401cde04f5542f00,
        0x400ded02f8ac1450,
        0x4032de39f509551f,
        0x401cde04f5542f00,
        0x401cde04f5542f00,
    ];

    #[test]
    fn mix_predictions_are_pinned_per_flow() {
        use FlowType::{Fw, Mon, Re};
        let p = hand_predictor();
        // Each flow's competitors are the mix minus that flow, in mix order.
        let by_hand: [(FlowType, [FlowType; 5]); 6] = [
            (Mon, [Re, Fw, Mon, Re, Re]),
            (Re, [Mon, Fw, Mon, Re, Re]),
            (Fw, [Mon, Re, Mon, Re, Re]),
            (Mon, [Mon, Re, Fw, Re, Re]),
            (Re, [Mon, Re, Fw, Mon, Re]),
            (Re, [Mon, Re, Fw, Mon, Re]),
        ];
        for (i, (target, competitors)) in by_hand.iter().enumerate() {
            assert_eq!(*target, PIN_MIX[i]);
            assert_eq!(p.predict_drop(*target, competitors).to_bits(), PIN_REFS[i], "refs {i}");
            assert_eq!(
                p.predict_drop_fillrate(*target, competitors).to_bits(),
                PIN_FILLS[i],
                "fills {i}"
            );
        }
        let verdicts = AdmissionController::new(&p).evaluate(&PIN_MIX, &[]).verdicts;
        let admitted: Vec<u64> = verdicts.iter().map(|v| v.predicted_drop_pct.to_bits()).collect();
        assert_eq!(admitted, PIN_REFS);
        let placement = Placement { socket0: PIN_MIX.to_vec(), socket1: PIN_MIX.to_vec() };
        let eval = evaluate_predicted(&placement, &p);
        let placed: Vec<(FlowType, u64)> =
            eval.per_flow.iter().map(|&(f, d)| (f, d.to_bits())).collect();
        let per_socket: Vec<(FlowType, u64)> = PIN_MIX.iter().copied().zip(PIN_REFS).collect();
        assert_eq!(placed, [per_socket.clone(), per_socket].concat());
    }

    #[test]
    fn predict_mix_reaches_the_pinned_constants() {
        let predictions = hand_predictor().predict_mix(&PIN_MIX);
        let flows: Vec<FlowType> = predictions.iter().map(|m| m.flow).collect();
        let refs: Vec<u64> = predictions.iter().map(|m| m.predicted.to_bits()).collect();
        let fills: Vec<u64> =
            predictions.iter().map(|m| m.predicted_fillrate.to_bits()).collect();
        assert_eq!((flows, refs, fills), (PIN_MIX.to_vec(), PIN_REFS.to_vec(), PIN_FILLS.to_vec()));
        use FlowType::{Mon, Re};
        assert_eq!(predictions[2].competitors, [Mon, Re, Mon, Re, Re]);
    }

    #[test]
    fn validate_is_corun_against_solo_per_mix() {
        // The contract the figure modules each used to implement by hand.
        let p = quick_predictor();
        let mixes = vec![
            (FlowType::Mon, vec![FlowType::Fw; 5]),
            (FlowType::Fw, vec![FlowType::Mon, FlowType::Mon, FlowType::Fw]),
            (FlowType::Mon, vec![FlowType::Mon]),
        ];
        let errors = p.validate(&mixes, ExpParams::quick(), 2);
        assert_eq!(errors.len(), mixes.len());
        for (e, (target, competitors)) in errors.iter().zip(&mixes) {
            let o = corun_against_solo(
                &p.solo(*target).unwrap().raw,
                *target,
                competitors,
                ContentionConfig::Both,
                ExpParams::quick(),
            );
            assert_eq!((e.target, &e.competitors), (*target, competitors));
            assert_eq!(e.measured.to_bits(), o.drop_pct.to_bits());
            assert_eq!(e.predicted.to_bits(), p.predict_drop(*target, competitors).to_bits());
            assert_eq!(
                e.predicted_fillrate.to_bits(),
                p.predict_drop_fillrate(*target, competitors).to_bits()
            );
            assert_eq!(
                e.predicted_perfect.to_bits(),
                p.predict_drop_perfect(*target, o.competing_refs_per_sec).to_bits()
            );
        }
    }

    #[test]
    fn error_stats_fold_absolute_errors() {
        let s = ErrorStats::of([-3.0, 1.0, 2.0, -0.5]);
        assert_eq!((s.mean, s.p50, s.p95, s.max), (1.625, 2.0, 3.0, 3.0));
        let none = ErrorStats::of([]);
        assert_eq!((none.mean, none.max), (0.0, 0.0));
    }

    #[test]
    fn competition_estimate_sums_solo_refs() {
        let p = quick_predictor();
        let one = p.estimated_competition(&[FlowType::Fw]);
        let five = p.estimated_competition(&[FlowType::Fw; 5]);
        assert!((five - 5.0 * one).abs() < 1e-6);
        let mixed = p.estimated_competition(&[FlowType::Fw, FlowType::Mon]);
        assert!(mixed > one);
    }

    #[test]
    fn predicted_drop_monotone_in_competition() {
        let p = quick_predictor();
        let little = p.predict_drop(FlowType::Mon, &[FlowType::Fw]);
        let lots = p.predict_drop(FlowType::Mon, &[FlowType::Mon; 5]);
        assert!(
            lots >= little,
            "more competition must not predict less drop ({little:.2} vs {lots:.2})"
        );
    }

    #[test]
    fn prediction_matches_measurement_reasonably() {
        // The headline claim at test scale: predict MON vs 5 FW without
        // having measured that mix, then check against measurement. The
        // tolerance is loose here (tiny windows); the paper-scale harness
        // asserts <3%.
        let p = quick_predictor();
        let predicted = p.predict_drop(FlowType::Mon, &[FlowType::Fw; 5]);
        let measured = run_corun(
            FlowType::Mon,
            &[FlowType::Fw; 5],
            ContentionConfig::Both,
            ExpParams::quick(),
        )
        .drop_pct;
        assert!(
            (predicted - measured).abs() < 12.0,
            "predicted {predicted:.1}% vs measured {measured:.1}%"
        );
    }

    #[test]
    fn predict_pps_scales_solo() {
        let p = quick_predictor();
        let solo = p.solo(FlowType::Mon).unwrap().pps;
        let pred = p.predict_pps(FlowType::Mon, &[FlowType::Mon; 5]);
        assert!(pred < solo);
        assert!(pred > solo * 0.3);
    }

    #[test]
    #[should_panic(expected = "not profiled")]
    fn unprofiled_type_panics() {
        let p = quick_predictor();
        let _ = p.predict_drop(FlowType::Re, &[FlowType::Fw]);
    }

    #[test]
    fn fill_competition_is_bounded_by_ref_competition() {
        // Misses are a subset of references, so the fill estimate can never
        // exceed the reference estimate.
        let p = quick_predictor();
        for comp in [[FlowType::Fw; 5], [FlowType::Mon; 5]] {
            let refs = p.estimated_competition(&comp);
            let fills = p.estimated_fill_competition(&comp);
            assert!(fills <= refs, "fills {fills:.0} > refs {refs:.0}");
            assert!(fills > 0.0);
        }
    }

    #[test]
    fn fillrate_prediction_monotone_and_available() {
        let p = quick_predictor();
        assert!(p.fill_curve(FlowType::Mon).is_some());
        let little = p.predict_drop_fillrate(FlowType::Mon, &[FlowType::Fw]);
        let lots = p.predict_drop_fillrate(FlowType::Mon, &[FlowType::Mon; 5]);
        assert!(lots >= little);
    }

    #[test]
    fn fillrate_falls_back_without_curves() {
        let p = quick_predictor();
        let solo: Vec<SoloProfile> =
            [FlowType::Mon, FlowType::Fw].iter().map(|&t| p.solo(t).unwrap().clone()).collect();
        let curves: Vec<(FlowType, SensitivityCurve)> = [FlowType::Mon, FlowType::Fw]
            .iter()
            .map(|&t| (t, p.curve(t).unwrap().clone()))
            .collect();
        let legacy = Predictor::from_parts(solo, curves, p.levels);
        assert!(legacy.fill_curve(FlowType::Mon).is_none());
        let a = legacy.predict_drop_fillrate(FlowType::Mon, &[FlowType::Fw; 5]);
        let b = legacy.predict_drop(FlowType::Mon, &[FlowType::Fw; 5]);
        assert_eq!(a, b, "fallback must be the paper's method");
    }

    #[test]
    fn both_methods_agree_for_uniform_competitors() {
        // MON's working set far exceeds its cache share when co-run: the
        // paper's uniformity assumption holds, so the two methods should
        // land in the same neighbourhood.
        let p = quick_predictor();
        let refs = p.predict_drop(FlowType::Mon, &[FlowType::Mon; 5]);
        let fills = p.predict_drop_fillrate(FlowType::Mon, &[FlowType::Mon; 5]);
        assert!(
            (refs - fills).abs() < 10.0,
            "methods diverge on a uniform competitor: refs {refs:.1} fills {fills:.1}"
        );
    }
}
