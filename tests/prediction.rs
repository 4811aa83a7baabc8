//! Integration tests of the prediction pipeline: the paper's offline
//! profile → predict → verify loop at test scale.

use predictable_pp::prelude::*;

fn predictor() -> Predictor {
    Predictor::profile(
        &[FlowType::Mon, FlowType::Fw, FlowType::Re],
        4,
        ExpParams::quick(),
        default_threads(),
    )
}

#[test]
fn prediction_tracks_measurement_for_unseen_mixes() {
    // Mixes the predictor never co-ran (it only saw SYN ramps).
    let mixes = [
        (FlowType::Mon, vec![FlowType::Re; 5]),
        (FlowType::Mon, vec![FlowType::Fw; 5]),
        (FlowType::Fw, vec![FlowType::Mon; 5]),
    ];
    for e in predictor().validate(&mixes, ExpParams::quick(), default_threads()) {
        assert!(
            e.error().abs() < 8.0,
            "{} vs {:?}: predicted {:.1}% measured {:.1}%",
            e.target,
            e.competitors[0].name(),
            e.predicted,
            e.measured
        );
    }
}

#[test]
fn mixed_workload_prediction() {
    // The Fig. 9 shape at test scale: a heterogeneous mix per socket.
    let p = Predictor::profile(
        &[FlowType::Mon, FlowType::Fw, FlowType::Vpn, FlowType::Re],
        4,
        ExpParams::quick(),
        default_threads(),
    );
    let mix =
        [FlowType::Mon, FlowType::Mon, FlowType::Vpn, FlowType::Vpn, FlowType::Fw, FlowType::Re];
    let placement = Placement { socket0: mix.to_vec(), socket1: mix.to_vec() };
    let eval = evaluate_measured(&placement, &p.solo_pps(), ExpParams::quick());
    let predictions = p.predict_mix(&mix);
    for (i, &(t, measured)) in eval.per_flow.iter().enumerate() {
        let predicted = predictions[i % 6].predicted;
        assert!(
            (predicted - measured).abs() < 8.0,
            "{t}#{i}: predicted {predicted:.1}% vs measured {measured:.1}%"
        );
    }
}

#[test]
fn perfect_knowledge_is_at_least_as_good_on_average() {
    let mixes: Vec<(FlowType, Vec<FlowType>)> = [FlowType::Mon, FlowType::Fw]
        .iter()
        .flat_map(|&t| [FlowType::Mon, FlowType::Re].map(|c| (t, vec![c; 5])))
        .collect();
    let errors = predictor().validate(&mixes, ExpParams::quick(), default_threads());
    let ours = ErrorStats::of(errors.iter().map(PredictionError::error)).mean;
    let perfect = ErrorStats::of(errors.iter().map(PredictionError::error_perfect)).mean;
    // The paper's Fig. 8: knowing the true competition shrinks the error.
    assert!(
        perfect <= ours + 1.0,
        "perfect-knowledge avg |err| {perfect:.2} should not exceed ours {ours:.2} by much"
    );
}

#[test]
fn eq1_bound_holds_for_measured_drops() {
    // No measured drop may exceed the Equation-1 worst case computed from
    // the flow's own solo profile (with headroom for the memory-controller
    // component Eq. 1 does not model). The bound applies to flows whose
    // contention loss is L3-hit conversion (MON, IP); FW's loss under
    // extreme synthetic pressure is dominated by back-invalidation of
    // L1/L2-resident lines, which Eq. 1 deliberately does not model.
    let params = ExpParams::quick();
    for target in [FlowType::Mon, FlowType::Ip] {
        let solo = SoloProfile::measure(target, params);
        let bound = worst_case_drop(PAPER_DELTA_SECS, solo.l3_hits_per_sec) * 100.0;
        let measured =
            run_corun(target, &[FlowType::SynMax; 5], ContentionConfig::CacheOnly, params)
                .drop_pct;
        assert!(
            measured <= bound * 1.35 + 5.0,
            "{target}: measured {measured:.1}% vs Eq.1 bound {bound:.1}%"
        );
    }
}

#[test]
fn sensitivity_curve_flattens_past_turning_point() {
    // The paper's §3.2 observation (c): sharp rise, then flattening.
    let (curve, _) = SensitivityCurve::measure(
        FlowType::Mon,
        ContentionConfig::Both,
        6,
        ExpParams::quick(),
        default_threads(),
    );
    let max_x = curve.max_x();
    if max_x > 0.0 && curve.max_drop() > 5.0 {
        // Monotone growth plus a non-degenerate early contribution. The
        // pronounced flattening is a paper-scale phenomenon (the SYN ramp
        // exhausts the convertible hits); the repro harness checks it on
        // the Fig. 4 output. Here we check the curve is well-formed.
        let half = curve.interpolate(max_x * 0.5);
        let full = curve.interpolate(max_x);
        assert!(full >= half - 1.0, "curve must not decline: {half:.1} -> {full:.1}");
        assert!(
            half >= full * 0.15,
            "the first half of the range should contribute: {half:.1} of {full:.1}"
        );
    }
}

#[test]
fn appendix_model_matches_measured_conversion_shape() {
    // The Appendix A model must overestimate but track the measured MON
    // conversion's rise (Fig. 7's relationship).
    let params = ExpParams::quick();
    let solo = run_scenario(&solo_scenario(FlowType::Mon, params)).flows[0].clone();
    let model = CacheModel {
        cache_lines: 196_608.0,
        target_working_lines: (solo.working_set_bytes / 64) as f64,
        target_hits_per_sec: solo.metrics.l3_hits_per_sec,
    };
    let solo_hpp = solo.counts.l3_hits as f64 / solo.counts.packets.max(1) as f64;
    let o = corun_against_solo(
        &solo,
        FlowType::Mon,
        &[FlowType::SynMax; 5],
        ContentionConfig::CacheOnly,
        params,
    );
    let co_hpp = o.corun.counts.l3_hits as f64 / o.corun.counts.packets.max(1) as f64;
    let measured_kappa = ((solo_hpp - co_hpp) / solo_hpp).clamp(0.0, 1.0);
    let model_kappa = model.conversion_rate(o.competing_refs_per_sec);
    assert!(
        model_kappa >= measured_kappa - 0.15,
        "the model should overestimate conversion (paper §3.3): \
         model {model_kappa:.2} vs measured {measured_kappa:.2}"
    );
}
