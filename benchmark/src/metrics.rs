//! The benchmark's declared names: workloads, end-to-end metrics and
//! per-layer metrics, with their units. `BENCHMARK.json` at the repo root is
//! generated from these tables (`--print-contract`) and a unit test keeps
//! the checked-in file equal to them, so no name can be emitted that is not
//! declared, nor declared and not emitted.

use crate::{layers, steady, sweeps};
use std::fmt::Write as _;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 12;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The six workloads and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("ip_scalar", "IP forwarding solo, paper scale, scalar path: everything is paid once per packet, so framework and datapath changes show here first"),
    ("ip_b64", "same flow at batch 64: the framework is amortised 64x and host time is the read_batch charging walk, so cache-layer work shows here and framework work should not"),
    ("vpn_scalar", "VPN solo: ~2300 accesses per packet, nearly all L1 fast-path hits plus compute and real AES; the bypass workload for cache-metadata and datapath changes"),
    ("corun6", "six MON flows sharing socket 0: min-clock scheduling, L3 overflow, dirty evictions, back-invalidations, memctrl queueing and a 230 MB host footprint"),
    ("method_quick", "the paper's profile-then-predict method at quick scale, 50 freshly built scenarios: dominated by construction and short windows, not steady state"),
    ("ctl_fleet", "the fleet-chaos roster: many short measure windows plus guard, supervisor, fault-injection and migration decisions; guards the control harness"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "sim_kpps",
        unit: "kpkt/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sweep_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_mpps_model",
        unit: "Mpkt/s",
        better: Better::Higher,
        // `ctl_fleet` has two values: the fleet's batch calibration picks
        // one of two batch sizes for MON depending on the seed, and its
        // throughput follows (6.3 or 6.7 Mpkt/s), so ten seeds spread up to
        // 7 % there; on the other workloads they spread under 1 %.
        bound: 0.25,
    },
];

/// Per-layer metrics that describe the traced pass of the run's own
/// workload rather than a layer in isolation.
pub const TRACE: [(&str, &str, Better); 27] = [
    ("trace.turns", "count", Better::Lower),
    ("trace.host_ns_per_turn", "ns", Better::Lower),
    ("trace.host_ns_per_access", "ns", Better::Lower),
    ("trace.engine_self_share", "share", Better::Lower),
    ("trace.task_share", "share", Better::Higher),
    ("trace.ledger_coverage", "share", Better::Higher),
    ("trace.ledger.l1hit_share", "share", Better::Lower),
    ("trace.ledger.l2l3hit_share", "share", Better::Lower),
    ("trace.ledger.miss_share", "share", Better::Lower),
    ("trace.ledger.framework_share", "share", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.scenarios", "count", Better::Lower),
    ("trace.windows", "count", Better::Lower),
    ("trace.build_share", "share", Better::Lower),
    ("trace.warmup_share", "share", Better::Lower),
    ("trace.window_share", "share", Better::Higher),
    ("trace.fit_share", "share", Better::Lower),
    ("trace.profile_share", "share", Better::Lower),
    ("simstat.cycles_per_pkt", "cycles", Better::Lower),
    ("simstat.accesses_per_pkt", "count", Better::Lower),
    ("simstat.l1_hit_rate", "share", Better::Higher),
    ("simstat.l2_hits_per_pkt", "count", Better::Lower),
    ("simstat.l3_refs_per_pkt", "count", Better::Lower),
    ("simstat.l3_misses_per_pkt", "count", Better::Lower),
    ("noise.median_over_fast", "ratio", Better::Higher),
    ("pred_err_max_pp", "pp", Better::Lower),
    ("table1_cpp_err_pct", "%", Better::Lower),
];

/// Every per-layer metric as `(name, unit, better)`; every workload reports
/// every one of these with `--trace 1`.
pub fn per_layer() -> Vec<(&'static str, &'static str, Better)> {
    layers::NAMES
        .iter()
        .map(|&n| (n, layers::unit_of(n).0, Better::Lower))
        .chain(TRACE)
        .collect()
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn contract_json() -> String {
    let mut s = String::from("{\n");
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = writeln!(s, "  \"command\": [{}],", quoted.join(", "));
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better_str(m.better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layer = per_layer();
    for (i, (name, unit, better)) in layer.iter().enumerate() {
        let comma = if i + 1 == layer.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better_str(*better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `(name, unit)` of every metric a run in the given mode reports.
pub fn declared(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        per_layer().iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result line: one JSON object with exactly the keys the contract
/// names. `values` must hold exactly the declared metrics of the mode, in
/// any order; a missing, extra or non-finite value is a bug and panics.
pub fn result_json(trace: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let declared = declared(trace);
    for (name, _) in values {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let matches: Vec<f64> = values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .collect();
        assert!(
            matches.len() == 1,
            "metric {name} was measured {} times",
            matches.len()
        );
        assert!(matches[0].is_finite(), "metric {name} is {}", matches[0]);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            matches[0]
        );
    }
    s.push_str("}}");
    s
}

/// The steady-state and sweep workload tables must cover [`WORKLOADS`].
pub fn kind_of(name: &str) -> Option<Kind> {
    if let Some(w) = steady::by_name(name) {
        Some(Kind::Steady(w))
    } else if sweeps::NAMES.contains(&name) {
        Some(Kind::Sweep)
    } else {
        None
    }
}

pub enum Kind {
    Steady(&'static steady::Workload),
    Sweep,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_declared_name_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(per_layer().iter().map(|m| m.0));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(per_layer().len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn every_workload_is_either_steady_or_a_sweep() {
        for (name, _) in WORKLOADS {
            assert!(kind_of(name).is_some(), "{name} has no implementation");
        }
        assert_eq!(
            steady::WORKLOADS.len() + sweeps::NAMES.len(),
            WORKLOADS.len()
        );
    }

    #[test]
    fn checked_in_contract_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            contract_json(),
            "regenerate with `--print-contract > BENCHMARK.json`"
        );
    }

    /// The names between `"<key>": [` and the closing `]` of a contract.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let section = json
            .split(&format!("\"{key}\": ["))
            .nth(1)
            .expect("key present");
        let section = section.split("\n  ]").next().expect("array closes");
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    #[test]
    fn result_line_round_trips_exactly_the_declared_names() {
        let contract = contract_json();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let declared = names_under(&contract, key);
            let values: Vec<(&str, f64)> = declared
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), 1.5 + i as f64))
                .collect();
            let line = result_json(trace, 7, 0, &values);
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {"
            ));
            assert!(!line.contains('\n'));
            let emitted: Vec<String> = line
                .split("\"metrics\": {")
                .nth(1)
                .expect("metrics object")
                .split("\": {\"value\": ")
                .map(|part| part.rsplit('"').next().expect("a name").to_string())
                .take(declared.len())
                .collect();
            assert_eq!(emitted, declared);
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5, ", declared[0])));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_cannot_be_emitted() {
        let mut values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.push(("made_up", 1.0));
        result_json(false, 1, 0, &values);
    }

    #[test]
    #[should_panic(expected = "measured 0 times")]
    fn a_declared_metric_cannot_be_left_out() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().skip(1).map(|m| (m.name, 1.0)).collect();
        result_json(false, 1, 0, &values);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        assert!(result_json(false, 9, 2, &values)
            .starts_with("{\"correct\": false, \"attempted\": 9, \"failed\": 2,"));
    }
}
