//! The repo's one benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root for the contract it is run under:
//!
//! ```text
//! pp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a readable report and, as the last line of standard output, one
//! JSON object with the run's checks and metrics. `--trace 0` measures the
//! end-to-end metrics with nothing attached; `--trace 1` measures every
//! layer in isolation, re-runs the workload with spans around every call
//! into a layer, and writes `out/trace.json`.

mod calibrate;
mod clock;
mod layers;
mod metrics;
mod parity;
mod stats;
mod steady;
mod sweeps;
mod trace;

use calibrate::Calibrator;
use clock::Clock;
use metrics::Kind;
use pp_sim::prelude::Counts;
use std::rc::Rc;
use std::time::Duration;
use trace::Tracer;

/// Operations attempted and failed by the self-checks of one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one checked operation; report it and count it as failed if
    /// `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Fresh builds timed per run: at least `MIN_SETUPS`, and more of a cheap
/// one until they add up to a second; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
/// Calibration bursts around each long, opaque measurement.
const BURSTS: usize = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       pp-benchmark --print-contract",
        metrics::WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-contract" {
            print!("{}", metrics::contract_json());
            std::process::exit(0);
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let seconds_ok = args.seconds > 0.0 && args.seconds <= 600.0;
    if !(metrics::is_workload(&args.workload) && seconds_ok) {
        usage();
    }
    args
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The exact simulated statistics of a counter bundle, per packet.
fn simstat(c: &Counts) -> Vec<(&'static str, f64)> {
    let per_pkt = |v: u64| v as f64 / c.packets.max(1) as f64;
    vec![
        ("simstat.cycles_per_pkt", per_pkt(c.cycles())),
        ("simstat.accesses_per_pkt", per_pkt(c.l1_refs)),
        (
            "simstat.l1_hit_rate",
            c.l1_hits as f64 / c.l1_refs.max(1) as f64,
        ),
        ("simstat.l2_hits_per_pkt", per_pkt(c.l2_hits)),
        ("simstat.l3_refs_per_pkt", per_pkt(c.l3_refs)),
        ("simstat.l3_misses_per_pkt", per_pkt(c.l3_misses)),
    ]
}

/// What the traced pass observed, in the terms the coverage ledger needs.
struct Observed {
    counts: Counts,
    turns: u64,
    /// Measured on-CPU nanoseconds per packet (uncalibrated, like the costs).
    host_ns_per_pkt: f64,
    cores: usize,
    batched: bool,
    elements_per_flow: usize,
}

/// The coverage ledger: isolated unit cost × exact event count for every
/// class of event `Counts` and the turn tallies can see, as shares of the
/// measured host time per packet. Their sum is the coverage.
fn ledger(costs: &layers::LayerCosts, o: &Observed) -> Vec<(&'static str, f64)> {
    let c = &o.counts;
    let packets = c.packets.max(1) as f64;
    let only =
        |pick: fn(&Counts) -> Counts| layers::class_ns(&pick(c), &|n| costs.raw_ns(n)) / packets;
    let l1 = only(|c| Counts {
        l1_hits: c.l1_hits,
        ..Counts::default()
    });
    let l2l3 = only(|c| Counts {
        l2_hits: c.l2_hits,
        l3_hits: c.l3_hits,
        ..Counts::default()
    });
    let miss = only(|c| Counts {
        l3_misses: c.l3_misses,
        remote_accesses: c.remote_accesses,
        ..Counts::default()
    });
    let b = o.batched as usize;
    let turn = costs.raw_ns(if o.cores > 1 {
        "sim.engine.turn_6core_ns"
    } else {
        "sim.engine.turn_1core_ns"
    });
    let hop = costs.raw_ns(["click.graph.hop_b1_ns", "click.graph.hop_b64_ns"][b]);
    // The minimal flow the framework figure was taken on already has one
    // element; the rest of the chain is charged per hop.
    let framework = o.turns as f64 * turn / packets
        + costs.framework_excl_ns[b]
        + o.elements_per_flow.saturating_sub(1) as f64 * hop;
    let share = |ns: f64| ns / o.host_ns_per_pkt;
    vec![
        ("trace.ledger.l1hit_share", share(l1)),
        ("trace.ledger.l2l3hit_share", share(l2l3)),
        ("trace.ledger.miss_share", share(miss)),
        ("trace.ledger.framework_share", share(framework)),
        ("trace.ledger_coverage", share(l1 + l2l3 + miss + framework)),
    ]
}

/// Durations of the top-level phases recorded by `tracer`, summed by name.
fn phase_ns(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum()
}

fn write_trace(tracer: &Tracer, workload: &str, counts: &[(&'static str, f64)]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    let counts: Vec<(String, f64)> = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    std::fs::write(dir.join("trace.json"), tracer.to_json(workload, &counts))
        .expect("write trace.json");
}

/// Whether to time another fresh build after `planned` of them.
fn more_setups(planned: usize, so_far: &[f64]) -> bool {
    planned < MIN_SETUPS || (planned < MAX_SETUPS && so_far.iter().sum::<f64>() < 1.0)
}

/// `--trace 0` on a steady-state workload.
fn steady_end_to_end(
    w: &'static steady::Workload,
    args: &Args,
    clock: &Clock,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    // One burst follows every slice; nothing else feeds the calibrator, so
    // its median is taken beside the workload's own cache footprint.
    let mut calibrator = Calibrator::new();
    let (twin_setup_ns, twin) = steady::twin_digests(w, args.seed, clock);
    let mut setups = vec![twin_setup_ns as f64 / 1e9];
    // The measured build comes last and is one of the samples.
    while more_setups(setups.len() + 1, &setups) {
        setups.push(steady::Rig::build(w, args.seed, clock, None).1 as f64 / 1e9);
    }
    let (mut rig, setup_ns) = steady::Rig::build(w, args.seed, clock, None);
    setups.push(setup_ns as f64 / 1e9);
    let pass = steady::run_slices(&mut [&mut rig], args.seconds, clock, &mut calibrator).remove(0);
    steady::check_twin(&twin, &pass.digests, checks);
    steady::check_slice_counts(&pass.samples, checks);
    rig.check_ledgers(checks);

    let scale = calibrator.time_scale();
    let raw_kpps = stats::fast_decile(&pass.samples) * 1e6;
    let sim_kpps = raw_kpps / scale;
    let sim_mpps_model = pass.horizon.packets as f64 / pass.horizon_sim_s / 1e6;
    println!(
        "{}: {} slices of {} simulated ms, median/fast {:.3}, setups {setups:.3?} s",
        w.name,
        pass.samples.len(),
        w.slice_ms,
        stats::median_over_fast(&pass.samples),
    );
    println!(
        "raw: {:.3} on-CPU ns per packet (fast decile); reference kernel {:.2} ns/step, time scale {scale:.4}",
        1e6 / raw_kpps,
        calibrator.ns_per_step()
    );
    if let Some(err) = steady::table1_cpp_err_pct(w, &pass) {
        println!(
            "{}: Table 1 cycles/packet error {err:.4} % (reported as a metric under --trace 1)",
            w.name
        );
    }
    vec![
        ("sim_kpps", sim_kpps),
        // On-CPU seconds per simulated second of the modelled platform.
        ("sweep_s", sim_mpps_model * 1e3 / sim_kpps),
        ("setup_s", stats::median(&setups) * scale),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_mpps_model", sim_mpps_model),
    ]
}

/// `--trace 0` on a sweep.
fn sweep_end_to_end(args: &Args, clock: &Clock, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let mut calibrator = Calibrator::new();
    let mut setups = Vec::new();
    while more_setups(setups.len(), &setups) {
        calibrator.bursts(clock, 4);
        setups.push(sweeps::setup_probe(args.seed, clock) as f64 / 1e9);
    }
    let (cpu_s, out) = sweeps::run_repeats(
        &args.workload,
        args.seed,
        args.seconds,
        clock,
        &mut calibrator,
        checks,
    );
    checks.attempted += out.units;
    let scale = calibrator.time_scale();
    let sweep_s = stats::best_of(&cpu_s) * scale;
    println!(
        "{}: {} repeat(s) of {} units, setups {setups:.3?} s",
        args.workload,
        cpu_s.len(),
        out.units
    );
    println!(
        "raw: {:.0} on-CPU ns per sweep (fastest repeat); reference kernel {:.2} ns/step, time scale {scale:.4}",
        stats::best_of(&cpu_s) * 1e9,
        calibrator.ns_per_step()
    );
    if let Some(err) = out.pred_err_max_pp {
        println!(
            "{}: worst prediction error {err:.4} pp (reported as a metric under --trace 1)",
            args.workload
        );
    }
    vec![
        // Packets of the scenario results the library returns, a per-seed
        // constant, per calibrated on-CPU second of the whole sweep.
        ("sim_kpps", out.packets as f64 / sweep_s / 1e3),
        ("sweep_s", sweep_s),
        ("setup_s", stats::median(&setups) * scale),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_mpps_model", out.packets as f64 / out.sim_s / 1e6),
    ]
}

/// The metrics of [`metrics::TRACE`] that a workload has no value for.
fn not_applicable(values: &mut Vec<(&'static str, f64)>) {
    for (name, _, _) in metrics::TRACE {
        if !values.iter().any(|(n, _)| *n == name) {
            values.push((name, 0.0));
        }
    }
}

/// `--trace 1`: the layer microbenchmarks, then an untraced and a traced
/// pass over the run's own workload.
fn traced(args: &Args, clock: &Clock, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let mut calibrator = Calibrator::new();
    let per_bench = Duration::from_secs_f64(args.seconds / 100.0);
    let costs = layers::Layers::new(clock, checks, per_bench, args.seed).run();
    let tracer = Rc::new(Tracer::new());
    let mut values = Vec::new();

    match metrics::kind_of(&args.workload).expect("a declared workload") {
        Kind::Steady(w) => {
            // Both builds advance slice for slice, so they see the host's
            // phases together and their rates can be compared.
            let (mut plain, _) = steady::Rig::build(w, args.seed, clock, None);
            let (mut rig, _) = steady::Rig::build(w, args.seed, clock, Some(&tracer));
            let mut passes = steady::run_slices(
                &mut [&mut plain, &mut rig],
                args.seconds * 0.6,
                clock,
                &mut calibrator,
            );
            let (pass, untraced) = (passes.remove(1), passes.remove(0));
            drop(plain);
            steady::check_slice_counts(&pass.samples, checks);
            rig.check_ledgers(checks);
            checks.expect(pass.horizon == untraced.horizon, || {
                "tracing changed the simulated counters".into()
            });

            let scale = calibrator.time_scale();
            let kpps = stats::fast_decile(&untraced.samples) * 1e6 / scale;
            let kpps_traced = stats::fast_decile(&pass.samples) * 1e6 / scale;
            let slices_ns = pass.slices_wall_ns as f64;
            let self_share = (slices_ns - pass.turns_ns as f64) / slices_ns;
            values.extend([
                ("trace.turns", pass.turns as f64),
                (
                    "trace.host_ns_per_turn",
                    pass.turns_ns as f64 / pass.turns as f64 * scale,
                ),
                (
                    "trace.host_ns_per_access",
                    slices_ns / pass.all.l1_refs as f64 * scale,
                ),
                ("trace.engine_self_share", self_share),
                ("trace.task_share", 1.0 - self_share),
                ("trace.overhead_pct", (kpps - kpps_traced) / kpps * 100.0),
                ("trace.scenarios", 1.0),
                ("trace.windows", pass.samples.len() as f64),
                (
                    "noise.median_over_fast",
                    stats::median_over_fast(&untraced.samples),
                ),
            ]);
            let phases = [
                phase_ns(&tracer, "build"),
                phase_ns(&tracer, "warmup"),
                phase_ns(&tracer, "slice"),
            ];
            let shares = stats::shares(&phases);
            values.extend([
                ("trace.build_share", shares[0]),
                ("trace.warmup_share", shares[1]),
                ("trace.window_share", shares[2]),
            ]);
            values.extend(ledger(
                &costs,
                &Observed {
                    counts: pass.all,
                    turns: pass.turns,
                    host_ns_per_pkt: 1e6 / (kpps * scale),
                    cores: w.flows.len(),
                    batched: w.batch >= 1,
                    elements_per_flow: rig.elements_per_flow,
                },
            ));
            values.extend(simstat(&untraced.horizon));
            if let Some(err) = steady::table1_cpp_err_pct(w, &untraced) {
                values.push(("table1_cpp_err_pct", err));
            }
            write_trace(
                &tracer,
                w.name,
                &[
                    ("turns", pass.turns as f64),
                    ("turns_ns", pass.turns_ns as f64),
                    ("packets", pass.all.packets as f64),
                    ("l1_hits", pass.all.l1_hits as f64),
                    ("l2_hits", pass.all.l2_hits as f64),
                    ("l3_hits", pass.all.l3_hits as f64),
                    ("l3_misses", pass.all.l3_misses as f64),
                    ("remote_accesses", pass.all.remote_accesses as f64),
                    ("dma_lines", pass.dma_lines as f64),
                ],
            );
        }
        Kind::Sweep if args.workload == "method_quick" => {
            calibrator.bursts(clock, BURSTS);
            let (out, untraced_ns) =
                clock.time(|| sweeps::method_quick(args.seed, checks, &mut || ()));
            calibrator.bursts(clock, BURSTS);
            let ((tally, worst, scenarios), traced_ns) =
                clock.time(|| sweeps::traced_method_quick(args.seed, &tracer, checks));
            calibrator.bursts(clock, BURSTS);
            checks.attempted += out.units + scenarios;
            let scale = calibrator.time_scale();
            let phases = ["build", "warmup", "window", "fit"].map(|p| phase_ns(&tracer, p));
            let shares = stats::shares(&phases);
            let running_ns = phases[1] + phases[2];
            let self_share = (running_ns - tally.turns_ns as f64) / running_ns;
            values.extend([
                ("trace.turns", tally.turns as f64),
                (
                    "trace.host_ns_per_turn",
                    tally.turns_ns as f64 / tally.turns as f64 * scale,
                ),
                (
                    "trace.host_ns_per_access",
                    running_ns / tally.counts.l1_refs as f64 * scale,
                ),
                ("trace.engine_self_share", self_share),
                ("trace.task_share", 1.0 - self_share),
                (
                    "trace.overhead_pct",
                    (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64 * 100.0,
                ),
                ("trace.scenarios", scenarios as f64),
                ("trace.windows", scenarios as f64),
                ("trace.build_share", shares[0]),
                ("trace.warmup_share", shares[1]),
                ("trace.window_share", shares[2]),
                ("trace.fit_share", shares[3]),
                ("noise.median_over_fast", 1.0),
                (
                    "pred_err_max_pp",
                    out.pred_err_max_pp.expect("method_quick predicts"),
                ),
            ]);
            println!(
                "method_quick: traced re-implementation's worst prediction error {worst:.4} pp"
            );
            values.extend(ledger(
                &costs,
                &Observed {
                    counts: tally.counts,
                    turns: tally.turns,
                    host_ns_per_pkt: running_ns / tally.counts.packets as f64,
                    cores: 6,
                    batched: false,
                    // MON's chain; the roster mixes chains of 4 to 6 elements.
                    elements_per_flow: 5,
                },
            ));
            values.extend(simstat(&tally.counts));
            write_trace(
                &tracer,
                "method_quick",
                &[
                    ("scenarios", scenarios as f64),
                    ("turns", tally.turns as f64),
                    ("turns_ns", tally.turns_ns as f64),
                    ("packets", tally.counts.packets as f64),
                    ("dma_lines", tally.dma_lines as f64),
                ],
            );
        }
        Kind::Sweep => {
            calibrator.bursts(clock, BURSTS);
            let profile_ns = sweeps::traced_fleet_profile(args.seed, &tracer);
            let (out, sweep_ns) = tracer.span("sweep", || sweeps::ctl_fleet(args.seed, checks));
            calibrator.bursts(clock, BURSTS);
            checks.attempted += out.units;
            values.extend([
                (
                    "trace.scenarios",
                    pp_bench::experiments::fleet_chaos::scenario_names().len() as f64,
                ),
                ("trace.windows", out.units as f64),
                ("trace.profile_share", profile_ns as f64 / sweep_ns as f64),
                ("noise.median_over_fast", 1.0),
            ]);
            write_trace(
                &tracer,
                "ctl_fleet",
                &[
                    ("windows", out.units as f64),
                    ("packets", out.packets as f64),
                ],
            );
        }
    }
    println!(
        "reference kernel {:.2} ns/step, time scale {:.4}",
        calibrator.ns_per_step(),
        calibrator.time_scale()
    );
    values.extend(costs.metrics(calibrator.time_scale()));
    not_applicable(&mut values);
    values
}

fn main() {
    let args = parse_args();
    parity::assert_release_profiles_match();
    let clock = Clock::new();
    parity::print_header(&clock);
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut checks = Checks::default();
    let values = if args.trace {
        traced(&args, &clock, &mut checks)
    } else {
        match metrics::kind_of(&args.workload).expect("a declared workload") {
            Kind::Steady(w) => steady_end_to_end(w, &args, &clock, &mut checks),
            Kind::Sweep => sweep_end_to_end(&args, &clock, &mut checks),
        }
    };

    let units = metrics::declared(args.trace);
    for (name, unit) in &units {
        if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
            println!("{name:<34} {v:>16.6} {unit}");
        }
    }
    println!(
        "operations attempted {} failed {}",
        checks.attempted, checks.failed
    );
    println!(
        "{}",
        metrics::result_json(args.trace, checks.attempted.max(1), checks.failed, &values)
    );
}
