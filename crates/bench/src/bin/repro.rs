//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <subcommand> [--quick] [--packets N] [--jobs N] [--levels N] [--out DIR] [--seed N]
//! ```
//!
//! The subcommands are the rows of [`SWEEPS`] plus `all` (every row, in
//! order); `repro` with no arguments lists them.
//!
//! `--quick` runs test-scale structures with short windows (for smoke
//! runs); default is paper scale. `--packets N` sizes the measurement
//! window so a batch-1 flow covers roughly N packets — one knob for
//! simulation size shared by every sweep (it overrides the base window
//! regardless of flag order; 1 ≤ N ≤ 10⁸). `--levels N` (≥ 1) is the SYN
//! ramp length behind every sensitivity curve. `--jobs N` shards each
//! sweep's independent scenario points across N host threads (default:
//! available cores; `--jobs 1` is the exact serial path). Results are
//! bit-for-bit identical at any job count — each point builds its own
//! engine from its own derived seed and results merge in canonical order. `--seed N`
//! replaces the master seed every derived seed (workload structure,
//! fault-plan jitter, supervisor probe jitter) mixes from — replay a
//! failing chaos/fleet-chaos/cluster-chaos timeline by passing the seed
//! the report named. Results land in `results/*.csv`.

use pp_bench::experiments;
use pp_bench::experiments::chaos::Chaos;
use pp_bench::experiments::cluster_chaos::ClusterChaos;
use pp_bench::experiments::fleet_chaos::FleetChaos;
use pp_bench::experiments::sweep::run;
use pp_bench::RunCtx;
use std::time::Instant;

/// A sweep: subcommand, one-line description, runner.
type Sweep = (&'static str, &'static str, fn(&RunCtx));

/// One [`SWEEPS`] row, given the experiment module whose `run` it calls
/// or the chaos-family sweep [`run`] runs (the report `run` returns, where
/// it returns one, is for library callers).
macro_rules! sweep {
    ($name:literal, $what:literal, $module:ident) => {
        ($name, $what, |ctx| {
            experiments::$module::run(ctx);
        })
    };
    ($name:literal, $what:literal, <$sweep:ty>) => {
        ($name, $what, |ctx| {
            run::<$sweep>(ctx);
        })
    };
}

/// Every sweep. Drives the dispatch, `all` (which runs the rows in this
/// order) and the usage text.
const SWEEPS: [Sweep; 22] = [
    sweep!("table1", "Table 1  — solo-run characteristics", table1),
    sweep!("fig2", "Fig. 2   — 25-pair contention matrix + averages", fig2),
    sweep!("fig4", "Fig. 4   — cache vs memctrl contention (SYN ramps)", fig4),
    sweep!("fig5", "Fig. 5   — SYN curves vs realistic competitors", fig5),
    sweep!("fig6", "Fig. 6   — Eq. 1 worst-case bound", fig6),
    sweep!("fig7", "Fig. 7   — hit→miss conversion, measured vs model", fig7),
    sweep!("fig8", "Fig. 8   — prediction errors (25 pairs)", fig8),
    sweep!("fig9", "Fig. 9   — prediction for the mixed workload", fig9),
    sweep!("fig10", "Fig. 10  — best/worst placement study", fig10),
    sweep!("pipeline", "§2.2     — pipeline vs parallel", pipeline),
    sweep!("pipeline-batch", "extras   — burst-mode cross-core handoff sweep", pipeline_batch),
    sweep!("throttle", "§4       — containing hidden aggressiveness", throttle),
    sweep!("ablate", "extras   — DCA / associativity / lookup-structure / prefetch", ablations),
    sweep!("extended", "extras   — prediction generality on DPI / NAT / CLASS", extended),
    sweep!("mixes", "extras   — error distribution over random 6-flow mixes", mixes),
    sweep!("cat", "extras   — L3 way-partitioning (isolation vs prediction)", partition),
    sweep!("batch", "extras   — vectorized-execution batch-size sweep", batch),
    sweep!("adaptive", "extras   — latency-budgeted batch choice, predictor at batch 64", adaptive),
    sweep!("tables", "extras   — internet-scale lookup structures, DRAM-resident", tables),
    sweep!("chaos", "extras   — fault injection vs the runtime guard's ladder", <Chaos>),
    sweep!("fleet-chaos", "extras   — the tenant supervisor under sustained faults", <FleetChaos>),
    sweep!("cluster-chaos", "extras   — the fleet controller over N machines", <ClusterChaos>),
];

/// The largest `--packets`: a 35.7-s simulated window, about 1 200× the
/// paper's 30 ms. Far beyond it a sweep never finishes.
const MAX_PACKETS: u64 = 100_000_000;

fn usage() -> ! {
    eprintln!(
        "usage: repro <subcommand> [--quick] [--packets N] [--jobs N] [--levels N] [--out DIR] \
         [--seed N]\n\nsubcommands:"
    );
    for (name, what, _) in SWEEPS {
        eprintln!("  {name:<14} {what}");
    }
    eprintln!("  {:<14} everything above, in order", "all");
    std::process::exit(2);
}

/// Every sweep in order; the two that profile a predictor hand it to the
/// sweep that would otherwise re-profile the same types.
fn run_all(ctx: &RunCtx) {
    let (mut fig8, mut extended) = (None, None);
    for (name, _, run) in SWEEPS {
        match name {
            "fig8" => fig8 = Some(experiments::fig8::run(ctx)),
            "fig9" => {
                experiments::fig9::run_with(ctx, fig8.as_ref().map(|o| &o.predictor));
            }
            "extended" => extended = Some(experiments::extended::run(ctx)),
            "mixes" => {
                experiments::mixes::run_with(ctx, extended.as_ref().map(|o| &o.predictor));
            }
            _ => run(ctx),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].clone();
    // Parse everything first, then apply in a fixed precedence (--quick
    // selects the base context, --packets then resizes its window), so
    // flag order on the command line never silently discards a flag.
    let mut quick = false;
    let mut packets: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut levels: Option<u8> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                i += 1;
                jobs =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--packets" => {
                i += 1;
                // 0 would silently run every window at its 0.1-ms floor.
                let n = args.get(i).and_then(|s| s.parse().ok());
                let n = n.filter(|n: &u64| (1..=MAX_PACKETS).contains(n));
                packets = Some(n.unwrap_or_else(|| usage()));
            }
            "--levels" => {
                i += 1;
                // A zero-level ramp is the lone (0, 0) anchor: every predicted
                // drop would read 0 %.
                let n = args.get(i).and_then(|s| s.parse().ok()).filter(|&n: &u8| n >= 1);
                levels = Some(n.unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                seed =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }
    let mut ctx = if quick { RunCtx::quick() } else { RunCtx::paper() };
    if let Some(n) = packets {
        ctx.params = ctx.params.with_packets(n);
    }
    if let Some(j) = jobs {
        ctx.jobs = j.max(1);
    }
    if let Some(l) = levels {
        ctx.levels = l;
    }
    if let Some(o) = out_dir {
        ctx.out_dir = o;
    }
    if let Some(s) = seed {
        ctx.params.seed = s;
    }

    println!(
        "repro: {} (scale: {:?}, warmup {} ms, window {} ms, {} jobs, {} ramp levels)",
        cmd, ctx.params.scale, ctx.params.warmup_ms, ctx.params.window_ms, ctx.jobs, ctx.levels
    );
    let t0 = Instant::now();
    match SWEEPS.iter().find(|(name, ..)| *name == cmd) {
        Some((_, _, run)) => run(&ctx),
        None if cmd == "all" => run_all(&ctx),
        None => usage(),
    }
    println!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::SWEEPS;

    /// `run_all` matches these four rows by name: a renamed row fails here
    /// instead of silently re-profiling, and each profiler precedes the
    /// sweep it hands its predictor to.
    #[test]
    fn hand_off_rows_follow_their_profilers() {
        let at = |name| SWEEPS.iter().position(|(n, ..)| *n == name).expect(name);
        assert!(at("fig8") < at("fig9"));
        assert!(at("extended") < at("mixes"));
    }
}
