//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <subcommand> [--quick] [--jobs N] [--levels N] [--out DIR] [--seed N]
//!
//! subcommands:
//!   table1     Table 1  — solo-run characteristics
//!   fig2       Fig. 2   — 25-pair contention matrix + averages
//!   fig4       Fig. 4   — cache vs memctrl contention (SYN ramps)
//!   fig5       Fig. 5   — SYN curves vs realistic competitors
//!   fig6       Fig. 6   — Eq. 1 worst-case bound
//!   fig7       Fig. 7   — hit→miss conversion, measured vs model
//!   fig8       Fig. 8   — prediction errors (25 pairs)
//!   fig9       Fig. 9   — prediction for the mixed workload
//!   fig10      Fig. 10  — best/worst placement study
//!   pipeline   §2.2     — pipeline vs parallel
//!   pipeline-batch extras — burst-mode cross-core handoff sweep (throughput + latency)
//!   throttle   §4       — containing hidden aggressiveness
//!   ablate     extras   — DCA / associativity / lookup-structure / prefetch ablations
//!   extended   extras   — prediction generality on DPI / NAT / CLASS
//!   cat        extras   — L3 way-partitioning (isolation vs prediction)
//!   mixes      extras   — error distribution over random 6-flow mixes
//!   batch      extras   — vectorized-execution batch-size sweep
//!   adaptive   extras   — adaptive batch control: latency-budgeted batch
//!                         choice (model-driven, measurement-verified) +
//!                         predictor re-validation at batch 64
//!   tables     extras   — internet-scale lookup structures (binary radix
//!                         vs multibit vs DIR-24-8) in the DRAM-resident
//!                         regime: F/b + p re-fit, sensitivity curves,
//!                         held-out predictor check (TABLES_results.json)
//!   chaos      extras   — fault injection + graceful degradation: seeded
//!                         disturbance timelines vs the runtime guard's
//!                         ladder (CHAOS_results.json)
//!   fleet-chaos extras  — the tenant supervisor under sustained faults:
//!                         circuit-breaker admission, core failover,
//!                         drift re-calibration (FLEET_CHAOS_results.json)
//!   cluster-chaos extras — the fleet controller over N machines: crash
//!                         detection + re-placement, telemetry blackout,
//!                         SLA-priority shedding (CLUSTER_CHAOS_results.json)
//!   all        everything above, in order
//! ```
//!
//! `--quick` runs test-scale structures with short windows (for smoke
//! runs); default is paper scale. `--packets N` sizes the measurement
//! window so a batch-1 flow covers roughly N packets — one knob for
//! simulation size shared by every sweep (it overrides the base window
//! regardless of flag order). `--jobs N` shards each sweep's independent
//! scenario points across N host threads (default: available cores;
//! `--jobs 1` is the exact serial path). Results are bit-for-bit identical
//! at any job count — each point builds its own engine from its own
//! derived seed and results merge in canonical order. `--seed N`
//! replaces the master seed every derived seed (workload structure,
//! fault-plan jitter, supervisor probe jitter) mixes from — replay a
//! failing chaos/fleet-chaos/cluster-chaos timeline by passing the seed
//! the report named. Results land in `results/*.csv`.

use pp_bench::experiments;
use pp_bench::RunCtx;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|pipeline|pipeline-batch|throttle|ablate|extended|cat|mixes|batch|adaptive|tables|chaos|fleet-chaos|cluster-chaos|all> \
         [--quick] [--packets N] [--jobs N] [--levels N] [--out DIR] [--seed N]"
    );
    std::process::exit(2);
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
                packets =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--levels" => {
                i += 1;
                levels =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
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
    match cmd.as_str() {
        "table1" => {
            experiments::table1::run(&ctx);
        }
        "fig2" => {
            experiments::fig2::run(&ctx);
        }
        "fig4" => {
            experiments::fig4::run(&ctx);
        }
        "fig5" => {
            experiments::fig5::run(&ctx);
        }
        "fig6" => {
            experiments::fig6::run(&ctx);
        }
        "fig7" => {
            experiments::fig7::run(&ctx);
        }
        "fig8" => {
            experiments::fig8::run(&ctx);
        }
        "fig9" => {
            experiments::fig9::run(&ctx);
        }
        "fig10" => {
            experiments::fig10::run(&ctx);
        }
        "pipeline" => {
            experiments::pipeline::run(&ctx);
        }
        "pipeline-batch" => {
            experiments::pipeline_batch::run(&ctx);
        }
        "throttle" => {
            experiments::throttle::run(&ctx);
        }
        "ablate" => {
            experiments::ablations::run(&ctx);
        }
        "extended" => {
            experiments::extended::run(&ctx);
        }
        "cat" => {
            experiments::partition::run(&ctx);
        }
        "mixes" => {
            experiments::mixes::run(&ctx);
        }
        "batch" => {
            experiments::batch::run(&ctx);
        }
        "adaptive" => {
            experiments::adaptive::run(&ctx);
        }
        "tables" => {
            experiments::tables::run(&ctx);
        }
        "chaos" => {
            experiments::chaos::run(&ctx);
        }
        "fleet-chaos" => {
            experiments::fleet_chaos::run(&ctx);
        }
        "cluster-chaos" => {
            experiments::cluster_chaos::run(&ctx);
        }
        "all" => {
            experiments::table1::run(&ctx);
            experiments::fig2::run(&ctx);
            experiments::fig4::run(&ctx);
            experiments::fig5::run(&ctx);
            experiments::fig6::run(&ctx);
            experiments::fig7::run(&ctx);
            let f8 = experiments::fig8::run(&ctx);
            experiments::fig9::run_with(&ctx, Some(&f8.predictor));
            experiments::fig10::run(&ctx);
            experiments::pipeline::run(&ctx);
            experiments::pipeline_batch::run(&ctx);
            experiments::throttle::run(&ctx);
            experiments::ablations::run(&ctx);
            let ext = experiments::extended::run(&ctx);
            experiments::mixes::run_with(&ctx, Some(&ext.predictor));
            experiments::partition::run(&ctx);
            experiments::batch::run(&ctx);
            experiments::adaptive::run(&ctx);
            experiments::tables::run(&ctx);
            experiments::chaos::run(&ctx);
            experiments::fleet_chaos::run(&ctx);
            experiments::cluster_chaos::run(&ctx);
        }
        _ => usage(),
    }
    println!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
}
