//! The reference kernel that host-time metrics are calibrated against.
//!
//! This host's speed moves in phases that outlast a run: the same binary
//! and seed retired 452 and then 290 kpkt/s on `ip_scalar` an hour apart,
//! and in a rough hour the quartile spread of ten raw fast-decile rates was
//! 18–30 % on every workload. No estimator inside one run can escape a
//! phase that outlasts it, so every run interleaves short bursts of a
//! fixed, benchmark-owned kernel with its measurements — a dependent
//! random walk over a 16 MB table, bound by the same cores, uncore and
//! memory the simulator's metadata walks are bound by — and reports host
//! times in *reference seconds*: the on-CPU time scaled by
//! `NOMINAL_NS_PER_STEP ÷ the run's median ns per step`, i.e. as if the
//! kernel had run at its nominal speed.
//!
//! Several calibrations were tried on ~250 runs logged with their raw
//! times and every burst (a register-only loop as a second kernel; the
//! walk's fastest tenth instead of its median; a fitted per-workload blend
//! of both). The median walk needs no per-workload constant and was the
//! only one that never widened a workload's spread; it narrowed the
//! quartile spread of ten runs from 15 to 7 % (`ip_scalar`) and from 14 to
//! 7 % (`method_quick`) in a rough half hour, and from 3–8 % to 2–7 % in a
//! quiet one. `REPEATABILITY.md` has the raw spread beside the calibrated
//! one. The kernel shares no code or data with the repo, and every run
//! prints its raw time and the kernel's speed, so the calibration can
//! always be undone.

use crate::clock::Clock;
use crate::stats::{median, Sample};

/// Table entries (`u32` each): 16 MB, more than this guest keeps in the
/// host's last-level cache while a workload runs.
const TABLE_ENTRIES: usize = 4 << 20;
/// Dependent loads per burst (≈ 1.5 ms).
const STEPS_PER_BURST: u64 = 12_000;
/// The kernel's median speed beside a steady-state workload when this host
/// is quiet; fixing it keeps calibrated values readable as this host's own
/// numbers. (Bursts around a sweep find more of the table still cached and
/// run ≈ 25 % faster, so a sweep's reference seconds read that much longer
/// than its on-CPU seconds — by the same factor on every commit.)
pub const NOMINAL_NS_PER_STEP: f64 = 150.0;

pub struct Calibrator {
    next: Vec<u32>,
    at: u32,
    bursts: Vec<Sample>,
}

impl Calibrator {
    /// Build the table: one cycle through every entry (Sattolo's shuffle of
    /// a fixed xorshift stream — the kernel never sees `--seed`).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..TABLE_ENTRIES as u32).collect();
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..TABLE_ENTRIES).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            next.swap(i, (s % i as u64) as usize);
        }
        Calibrator {
            next,
            at: 0,
            bursts: Vec::new(),
        }
    }

    /// Run one burst and record its time.
    pub fn burst(&mut self, clock: &Clock) {
        let mut at = self.at;
        let ((), ns) = clock.time(|| {
            for _ in 0..STEPS_PER_BURST {
                at = self.next[at as usize];
            }
        });
        self.at = std::hint::black_box(at);
        self.bursts.push(Sample {
            work: STEPS_PER_BURST,
            ns,
        });
    }

    pub fn bursts(&mut self, clock: &Clock, n: usize) {
        for _ in 0..n {
            self.burst(clock);
        }
    }

    /// Median nanoseconds per step over every burst so far.
    pub fn ns_per_step(&self) -> f64 {
        let per_step: Vec<f64> = self
            .bursts
            .iter()
            .map(|b| b.ns as f64 / b.work as f64)
            .collect();
        median(&per_step)
    }

    /// Reference seconds per on-CPU second: multiply a measured time by
    /// this (divide a rate by it) to calibrate it.
    pub fn time_scale(&self) -> f64 {
        time_scale(self.ns_per_step())
    }
}

pub fn time_scale(ns_per_step: f64) -> f64 {
    NOMINAL_NS_PER_STEP / ns_per_step
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_shrinks_times_and_a_fast_one_stretches_them() {
        assert_eq!(time_scale(NOMINAL_NS_PER_STEP), 1.0);
        assert_eq!(time_scale(2.0 * NOMINAL_NS_PER_STEP), 0.5);
        assert_eq!(time_scale(0.5 * NOMINAL_NS_PER_STEP), 2.0);
    }

    #[test]
    fn the_walk_visits_every_entry_once_per_cycle() {
        let c = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_ENTRIES);
    }

    #[test]
    fn the_scale_comes_from_the_median_burst() {
        let mut c = Calibrator::new();
        for ns in [300, 100, 200] {
            c.bursts.push(Sample { work: 2, ns });
        }
        assert_eq!(c.ns_per_step(), 100.0);
        assert_eq!(c.time_scale(), 1.5);
        c.bursts(&Clock::new(), 2);
        assert_eq!(c.bursts.len(), 5);
    }
}
