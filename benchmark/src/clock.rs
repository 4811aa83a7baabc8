//! The benchmark's clock: on-CPU time of the measuring thread.
//!
//! Wall time on a shared VM includes every interval the guest was not
//! running, so host-time metrics use `CLOCK_THREAD_CPUTIME_ID`. The issue
//! proposed `/proc/thread-self/schedstat`, but its first field only
//! advances at scheduler ticks (4 ms on this kernel — measured), which is
//! 4 % of a 0.1 s slice; `clock_gettime` reads the same kernel counter
//! (`sum_exec_runtime`) brought up to the nanosecond. If the call fails the
//! clock falls back to wall time and says so in the output header.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` with the
    // x86-64/aarch64 Linux layout (two 64-bit fields); `clock_gettime`
    // only writes through the pointer for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Which source [`Clock`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    ThreadCpu,
    Wall,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::ThreadCpu => "thread-cputime",
            Source::Wall => "wall (thread CPU clock unavailable)",
        }
    }
}

/// Nanosecond clock of the measuring thread.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    source: Source,
    origin: Instant,
}

impl Clock {
    pub fn new() -> Self {
        let source = if thread_cpu_ns().is_some() {
            Source::ThreadCpu
        } else {
            Source::Wall
        };
        Clock {
            source,
            origin: Instant::now(),
        }
    }

    #[cfg(test)]
    pub fn wall() -> Self {
        Clock {
            source: Source::Wall,
            origin: Instant::now(),
        }
    }

    pub fn source(&self) -> Source {
        self.source
    }

    /// Nanoseconds on this clock; only differences are meaningful.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self.source {
            Source::ThreadCpu => thread_cpu_ns().expect("thread CPU clock vanished mid-run"),
            Source::Wall => self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Run `f`, returning its result and the nanoseconds it took.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = self.now_ns();
        let r = f();
        (r, self.now_ns() - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(clock: &Clock, ns: u64) -> u64 {
        let t0 = clock.now_ns();
        let mut x = 1u64;
        while clock.now_ns() - t0 < ns {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        x
    }

    #[test]
    fn thread_cpu_clock_advances_while_spinning_and_not_while_sleeping() {
        let clock = Clock::new();
        if clock.source() != Source::ThreadCpu {
            return; // nothing to compare against on this platform
        }
        let (_, busy) = clock.time(|| spin(&clock, 2_000_000));
        assert!(busy >= 2_000_000);
        let (_, asleep) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(
            asleep < 10_000_000,
            "sleeping is not on-CPU time: {asleep} ns"
        );
    }

    #[test]
    fn wall_fallback_is_monotonic_and_counts_sleep() {
        let clock = Clock::wall();
        assert_eq!(clock.source(), Source::Wall);
        let (_, asleep) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(asleep >= 5_000_000);
        let a = clock.now_ns();
        assert!(clock.now_ns() >= a);
    }
}
