//! Memory-controller model: a single-server queue whose waiting time is
//! derived from the measured arrival rate (an M/D/1-style model over a
//! sliding window).
//!
//! Each socket has one integrated controller; every cache-line transfer to
//! or from its DRAM occupies it for a fixed service time. Demand reads pay
//! a queueing delay that grows with the controller's utilization —
//! reproducing the second-order contention the paper isolates in Fig. 4(b).
//!
//! ## Why utilization-based rather than busy-until
//!
//! The engine schedules cores at packet granularity, so request timestamps
//! from different cores are skewed by up to one turn (tens of kilocycles
//! for compute-heavy workloads). An absolute busy-until queue converts that
//! skew into phantom waiting time: a request stamped "in the past" appears
//! to queue behind another core's *future* work, coupling cores that never
//! actually contend. Estimating utilization over bucketed windows (much
//! longer than any turn) is insensitive to bounded reordering while
//! preserving the real effect — average queueing delay rising with load.

use crate::types::Cycles;

/// Bucket width (log2 cycles) for the arrival-rate estimate. 2^16 cycles
/// ≈ 23 µs at 2.8 GHz — far longer than any single turn, far shorter than
/// a measurement window.
const BUCKET_SHIFT: u32 = 16;

/// Windowed single-server queue model shared by the memory controllers and
/// the QPI channels.
#[derive(Debug, Clone)]
pub struct QueueModel {
    service_time: Cycles,
    /// Utilization is clamped here so the delay formula stays finite under
    /// overload (the queue is really bounded by MSHRs/credits in hardware).
    max_utilization: f64,
    cur_bucket: u64,
    prev_count: u64,
    cur_count: u64,
}

impl QueueModel {
    /// A queue with the given per-item service time.
    pub fn new(service_time: Cycles, max_utilization: f64) -> Self {
        QueueModel {
            service_time,
            max_utilization,
            cur_bucket: 0,
            prev_count: 0,
            cur_count: 0,
        }
    }

    /// Advance bucket state to the bucket containing `now`. Late-stamped
    /// arrivals (from lagging cores) simply count into the current bucket.
    fn advance(&mut self, now: Cycles) {
        let b = now >> BUCKET_SHIFT;
        if b > self.cur_bucket {
            self.prev_count = if b == self.cur_bucket + 1 { self.cur_count } else { 0 };
            self.cur_count = 0;
            self.cur_bucket = b;
        }
    }

    /// Utilization estimate at time `now`: accumulated service demand over
    /// the observation window (the finished previous bucket, when there is
    /// one, plus the elapsed part of the current bucket). The short floor
    /// keeps a cold-start burst from hiding behind an empty history.
    fn rho(&self, now: Cycles) -> f64 {
        let bucket_start = self.cur_bucket << BUCKET_SHIFT;
        let elapsed = now.saturating_sub(bucket_start).min(1 << BUCKET_SHIFT);
        let window = if self.prev_count > 0 {
            (1u64 << BUCKET_SHIFT) + elapsed
        } else {
            elapsed.max(256)
        };
        let busy = (self.prev_count + self.cur_count) as f64 * self.service_time as f64;
        (busy / window as f64).min(self.max_utilization)
    }

    /// Estimated utilization over the last finished bucket (diagnostics);
    /// falls back to the current bucket before any bucket completes.
    pub fn utilization(&self) -> f64 {
        let (count, window) = if self.prev_count > 0 {
            (self.prev_count, 1u64 << BUCKET_SHIFT)
        } else {
            (self.cur_count, 1u64 << BUCKET_SHIFT)
        };
        let busy = count as f64 * self.service_time as f64;
        (busy / window as f64).min(self.max_utilization)
    }

    /// Record an arrival at `now` and return the modeled queueing delay
    /// (M/D/1 mean wait: `service * rho / (2 * (1 - rho))`).
    ///
    /// **Arrival-order invariant (PR 5):** the delay depends on how many
    /// arrivals the rate window has already counted, so two traces are
    /// only bit-identical if they submit arrivals in the same order —
    /// demand reads *and* the posted writes interleaved between them.
    /// This is why `read_batch` charges its addresses in exact serial
    /// order (`Machine::charge_read_batch`), and why equivalence tests
    /// compare `total_queue_delay` directly: it is the most
    /// order-sensitive observable in the model.
    #[inline]
    pub fn arrival(&mut self, now: Cycles) -> Cycles {
        self.advance(now);
        self.cur_count += 1;
        let rho = self.rho(now);
        let wait = self.service_time as f64 * rho / (2.0 * (1.0 - rho));
        wait.round() as Cycles
    }

    /// Per-item service time.
    pub fn service_time(&self) -> Cycles {
        self.service_time
    }
}

/// Statistics for one memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCtrlStats {
    /// Line transfers serviced (reads + write-backs).
    pub transfers: u64,
    /// Of which were demand reads (core-visible latency).
    pub reads: u64,
    /// Of which were write-backs / DMA (bandwidth only).
    pub writes: u64,
    /// Of which were hardware-prefetch fills (bandwidth only).
    pub prefetches: u64,
    /// Total queueing delay imposed on demand reads.
    pub total_queue_delay: Cycles,
    /// Total service time accumulated (utilization = busy / window).
    pub busy_cycles: Cycles,
}

/// One socket's memory controller.
#[derive(Debug, Clone)]
pub struct MemCtrl {
    queue: QueueModel,
    stats: MemCtrlStats,
}

impl MemCtrl {
    /// A controller that spends `service_time` cycles per line transfer.
    pub fn new(service_time: Cycles) -> Self {
        MemCtrl { queue: QueueModel::new(service_time, 0.90), stats: MemCtrlStats::default() }
    }

    /// Submit a demand read arriving at `now`. Returns the queueing delay;
    /// the caller adds the DRAM access latency on top.
    pub fn demand_read(&mut self, now: Cycles) -> Cycles {
        let delay = self.queue.arrival(now);
        self.stats.transfers += 1;
        self.stats.reads += 1;
        self.stats.total_queue_delay += delay;
        self.stats.busy_cycles += self.queue.service_time();
        delay
    }

    /// Submit a write-back or DMA transfer arriving at `now`. Consumes
    /// bandwidth (raises utilization) but nobody waits on it.
    pub fn posted_write(&mut self, now: Cycles) {
        let _ = self.queue.arrival(now);
        self.stats.transfers += 1;
        self.stats.writes += 1;
        self.stats.busy_cycles += self.queue.service_time();
    }

    /// Submit a hardware-prefetch fill arriving at `now`: bandwidth-only,
    /// like a posted write, but accounted separately.
    pub fn posted_prefetch(&mut self, now: Cycles) {
        let _ = self.queue.arrival(now);
        self.stats.transfers += 1;
        self.stats.prefetches += 1;
        self.stats.busy_cycles += self.queue.service_time();
    }

    /// Current utilization estimate (0..=max).
    pub fn utilization(&self) -> f64 {
        self.queue.utilization()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemCtrlStats {
        self.stats
    }

    /// Zero the statistics (rate-estimator state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = MemCtrlStats::default();
    }

    /// Service time per line (cycles).
    pub fn service_time(&self) -> Cycles {
        self.queue.service_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_is_observable() {
        // The invariant the serial-order charging walk exists to
        // preserve: interleaving the same arrivals differently yields
        // different per-arrival delays (even though the multiset of
        // arrivals is identical).
        let run = |writes_first: bool| {
            let mut m = MemCtrl::new(10);
            // A burst of posted writes and one demand read, same stamps;
            // only the submission order differs.
            if writes_first {
                for _ in 0..200 {
                    m.posted_write(0);
                }
                m.demand_read(0);
            } else {
                m.demand_read(0);
                for _ in 0..200 {
                    m.posted_write(0);
                }
            }
            m.stats().total_queue_delay
        };
        let after = run(true);
        let before = run(false);
        assert!(
            after > before,
            "a read behind the burst must queue more ({after} vs {before})"
        );
    }

    #[test]
    fn idle_controller_adds_no_delay() {
        let mut m = MemCtrl::new(10);
        assert_eq!(m.demand_read(100), 0);
        // A trickle of spaced requests stays essentially delay-free.
        for i in 0..50 {
            let d = m.demand_read(100 + i * 10_000);
            assert!(d <= 1, "spaced request delayed by {d}");
        }
    }

    #[test]
    fn saturating_load_builds_delay() {
        let mut m = MemCtrl::new(10);
        // Offered load ~= 1 request / 10 cycles = utilization 1.0 (clamped).
        let mut last = 0;
        for i in 0..20_000u64 {
            last = m.demand_read(i * 10);
        }
        assert!(last >= 35, "saturated controller should impose real delay, got {last}");
        assert!(m.utilization() > 0.85);
    }

    #[test]
    fn delay_grows_with_load() {
        let measure = |gap: u64| {
            let mut m = MemCtrl::new(10);
            let mut total = 0;
            for i in 0..10_000u64 {
                total += m.demand_read(i * gap);
            }
            total
        };
        let light = measure(100); // rho = 0.1
        let heavy = measure(13); // rho ~ 0.77
        assert!(
            heavy > light * 3,
            "heavier load must queue more: light={light} heavy={heavy}"
        );
    }

    #[test]
    fn out_of_order_arrivals_do_not_explode() {
        // The regression this model exists to prevent: a lagging core's
        // request must not pay a skew-sized delay.
        let mut m = MemCtrl::new(10);
        // A leading core issues some requests far in the future.
        for i in 0..10 {
            m.demand_read(1_000_000 + i * 200);
        }
        // A lagging core stamped 30k cycles in the past: the delay must be
        // a queueing-scale number, not ~30k.
        let d = m.demand_read(970_000);
        assert!(d < 100, "lagging request delayed by {d} cycles");
    }

    #[test]
    fn posted_writes_consume_bandwidth() {
        let mut m = MemCtrl::new(10);
        for i in 0..10_000u64 {
            m.posted_write(i * 20);
        }
        // Writes raised utilization, so a read now waits.
        let d = m.demand_read(200_000);
        assert!(d >= 2, "writes must contribute to queueing, got {d}");
        assert_eq!(m.stats().writes, 10_000);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn utilization_decays_when_idle() {
        let mut m = MemCtrl::new(10);
        for i in 0..10_000u64 {
            m.demand_read(i * 10);
        }
        assert!(m.utilization() > 0.85);
        // Two empty buckets later, history is gone.
        let far = 10_000 * 10 + (3u64 << 16);
        assert_eq!(m.demand_read(far), 0);
        assert!(m.utilization() < 0.1);
    }

    #[test]
    fn stats_track_delay_and_busy() {
        let mut m = MemCtrl::new(8);
        for i in 0..1000u64 {
            m.demand_read(i * 8);
        }
        let s = m.stats();
        assert_eq!(s.reads, 1000);
        assert_eq!(s.busy_cycles, 8000);
        assert!(s.total_queue_delay > 0);
    }
}
