//! Streaming per-tenant telemetry: explicitly timestamped EWMA trackers
//! with gap-aware merging and staleness-decayed confidence.
//!
//! The single-machine control planes (`guard`, `supervisor`) observe via
//! synchronous `measure()` calls: the observation *is* the window, fresh
//! by construction. A fleet controller reads the same facts through a
//! lossy, laggy channel, which splits "what do we believe" into three
//! questions this module answers separately:
//!
//! * **What is the estimate?** An exponentially weighted moving average
//!   per signal ([`EwmaTracker`]), updated only when a report actually
//!   arrives. A report after a gap of `g` windows is blended with an
//!   effective weight `1 − (1−α)^g` — as if the tracker had seen `g`
//!   copies of the new sample — so a tenant that went dark and came back
//!   re-converges at the same rate as one that reported all along.
//! * **How old is it?** Every tracker carries the window index of its
//!   last accepted sample; [`EwmaTracker::staleness`] is the age in
//!   windows. Crucially, **a gap never drags the estimate toward zero**:
//!   silence means *unknown*, not *idle* — a controller that read a
//!   telemetry blackout as rate=0 would evict its busiest tenants first.
//! * **How much do we trust it?** [`TenantTelemetry::confidence`] is 1.0
//!   while the bundle is fresh and decays multiplicatively per window
//!   beyond the freshness horizon. The fleet controller gates *actions*
//!   (shedding, placement scoring weight) on confidence; the estimate
//!   itself stays last-known-good.
//!
//! Late reports (a delayed channel delivering an old window after a newer
//! one) still blend — old evidence is evidence — but with the minimum
//! single-sample weight, and they never advance the freshness timestamp.

/// One window's worth of measured facts about one tenant, stamped with
/// the window index it describes. The cluster driver builds these from
/// per-core counters and sends them through the telemetry channel; the
/// fleet controller ingests whatever survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryReport {
    /// The measurement window this report describes (cluster-shared axis).
    pub window: u32,
    /// Delivered throughput over the window, packets/sec.
    pub pps: f64,
    /// 99th-percentile per-packet latency over the window, microseconds.
    pub p99_us: f64,
    /// Unchosen loss fraction over the window (shed/drained excluded,
    /// same convention as the guard's loss signal).
    pub loss_frac: f64,
}

/// An exponentially weighted moving average with an explicit timestamp
/// and gap-aware updates. See the module docs for the three rules it
/// implements (blend on arrival, hold through silence, boost after gaps).
#[derive(Debug, Clone)]
pub struct EwmaTracker {
    alpha: f64,
    value: f64,
    last_window: Option<u32>,
}

/// Exponent cap for the gap boost: `(1−α)^64` is ≈0 for any useful α, so
/// larger gaps simply snap to the new sample without risking `powi`
/// edge cases on huge gaps.
const GAP_CAP: u32 = 64;

impl EwmaTracker {
    /// A tracker with smoothing factor `alpha` ∈ (0, 1]: the weight of a
    /// single fresh sample. Higher α follows steps faster; lower α
    /// averages harder.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaTracker { alpha, value: 0.0, last_window: None }
    }

    /// Accept a sample measured at window `window`.
    ///
    /// The first sample initializes the estimate outright. Subsequent
    /// samples blend with weight `1 − (1−α)^g` where `g` is the gap in
    /// windows since the last accepted sample (`g = 1` for back-to-back
    /// reports ⇒ plain α). A late sample (window at or before the last
    /// accepted one) blends with plain α and does not move the
    /// freshness timestamp.
    pub fn update(&mut self, window: u32, sample: f64) {
        match self.last_window {
            None => {
                self.value = sample;
                self.last_window = Some(window);
            }
            Some(last) => {
                let gap = window.saturating_sub(last).clamp(1, GAP_CAP);
                let a_eff = 1.0 - (1.0 - self.alpha).powi(gap as i32);
                self.value += a_eff * (sample - self.value);
                self.last_window = Some(last.max(window));
            }
        }
    }

    /// The current estimate, or `None` before the first sample. Silence
    /// holds the last-known-good value — there is no decay toward zero.
    pub fn value(&self) -> Option<f64> {
        self.last_window.map(|_| self.value)
    }

    /// Window index of the freshest accepted sample.
    pub fn last_window(&self) -> Option<u32> {
        self.last_window
    }

    /// Age of the estimate at window `now`, in windows (0 = a sample
    /// from `now` itself). `None` before the first sample.
    pub fn staleness(&self, now: u32) -> Option<u32> {
        self.last_window.map(|last| now.saturating_sub(last))
    }
}

/// The per-tenant telemetry bundle the fleet controller keeps: one
/// tracker per signal, updated together from each surviving report.
#[derive(Debug, Clone)]
pub struct TenantTelemetry {
    /// Delivered-throughput estimate (packets/sec).
    pub rate: EwmaTracker,
    /// p99 latency estimate (microseconds).
    pub p99: EwmaTracker,
    /// Unchosen-loss-fraction estimate.
    pub loss: EwmaTracker,
}

impl Default for TenantTelemetry {
    /// A bundle with [`ALPHA`](Self::ALPHA) smoothing on every signal.
    fn default() -> Self {
        TenantTelemetry {
            rate: EwmaTracker::new(Self::ALPHA),
            p99: EwmaTracker::new(Self::ALPHA),
            loss: EwmaTracker::new(Self::ALPHA),
        }
    }
}

impl TenantTelemetry {
    /// EWMA smoothing factor of every tracker.
    pub const ALPHA: f64 = 0.3;
    /// Freshness horizon: a bundle at most this many windows old has
    /// confidence 1.0. Must be ≥ 1, because a report describes the window
    /// before the tick that reads it; 2 also tolerates one lost report.
    pub const FRESH_FOR: u32 = 2;
    /// Per-window multiplicative confidence decay past the horizon.
    pub const DECAY: f64 = 0.8;

    /// Ingest one report into all three trackers.
    pub fn ingest(&mut self, r: &TelemetryReport) {
        self.rate.update(r.window, r.pps);
        self.p99.update(r.window, r.p99_us);
        self.loss.update(r.window, r.loss_frac);
    }

    /// Window of the freshest accepted report.
    pub fn last_window(&self) -> Option<u32> {
        self.rate.last_window()
    }

    /// Age of the bundle at window `now`.
    pub fn staleness(&self, now: u32) -> Option<u32> {
        self.rate.staleness(now)
    }

    /// How much to trust the bundle at window `now`: 1.0 while the
    /// freshest report is at most [`FRESH_FOR`](Self::FRESH_FOR) windows
    /// old, then decaying by [`DECAY`](Self::DECAY) per additional window
    /// of silence; 0.0 before any report. Monotone non-increasing in `now`
    /// between reports.
    pub fn confidence(&self, now: u32) -> f64 {
        match self.staleness(now) {
            None => 0.0,
            Some(age) if age <= Self::FRESH_FOR => 1.0,
            Some(age) => Self::DECAY.powi((age - Self::FRESH_FOR).min(1_000) as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_response_converges_within_the_geometric_bound() {
        // After k samples of v1, the residual |value − v1| is exactly
        // (1−α)^k · |v0 − v1|; assert the bound and monotone approach.
        let alpha = 0.3;
        let mut t = EwmaTracker::new(alpha);
        t.update(0, 0.0);
        let (v0, v1): (f64, f64) = (0.0, 100.0);
        let mut prev_residual = (v0 - v1).abs();
        for k in 1..=20u32 {
            t.update(k, v1);
            let residual = (t.value().unwrap() - v1).abs();
            let bound = (1.0 - alpha).powi(k as i32) * (v0 - v1).abs();
            assert!(
                residual <= bound + 1e-9,
                "after {k} samples residual {residual} exceeds bound {bound}"
            );
            assert!(residual <= prev_residual + 1e-12, "approach must be monotone");
            prev_residual = residual;
        }
        // And it actually converges: within 1% of the step after 20 samples.
        assert!((t.value().unwrap() - v1).abs() < 0.01 * v1);
    }

    #[test]
    fn staleness_decay_is_monotone_and_fresh_is_full_trust() {
        let mut b = TenantTelemetry::default();
        assert_eq!(b.confidence(5), 0.0, "no report yet: zero trust");
        b.ingest(&TelemetryReport { window: 10, pps: 1e6, p99_us: 40.0, loss_frac: 0.0 });
        assert_eq!(b.confidence(10), 1.0);
        assert_eq!(b.confidence(12), 1.0, "within the freshness horizon");
        let mut prev = 1.0;
        for now in 13..40 {
            let c = b.confidence(now);
            assert!(c < prev, "confidence must strictly decay past the horizon");
            assert!(c > 0.0);
            prev = c;
        }
        // A fresh report restores full trust.
        b.ingest(&TelemetryReport { window: 40, pps: 1e6, p99_us: 40.0, loss_frac: 0.0 });
        assert_eq!(b.confidence(40), 1.0);
    }

    #[test]
    fn gap_holds_last_known_good_and_never_reads_as_zero() {
        let mut t = EwmaTracker::new(0.3);
        for w in 0..5 {
            t.update(w, 100.0);
        }
        // Telemetry loss: no updates for 15 windows. The estimate must
        // hold at last-known-good, not decay toward 0 — only staleness
        // records the silence.
        assert_eq!(t.value(), Some(100.0));
        assert_eq!(t.staleness(19), Some(15));
        assert_eq!(t.value(), Some(100.0), "silence is unknown, not idle");
    }

    #[test]
    fn merge_after_gap_boosts_toward_the_fresh_sample() {
        // Two trackers at 100; one sees a step to 40 with no gap, the
        // other sees the same step after a 10-window gap. The gapped
        // tracker must land *closer* to 40 (a_eff = 1−0.7^10 > α) — the
        // dark windows weaken the old estimate's claim.
        let mut contiguous = EwmaTracker::new(0.3);
        let mut gapped = EwmaTracker::new(0.3);
        for w in 0..5 {
            contiguous.update(w, 100.0);
            gapped.update(w, 100.0);
        }
        contiguous.update(5, 40.0);
        gapped.update(14, 40.0);
        let c = contiguous.value().unwrap();
        let g = gapped.value().unwrap();
        assert!(g < c, "gap-boosted blend {g} should sit below plain blend {c}");
        assert!(g > 40.0 && c < 100.0);
        // a_eff = 1 − 0.7^10 ≈ 0.972 ⇒ g ≈ 40 + 60·0.028.
        assert!((g - 40.0) < 60.0 * 0.03);
    }

    #[test]
    fn late_reports_blend_but_do_not_advance_freshness() {
        let mut t = EwmaTracker::new(0.5);
        t.update(10, 100.0);
        t.update(8, 0.0); // stale delivery from a delayed channel
        assert_eq!(t.last_window(), Some(10), "freshness pinned at the newest window");
        let v = t.value().unwrap();
        assert!(v < 100.0 && v > 0.0, "old evidence still blends: {v}");
    }

    #[test]
    fn huge_gaps_snap_to_the_new_sample() {
        let mut t = EwmaTracker::new(0.1);
        t.update(0, 1000.0);
        t.update(10_000, 5.0);
        let v = t.value().unwrap();
        // (1−0.1)^64 ≈ 0.0012 ⇒ residual ≈ 0.12% of the 995 step.
        assert!((v - 5.0).abs() < 2.0, "capped gap exponent still ≈ replaces: {v}");
    }
}
