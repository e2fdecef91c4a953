//! Per-MDS metric accounting: the raw material for heartbeats and for the
//! evaluation figures.
//!
//! [`MdsCounters`] holds two kinds of state, each stored once:
//!
//! * **window state** — `busy_window_us`, `window_ops`,
//!   `cache_window_hits` and `cache_window_misses` accumulate over one
//!   heartbeat window and are zeroed by [`MdsCounters::roll_window`];
//!   `queued` is the live queue depth. A [`Heartbeat`] is built from
//!   them.
//! * **the report** — every run total the evaluation reads (Fig. 3b's
//!   hits and forwards, §4.1's session flushes, the migrations of
//!   Figs. 7 and 10, the fault and cache tallies, the 1 s throughput
//!   series) is counted straight into the MDS's [`MdsReport`], which the
//!   run hands back as is: nothing is copied into it at the end.

use mantle_sim::SimTime;

use crate::report::MdsReport;

/// One MDS's heartbeat-window state, plus the report its run totals are
/// counted into.
#[derive(Debug, Clone, Default)]
pub struct MdsCounters {
    /// Busy time accumulated in the current heartbeat window, µs.
    pub busy_window_us: f64,
    /// Ops served in the current heartbeat window (req rate source).
    pub window_ops: u64,
    /// Currently queued requests.
    pub queued: u64,
    /// Proxy-cache absorptions in the current heartbeat window.
    pub cache_window_hits: u64,
    /// Proxy-cache pass-throughs in the current heartbeat window.
    pub cache_window_misses: u64,
    /// The run totals, counted as they happen; a window roll leaves them.
    pub report: MdsReport,
}

impl MdsCounters {
    /// Fresh counters with 1 s throughput buckets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed op at `now` taking `service_us`.
    pub fn complete_op(&mut self, now: SimTime, service_us: f64) {
        self.report.throughput.incr(now);
        self.busy_window_us += service_us;
        self.window_ops += 1;
    }

    /// CPU utilization over a heartbeat window of `window` (0–100).
    pub fn cpu_percent(&self, window: SimTime) -> f64 {
        let window_us = window.as_millis() as f64 * 1_000.0;
        (self.busy_window_us / window_us * 100.0).min(100.0)
    }

    /// Request rate over the window, req/s.
    pub fn req_rate(&self, window: SimTime) -> f64 {
        self.window_ops as f64 / window.as_secs_f64().max(1e-9)
    }

    /// Reset the per-window accumulators (called at each heartbeat).
    pub fn roll_window(&mut self) {
        self.busy_window_us = 0.0;
        self.window_ops = 0;
        self.cache_window_hits = 0;
        self.cache_window_misses = 0;
    }
}

/// A heartbeat snapshot: what one MDS tells the others about itself
/// (metadata loads + resource metrics, §2's "Partitioning the Cluster").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Heartbeat {
    /// Metadata load on authority subtrees (decayed, via the metaload
    /// formula in effect).
    pub auth_metaload: f64,
    /// Metadata load on all subtrees this MDS knows about.
    pub all_metaload: f64,
    /// CPU utilization percent (instantaneous, noisy).
    pub cpu: f64,
    /// Memory utilization percent.
    pub mem: f64,
    /// Queue length at snapshot time.
    pub queue_len: f64,
    /// Request rate over the last window, req/s.
    pub req_rate: f64,
    /// Proxy-cache hits attributed to this MDS over the last window —
    /// requests the cache tier absorbed that would otherwise have
    /// arrived here. Zero with the cache disabled. Together with the
    /// cache-aware metaload (absorbed hits are *not* MDS load), this
    /// lets a policy tell "hot but absorbed" from "hot and hammering".
    pub cache_hits: f64,
    /// Proxy-cache misses routed to this MDS over the last window (the
    /// post-cache traffic actually arriving). Zero with the cache
    /// disabled.
    pub cache_misses: f64,
    /// When this snapshot was taken.
    pub taken_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_percent_from_busy_time() {
        let mut c = MdsCounters::new();
        // 5 s busy in a 10 s window = 50 %.
        c.busy_window_us = 5_000_000.0;
        assert!((c.cpu_percent(SimTime::from_secs(10)) - 50.0).abs() < 1e-9);
        // Saturates at 100.
        c.busy_window_us = 50_000_000.0;
        assert_eq!(c.cpu_percent(SimTime::from_secs(10)), 100.0);
    }

    #[test]
    fn req_rate_and_roll() {
        let mut c = MdsCounters::new();
        for i in 0..50 {
            c.complete_op(SimTime::from_millis(i * 100), 200.0);
        }
        assert!((c.req_rate(SimTime::from_secs(10)) - 5.0).abs() < 1e-9);
        c.report.cache_hits = 3;
        c.cache_window_hits = 3;
        c.cache_window_misses = 1;
        c.roll_window();
        assert_eq!(c.window_ops, 0);
        assert_eq!(c.busy_window_us, 0.0);
        assert_eq!((c.cache_window_hits, c.cache_window_misses), (0, 0));
        assert_eq!(c.report.cache_hits, 3, "run totals survive the roll");
        // Throughput buckets survive the roll.
        assert_eq!(c.report.throughput.total(), 50.0);
    }

    #[test]
    fn throughput_buckets_by_second() {
        let mut c = MdsCounters::new();
        c.complete_op(SimTime::from_millis(100), 100.0);
        c.complete_op(SimTime::from_millis(1_100), 100.0);
        c.complete_op(SimTime::from_millis(1_200), 100.0);
        assert_eq!(c.report.throughput.values(), &[1.0, 2.0]);
    }
}
