//! Per-MDS metric accounting: the raw material for heartbeats and for the
//! evaluation figures.

use mantle_sim::{SimTime, TimeSeries};

/// Running counters for one MDS.
#[derive(Debug, Clone)]
pub struct MdsCounters {
    /// Completed ops per 1 s bucket (the throughput curves of Figs. 4/7/10).
    pub completed: TimeSeries,
    /// Busy time accumulated in the current heartbeat window, µs.
    pub busy_window_us: f64,
    /// Requests that arrived here first try and were served here (Fig. 3b
    /// "hits").
    pub hits: u64,
    /// Requests this MDS had to forward elsewhere (Fig. 3b "forwards").
    pub forwards_out: u64,
    /// Requests received via a forward.
    pub forwards_in: u64,
    /// Ops completed in the current heartbeat window (req rate source).
    pub window_ops: u64,
    /// Subtree/dirfrag migrations exported.
    pub migrations_out: u64,
    /// Inodes exported.
    pub inodes_exported: u64,
    /// Client sessions flushed by migrations here (§4.1).
    pub sessions_flushed: u64,
    /// Directory fragmentation events handled.
    pub splits: u64,
    /// Ops whose path prefix had to be resolved through a remote authority
    /// (counted with forwards in Fig. 3b's traversal breakdown).
    pub remote_prefix: u64,
    /// Requests lost because they reached this MDS while it was crashed
    /// (the clients that sent them time out and retry).
    pub dropped: u64,
    /// Currently queued requests.
    pub queued: u64,
    /// Proxy-cache hits attributed to this MDS over the run: requests the
    /// cache tier absorbed on its behalf.
    pub cache_hits: u64,
    /// Proxy-cache misses routed to this MDS over the run.
    pub cache_misses: u64,
    /// Cache hits in the current heartbeat window.
    pub cache_window_hits: u64,
    /// Cache misses in the current heartbeat window.
    pub cache_window_misses: u64,
}

impl MdsCounters {
    /// Fresh counters with 1 s throughput buckets.
    pub fn new() -> Self {
        MdsCounters {
            completed: TimeSeries::new(SimTime::from_secs(1)),
            busy_window_us: 0.0,
            hits: 0,
            forwards_out: 0,
            forwards_in: 0,
            window_ops: 0,
            migrations_out: 0,
            inodes_exported: 0,
            sessions_flushed: 0,
            splits: 0,
            remote_prefix: 0,
            dropped: 0,
            queued: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_window_hits: 0,
            cache_window_misses: 0,
        }
    }

    /// Record a completed op at `now` taking `service_us`.
    pub fn complete_op(&mut self, now: SimTime, service_us: f64) {
        self.completed.incr(now);
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

impl Default for MdsCounters {
    fn default() -> Self {
        Self::new()
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
        c.cache_hits = 3;
        c.cache_window_hits = 3;
        c.cache_window_misses = 1;
        c.roll_window();
        assert_eq!(c.window_ops, 0);
        assert_eq!(c.busy_window_us, 0.0);
        assert_eq!((c.cache_window_hits, c.cache_window_misses), (0, 0));
        assert_eq!(c.cache_hits, 3, "run totals survive the roll");
        // Throughput buckets survive the roll.
        assert_eq!(c.completed.total(), 50.0);
    }

    #[test]
    fn throughput_buckets_by_second() {
        let mut c = MdsCounters::new();
        c.complete_op(SimTime::from_millis(100), 100.0);
        c.complete_op(SimTime::from_millis(1_100), 100.0);
        c.complete_op(SimTime::from_millis(1_200), 100.0);
        assert_eq!(c.completed.values(), &[1.0, 2.0]);
    }
}
