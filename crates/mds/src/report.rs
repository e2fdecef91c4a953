//! The result of a cluster run: everything the paper's figures plot.

use mantle_sim::{SimTime, Summary, TimeSeries};

/// Per-MDS results. The data plane counts into one of these per MDS as
/// the run goes ([`crate::metrics::MdsCounters::report`]); only
/// `total_ops` is filled in at the end, from `throughput`.
#[derive(Debug, Clone)]
pub struct MdsReport {
    /// Completed ops per second over the run (stacked curves of
    /// Figs. 4/7/10).
    pub throughput: TimeSeries,
    /// Total ops served.
    pub total_ops: f64,
    /// First-try requests served locally (Fig. 3b "hits").
    pub hits: u64,
    /// Requests forwarded away (Fig. 3b "forwards").
    pub forwards_out: u64,
    /// Requests received via forwards.
    pub forwards_in: u64,
    /// Migrations exported.
    pub migrations_out: u64,
    /// Inodes exported.
    pub inodes_exported: u64,
    /// Client sessions flushed by this MDS's migrations (§4.1).
    pub sessions_flushed: u64,
    /// Directory fragmentation events.
    pub splits: u64,
    /// Ops needing remote ancestor metadata for the path traversal.
    pub remote_prefix: u64,
    /// Requests lost because they reached this MDS while it was crashed.
    pub dropped: u64,
    /// Proxy-cache hits attributed to this MDS (requests the cache tier
    /// absorbed on its behalf). Zero with the cache disabled.
    pub cache_hits: u64,
    /// Proxy-cache misses routed to this MDS (post-cache arrivals for
    /// cacheable ops). Zero with the cache disabled.
    pub cache_misses: u64,
}

impl Default for MdsReport {
    /// An MDS that has served nothing yet, with 1 s throughput buckets.
    fn default() -> Self {
        MdsReport {
            throughput: TimeSeries::new(SimTime::from_secs(1)),
            total_ops: 0.0,
            hits: 0,
            forwards_out: 0,
            forwards_in: 0,
            migrations_out: 0,
            inodes_exported: 0,
            sessions_flushed: 0,
            splits: 0,
            remote_prefix: 0,
            dropped: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

/// Per-client results.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Ops completed.
    pub completed: u64,
    /// Completion time of the client's last op (per-client makespan —
    /// Fig. 8's per-client speedup numerator/denominator).
    pub finished_at: SimTime,
    /// Latency summary, ms (Fig. 5's y axis).
    pub latency: Summary,
}

/// Full report of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Balancer in effect.
    pub balancer: String,
    /// Workload name.
    pub workload: String,
    /// MDS count.
    pub num_mds: usize,
    /// Seed used.
    pub seed: u64,
    /// Virtual time when the last client finished.
    pub makespan: SimTime,
    /// Per-MDS breakdown.
    pub mds: Vec<MdsReport>,
    /// Per-client breakdown.
    pub clients: Vec<ClientReport>,
    /// Total client sessions flushed (§4.1's 157/323/…/936 comparison).
    pub sessions_flushed: u64,
    /// Client-side request timeouts (lost or overdue replies).
    pub timeouts: u64,
    /// Request retries issued after timeouts (exponential backoff).
    pub retries: u64,
    /// Subtree/dirfrag authorities failed over to MDS 0 by crashes.
    pub failovers: u64,
    /// Balancers swapped for the default CephFS balancer after repeated
    /// policy errors (the §3.4 graceful-degradation path).
    pub balancer_fallbacks: u64,
    /// Cluster-wide proxy-cache hits (ops absorbed without an MDS
    /// round-trip). Zero with the cache disabled.
    pub cache_hits: u64,
    /// Cluster-wide proxy-cache misses (cacheable ops that went to an
    /// MDS). Zero with the cache disabled.
    pub cache_misses: u64,
    /// Cache entries dropped by coherence invalidation — mutating ops,
    /// migrations, and session flushes, across group and client caches.
    pub cache_invalidations: u64,
    /// Provisioned MDS-time: the integral of the member count over
    /// virtual time, in seconds. With elasticity off this is
    /// `num_mds × makespan`; the elastic scorer divides ops by it.
    pub mds_seconds: f64,
    /// MDS-join transitions taken by the elastic controller.
    pub joins: u64,
    /// MDS-leave (drain) transitions taken by the elastic controller.
    pub leaves: u64,
    /// Final membership epoch (one bump per join or leave; 0 with
    /// elasticity off).
    pub membership_epoch: u64,
}

impl RunReport {
    /// Total ops served across the cluster.
    pub fn total_ops(&self) -> f64 {
        self.mds.iter().map(|m| m.total_ops).sum()
    }

    /// Total requests issued including forwarded hops (Fig. 3a's "number
    /// of requests": forwards make the same op cost extra messages).
    pub fn total_requests(&self) -> f64 {
        self.total_ops() + self.total_forwards() as f64
    }

    /// Cluster-wide forwards.
    pub fn total_forwards(&self) -> u64 {
        self.mds.iter().map(|m| m.forwards_out).sum()
    }

    /// Path traversals that could not resolve locally (forwards plus
    /// remote-prefix lookups) — Fig. 3b's "forwards" bar.
    pub fn total_remote_traversals(&self) -> u64 {
        self.total_forwards() + self.mds.iter().map(|m| m.remote_prefix).sum::<u64>()
    }

    /// Cluster-wide hits (first-try local service).
    pub fn total_hits(&self) -> u64 {
        self.mds.iter().map(|m| m.hits).sum()
    }

    /// Cluster-wide migrations.
    pub fn total_migrations(&self) -> u64 {
        self.mds.iter().map(|m| m.migrations_out).sum()
    }

    /// Requests lost at crashed MDSs across the cluster.
    pub fn total_dropped(&self) -> u64 {
        self.mds.iter().map(|m| m.dropped).sum()
    }

    /// Proxy-cache hit rate over cacheable traffic, 0–1 (0 when the
    /// cache is disabled or saw no traffic).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = (self.cache_hits + self.cache_misses) as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.cache_hits as f64 / total
        }
    }

    /// Provisioned MDS-time in hours (the elastic efficiency denominator).
    pub fn mds_hours(&self) -> f64 {
        self.mds_seconds / 3600.0
    }

    /// Ops per second per provisioned MDS-hour — the elastic scenario's
    /// score: an elastic cluster that tracks the diurnal load should beat
    /// every fixed size on it (0 when no MDS-time was accrued).
    pub fn ops_per_mds_hour(&self) -> f64 {
        if self.mds_seconds <= 0.0 {
            0.0
        } else {
            self.total_ops() * 3600.0 / self.mds_seconds
        }
    }

    /// Ops completed across all clients. With the proxy cache on this
    /// exceeds [`total_ops`](Self::total_ops) (MDS-served ops) by exactly
    /// the absorbed hits, so it is the quantity conserved across cache
    /// settings and cluster sizes.
    pub fn client_ops(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }

    /// Mean throughput over the run, ops/s.
    pub fn mean_throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ops() / secs
        }
    }

    /// Aggregate cluster throughput per second (sum of the per-MDS series).
    pub fn cluster_throughput(&self) -> TimeSeries {
        let mut out = TimeSeries::new(SimTime::from_secs(1));
        for m in &self.mds {
            for (t, v) in m.throughput.iter() {
                out.add(t, v);
            }
        }
        out
    }

    /// Latency across all clients, ms.
    pub fn latency_all(&self) -> Summary {
        // Summaries do not retain raw samples; approximate the cluster
        // view from the per-client means (one entry per client with data).
        let all: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| c.latency.count > 0)
            .map(|c| c.latency.mean)
            .collect();
        Summary::of(all)
    }

    /// Mean of the per-client makespans, minutes.
    pub fn mean_client_makespan_mins(&self) -> f64 {
        if self.clients.is_empty() {
            return 0.0;
        }
        self.clients
            .iter()
            .map(|c| c.finished_at.as_mins_f64())
            .sum::<f64>()
            / self.clients.len() as f64
    }

    /// Standard deviation of per-client makespans, minutes (the paper's
    /// stability metric).
    pub fn client_makespan_stddev_mins(&self) -> f64 {
        let xs: Vec<f64> = self
            .clients
            .iter()
            .map(|c| c.finished_at.as_mins_f64())
            .collect();
        Summary::of(xs).stddev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_report() -> RunReport {
        let mut ts0 = TimeSeries::new(SimTime::from_secs(1));
        ts0.add(SimTime::ZERO, 100.0);
        ts0.add(SimTime::from_secs(1), 50.0);
        let mut ts1 = TimeSeries::new(SimTime::from_secs(1));
        ts1.add(SimTime::from_secs(1), 25.0);
        RunReport {
            balancer: "test".into(),
            workload: "w".into(),
            num_mds: 2,
            seed: 1,
            makespan: SimTime::from_secs(2),
            mds: vec![
                MdsReport {
                    throughput: ts0,
                    total_ops: 150.0,
                    hits: 140,
                    forwards_out: 10,
                    forwards_in: 0,
                    migrations_out: 1,
                    inodes_exported: 500,
                    sessions_flushed: 4,
                    splits: 0,
                    remote_prefix: 2,
                    dropped: 3,
                    cache_hits: 30,
                    cache_misses: 10,
                },
                MdsReport {
                    throughput: ts1,
                    total_ops: 25.0,
                    hits: 20,
                    forwards_out: 0,
                    forwards_in: 10,
                    migrations_out: 0,
                    inodes_exported: 0,
                    sessions_flushed: 0,
                    splits: 1,
                    remote_prefix: 0,
                    dropped: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                },
            ],
            clients: vec![
                ClientReport {
                    completed: 100,
                    finished_at: SimTime::from_secs(2),
                    latency: Summary::of(&[1.0, 2.0]),
                },
                ClientReport {
                    completed: 75,
                    finished_at: SimTime::from_secs(1),
                    latency: Summary::of(&[3.0]),
                },
            ],
            sessions_flushed: 4,
            timeouts: 2,
            retries: 2,
            failovers: 1,
            balancer_fallbacks: 0,
            cache_hits: 30,
            cache_misses: 10,
            cache_invalidations: 5,
            mds_seconds: 7200.0,
            joins: 1,
            leaves: 1,
            membership_epoch: 2,
        }
    }

    #[test]
    fn aggregates() {
        let r = mk_report();
        assert_eq!(r.total_ops(), 175.0);
        assert_eq!(r.total_forwards(), 10);
        assert_eq!(r.total_hits(), 160);
        assert_eq!(r.total_requests(), 185.0);
        assert_eq!(r.total_remote_traversals(), 12);
        assert_eq!(r.total_migrations(), 1);
        assert_eq!(r.total_dropped(), 3);
        assert!((r.mean_throughput() - 87.5).abs() < 1e-9);
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-9);
        // 175 ops over 2 MDS-hours.
        assert!((r.mds_hours() - 2.0).abs() < 1e-9);
        assert!((r.ops_per_mds_hour() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn cluster_throughput_sums_series() {
        let r = mk_report();
        let ts = r.cluster_throughput();
        assert_eq!(ts.values(), &[100.0, 75.0]);
    }

    #[test]
    fn makespan_stats() {
        let r = mk_report();
        let mean = r.mean_client_makespan_mins();
        assert!((mean - 0.025).abs() < 1e-9); // (2s + 1s)/2 = 1.5 s
        assert!(r.client_makespan_stddev_mins() > 0.0);
    }
}
