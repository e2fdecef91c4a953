//! Client model: closed-loop request generators with a learned
//! subtree→MDS map, and the [`Workload`] trait the workload generators
//! implement.
//!
//! What a client keeps grows with what it did: its [`LatencyLog`] is
//! 2 bytes a completed op (8 more for each op of 65.5 ms or longer), and
//! its learned routes take table space only for the directories it
//! learned ([`crate::cache::RouteTable`]).

use std::any::Any;

use mantle_namespace::{FragId, MdsId, Namespace, NodeId, OpKind};
use mantle_sim::{SimTime, Summary};

/// One metadata operation a client wants to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOp {
    /// The directory the op targets.
    pub dir: NodeId,
    /// What it does.
    pub kind: OpKind,
}

/// "No instant I can name": returned from [`Workload::next_ready_at`] by
/// a workload whose ops arrive from outside the simulation. The client
/// is left with no scheduled event until the live service wakes it (see
/// [`crate::service`]).
pub const PARKED: SimTime = SimTime(u64::MAX);

/// A workload drives every client: the cluster asks it for each client's
/// next operation whenever that client's previous one completes.
///
/// The namespace is read-only during the run — all directory structure is
/// built in [`Workload::setup`]. A workload is `Any` so that the live
/// service can find its own ([`crate::service::LiveWorkload`]) behind the
/// cluster's `Box<dyn Workload>`.
pub trait Workload: Any + Send {
    /// Number of clients this workload drives.
    fn num_clients(&self) -> usize;

    /// One-time setup: build the initial directory structure.
    fn setup(&mut self, ns: &mut Namespace);

    /// The next op for `client`, or `None` when that client is finished.
    fn next(&mut self, client: usize, ns: &Namespace, now: SimTime) -> Option<ClientOp>;

    /// If `client` has more work but none before some future instant,
    /// that instant; `None` means "ready now (or finished)". Open-loop
    /// workloads with think windows (e.g. diurnal day/night phases) use
    /// this to park a client until its next active window — the cluster
    /// reschedules the client's wakeup instead of calling
    /// [`Workload::next`]. Must be deterministic in `(client, now)`.
    ///
    /// The one exception is [`PARKED`]: a workload fed from outside the
    /// simulation (a live session's op queue) returns it when it cannot
    /// name an instant. The cluster then schedules nothing for the
    /// client, and whoever feeds the workload wakes it.
    fn next_ready_at(&mut self, client: usize, now: SimTime) -> Option<SimTime> {
        let _ = (client, now);
        None
    }

    /// Workload name for reports.
    fn name(&self) -> &str {
        "workload"
    }

    /// How many ops each client will issue, if known before the run.
    /// It only sizes each client's latency log up front; `None` (the
    /// default) lets the log grow.
    fn ops_per_client_hint(&self) -> Option<u64> {
        None
    }
}

/// Per-client connection state maintained by the cluster. The client's
/// learned directory→MDS map is not here: it is this client's entries in
/// the data plane's [`RouteTable`](crate::cache::RouteTable), which keeps
/// every client's route to one directory side by side — in a slot while
/// few clients hold one, in a row of a byte per client after — so a
/// migration drops a moved directory from all of them in one scan.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Client index.
    pub id: usize,
    /// This client is done issuing ops.
    pub done: bool,
    /// Ops completed so far.
    pub completed: u64,
    /// The client stalls until this time (session flushes during
    /// migrations halt its updates).
    pub stall_until: SimTime,
    /// Completion time of the client's last op (its personal makespan).
    pub finished_at: SimTime,
    /// Latency of every completed op, in completion order.
    pub latencies: LatencyLog,
    /// Sequence number of the newest request attempt; replies and
    /// timeouts carrying an older number are stale and ignored.
    pub seq: u64,
    /// The logical op currently awaiting a reply (`None` between ops).
    /// Retries re-issue this op after a timeout.
    pub pending: Option<ClientOp>,
    /// Timeouts suffered by the pending op so far (drives the
    /// exponential backoff).
    pub attempts: u32,
    /// The workload answered [`PARKED`]: the client has no scheduled
    /// event and waits for the live service to wake it
    /// (`World::wake_client`, [`crate::world`]).
    pub(crate) parked: bool,
}

impl ClientState {
    /// Fresh state for client `id`.
    pub fn new(id: usize) -> Self {
        ClientState {
            id,
            done: false,
            completed: 0,
            stall_until: SimTime::ZERO,
            finished_at: SimTime::ZERO,
            latencies: LatencyLog::default(),
            seq: 0,
            pending: None,
            attempts: 0,
            parked: false,
        }
    }

    /// Record an op completed at `now` after `latency`.
    pub fn record_completion(&mut self, now: SimTime, latency: SimTime) {
        self.completed += 1;
        self.finished_at = now;
        self.latencies.push(latency);
    }
}

/// A client's op latencies in whole microseconds, the simulation's own
/// unit, 2 bytes a sample: each sample below 65 535 µs is its own `u16`,
/// and each one from 65 535 µs (≈ 65.5 ms) up is a `LONG` marker in
/// `short` whose value is the next entry of `long`, in order. The log is
/// exact, and [`LatencyLog::summary`] reads each sample as the
/// milliseconds [`SimTime::as_millis_f64`] gives.
#[derive(Debug, Clone, Default)]
pub struct LatencyLog {
    /// Every sample, in completion order; [`LONG`] for one held in `long`.
    short: Vec<u16>,
    /// The samples of 65 535 µs and more, in completion order.
    long: Vec<u64>,
}

/// The `short` entry that says "the next sample of `long`".
const LONG: u16 = u16::MAX;

impl LatencyLog {
    /// Append one latency.
    pub fn push(&mut self, latency: SimTime) {
        match u16::try_from(latency.0) {
            Ok(us) if us != LONG => self.short.push(us),
            _ => {
                self.short.push(LONG);
                self.long.push(latency.0);
            }
        }
    }

    /// Reserve room for exactly `additional` more samples, if it can be
    /// had.
    pub(crate) fn try_reserve_exact(&mut self, additional: usize) {
        let _ = self.short.try_reserve_exact(additional);
    }

    /// How many samples the log holds.
    pub fn len(&self) -> usize {
        self.short.len()
    }

    /// True when no op has completed.
    pub fn is_empty(&self) -> bool {
        self.short.is_empty()
    }

    /// How many samples fit before the log reallocates.
    pub fn capacity(&self) -> usize {
        self.short.capacity()
    }

    /// The summary of the samples in milliseconds.
    pub fn summary(&self) -> Summary {
        let mut long = self.long.iter();
        let samples: Vec<f64> = self
            .short
            .iter()
            .map(|&us| {
                let us = match us {
                    LONG => *long.next().expect("one long sample per marker"),
                    us => u64::from(us),
                };
                SimTime::from_micros(us).as_millis_f64()
            })
            .collect();
        Summary::of(samples)
    }
}

/// Choose which MDS a client sends an op on `dir` (fragment `frag`) to.
///
/// Directories whose fragments span several MDSs are routed by the
/// dirfrag map (CephFS replies carry the fragment→MDS mapping, so a
/// client ends up contacting the MDSs round-robin as its creates hash
/// across fragments — §4.1); the *cost* of the resulting cross-MDS
/// session/coherency traffic is charged as the span surcharge
/// (`config::COHERENCY_PER_SPAN`). Single-authority
/// directories use `learned`, the client's learned route, falling back
/// to MDS 0 (the mount authority) — that route goes stale when subtrees
/// migrate, which is what produces forwards.
///
/// `multi_owner` is whether the dir's fragments span several MDSs; the
/// cluster computes it once per issue into a reused scratch buffer
/// instead of allocating an owner list per request here.
pub fn route(
    ns: &Namespace,
    dir: NodeId,
    frag: FragId,
    multi_owner: bool,
    learned: Option<MdsId>,
) -> MdsId {
    if multi_owner {
        ns.frag_auth(dir, frag)
    } else {
        learned.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_to_learned_mds() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/a");
        let mut routes = crate::cache::RouteTable::new(1);
        let route_0 = |ns: &Namespace, routes: &crate::cache::RouteTable| {
            route(ns, d, ns.peek_frag(d), false, routes.get(0, d))
        };
        assert_eq!(route_0(&ns, &routes), 0, "default mount authority");
        // Even though ground truth moved, the client still uses its cache…
        ns.set_auth(d, Some(2));
        routes.learn(0, d, 1);
        assert_eq!(route_0(&ns, &routes), 1, "stale cache drives routing");
        routes.forget(0, d);
        assert_eq!(route_0(&ns, &routes), 0);
    }

    #[test]
    fn round_robins_over_spanning_dirs() {
        let mut ns = Namespace::new(mantle_namespace::NsConfig {
            frag_split_threshold: 4,
            ..Default::default()
        });
        let d = ns.mkdir_p("/shared");
        for _ in 0..6 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        assert!(ns.dir(d).frags.len() >= 8);
        ns.set_frag_auth(d, 0, Some(1));
        ns.set_frag_auth(d, 1, Some(2));
        let owners = ns.frag_owners(d);
        assert_eq!(owners.len(), 3); // 1, 2, and inherited 0
        assert_eq!(ns.frag_span(d), 3);

        // Routing follows the dirfrag map: it lands on a real owner, not
        // on the (stale or default) learned route.
        let frag = ns.peek_frag(d);
        let target = route(&ns, d, frag, owners.len() > 1, Some(3));
        assert!(owners.contains(&target));
        assert_eq!(target, ns.frag_auth(d, frag));
    }

    #[test]
    fn completion_bookkeeping() {
        let mut c = ClientState::new(3);
        c.record_completion(SimTime::from_secs(5), SimTime::from_micros(800));
        c.record_completion(SimTime::from_secs(6), SimTime::from_micros(1_200));
        assert_eq!(c.completed, 2);
        assert_eq!(c.finished_at, SimTime::from_secs(6));
        assert_eq!(c.latencies.len(), 2);
    }

    /// The summary of the 2-byte log is the summary of the latencies in
    /// `f64` milliseconds, bit for bit, and the long list holds exactly
    /// the samples of 65 535 µs and more, in order: over ordinary draws
    /// mixed with 0, 1, 65 534, 65 535 (the marker's own value), 65 536,
    /// 2³² − 1, 2³² and 2⁴⁰ µs.
    #[test]
    fn the_log_summarizes_as_the_f64_milliseconds_would() {
        let bits = |s: &Summary| {
            let fields = [s.mean, s.stddev, s.min, s.p50, s.p95, s.p99, s.max];
            (s.count, fields.map(f64::to_bits))
        };
        let mut rng = mantle_sim::SimRng::new(0x1a7e);
        let edges = [
            0,
            1,
            65_534,
            65_535,
            65_536,
            (1 << 32) - 1,
            1 << 32,
            1 << 40,
        ];
        let mut seen = [false; 8];
        for n in [0, 1, 2, 7, 100, 5_000] {
            let (mut log, mut ms, mut long) = (LatencyLog::default(), Vec::new(), Vec::new());
            for _ in 0..n {
                let us = match rng.below(4) {
                    0 => {
                        let e = rng.below(edges.len() as u64) as usize;
                        seen[e] = true;
                        edges[e]
                    }
                    _ => rng.below(100_000),
                };
                log.push(SimTime::from_micros(us));
                ms.push(SimTime::from_micros(us).as_millis_f64());
                if us >= 65_535 {
                    long.push(us);
                }
            }
            assert_eq!(log.len(), n);
            assert_eq!(log.long, long, "{n} samples: the long list");
            assert_eq!(bits(&log.summary()), bits(&Summary::of(&ms)), "{n} samples");
        }
        assert_eq!(seen, [true; 8], "every edge drawn");
    }
}
