//! Client model: closed-loop request generators with a learned
//! subtree→MDS map, and the [`Workload`] trait the workload generators
//! implement.

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
/// is left with no scheduled event until the service pump wakes it (see
/// [`crate::service`]).
pub const PARKED: SimTime = SimTime(u64::MAX);

/// A workload drives every client: the cluster asks it for each client's
/// next operation whenever that client's previous one completes.
///
/// The namespace is read-only during the run — all directory structure is
/// built in [`Workload::setup`].
pub trait Workload: Send {
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
/// learned directory→MDS map is not here: it is this client's byte in
/// each row of the data plane's [`RouteTable`](crate::cache::RouteTable),
/// which keeps every client's route to one directory side by side so a
/// migration drops a moved directory from all of them in one row scan.
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
    /// event and waits for the service pump to wake it
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
/// unit: 4 bytes a sample while every sample fits in 32 bits (below
/// 2³² µs ≈ 71.6 min), 8 bytes from the first that does not, which
/// widens the log once. Either way the log is exact, and
/// [`LatencyLog::summary`] reads each sample as the milliseconds
/// [`SimTime::as_millis_f64`] gives.
#[derive(Debug, Clone)]
pub struct LatencyLog(LogRepr);

#[derive(Debug, Clone)]
enum LogRepr {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Default for LatencyLog {
    fn default() -> Self {
        LatencyLog(LogRepr::Narrow(Vec::new()))
    }
}

impl LatencyLog {
    /// Append one latency.
    pub fn push(&mut self, latency: SimTime) {
        match &mut self.0 {
            LogRepr::Narrow(log) => match u32::try_from(latency.0) {
                Ok(us) => log.push(us),
                Err(_) => {
                    let mut wide: Vec<u64> = log.iter().map(|&us| u64::from(us)).collect();
                    wide.push(latency.0);
                    self.0 = LogRepr::Wide(wide);
                }
            },
            LogRepr::Wide(log) => log.push(latency.0),
        }
    }

    /// Reserve room for exactly `additional` more samples, if it can be
    /// had.
    pub(crate) fn try_reserve_exact(&mut self, additional: usize) {
        let _ = match &mut self.0 {
            LogRepr::Narrow(log) => log.try_reserve_exact(additional),
            LogRepr::Wide(log) => log.try_reserve_exact(additional),
        };
    }

    /// How many samples the log holds.
    pub fn len(&self) -> usize {
        match &self.0 {
            LogRepr::Narrow(log) => log.len(),
            LogRepr::Wide(log) => log.len(),
        }
    }

    /// True when no op has completed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many samples fit before the log reallocates.
    pub fn capacity(&self) -> usize {
        match &self.0 {
            LogRepr::Narrow(log) => log.capacity(),
            LogRepr::Wide(log) => log.capacity(),
        }
    }

    /// The summary of the samples in milliseconds.
    pub fn summary(&self) -> Summary {
        let ms = |us: u64| SimTime::from_micros(us).as_millis_f64();
        let samples: Vec<f64> = match &self.0 {
            LogRepr::Narrow(log) => log.iter().map(|&us| ms(u64::from(us))).collect(),
            LogRepr::Wide(log) => log.iter().map(|&us| ms(us)).collect(),
        };
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

    /// The summary of the 4-byte log is the summary of the latencies in
    /// `f64` milliseconds, bit for bit, and stays so once a latency of
    /// 2³² µs or more widens the log: at 0, 1 µs, 2³² − 1 µs and
    /// 2³² + k µs, among ordinary draws.
    #[test]
    fn the_log_summarizes_as_the_f64_milliseconds_would() {
        let bits = |s: &Summary| {
            let fields = [s.mean, s.stddev, s.min, s.p50, s.p95, s.p99, s.max];
            (s.count, fields.map(f64::to_bits))
        };
        let mut rng = mantle_sim::SimRng::new(0x1a7e);
        let edges = [0, 1, u64::from(u32::MAX)];
        for wide in [false, true] {
            for n in [0, 1, 2, 7, 100, 5_000] {
                let (mut log, mut ms) = (LatencyLog::default(), Vec::new());
                for i in 0..n {
                    let us = match rng.below(8) {
                        0 => edges[rng.below(3) as usize],
                        1 if wide => (1 << 32) + rng.below(1 << 40),
                        _ => rng.below(200_000),
                    };
                    let us = if wide && i == n / 2 {
                        (1 << 32) + i as u64
                    } else {
                        us
                    };
                    log.push(SimTime::from_micros(us));
                    ms.push(SimTime::from_micros(us).as_millis_f64());
                }
                assert_eq!(log.len(), n);
                let widened = matches!(log.0, LogRepr::Wide(_));
                assert_eq!(widened, wide && n > 0, "{n} samples");
                assert_eq!(bits(&log.summary()), bits(&Summary::of(&ms)), "{n} samples");
            }
        }
    }
}
