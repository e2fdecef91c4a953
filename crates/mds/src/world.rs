//! The simulation state, and the data-plane handlers that run on it.
//!
//! One `World` owns everything an event reads or writes apart from the
//! coordinator's own components ([`crate::cluster`]): the namespace,
//! liveness and membership, the freeze and warm-up stamps and the proxy
//! caches; the data-plane event queue, the clients — every client's
//! learned routes in one table ([`crate::cache::RouteTable`]) — and the
//! per-MDS counters and RNG streams; and the run's one [`ClusterConfig`]
//! and trace buffer ([`crate::tracer`]).
//!
//! `Cluster::run_inner` is the event loop. Each iteration runs the
//! earliest event in the one queue to completion: a data-plane event,
//! run here, or a coordinator event (heartbeat tick, fault, admin
//! action, hot install), which `World::step` hands back to the
//! coordinator. A data-plane handler is a
//! `&mut self` method here, and it applies every mutation its event
//! causes — heat charges and fragment splits, hash pins, proxy cache
//! fills, touches and invalidations — before it returns, so the next
//! event, whoever's it is, sees them.
//!
//! What a request costs here depends neither on how many migrations are
//! live, nor on how many clients there are, nor on how many fragments
//! its directory has: the freeze and cold-prefix lookups are one load
//! from a per-directory stamp (`DirStamps`); a route is one byte, found
//! in the directory's 20-byte slot while at most four clients hold a
//! route to it and in its row of a byte per client after: the issue
//! reads it, and the reply writes it back into the cache line the read
//! loaded; and the fragment an op hits and
//! the number of MDSs its directory spans are read off the directory's
//! fragment summary (`Namespace::{peek_frag, frag_span}`), not scanned.
//!
//! # Determinism
//!
//! Every scheduled event carries an explicit 64-bit **key**:
//!
//! ```text
//!   key = origin_rank << 40 | per-origin counter
//!   origin_rank: coordinator 0, MDS m = 1 + m, client c = 1 + num_mds + c
//! ```
//!
//! The queue orders same-instant events by key, so tie-breaking depends
//! only on *which simulated entity* generated the event and *how many*
//! events it generated before. Rank 0 is the coordinator's, and its
//! counter is the queue's own insertion count: at one instant the
//! coordinator's events run before every MDS's and client's, in the
//! order they were scheduled, so the heartbeat at T sees the world as of
//! T. Trace records go into the run's one
//! buffer ([`crate::tracer`]) as they are emitted, stamped with their
//! event's instant — on one thread, the order things happen in is the
//! order they are recorded in.

use std::sync::Arc;

use mantle_namespace::{FragId, MdsId, Namespace, NodeId};
use mantle_sim::{EventQueue, SimRng, SimTime};

use crate::cache::{
    cacheable, group_of, GroupCache, RouteTable, CACHE_CAPACITY, CACHE_GROUPS, CACHE_HIT_LATENCY,
};
use crate::client::{route, ClientOp, ClientState, Workload, PARKED};
use crate::cluster::GlobalEvent;
use crate::config::{
    contention_factor, service_with_span, ClusterConfig, PlacementPolicy, FORWARD_HOP, FORWARD_US,
    HALF_RTT, REMOTE_PREFIX_PENALTY, SERVICE_NOISE, SPLIT_US,
};
use crate::metrics::{Heartbeat, MdsCounters};
use crate::trace::TraceEvent;
use crate::tracer::Tracer;

/// Bits reserved for the per-origin counter in an event key.
pub(crate) const KEY_CTR_BITS: u32 = 40;

/// A request in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) client: usize,
    pub(crate) op: ClientOp,
    /// The dirfrag the client routed to (picked at issue time and carried
    /// with the request, like the frag bits in a real CephFS request).
    pub(crate) frag: FragId,
    pub(crate) issued: SimTime,
    pub(crate) forwarded: bool,
    /// The issuing client's attempt number; replies for a superseded
    /// attempt (the client timed out and retried) are dropped.
    pub(crate) seq: u64,
    /// The client's timeout count when this attempt was issued — lets the
    /// serving MDS compute, locally, whether the attempt has already been
    /// superseded by the time service finishes (see `World::on_complete`).
    pub(crate) attempts: u32,
}

/// An event in the world's queue: a data-plane event, or a coordinator
/// event carried for the coordinator.
pub(crate) enum Event {
    /// A client is ready to issue its next op.
    ClientNext(usize),
    /// A request arrives at an MDS.
    Arrive { mds: MdsId, req: Request },
    /// An MDS finishes serving a request.
    Complete {
        mds: MdsId,
        req: Request,
        service_us: f64,
        /// The MDS's incarnation when service started; a crash bumps the
        /// incarnation, so completions from before it are ghosts.
        epoch: u64,
    },
    /// A served reply reaches the issuing client (half an RTT after the
    /// MDS finished); the client absorbs it and issues its next op.
    Reply { mds: MdsId, req: Request },
    /// A client's request timeout expires; if the attempt is still
    /// outstanding the client declares it lost and backs off to retry.
    Timeout { client: usize, seq: u64 },
    /// A client re-issues its pending op after a timeout backoff.
    Retry(usize),
    /// A coordinator event, keyed rank 0; boxed, so the per-event slab
    /// stays the size of a data-plane event.
    Global(Box<GlobalEvent>),
}

/// What the exports that moved a directory stamped on it: the latest
/// thaw of their freezes, and the latest instant by which their importers
/// have warmed the ancestor prefix up.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    thaw: SimTime,
    warm: SimTime,
}

/// One [`Stamp`] per directory, indexed by `NodeId`: each half the latest
/// among the exports whose moved region held the directory.
///
/// The namespace only grows — no rename, no rmdir — so which directories
/// an export moved is settled when it is applied, and
/// [`crate::migration`] stamps each of them then. A request reads both
/// halves with one load, however many migrations are live, and a lapsed
/// stamp needs no purge: it compares as "not covered". A directory past
/// the vector's end was created after the last export, so no region holds
/// it, and both its halves read as [`SimTime::ZERO`].
#[derive(Debug, Default)]
pub(crate) struct DirStamps(Vec<Stamp>);

impl DirStamps {
    fn get(&self, d: NodeId) -> Stamp {
        self.0.get(d.0 as usize).copied().unwrap_or_default()
    }

    /// Stamp `thaw` and `warm` on each of `dirs`, keeping a later instant
    /// already there in either half. `dir_count` is the namespace's
    /// current size: the vector follows directories created since the
    /// last export.
    pub(crate) fn raise(
        &mut self,
        dirs: &[NodeId],
        dir_count: usize,
        thaw: SimTime,
        warm: SimTime,
    ) {
        if self.0.len() < dir_count {
            self.0.resize(dir_count, Stamp::default());
        }
        for d in dirs {
            let stamp = &mut self.0[d.0 as usize];
            stamp.thaw = stamp.thaw.max(thaw);
            stamp.warm = stamp.warm.max(warm);
        }
    }
}

/// Data-plane execution statistics (a side channel; never feeds back
/// into the simulation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Simulation events the data plane drained.
    pub events: u64,
    /// Always 0. Harness pin, see [`ExecStats::threads`].
    pub msgs_sent: u64,
    /// Always 0. Harness pin, see [`ExecStats::threads`].
    pub barrier_wait_ns: u64,
}

/// Whole-run execution statistics, reported by
/// [`crate::cluster::Cluster::run_with_stats`].
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Always 1. `threads`, the `Vec` around [`ExecStats::shards`] and
    /// [`ShardStats::msgs_sent`] / [`ShardStats::barrier_wait_ns`] carry
    /// nothing: the pinned benchmark harness compiles against them, and
    /// they leave with its un-pin (ROADMAP item 1), together with the
    /// pins at the bottom of `config.rs`.
    pub threads: usize,
    /// Data-plane events the loop ran: [`ShardStats::events`] again,
    /// under the name the pinned harness reads (ROADMAP item 1).
    pub windows: u64,
    /// Global events (heartbeats, faults, admin actions) the loop ran;
    /// the name is the pinned harness's too.
    pub exclusive_events: u64,
    /// The data plane's numbers; always exactly one entry.
    pub shards: Vec<ShardStats>,
}

/// The simulation state: everything an event reads or writes apart from
/// the coordinator's own components.
pub(crate) struct World {
    /// The run's configuration, the one copy.
    pub(crate) cfg: ClusterConfig,
    /// The run's one trace buffer.
    pub(crate) trace: Tracer,
    pub(crate) ns: Namespace,
    /// Liveness per MDS (crashes flip this off, restarts back on).
    pub(crate) up: Vec<bool>,
    /// Incarnation per MDS; bumped by crashes to invalidate in-flight
    /// completions.
    pub(crate) mds_epoch: Vec<u64>,
    /// Elastic membership per MDS: only members receive placement (hash
    /// pins, balancer targets, re-homing). With the elastic layer off
    /// every entry is `true` for the whole run. Mutated only in heartbeat
    /// steps. The transitions are counted once, by the coordinator's
    /// `elastic::Membership`.
    pub(crate) member: Vec<bool>,
    /// Service-time multiplier per MDS while `now < slow_until`.
    pub(crate) slow_factor: Vec<f64>,
    pub(crate) slow_until: Vec<SimTime>,
    /// Per directory, the latest thaw of a two-phase-commit migration
    /// that moved it (a request arriving before it defers to it), and
    /// when its newest authority will have warmed up its ancestor prefix
    /// replicas.
    pub(crate) stamps: DirStamps,
    /// Proxy-tier caches, one per client group ([`crate::config::CacheConfig`]).
    /// Hits touch, completions fill and writes invalidate, each as its
    /// event runs. Empty when the cache is disabled.
    pub(crate) caches: Vec<GroupCache>,
    /// The one event queue. Its `now` is the time frontier: the instant
    /// of the last event the loop ran, data-plane or coordinator.
    pub(crate) queue: EventQueue<Event>,
    /// Coordinator events in `queue`.
    pub(crate) queued_globals: usize,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) clients: Vec<ClientState>,
    /// Every client's learned routes.
    pub(crate) routes: RouteTable,
    pub(crate) counters: Vec<MdsCounters>,
    /// Absolute µs when each MDS becomes free (single-server queue).
    pub(crate) next_free: Vec<SimTime>,
    /// Per-MDS service-noise streams (`stream_n("service-noise", m)`), so
    /// an MDS's noise sequence is independent of every other MDS's event
    /// interleaving.
    pub(crate) rng_service: Vec<SimRng>,
    /// Per-origin key counters.
    mds_ctr: Vec<u64>,
    client_ctr: Vec<u64>,
    /// Proxy-cache entries dropped because a mutating op rewrote their
    /// directory.
    pub(crate) cache_invalidations: u64,
    /// Requests in flight: issues (+1) net of resolutions (−1).
    pub(crate) inflight: i64,
    /// Clients still issuing ops.
    pub(crate) active: usize,
    pub(crate) timeouts: u64,
    pub(crate) retries: u64,
    /// Side-channel execution stats.
    pub(crate) stats: ShardStats,
    /// Live-service mode: record op completions for the wire layer. Set
    /// by [`crate::cluster::Cluster::serve`] before the run; batch runs
    /// leave it off and pay one untaken branch per reply.
    pub(crate) live: bool,
    /// Completions accumulated since the service pump last drained them.
    pub(crate) completions: Vec<crate::service::LiveCompletion>,
}

impl World {
    /// The state of a `cfg.num_mds`-MDS cluster at time zero, over `ns`
    /// as `workload` set it up, with tracing off.
    pub(crate) fn new(
        cfg: ClusterConfig,
        ns: Namespace,
        workload: Box<dyn Workload>,
        master: &SimRng,
    ) -> Self {
        let (n, num_clients) = (cfg.num_mds, workload.num_clients());
        let mut clients: Vec<_> = (0..num_clients).map(ClientState::new).collect();
        // A hint too large to reserve is ignored: the log grows instead.
        let hint = usize::try_from(workload.ops_per_client_hint().unwrap_or(0));
        for c in &mut clients {
            c.latencies.try_reserve_exact(hint.unwrap_or(usize::MAX));
        }
        let initial_members = cfg.elastic.initial(n);
        // Proxy-tier caches: one LRU per client group. Empty when
        // disabled — the inert default adds no state and no per-event
        // work.
        let caches = if cfg.cache.enabled {
            vec![GroupCache::new(CACHE_CAPACITY); CACHE_GROUPS]
        } else {
            Vec::new()
        };
        World {
            trace: Tracer::new(None),
            ns,
            up: vec![true; n],
            mds_epoch: vec![0; n],
            member: (0..n).map(|m| m < initial_members).collect(),
            slow_factor: vec![1.0; n],
            slow_until: vec![SimTime::ZERO; n],
            stamps: DirStamps::default(),
            caches,
            queue: EventQueue::new(),
            queued_globals: 0,
            workload,
            clients,
            routes: RouteTable::new(num_clients),
            counters: (0..n).map(|_| MdsCounters::new()).collect(),
            next_free: vec![SimTime::ZERO; n],
            rng_service: (0..n)
                .map(|m| master.stream_n("service-noise", m))
                .collect(),
            mds_ctr: vec![0; n],
            client_ctr: vec![0; num_clients],
            cache_invalidations: 0,
            inflight: 0,
            active: num_clients,
            timeouts: 0,
            retries: 0,
            stats: ShardStats::default(),
            live: false,
            completions: Vec::new(),
            cfg,
        }
    }

    /// How many MDSs are members right now.
    pub(crate) fn members(&self) -> usize {
        self.member.iter().filter(|&&m| m).count()
    }

    /// The members, in id order, and their snapshots out of
    /// `heartbeats` (one per MDS): the dense cluster the policy hooks
    /// see, in which a member's position is its `whoami`.
    pub(crate) fn member_view(&self, heartbeats: &[Heartbeat]) -> (Vec<MdsId>, Arc<[Heartbeat]>) {
        let ids: Vec<MdsId> = (0..self.cfg.num_mds).filter(|&m| self.member[m]).collect();
        let view = ids.iter().map(|&m| heartbeats[m]).collect();
        (ids, view)
    }

    /// No client is issuing and nothing is in flight: the run is over.
    pub(crate) fn drained(&self) -> bool {
        self.active == 0 && self.inflight == 0
    }

    /// The latest thaw among the migrations still freezing `d` at `now`,
    /// if any.
    #[cfg(test)]
    pub(crate) fn frozen_until(&self, d: NodeId, now: SimTime) -> Option<SimTime> {
        let thaw = self.stamps.get(d).thaw;
        (thaw > now).then_some(thaw)
    }

    /// Is `d`'s authority still warming up its prefix replicas at `now`?
    #[cfg(test)]
    pub(crate) fn in_cold(&self, d: NodeId, now: SimTime) -> bool {
        self.stamps.get(d).warm > now
    }

    // -- keys ------------------------------------------------------------

    /// Queue a coordinator event at `at` under rank 0's next key: the
    /// queue's insertion count, which every data-plane event bypasses.
    pub(crate) fn schedule_global(&mut self, at: SimTime, event: GlobalEvent) {
        self.queued_globals += 1;
        self.queue.schedule_at(at, Event::Global(Box::new(event)));
    }

    /// Next key for an event generated by MDS `m`.
    fn mds_key(&mut self, m: MdsId) -> u64 {
        let ctr = self.mds_ctr[m];
        self.mds_ctr[m] += 1;
        ((1 + m as u64) << KEY_CTR_BITS) | ctr
    }

    /// Next key for an event generated by client `c`.
    pub(crate) fn client_key(&mut self, c: usize) -> u64 {
        let ctr = self.client_ctr[c];
        self.client_ctr[c] += 1;
        ((1 + self.cfg.num_mds as u64 + c as u64) << KEY_CTR_BITS) | ctr
    }

    // -- the event step --------------------------------------------------

    /// Run the earliest event to completion if it is a data-plane event,
    /// or hand it back if it is the coordinator's.
    pub(crate) fn step(&mut self) -> Option<GlobalEvent> {
        let (now, event) = self.queue.pop().expect("stepped with an event due");
        match event {
            Event::Global(global) => {
                self.queued_globals -= 1;
                return Some(*global);
            }
            Event::ClientNext(c) => {
                if !self.clients[c].done {
                    self.client_next(c, now);
                }
            }
            Event::Arrive { mds, req } => self.on_arrive(mds, req, now),
            Event::Complete {
                mds,
                req,
                service_us,
                epoch,
            } => {
                // Ghost completion: the MDS crashed (and possibly
                // restarted) after this request entered service — the
                // reply never left the wire.
                if !self.up[mds] || epoch != self.mds_epoch[mds] {
                    self.inflight -= 1;
                    self.trace.emit_data(now, || TraceEvent::GhostReply { mds });
                } else {
                    self.on_complete(mds, req, service_us, now);
                }
            }
            Event::Reply { mds, req } => self.on_reply(mds, req, now),
            Event::Timeout { client, seq } => self.on_timeout(client, seq, now),
            Event::Retry(c) => self.on_retry(c, now),
        }
        self.stats.events += 1;
        None
    }

    // -- client side -----------------------------------------------------

    /// Advance client `c`: ask the workload for its next op and issue it,
    /// or mark the client done. Runs inline from an accepted reply (no
    /// same-instant self-event) and from `Event::ClientNext`.
    fn client_next(&mut self, c: usize, now: SimTime) {
        let stall = self.clients[c].stall_until;
        if stall > now {
            let key = self.client_key(c);
            self.queue.schedule_at_key(stall, key, Event::ClientNext(c));
            return;
        }
        // Open-loop workloads can park a client until a later instant
        // (diurnal phases); re-poll then. A live session with
        // an empty queue has no such instant: it keeps no event at all,
        // and the service pump wakes it when an op (or shutdown) arrives.
        if let Some(ready) = self.workload.next_ready_at(c, now) {
            if ready == PARKED {
                self.clients[c].parked = true;
                return;
            }
            if ready > now {
                let key = self.client_key(c);
                self.queue.schedule_at_key(ready, key, Event::ClientNext(c));
                return;
            }
        }
        match self.workload.next(c, &self.ns, now) {
            None => {
                let client = &mut self.clients[c];
                client.done = true;
                if client.finished_at == SimTime::ZERO {
                    client.finished_at = now;
                }
                self.active -= 1;
            }
            Some(op) => {
                let client = &mut self.clients[c];
                client.pending = Some(op);
                client.attempts = 0;
                self.issue(c, now);
            }
        }
    }

    /// Wake client `c` if it is parked: one `ClientNext` at `at`, under a
    /// fresh key. Called by the service pump between events, right after
    /// it queued an op for `c` or closed the queues. A client that is not
    /// parked already has an event coming that ends in `client_next` (its
    /// kick-off, a stall, or the reply to the op it is busy with), so it
    /// is left alone and no wake-up is ever stale. Returns whether it woke.
    pub(crate) fn wake_client(&mut self, c: usize, at: SimTime) -> bool {
        if !std::mem::take(&mut self.clients[c].parked) {
            return false;
        }
        let key = self.client_key(c);
        self.queue.schedule_at_key(at, key, Event::ClientNext(c));
        true
    }

    /// Send the client's pending op to the MDS it routes to, arming the
    /// request timeout when fault injection is on.
    fn issue(&mut self, c: usize, now: SimTime) {
        let op = self.clients[c]
            .pending
            .expect("issue() requires a pending op");
        let frag = self.ns.peek_frag(op.dir);
        let multi_owner = self.ns.frag_span(op.dir) > 1;
        // Proxy-tier probe: does the client group's cache hold this dir?
        let probe = if !self.caches.is_empty() && cacheable(op.kind) {
            let group = group_of(c, self.clients.len(), CACHE_GROUPS);
            Some((group, self.caches[group].lookup(op.dir)))
        } else {
            None
        };
        let mds = route(
            &self.ns,
            op.dir,
            frag,
            multi_owner,
            self.routes.get(c, op.dir),
        );
        let client = &mut self.clients[c];
        client.seq += 1;
        let seq = client.seq;
        let attempts = client.attempts;
        let req = Request {
            client: c,
            op,
            frag,
            issued: now,
            forwarded: false,
            seq,
            attempts,
        };
        if let Some((group, Some(cached))) = probe {
            // Cache hit: the proxy tier absorbs the op. No MDS is
            // enqueued, no service time or heat is charged anywhere
            // (cache-aware metaload: absorbed traffic is *not* MDS
            // load), and no timeout is armed — the reply is local to
            // the tier and cannot be lost. The hit is attributed to the
            // entry's authority so policies can see what the tier is
            // absorbing on each MDS's behalf.
            let counters = &mut self.counters[cached];
            counters.report.cache_hits += 1;
            counters.cache_window_hits += 1;
            self.caches[group].touch(op.dir);
            self.trace.emit_data(now, || TraceEvent::CacheHit {
                group,
                client: c,
                dir: op.dir,
                mds: cached,
            });
            let key = self.client_key(c);
            self.queue.schedule_at_key(
                now + CACHE_HIT_LATENCY,
                key,
                Event::Reply { mds: cached, req },
            );
            return;
        }
        if probe.is_some() {
            // Cacheable but absent: post-cache traffic the routed MDS
            // actually receives.
            let counters = &mut self.counters[mds];
            counters.report.cache_misses += 1;
            counters.cache_window_misses += 1;
        }
        self.trace.emit_data(now, || TraceEvent::RequestIssued {
            client: c,
            dir: op.dir,
            mds,
            seq,
        });
        self.inflight += 1;
        let key = self.client_key(c);
        self.queue
            .schedule_at_key(now + HALF_RTT, key, Event::Arrive { mds, req });
        if self.cfg.faults.is_active() {
            let key = self.client_key(c);
            self.queue.schedule_at_key(
                now + self.cfg.faults.request_timeout,
                key,
                Event::Timeout { client: c, seq },
            );
        }
    }

    /// A request timeout fired. If the attempt is still outstanding, the
    /// client declares it lost, forgets its (possibly stale) route for
    /// the directory, and backs off exponentially before retrying.
    fn on_timeout(&mut self, c: usize, seq: u64, now: SimTime) {
        let client = &self.clients[c];
        if client.seq != seq || client.pending.is_none() {
            return; // the attempt completed (or was already superseded)
        }
        self.timeouts += 1;
        self.trace
            .emit_data(now, || TraceEvent::RequestTimeout { client: c, seq });
        let client = &mut self.clients[c];
        let dir = client.pending.expect("checked above").dir;
        let attempt = client.attempts;
        client.attempts += 1;
        // Re-route: the cached mapping pointed at a dead or unreachable
        // authority; fall back to the mount authority on the next try.
        self.routes.forget(c, dir);
        let backoff = self.cfg.faults.backoff_for(attempt);
        let key = self.client_key(c);
        self.queue
            .schedule_at_key(now + backoff, key, Event::Retry(c));
    }

    /// The backoff elapsed: re-issue the pending op (a late reply may
    /// have landed in the meantime, in which case there is nothing to do).
    fn on_retry(&mut self, c: usize, now: SimTime) {
        if self.clients[c].done || self.clients[c].pending.is_none() {
            return;
        }
        self.retries += 1;
        let attempt = self.clients[c].attempts;
        self.trace
            .emit_data(now, || TraceEvent::RequestRetry { client: c, attempt });
        self.issue(c, now);
    }

    /// A reply reached its client. A reply for a superseded attempt (the
    /// client timed out and re-issued meanwhile) is dropped on the floor.
    fn on_reply(&mut self, mds: MdsId, req: Request, now: SimTime) {
        let client = &mut self.clients[req.client];
        if req.seq != client.seq || client.pending.is_none() {
            return;
        }
        client.pending = None;
        let latency = now - req.issued;
        client.record_completion(now, latency);
        self.routes.learn(req.client, req.op.dir, mds);
        if self.live {
            self.completions.push(crate::service::LiveCompletion {
                client: req.client,
                mds,
                kind: req.op.kind,
                dir: req.op.dir,
                at: now,
                latency_ms: latency.as_millis_f64(),
            });
        }
        self.client_next(req.client, now);
    }

    // -- server side -----------------------------------------------------

    fn on_arrive(&mut self, mds: MdsId, mut req: Request, now: SimTime) {
        // A crashed MDS serves nothing: the request is lost on the floor
        // and the issuing client's timeout recovers it.
        if !self.up[mds] {
            self.counters[mds].report.dropped += 1;
            self.inflight -= 1;
            self.trace.emit_data(now, || TraceEvent::Dropped {
                mds,
                client: req.client,
            });
            return;
        }
        // Hash placement pins each directory on first touch; this request
        // already routes against the pin.
        let dir = req.op.dir;
        if self.cfg.placement == PlacementPolicy::HashDirs && self.ns.dir(dir).auth.is_none() {
            let mut target =
                (dir.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize % self.cfg.num_mds;
            if !self.up[target] || !self.member[target] {
                target = 0; // never pin fresh metadata on a dead or departed MDS
            }
            self.ns.set_auth(dir, Some(target));
            self.trace
                .emit(now, || TraceEvent::HashPin { dir, mds: target });
        }
        // Frozen subtree (mid-migration): the request waits for the thaw.
        let stamp = self.stamps.get(dir);
        if stamp.thaw > now {
            self.trace.emit_data(now, || TraceEvent::Deferred {
                mds,
                dir,
                until: stamp.thaw,
            });
            let key = self.mds_key(mds);
            self.queue
                .schedule_at_key(stamp.thaw, key, Event::Arrive { mds, req });
            return;
        }
        let frag = req.frag.min(self.ns.dir(req.op.dir).frags.len() - 1);
        let auth = self.ns.frag_auth(req.op.dir, frag);
        if auth != mds {
            // Wrong MDS: pay a forward (wasted service here + a hop).
            self.counters[mds].report.forwards_out += 1;
            let start = self.next_free[mds].max(now);
            self.next_free[mds] = start + SimTime::from_micros_f64(FORWARD_US);
            self.counters[mds].busy_window_us += FORWARD_US;
            req.forwarded = true;
            self.trace.emit_data(now, || TraceEvent::Forwarded {
                from: mds,
                to: auth,
                dir: req.op.dir,
                frag,
                client: req.client,
            });
            let at = self.next_free[mds].max(now) + FORWARD_HOP;
            let key = self.mds_key(mds);
            self.queue
                .schedule_at_key(at, key, Event::Arrive { mds: auth, req });
            return;
        }
        if req.forwarded {
            self.counters[mds].report.forwards_in += 1;
        } else {
            self.counters[mds].report.hits += 1;
        }
        self.trace.emit_data(now, || TraceEvent::Served {
            mds,
            client: req.client,
            dir: req.op.dir,
            frag,
            kind: req.op.kind,
            seq: req.seq,
        });
        let span = self.ns.frag_span(req.op.dir);
        let mut base =
            service_with_span(req.op.kind, span) * contention_factor(self.counters[mds].queued);
        // Path traversal: right after an import the serving MDS has not
        // yet replicated the directory's ancestor prefix, so traversals
        // resolve remotely (and, once warm, locally again).
        if stamp.warm > now {
            if self.ns.dir(req.op.dir).parent().is_some() {
                base *= 1.0 + REMOTE_PREFIX_PENALTY;
                self.counters[mds].report.remote_prefix += 1;
            }
        } else if self.cfg.placement == PlacementPolicy::HashDirs {
            // Hash-based placement has no subtree prefix replication
            // (§5 "Compute it – Hashing"): every traversal whose parent
            // lives elsewhere resolves remotely, permanently.
            if let Some(parent) = self.ns.dir(req.op.dir).parent() {
                if self.ns.resolve_auth(parent) != mds {
                    base *= 1.0 + REMOTE_PREFIX_PENALTY;
                    self.counters[mds].report.remote_prefix += 1;
                }
            }
        }
        // An injected slowdown stretches every service time in its window.
        if self.cfg.faults.is_active() && now < self.slow_until[mds] {
            base *= self.slow_factor[mds];
        }
        let noise = self.rng_service[mds].jitter(SERVICE_NOISE);
        let service_us = (base * noise).max(1.0);
        let start = self.next_free[mds].max(now);
        let done = start + SimTime::from_micros_f64(service_us);
        self.next_free[mds] = done;
        self.counters[mds].queued += 1;
        let key = self.mds_key(mds);
        self.queue.schedule_at_key(
            done,
            key,
            Event::Complete {
                mds,
                req,
                service_us,
                epoch: self.mds_epoch[mds],
            },
        );
    }

    fn on_complete(&mut self, mds: MdsId, req: Request, service_us: f64, now: SimTime) {
        let counters = &mut self.counters[mds];
        counters.queued = counters.queued.saturating_sub(1);
        counters.complete_op(now, service_us);
        let dir = req.op.dir;
        // Server-computed staleness: the issuing client has already timed
        // this attempt out and re-issued iff its retry fired strictly
        // before service finished. Everything in the predicate travelled
        // with the request, as it would on a wire — the client-side guard
        // in `on_reply` stays authoritative for the races this can't see.
        let stale = self.cfg.faults.is_active()
            && req.issued
                + self.cfg.faults.request_timeout
                + self.cfg.faults.backoff_for(req.attempts)
                < now;
        let frag = req.frag.min(self.ns.dir(dir).frags.len() - 1);
        let (client, kind) = (req.client, req.op.kind);
        self.trace.emit_data(now, || {
            if stale {
                TraceEvent::StaleReply {
                    mds,
                    client,
                    dir,
                    frag,
                    kind,
                }
            } else {
                TraceEvent::Completed {
                    mds,
                    client,
                    dir,
                    frag,
                    kind,
                }
            }
        });
        // The server-side work happened either way: charge the op's heat
        // and size to the fragment it hit, and fragment the directory if
        // that took it over the threshold. The split work is billed to the
        // fragment's authority, the MDS that was serving those ops.
        if let (_, Some(se)) = self.ns.record_op_on(dir, frag, kind, now) {
            self.trace.emit(now, || TraceEvent::FragSplit {
                dir,
                frag: se.frag,
                ways: se.ways,
                resulting_frags: se.resulting_frags,
            });
            let auth = self.ns.frag_auth(dir, se.resulting_frags - 1);
            let c = &mut self.counters[auth];
            c.report.splits += 1;
            c.busy_window_us += SPLIT_US;
            self.next_free[auth] =
                self.next_free[auth].max(now) + SimTime::from_micros_f64(SPLIT_US);
        }
        // A mutating op rewrote `dir`'s metadata: every proxy copy is
        // stale and drops.
        if !self.caches.is_empty() && kind.is_write() {
            let mut entries = 0u64;
            for cache in &mut self.caches {
                entries += u64::from(cache.invalidate(dir));
            }
            if entries > 0 {
                self.cache_invalidations += entries;
                self.trace
                    .emit_data(now, || TraceEvent::CacheInvalidate { dir, entries });
            }
        }
        self.inflight -= 1;
        if stale {
            return;
        }
        // The reply carries `dir`'s metadata through the proxy tier: the
        // issuing group's cache learns it (ghost and stale completions
        // never fill — their replies never landed).
        if !self.caches.is_empty() && cacheable(kind) {
            let group = group_of(client, self.clients.len(), CACHE_GROUPS);
            self.caches[group].fill(dir, mds);
            self.trace
                .emit_data(now, || TraceEvent::CacheFill { group, dir, mds });
        }
        let key = self.mds_key(mds);
        self.queue
            .schedule_at_key(now + HALF_RTT, key, Event::Reply { mds, req });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Is `d` at or below `root`? A parent walk: the oracle knows nothing
    /// the namespace maintains beyond `Dir::parent`.
    pub(crate) fn is_under(ns: &Namespace, d: NodeId, root: NodeId) -> bool {
        let mut cur = Some(d);
        while let Some(c) = cur {
            if c == root {
                return true;
            }
            cur = ns.dir(c).parent();
        }
        false
    }

    /// One export's moved region as a predicate: the test oracle for the
    /// directory list [`crate::migration`] stamps ([`DirStamps`]) and
    /// invalidates ([`crate::cache`]). Membership is [`is_under`] the
    /// root and no hole, for directories that existed at the export.
    #[derive(Debug, Clone)]
    pub(crate) struct SubtreeWindow {
        pub(crate) root: NodeId,
        /// Nested authority bounds inside the exported subtree;
        /// directories under a hole did not move.
        pub(crate) holes: Vec<NodeId>,
        /// `dir_count` at capture: directories created after the export
        /// sit outside even when they are under the root.
        pub(crate) watermark: u32,
        /// Frag exports cover only the fragmented directory itself.
        pub(crate) root_only: bool,
        pub(crate) until: SimTime,
    }

    impl SubtreeWindow {
        pub(crate) fn contains(&self, ns: &Namespace, d: NodeId) -> bool {
            if d.0 >= self.watermark {
                return false;
            }
            if self.root_only {
                return d == self.root;
            }
            is_under(ns, d, self.root) && !self.holes.iter().any(|&h| is_under(ns, d, h))
        }
    }

    /// The queue's slab holds one `Event` per pending event: a bigger
    /// coordinator variant must not grow it.
    #[test]
    fn an_event_is_72_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 72);
    }

    #[test]
    fn keys_order_by_origin_then_sequence() {
        // MDS ranks sort before client ranks; within a rank the counter
        // orders the events.
        let mds0 = 1u64 << KEY_CTR_BITS;
        let mds1 = 2u64 << KEY_CTR_BITS;
        let client0 = (1u64 + 4) << KEY_CTR_BITS; // num_mds = 4
        assert!(mds0 < mds1);
        assert!(mds1 < client0);
        assert!(mds0 < (1u64 << KEY_CTR_BITS) | 1);
    }
}
