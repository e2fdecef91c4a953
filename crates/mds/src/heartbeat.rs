//! The heartbeat view: what every MDS "sends" each tick and what the
//! others get to see of it (the paper's *send HB* / *recv HB* stages).
//!
//! One snapshot per tick packages each MDS's metadata load (through its
//! own `metaload` hook), CPU, queue depth, request rate and cache
//! tallies, with seeded measurement noise. Under a fault plan the view
//! readers get can lag the truth: a *dropped* MDS stays frozen at its
//! last pre-outage snapshot, a *delayed* one shows the previous tick's.
//! The outage windows, the noise stream and the per-tick scratch buffers
//! all live here; the counters, the namespace and the configuration are
//! read through the simulation state ([`crate::world`]). Without a fault
//! plan no outage window can open, and the fresh snapshot is the view.

use std::sync::Arc;

use mantle_namespace::{MdsId, NodeId};
use mantle_sim::{SimRng, SimTime};

use crate::balancer::BalancerSet;
use crate::config::ClusterConfig;
use crate::metrics::Heartbeat;
use crate::world::World;

/// Replicated ancestor heat counts toward `all_metaload` at this discount.
const REPLICA_DISCOUNT: f64 = 0.2;

/// Multiplicative noise on instantaneous CPU measurements, a uniform
/// factor in `1 ± CPU_NOISE` (§2.2.2's "influenced by the measurement
/// tool").
const CPU_NOISE: f64 = 0.05;

/// Multiplicative sampling noise on the heartbeat's metadata-load
/// metrics, a uniform factor in `1 ± METALOAD_NOISE`. The paper's balancer reads counters at an instant and ships
/// them in heartbeats; this noise (together with stale views) is why "the
/// balancing behavior is not reproducible" (Fig. 4).
const METALOAD_NOISE: f64 = 0.15;

/// Heartbeat snapshot state, owned by the coordinator.
pub(crate) struct HeartbeatView {
    /// CPU/metaload measurement noise, consumed in MDS order once per
    /// tick.
    rng: SimRng,
    /// Outage windows: while dropping, readers see the snapshot frozen at
    /// the window start; while delaying, the previous tick's.
    drop_until: Vec<SimTime>,
    delay_until: Vec<SimTime>,
    frozen: Vec<Option<Heartbeat>>,
    published: Vec<Heartbeat>,
    /// Reused per-tick load accumulators: at 64+ MDSs this runs every
    /// tick and the allocations would dominate the balancer path.
    auth_load: Vec<f64>,
    all_load: Vec<f64>,
    /// Reused directory-list buffer (non-additive metaload walks).
    dirs: Vec<NodeId>,
}

impl HeartbeatView {
    pub(crate) fn new(cfg: &ClusterConfig, master: &SimRng) -> Self {
        let n = cfg.num_mds;
        HeartbeatView {
            rng: master.stream("cpu-noise"),
            drop_until: vec![SimTime::ZERO; n],
            delay_until: vec![SimTime::ZERO; n],
            frozen: vec![None; n],
            published: vec![Heartbeat::default(); n],
            auth_load: Vec::new(),
            all_load: Vec::new(),
            dirs: Vec::new(),
        }
    }

    /// `mds`'s heartbeats are lost until `until`.
    pub(crate) fn drop_until(&mut self, mds: MdsId, until: SimTime) {
        self.drop_until[mds] = until;
    }

    /// `mds`'s heartbeats arrive a tick late until `until`.
    pub(crate) fn delay_until(&mut self, mds: MdsId, until: SimTime) {
        self.delay_until[mds] = until;
    }

    /// Every MDS packages up its metrics; returns the view the balancers
    /// run against this tick.
    pub(crate) fn snapshot(
        &mut self,
        w: &mut World,
        policy: &BalancerSet,
        now: SimTime,
    ) -> Arc<[Heartbeat]> {
        let cfg = &w.cfg;
        let n = cfg.num_mds;
        let (auth_load, all_load) = (&mut self.auth_load, &mut self.all_load);
        auth_load.clear();
        auth_load.resize(n, 0.0);
        all_load.clear();
        all_load.resize(n, 0.0);
        // Metadata loads from the decayed counters, via each MDS's own
        // metaload policy (evaluated on that MDS's authoritative heat).
        let ns = &mut w.ns;
        if policy.all_additive() {
            // Every metaload hook is linear with no constant term, so the
            // per-MDS decayed aggregates the namespace maintains
            // incrementally stand in for the frag-by-frag walk: O(MDSs)
            // per tick instead of O(dirs × frags × hook evaluations).
            let (auth_s, rep_s) = ns.mds_load_samples(n, now);
            for m in 0..n {
                let auth = policy.metaload(m, &auth_s[m]);
                let rep = policy.metaload(m, &rep_s[m]);
                auth_load[m] = auth;
                all_load[m] = auth + REPLICA_DISCOUNT * rep;
            }
        } else {
            // Some hook is non-linear (or has a constant term), so sums of
            // heat don't commute with the hook: fall back to evaluating it
            // per dirfrag.
            self.dirs.clear();
            self.dirs.extend(ns.all_dirs());
            for &d in &self.dirs {
                let nfrags = ns.dir(d).frags.len();
                for f in 0..nfrags {
                    let heat = ns.frag_heat(d, f, now);
                    let auth = ns.frag_auth(d, f);
                    let load = policy.metaload(auth, &heat);
                    auth_load[auth] += load;
                    all_load[auth] += load;
                    // Every MDS replicating this path prefix also "knows"
                    // about this load.
                    for &rep in ns.ancestor_auth_chain(d) {
                        if rep != auth {
                            all_load[rep] += load * REPLICA_DISCOUNT;
                        }
                    }
                }
            }
        }
        let fresh: Vec<Heartbeat> = (0..n)
            .map(|m| {
                let c = &w.counters[m];
                let cpu_raw = c.cpu_percent(cfg.heartbeat_interval);
                let queue_len = c.queued as f64;
                let req_rate = c.req_rate(cfg.heartbeat_interval);
                let cpu = (cpu_raw * self.rng.jitter(CPU_NOISE)).clamp(0.0, 100.0);
                // Loads are instantaneous samples shipped over the wire —
                // every reader sees them with sampling error (§2.2.2).
                let load_jitter = self.rng.jitter(METALOAD_NOISE);
                Heartbeat {
                    auth_metaload: auth_load[m] * load_jitter,
                    all_metaload: all_load[m] * load_jitter,
                    cpu,
                    mem: 20.0 + 0.5 * auth_load[m].min(100.0),
                    queue_len,
                    req_rate,
                    cache_hits: c.cache_window_hits as f64,
                    cache_misses: c.cache_window_misses as f64,
                    taken_at: now,
                }
            })
            .collect();
        if !cfg.faults.is_active() {
            return fresh.into();
        }
        // Heartbeat outages: a dropped MDS's snapshot stays frozen at its
        // last pre-window value; a delayed one lags a full interval. The
        // fresh samples are always recorded so the window can end cleanly.
        let mut view = fresh.clone();
        for (m, slot) in view.iter_mut().enumerate() {
            if now < self.drop_until[m] {
                *slot = *self.frozen[m].get_or_insert(self.published[m]);
            } else {
                self.frozen[m] = None;
                if now < self.delay_until[m] {
                    *slot = self.published[m];
                }
            }
        }
        self.published = fresh;
        view.into()
    }
}
