//! Deterministic fault injection: what can go wrong in a run, as pure
//! data, and the one step (`apply`) that makes it go wrong.
//!
//! The paper's robustness story (§3.4, §6) is that Mantle tolerates bad
//! or failing balancers by falling back to the original CephFS balancer,
//! and its evaluation stresses the cluster with skewed load under stale
//! heartbeat views (§2.2.2). A [`FaultPlan`] makes those scenarios
//! reproducible: it is part of [`crate::config::ClusterConfig`] and every
//! fault fires at a fixed virtual time, in a global step of the
//! coordinator — so a run with a given `(seed, plan)` is bit-for-bit
//! repeatable.
//!
//! Faults (what breaks):
//! * [`FaultKind::Crash`] / [`FaultKind::Restart`] — an MDS dies (its
//!   subtrees fail over to MDS 0, requests in flight to it are lost and
//!   time out at the clients) and later comes back empty-handed;
//! * [`FaultKind::Slowdown`] — an MDS serves every request slower by a
//!   multiplier over a window (a sick disk, a noisy neighbour);
//! * [`FaultKind::DropHeartbeats`] / [`FaultKind::DelayHeartbeats`] — an
//!   MDS's heartbeats stop reaching (or lag behind) the rest of the
//!   cluster, so balancers decide on stale snapshots of it;
//! * [`FaultKind::PoisonBalancer`] — an MDS's balancer hooks start
//!   erroring mid-run, as if a bad policy had been injected live.
//!
//! Reactions (how the cluster degrades instead of collapsing):
//! * clients time out requests after [`FaultPlan::request_timeout`] and
//!   retry with exponential backoff, re-routing through the mount
//!   authority;
//! * after three consecutive balancer errors an MDS swaps its balancer
//!   for the built-in [`crate::balancer::CephfsBalancer`] (the §3.4
//!   fallback).
//!
//! The outcome is surfaced in [`crate::report::RunReport`] as the
//! `timeouts`, `retries`, `failovers`, and `balancer_fallbacks` counters.

use mantle_namespace::{MdsId, NodeId};
use mantle_sim::SimTime;

use crate::cluster::Coordinator;
use crate::trace::TraceEvent;
use crate::world::World;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires (virtual time).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The kinds of injectable faults.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The MDS stops serving: requests in flight to it (and anything in
    /// its queue) are lost, and its subtrees fail over to MDS 0. MDS 0 is
    /// the mount authority and cannot crash; a `Crash { mds: 0 }` is
    /// ignored.
    Crash {
        /// The MDS that dies.
        mds: MdsId,
    },
    /// A crashed MDS comes back up with an empty queue and no authority
    /// (the balancers redistribute load to it organically).
    Restart {
        /// The MDS that recovers.
        mds: MdsId,
    },
    /// Every request served by `mds` costs `factor`× its normal service
    /// time until the window closes.
    Slowdown {
        /// The MDS that slows down.
        mds: MdsId,
        /// Service-time multiplier (> 1 slows, e.g. 4.0).
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimTime,
    },
    /// Heartbeats from `mds` stop arriving: for the duration, every other
    /// MDS keeps seeing the last snapshot published *before* the window
    /// opened (frozen, increasingly stale — §2.2.2 taken to the limit).
    DropHeartbeats {
        /// The MDS whose heartbeats are lost.
        mds: MdsId,
        /// How long the outage lasts.
        duration: SimTime,
    },
    /// Heartbeats from `mds` arrive one full interval late: for the
    /// duration, readers see the *previous* tick's snapshot of it.
    DelayHeartbeats {
        /// The MDS whose heartbeats lag.
        mds: MdsId,
        /// How long the lag lasts.
        duration: SimTime,
    },
    /// The MDS's balancer hooks start failing on every tick from now on,
    /// as if a broken policy had been injected live. The per-MDS fallback
    /// (§3.4) eventually swaps in the default CephFS balancer.
    PoisonBalancer {
        /// The MDS whose balancer is poisoned.
        mds: MdsId,
    },
}

impl FaultKind {
    /// The MDS this fault targets.
    pub fn mds(&self) -> MdsId {
        match *self {
            FaultKind::Crash { mds }
            | FaultKind::Restart { mds }
            | FaultKind::Slowdown { mds, .. }
            | FaultKind::DropHeartbeats { mds, .. }
            | FaultKind::DelayHeartbeats { mds, .. }
            | FaultKind::PoisonBalancer { mds } => mds,
        }
    }
}

/// Cap on retry-backoff doublings (bounds the worst-case retry interval).
const MAX_BACKOFF_DOUBLINGS: u32 = 6;

/// A full fault schedule plus the clients' reaction knobs. Pure data;
/// the default plan is inert (no events) and leaves runs byte-identical
/// to a cluster built before fault injection existed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, in any order (the event queue sorts them).
    pub events: Vec<FaultEvent>,
    /// Client-side request timeout: how long a client waits for a reply
    /// before declaring the request lost and retrying.
    pub request_timeout: SimTime,
    /// Base retry backoff; attempt `n` waits `backoff × 2^min(n, 6)`.
    pub retry_backoff: SimTime,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            request_timeout: SimTime::from_secs(2),
            retry_backoff: SimTime::from_millis(50),
        }
    }
}

impl FaultPlan {
    /// An empty plan (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when any fault is scheduled. An inert plan skips all
    /// timeout/retry bookkeeping so healthy runs stay byte-identical to
    /// the pre-fault-injection simulator.
    pub fn is_active(&self) -> bool {
        !self.events.is_empty()
    }

    /// Schedule a crash of `mds` at `at`.
    pub fn crash(mut self, at: SimTime, mds: MdsId) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Crash { mds },
        });
        self
    }

    /// Schedule a restart of `mds` at `at`.
    pub fn restart(mut self, at: SimTime, mds: MdsId) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Restart { mds },
        });
        self
    }

    /// Slow `mds` by `factor`× for `duration` starting at `at`.
    pub fn slowdown(mut self, at: SimTime, mds: MdsId, factor: f64, duration: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Slowdown {
                mds,
                factor,
                duration,
            },
        });
        self
    }

    /// Drop `mds`'s heartbeats for `duration` starting at `at`.
    pub fn drop_heartbeats(mut self, at: SimTime, mds: MdsId, duration: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DropHeartbeats { mds, duration },
        });
        self
    }

    /// Delay `mds`'s heartbeats by one interval for `duration` starting
    /// at `at`.
    pub fn delay_heartbeats(mut self, at: SimTime, mds: MdsId, duration: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DelayHeartbeats { mds, duration },
        });
        self
    }

    /// Poison `mds`'s balancer hooks starting at `at`.
    pub fn poison_balancer(mut self, at: SimTime, mds: MdsId) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::PoisonBalancer { mds },
        });
        self
    }

    /// Backoff before retry attempt `n` (0-based): exponential, capped.
    pub fn backoff_for(&self, attempt: u32) -> SimTime {
        let doublings = attempt.min(MAX_BACKOFF_DOUBLINGS);
        SimTime::from_micros_f64(self.retry_backoff.as_micros() as f64 * (1u64 << doublings) as f64)
    }
}

/// Apply one fired fault. Faults naming an MDS outside the cluster, and
/// crashes or restarts that would change nothing, are ignored.
pub(crate) fn apply(co: &mut Coordinator, w: &mut World, kind: &FaultKind, now: SimTime) {
    let mds = kind.mds();
    if mds >= w.cfg.num_mds {
        return;
    }
    let injected = match *kind {
        FaultKind::Crash { .. } => {
            // MDS 0 is the mount authority and the failover target; a
            // cluster that loses it has no root to serve from.
            if mds == 0 || !w.up[mds] {
                return;
            }
            w.up[mds] = false;
            w.mds_epoch[mds] += 1;
            w.counters[mds].queued = 0;
            w.trace.sync_dirs(&w.ns, now);
            w.trace.emit(now, || TraceEvent::MdsCrash { mds });
            // Every subtree and dirfrag it served fails over to the
            // mount authority; the balancers respread load from there.
            let ns = &mut w.ns;
            let dirs: Vec<NodeId> = ns.all_dirs().collect();
            for d in dirs {
                if ns.dir(d).auth == Some(mds) {
                    ns.set_auth(d, Some(0));
                    co.failovers += 1;
                }
                for f in 0..ns.dir(d).frags.len() {
                    if ns.dir(d).frags[f].auth == Some(mds) {
                        ns.set_frag_auth(d, f, Some(0));
                        co.failovers += 1;
                    }
                }
            }
            return;
        }
        FaultKind::Restart { .. } => {
            if w.up[mds] {
                return;
            }
            w.up[mds] = true;
            w.trace.emit(now, || TraceEvent::MdsRestart { mds });
            // Fresh queue, nothing owed from the previous incarnation.
            w.next_free[mds] = now;
            return;
        }
        FaultKind::Slowdown {
            factor, duration, ..
        } => {
            w.slow_factor[mds] = factor.max(0.0);
            w.slow_until[mds] = now + duration;
            "slowdown"
        }
        FaultKind::DropHeartbeats { duration, .. } => {
            co.hb.drop_until(mds, now + duration);
            "drop-heartbeats"
        }
        FaultKind::DelayHeartbeats { duration, .. } => {
            co.hb.delay_until(mds, now + duration);
            "delay-heartbeats"
        }
        FaultKind::PoisonBalancer { .. } => {
            co.policy.poison(mds);
            "poison-balancer"
        }
    };
    w.trace.emit(now, || TraceEvent::FaultInjected {
        mds,
        kind: injected,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        assert!(p.request_timeout > SimTime::ZERO);
    }

    #[test]
    fn builders_accumulate_events() {
        let p = FaultPlan::new()
            .crash(SimTime::from_secs(1), 2)
            .restart(SimTime::from_secs(5), 2)
            .slowdown(SimTime::from_secs(2), 1, 4.0, SimTime::from_secs(3))
            .drop_heartbeats(SimTime::from_secs(1), 1, SimTime::from_secs(2))
            .delay_heartbeats(SimTime::from_secs(4), 1, SimTime::from_secs(2))
            .poison_balancer(SimTime::from_secs(3), 0);
        assert!(p.is_active());
        assert_eq!(p.events.len(), 6);
        assert_eq!(p.events[0].kind, FaultKind::Crash { mds: 2 });
        assert_eq!(p.events[0].kind.mds(), 2);
        assert_eq!(p.events[2].kind.mds(), 1);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = FaultPlan {
            retry_backoff: SimTime::from_millis(10),
            ..Default::default()
        };
        assert_eq!(p.backoff_for(0), SimTime::from_millis(10));
        assert_eq!(p.backoff_for(1), SimTime::from_millis(20));
        assert_eq!(p.backoff_for(3), SimTime::from_millis(80));
        assert_eq!(p.backoff_for(6), SimTime::from_millis(640));
        // Capped: further attempts wait no longer.
        assert_eq!(p.backoff_for(7), SimTime::from_millis(640));
        assert_eq!(p.backoff_for(10), SimTime::from_millis(640));
    }
}
