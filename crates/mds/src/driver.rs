//! The engine driver: the window scheduler and the `Exclusive` view of the
//! state it owns.
//!
//! # Shape
//!
//! The data plane lives in [`Shard`]s (see [`crate::shard`]); the control
//! plane is the `Coordinator` (see [`crate::cluster`]). The driver owns
//! the simulation state by value and alternates between
//!
//! 1. **windows** — every shard, in id order, drains its events inside
//!    `[base, base + lookahead)` against a read-only [`SharedSim`]; then
//!    the coordinator's barrier applies deferred namespace mutations in
//!    global `(time, key)` order and cross-shard messages are exchanged,
//!    and
//! 2. **exclusive steps** — global events (heartbeat ticks, faults, admin
//!    actions) run alone between windows.
//!
//! The engine is single-threaded: [`crate::ExecMode`] only picks how many
//! logical shards the entities are partitioned into. Window boundaries,
//! event keys, and barrier effects are all shard-count-invariant, so a
//! fixed seed produces byte-identical reports and traces at any
//! partition count.
//!
//! # The exclusive view
//!
//! Everything outside a window — the gather, the barrier, every
//! control-plane step, the live-service pump — works through one
//! `Exclusive` value: `&mut` access to the shared state and to every
//! shard at once. Inside a window a shard gets `&mut` to itself and `&`
//! to [`SharedSim`]; the borrow checker keeps the two phases apart.

use mantle_namespace::MdsId;
use mantle_sim::SimTime;

use crate::cluster::Coordinator;
use crate::service::ServicePump;
use crate::shard::{ExecStats, Shard, ShardRouter, SharedSim};

// During a window every shard reads the same `&SharedSim`, so the order
// the shards are drained in is irrelevant only as long as that read has
// no side effect. `Sync` and `Send` say exactly that — no interior
// mutability behind `&`, no shared ownership — so a `Cell`, `RefCell` or
// `Rc` cache put where an in-window reader could mutate it fails the
// build here.
const _: fn() = || {
    fn sync<T: Sync>() {}
    fn send<T: Send>() {}
    sync::<SharedSim>();
    send::<Shard>();
};

/// The simulation state, plus what the scheduler needs to size windows.
pub(crate) struct Driver {
    pub(crate) sim: SharedSim,
    pub(crate) shards: Vec<Shard>,
    router: ShardRouter,
    /// Conservative window width: no simulated interaction crosses shards
    /// faster than this (the minimum of half an RTT and a forward hop).
    lookahead: SimTime,
}

/// One look across every shard: when the next data-plane event is due,
/// whether anything is still running, and how far time has got.
pub(crate) struct Frontier {
    pub(crate) next_event: Option<SimTime>,
    active: usize,
    inflight: i64,
    /// Latest instant any shard has processed an event at.
    pub(crate) last_event: SimTime,
}

impl Frontier {
    /// No client is issuing and nothing is in flight: the run is over.
    pub(crate) fn drained(&self) -> bool {
        self.active == 0 && self.inflight == 0
    }
}

/// Exclusive access to the whole simulation: [`SharedSim`] and every
/// [`Shard`], mutably and together. A function that takes
/// `&mut Exclusive` runs between windows, never inside one.
pub(crate) struct Exclusive<'a> {
    sim: &'a mut SharedSim,
    shards: &'a mut [Shard],
    router: &'a ShardRouter,
}

impl Exclusive<'_> {
    /// The shared simulation state.
    pub(crate) fn sim(&mut self) -> &mut SharedSim {
        self.sim
    }

    /// Every shard, in id order.
    pub(crate) fn shards(&mut self) -> impl Iterator<Item = &mut Shard> {
        self.shards.iter_mut()
    }

    /// The shared state and the shards at once, for steps that read one
    /// while writing the other.
    pub(crate) fn parts(&mut self) -> (&mut SharedSim, impl Iterator<Item = &mut Shard>) {
        (self.sim, self.shards.iter_mut())
    }

    /// The shard owning MDS `m`.
    pub(crate) fn mds_shard(&mut self, m: MdsId) -> &mut Shard {
        &mut self.shards[self.router.shard_of_mds(m)]
    }

    /// The shard owning client `c`.
    pub(crate) fn client_shard(&mut self, c: usize) -> &mut Shard {
        &mut self.shards[self.router.client_shard[c]]
    }

    /// Number of clients across all shards.
    pub(crate) fn num_clients(&self) -> usize {
        self.router.client_shard.len()
    }

    /// Next event time, liveness, conservation counts and time frontier.
    pub(crate) fn gather(&self) -> Frontier {
        let mut f = Frontier {
            next_event: None,
            active: 0,
            inflight: 0,
            last_event: SimTime::ZERO,
        };
        for g in self.shards.iter() {
            if let Some(t) = g.queue.peek_time() {
                f.next_event = Some(f.next_event.map_or(t, |x: SimTime| x.min(t)));
            }
            f.active += g.active;
            f.inflight += g.inflight;
            f.last_event = f.last_event.max(g.last_event);
        }
        f
    }

    /// Deliver cross-shard messages. Order is irrelevant — every message
    /// carries its total-order `(at, key)` and queues sort on it.
    pub(crate) fn exchange_messages(&mut self) {
        let k = self.shards.len();
        for s in 0..k {
            for t in (0..k).filter(|&t| t != s) {
                // Sender and target at once; draining keeps the bin's
                // capacity for the next window.
                let (lo, hi) = self.shards.split_at_mut(s.max(t));
                let (sender, target) = if s < t {
                    (&mut lo[s], &mut hi[0])
                } else {
                    (&mut hi[0], &mut lo[t])
                };
                for msg in sender.outbox[t].drain(..) {
                    target.queue.schedule_at_key(msg.at, msg.key, msg.event);
                }
            }
        }
    }
}

impl Driver {
    pub(crate) fn new(
        sim: SharedSim,
        shards: Vec<Shard>,
        router: ShardRouter,
        lookahead: SimTime,
    ) -> Self {
        Driver {
            sim,
            shards,
            router,
            lookahead,
        }
    }

    /// The `&mut` view of everything the driver owns.
    pub(crate) fn exclusive(&mut self) -> Exclusive<'_> {
        Exclusive {
            sim: &mut self.sim,
            shards: &mut self.shards,
            router: &self.router,
        }
    }

    /// Run to completion: schedule windows and exclusive steps until the
    /// clients drain, time runs out, or nothing is left to do. `pump` is
    /// the live-service hook ([`crate::Cluster::serve`]): called before
    /// each gather (command injection + wall pacing) and after each step
    /// (event streaming). Batch runs pass `None`, which skips both calls
    /// entirely — the scheduler's decisions are untouched. Returns the
    /// timestamp of the last processed event and the scheduler's numbers.
    pub(crate) fn run(
        &mut self,
        co: &mut Coordinator,
        mut pump: Option<&mut ServicePump>,
    ) -> (SimTime, ExecStats) {
        let max_d = co.cfg.max_duration;
        // Events at exactly `max_duration` still run (strict-less windows).
        let hard_end = max_d + SimTime::from_micros(1);
        let lookahead = self.lookahead;
        let mut last_now = SimTime::ZERO;
        let (mut windows, mut exclusive_events) = (0u64, 0u64);
        let mut x = self.exclusive();
        loop {
            if let Some(p) = pump.as_deref_mut() {
                p.pre(co, &mut x, last_now);
            }
            let frontier = x.gather();
            last_now = last_now.max(frontier.last_event);
            if frontier.drained() {
                break;
            }
            let t_shard = frontier.next_event;
            let t_glob = co.next_global_at();
            let Some(t_min) = t_shard.into_iter().chain(t_glob).min() else {
                break;
            };
            if t_min > max_d {
                break;
            }
            // Globals run exclusively, winning same-instant ties — the
            // heartbeat at T sees the world as of T, before events at T.
            if t_glob.is_some_and(|tg| t_shard.is_none_or(|ts| tg <= ts)) {
                last_now = last_now.max(t_min);
                co.run_global(&mut x);
                exclusive_events += 1;
            } else {
                let mut window_end = (t_min + lookahead).min(hard_end);
                if let Some(tg) = t_glob {
                    window_end = window_end.min(tg);
                }
                // The window: each shard in id order, `&mut` to itself
                // and `&` to the shared state.
                for shard in x.shards.iter_mut() {
                    shard.process_window(x.sim, x.router, window_end);
                }
                windows += 1;
                co.barrier(&mut x, window_end);
            }
            if let Some(p) = pump.as_deref_mut() {
                p.post(co, &mut x);
            }
        }
        if let Some(p) = pump {
            p.post(co, &mut x);
        }
        let stats = ExecStats {
            threads: self.shards.len(),
            windows,
            exclusive_events,
            shards: self.shards.iter().map(|s| s.stats).collect(),
        };
        (last_now, stats)
    }

    #[cfg(test)]
    pub(crate) fn router(&self) -> &ShardRouter {
        &self.router
    }
}
