//! The engine driver: the window scheduler, the worker threads, and the
//! lock layer between them — the only module in this crate's engine that
//! names a lock, a guard or a barrier.
//!
//! # Shape
//!
//! The data plane lives in [`Shard`]s (see [`crate::shard`]); the control
//! plane is the `Coordinator` (see [`crate::cluster`]). The driver
//! alternates between
//!
//! 1. **windows** — every shard concurrently drains its events inside
//!    `[base, base + lookahead)`, then the coordinator's barrier applies
//!    deferred namespace mutations in global `(time, key)` order and
//!    cross-shard messages are exchanged, and
//! 2. **exclusive steps** — global events (heartbeat ticks, faults, admin
//!    actions) run alone between windows.
//!
//! Both [`ExecMode::Single`] and [`ExecMode::Sharded`] drive the *same*
//! loop; `Single` runs its one shard inline on the calling thread. Window
//! boundaries, event keys, and barrier effects are all
//! shard-count-invariant, so a fixed seed produces byte-identical reports
//! and traces at any thread count.
//!
//! # The exclusive view
//!
//! Everything outside a window — the gather, the barrier, every
//! control-plane step, the live-service pump — works through one
//! `Exclusive` value. It can only be built by taking the simulation's
//! write lock and every shard's lock, so holding one *is* the proof that
//! no worker is running; steps take `&mut Exclusive` and never see a
//! lock. The scheduler holds a single view for the whole run and gives
//! it up only for the duration of each window
//! (`Exclusive::release_for`), reusing the guard buffer, so a window
//! costs one unlock/lock round and no allocation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockWriteGuard};

use mantle_namespace::MdsId;
use mantle_sim::SimTime;

use crate::cluster::Coordinator;
use crate::config::ExecMode;
use crate::service::ServicePump;
use crate::shard::{CrossShardMsg, ExecStats, Shard, ShardRouter, SharedSim};

/// The simulation state behind its locks, plus what the scheduler needs
/// to size windows.
pub(crate) struct Driver {
    sim: RwLock<SharedSim>,
    shards: Vec<Mutex<Shard>>,
    router: ShardRouter,
    /// Conservative window width: no simulated interaction crosses shards
    /// faster than this (the minimum of half an RTT and a forward hop).
    lookahead: SimTime,
}

/// What a finished run hands back: the unlocked state and the
/// scheduler's own numbers.
pub(crate) struct Drained {
    pub(crate) sim: SharedSim,
    pub(crate) shards: Vec<Shard>,
    /// Timestamp of the last processed event.
    pub(crate) last_now: SimTime,
    pub(crate) stats: ExecStats,
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

/// Exclusive access to the whole simulation: the write lock on
/// [`SharedSim`] and the lock of every [`Shard`], held together. Only
/// [`Driver::exclusive`] builds one, so a function that takes
/// `&mut Exclusive` runs while all workers are parked — by construction,
/// not by convention.
pub(crate) struct Exclusive<'a> {
    driver: &'a Driver,
    sim: RwLockWriteGuard<'a, SharedSim>,
    shards: Vec<MutexGuard<'a, Shard>>,
}

impl<'a> Exclusive<'a> {
    /// The shared simulation state.
    pub(crate) fn sim(&mut self) -> &mut SharedSim {
        &mut self.sim
    }

    /// Every shard, in id order.
    pub(crate) fn shards(&mut self) -> impl Iterator<Item = &mut Shard> + use<'_, 'a> {
        self.shards.iter_mut().map(|g| &mut **g)
    }

    /// The shared state and the shards at once, for steps that read one
    /// while writing the other.
    pub(crate) fn parts(
        &mut self,
    ) -> (
        &mut SharedSim,
        impl Iterator<Item = &mut Shard> + use<'_, 'a>,
    ) {
        (&mut self.sim, self.shards.iter_mut().map(|g| &mut **g))
    }

    /// The shard owning MDS `m`.
    pub(crate) fn mds_shard(&mut self, m: MdsId) -> &mut Shard {
        &mut self.shards[self.driver.router.shard_of_mds(m)]
    }

    /// The shard owning client `c`.
    pub(crate) fn client_shard(&mut self, c: usize) -> &mut Shard {
        &mut self.shards[self.driver.router.client_shard[c]]
    }

    /// Number of clients across all shards.
    pub(crate) fn num_clients(&self) -> usize {
        self.driver.router.client_shard.len()
    }

    /// Next event time, liveness, conservation counts and time frontier.
    pub(crate) fn gather(&self) -> Frontier {
        let mut f = Frontier {
            next_event: None,
            active: 0,
            inflight: 0,
            last_event: SimTime::ZERO,
        };
        for g in &self.shards {
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
        let shards = &mut self.shards;
        let mut bin: Vec<CrossShardMsg> = Vec::new();
        for s in 0..shards.len() {
            for t in 0..shards.len() {
                if t == s || shards[s].outbox[t].is_empty() {
                    continue;
                }
                std::mem::swap(&mut bin, &mut shards[s].outbox[t]);
                for msg in bin.drain(..) {
                    shards[t].queue.schedule_at_key(msg.at, msg.key, msg.event);
                }
                std::mem::swap(&mut bin, &mut shards[s].outbox[t]);
            }
        }
    }

    /// Give every lock up while `window` runs (the workers take them),
    /// then take them all back. No `Exclusive` exists in between.
    fn release_for(self, window: impl FnOnce()) -> Exclusive<'a> {
        let Exclusive {
            driver,
            sim,
            mut shards,
        } = self;
        drop(sim);
        shards.clear();
        window();
        driver.lock_into(shards)
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
            sim: RwLock::new(sim),
            shards: shards.into_iter().map(Mutex::new).collect(),
            router,
            lookahead,
        }
    }

    /// Lock everything. Blocks until every worker has let go of its shard,
    /// which they only hold inside a window.
    pub(crate) fn exclusive(&self) -> Exclusive<'_> {
        self.lock_into(Vec::with_capacity(self.shards.len()))
    }

    fn lock_into<'a>(&'a self, mut buf: Vec<MutexGuard<'a, Shard>>) -> Exclusive<'a> {
        let sim = self.sim.write().expect("sim lock");
        buf.extend(self.shards.iter().map(|m| m.lock().expect("shard lock")));
        Exclusive {
            driver: self,
            sim,
            shards: buf,
        }
    }

    /// Run to completion: schedule windows and exclusive steps until the
    /// clients drain, time runs out, or nothing is left to do. `pump` is
    /// the live-service hook ([`crate::Cluster::serve`]): called before
    /// each gather (command injection + wall pacing) and after each step
    /// (event streaming). Batch runs pass `None`, which skips both calls
    /// entirely — the scheduler's decisions are untouched.
    pub(crate) fn run(self, co: &mut Coordinator, pump: Option<&mut ServicePump>) -> Drained {
        let k = self.shards.len();
        let (last_now, windows, exclusive_events) = match co.cfg.exec_mode {
            ExecMode::Single => {
                let mut run_window = |window_end: SimTime| {
                    let sim = self.sim.read().expect("sim lock");
                    for m in &self.shards {
                        m.lock().expect("shard lock").process_window(
                            &sim,
                            &self.router,
                            window_end,
                        );
                    }
                };
                self.schedule(co, &mut run_window, pump)
            }
            ExecMode::Sharded { .. } => {
                // Thread-per-shard: workers park on a start barrier, read
                // the window command, drain their slice, and park on the
                // end barrier while the coordinator applies the barrier
                // effects. `u64::MAX` terminates.
                let cmd = AtomicU64::new(0);
                let start = SpinBarrier::new(k + 1);
                let end = SpinBarrier::new(k + 1);
                std::thread::scope(|scope| {
                    for m in &self.shards {
                        let (this, cmd, start, end) = (&self, &cmd, &start, &end);
                        scope.spawn(move || loop {
                            let t0 = std::time::Instant::now();
                            start.wait();
                            let wait_ns = t0.elapsed().as_nanos() as u64;
                            let c = cmd.load(Ordering::Acquire);
                            if c == u64::MAX {
                                break;
                            }
                            let sim = this.sim.read().expect("sim lock");
                            let mut g = m.lock().expect("shard lock");
                            g.stats.barrier_wait_ns += wait_ns;
                            g.process_window(&sim, &this.router, SimTime::from_micros(c));
                            drop(g);
                            drop(sim);
                            end.wait();
                        });
                    }
                    let mut run_window = |window_end: SimTime| {
                        cmd.store(window_end.as_micros(), Ordering::Release);
                        start.wait();
                        end.wait();
                    };
                    let res = self.schedule(co, &mut run_window, pump);
                    cmd.store(u64::MAX, Ordering::Release);
                    start.wait();
                    res
                })
            }
        };
        let shards: Vec<Shard> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("workers joined"))
            .collect();
        Drained {
            sim: self.sim.into_inner().expect("workers joined"),
            last_now,
            stats: ExecStats {
                threads: k,
                windows,
                exclusive_events,
                shards: shards.iter().map(|s| s.stats).collect(),
            },
            shards,
        }
    }

    /// The window scheduler. `run_window` executes one window over every
    /// shard (inline or via worker threads); everything else — gather,
    /// exclusive global steps, barriers — is identical in both modes.
    /// Returns the timestamp of the last processed event and the window
    /// and exclusive-step counts.
    fn schedule(
        &self,
        co: &mut Coordinator,
        run_window: &mut dyn FnMut(SimTime),
        mut pump: Option<&mut ServicePump>,
    ) -> (SimTime, u64, u64) {
        let max_d = co.cfg.max_duration;
        // Events at exactly `max_duration` still run (strict-less windows).
        let hard_end = max_d + SimTime::from_micros(1);
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
                let mut window_end = (t_min + self.lookahead).min(hard_end);
                if let Some(tg) = t_glob {
                    window_end = window_end.min(tg);
                }
                x = x.release_for(|| run_window(window_end));
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
        (last_now, windows, exclusive_events)
    }

    /// The shared state, before the run (no worker exists yet, so no lock
    /// is taken).
    pub(crate) fn sim_mut(&mut self) -> &mut SharedSim {
        self.sim.get_mut().expect("no worker has run yet")
    }

    /// Every shard, before the run.
    pub(crate) fn shards_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        self.shards
            .iter_mut()
            .map(|m| m.get_mut().expect("no worker has run yet"))
    }

    #[cfg(test)]
    pub(crate) fn router(&self) -> &ShardRouter {
        &self.router
    }
}

/// A reusable spin-then-park barrier. Latecomers spin briefly — on a
/// multi-core host the other parties usually arrive within the spin
/// window, skipping the parking syscalls entirely — then park on a
/// condvar. Parking (rather than yielding) is what keeps the engine
/// usable when hardware threads are scarcer than parties: with more
/// workers than cores, a yield-loop barrier degenerates into a scheduler
/// storm of busy waiters, while parked waiters cost one wakeup each.
#[derive(Debug)]
struct SpinBarrier {
    parties: usize,
    /// Bumped (under the lock) when the last party arrives; waiters spin
    /// and park on it changing.
    generation: AtomicUsize,
    /// Arrivals in the current generation.
    arrived: Mutex<usize>,
    cv: Condvar,
}

/// Spin iterations before parking. Short: the spin only pays off when
/// the remaining parties are currently *running* on other cores.
const BARRIER_SPIN: u32 = 128;

impl SpinBarrier {
    /// A barrier for `parties` participants.
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            generation: AtomicUsize::new(0),
            arrived: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Block until all `parties` participants have arrived.
    fn wait(&self) {
        let gen = {
            let mut arrived = self.arrived.lock().expect("barrier lock");
            *arrived += 1;
            if *arrived == self.parties {
                *arrived = 0;
                // Publish under the lock: a waiter that re-checks while
                // holding it either sees the new generation or blocks us
                // here until it parks — no lost wakeups.
                let gen = self.generation.load(Ordering::Relaxed);
                self.generation
                    .store(gen.wrapping_add(1), Ordering::Release);
                drop(arrived);
                self.cv.notify_all();
                return;
            }
            self.generation.load(Ordering::Relaxed)
        };
        for _ in 0..BARRIER_SPIN {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut arrived = self.arrived.lock().expect("barrier lock");
        while self.generation.load(Ordering::Acquire) == gen {
            arrived = self.cv.wait(arrived).expect("barrier lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_barrier_synchronizes() {
        use std::sync::Arc;
        let barrier = Arc::new(SpinBarrier::new(4));
        let hits = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&barrier);
                let h = Arc::clone(&hits);
                std::thread::spawn(move || {
                    for round in 0..100u64 {
                        b.wait();
                        // Everyone saw every previous round complete.
                        assert!(h.load(Ordering::SeqCst) >= round * 4);
                        h.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        assert!(h.load(Ordering::SeqCst) >= (round + 1) * 4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 400);
    }
}
