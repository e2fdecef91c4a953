//! The engine driver: the window scheduler and the `Exclusive` view of the
//! state it owns.
//!
//! # Shape
//!
//! The data plane is the [`Shard`] (see [`crate::shard`]); the control
//! plane is the `Coordinator` (see [`crate::cluster`]). The driver owns
//! the simulation state by value and alternates between
//!
//! 1. **windows** — the data plane drains its events inside
//!    `[base, base + width)` against a read-only [`SharedSim`]; then the
//!    coordinator's barrier applies the namespace mutations the window
//!    deferred, and
//! 2. **exclusive steps** — global events (heartbeat ticks, faults, admin
//!    actions) run alone between windows.
//!
//! Both append trace records to the coordinator's one buffer
//! ([`crate::tracer`]) as they run, so the trace comes out in the order
//! this loop does things: windows in time order, each barrier stamped at
//! its window's end, globals between windows.
//!
//! # The exclusive view
//!
//! Everything outside a window — the barrier, every control-plane step,
//! the live-service pump — works through one `Exclusive` value: `&mut`
//! access to the shared state and to the data plane at once. Inside a
//! window the data plane gets `&mut` to itself and a `Window`: `&` to
//! [`SharedSim`] and `&mut` to the tracer. The borrow checker keeps the
//! two phases apart.

use mantle_sim::SimTime;

use crate::cluster::Coordinator;
use crate::config::{FORWARD_HOP, HALF_RTT};
use crate::service::ServicePump;
use crate::shard::{ExecStats, Shard, SharedSim, Window};

/// Window width: the shortest simulated hop, so every message sent inside
/// a window arrives after that window's barrier.
const WIDTH: SimTime = HALF_RTT;
const _: () = assert!(WIDTH.as_micros() <= FORWARD_HOP.as_micros());

/// The simulation state.
pub(crate) struct Driver {
    pub(crate) sim: SharedSim,
    pub(crate) shard: Shard,
}

/// Exclusive access to the whole simulation: [`SharedSim`] and the
/// [`Shard`], mutably and together. A function that takes
/// `&mut Exclusive` runs between windows, never inside one.
pub(crate) struct Exclusive<'a> {
    sim: &'a mut SharedSim,
    plane: &'a mut Shard,
}

impl Exclusive<'_> {
    /// The shared simulation state.
    pub(crate) fn sim(&mut self) -> &mut SharedSim {
        self.sim
    }

    /// The data plane.
    pub(crate) fn plane(&mut self) -> &mut Shard {
        self.plane
    }

    /// Both at once, for steps that read one while writing the other.
    pub(crate) fn parts(&mut self) -> (&mut SharedSim, &mut Shard) {
        (self.sim, self.plane)
    }
}

impl Driver {
    /// The `&mut` view of everything the driver owns.
    pub(crate) fn exclusive(&mut self) -> Exclusive<'_> {
        Exclusive {
            sim: &mut self.sim,
            plane: &mut self.shard,
        }
    }

    /// Run to completion: schedule windows and exclusive steps until the
    /// clients drain, time runs out, or nothing is left to do. `pump` is
    /// the live-service hook ([`crate::Cluster::serve`]): called before
    /// each iteration (command injection + wall pacing) and after each step
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
        let mut last_now = SimTime::ZERO;
        let (mut windows, mut exclusive_events) = (0u64, 0u64);
        let mut x = self.exclusive();
        loop {
            if let Some(p) = pump.as_deref_mut() {
                p.pre(co, &mut x, last_now);
            }
            let frontier = x.plane.frontier();
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
                let mut window_end = (t_min + WIDTH).min(hard_end);
                if let Some(tg) = t_glob {
                    window_end = window_end.min(tg);
                }
                let trace = &mut co.trace;
                x.plane
                    .process_window(&mut Window { sim: x.sim, trace }, window_end);
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
            threads: 1,
            windows,
            exclusive_events,
            shards: vec![self.shard.stats],
        };
        (last_now, stats)
    }
}
