//! The engine driver: one event loop over the whole simulation.
//!
//! # Shape
//!
//! The data plane is the [`Shard`] (see [`crate::shard`]); the control
//! plane is the `Coordinator` (see [`crate::cluster`]). The `Driver`
//! owns the simulation state by value. Each iteration of `Driver::run`
//! takes the earliest event — a data-plane event, or a global event
//! (heartbeat tick, fault, admin action) — and runs it to completion with
//! `&mut` access to everything, so every mutation it makes, namespace
//! writes included, is in place before the next event runs. Globals win
//! same-instant ties.
//!
//! Both planes append trace records to the coordinator's one buffer
//! ([`crate::tracer`]), each stamped with its event's instant, so the
//! trace comes out in the order this loop runs events: time order.

use mantle_sim::SimTime;

use crate::cluster::Coordinator;
use crate::service::ServicePump;
use crate::shard::{ExecStats, Shard, SharedSim};

/// The simulation state. A step that takes `&mut Driver` — a global
/// event, the live-service pump — runs between two events, never inside
/// one.
pub(crate) struct Driver {
    pub(crate) sim: SharedSim,
    pub(crate) shard: Shard,
}

impl Driver {
    /// Run to completion: take events in time order until the clients
    /// drain, time runs out, or nothing is left to do. `pump` is the
    /// live-service hook ([`crate::Cluster::serve`]): called before each
    /// iteration (command injection + wall pacing) and after each step
    /// (event streaming). Batch runs pass `None`, which skips both calls
    /// entirely — the scheduler's decisions are untouched. Returns the
    /// timestamp of the last processed event and the loop's numbers.
    pub(crate) fn run(
        &mut self,
        co: &mut Coordinator,
        mut pump: Option<&mut ServicePump>,
    ) -> (SimTime, ExecStats) {
        let max_d = co.cfg.max_duration;
        let mut last_now = SimTime::ZERO;
        let mut global_steps = 0u64;
        loop {
            if let Some(p) = pump.as_deref_mut() {
                p.pre(co, self, last_now);
            }
            let frontier = self.shard.frontier();
            last_now = last_now.max(frontier.last_event);
            if frontier.drained() {
                break;
            }
            let t_shard = frontier.next_event;
            let t_glob = co.next_global_at();
            let Some(t_min) = t_shard.into_iter().chain(t_glob).min() else {
                break;
            };
            // Events at exactly `max_duration` still run.
            if t_min > max_d {
                break;
            }
            // The heartbeat at T sees the world as of T, before events at T.
            if t_glob.is_some_and(|tg| t_shard.is_none_or(|ts| tg <= ts)) {
                last_now = last_now.max(t_min);
                co.run_global(self);
                global_steps += 1;
            } else {
                self.shard.step(&mut self.sim, &mut co.trace);
            }
            if let Some(p) = pump.as_deref_mut() {
                p.post(co, self);
            }
        }
        if let Some(p) = pump {
            p.post(co, self);
        }
        let stats = ExecStats {
            threads: 1,
            windows: self.shard.stats.events,
            exclusive_events: global_steps,
            shards: vec![self.shard.stats],
        };
        (last_now, stats)
    }
}
