//! Clock drivers for the event loop: free-running simulation time or
//! wall-clock pacing for a live service.
//!
//! The discrete-event engine itself only ever sees [`SimTime`]; the clock
//! decides how fast those instants are allowed to arrive. In
//! [`ClockMode::Sim`] the loop pops events as fast as the host CPU can
//! process them — the deterministic batch mode every test and experiment
//! uses. In [`ClockMode::Wall`] each simulated instant is mapped onto a
//! real deadline through a [`WallClock`] anchor, and the loop sleeps
//! until that deadline before processing the event: simulated time then
//! tracks real time, which is what lets the same engine serve live
//! connections whose requests arrive in wall time.
//!
//! Crucially the mapping never feeds back into the engine: event order,
//! keys, and payloads are identical in both modes, so a wall-clock run
//! that receives the same (simulated-time-stamped) inputs as a batch run
//! produces the same outputs. The daemon's scenario mode and
//! `tests/daemon_equivalence.rs` lean on exactly this.

use std::time::{Duration, Instant};

use crate::time::SimTime;

/// How the event loop advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Deterministic batch mode: process events as fast as possible.
    #[default]
    Sim,
    /// Live mode: pace the loop so `SimTime` tracks wall time, sleeping
    /// until each event's real deadline.
    Wall,
}

impl ClockMode {
    /// Parse a mode name as used by CLI flags (`sim` / `wall`).
    pub fn parse(s: &str) -> Option<ClockMode> {
        match s {
            "sim" => Some(ClockMode::Sim),
            "wall" => Some(ClockMode::Wall),
            _ => None,
        }
    }

    /// The flag-friendly name (`"sim"` / `"wall"`).
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Sim => "sim",
            ClockMode::Wall => "wall",
        }
    }
}

/// Maps simulated instants onto wall-clock deadlines.
///
/// The anchor is captured when the clock is created (daemon start):
/// simulated time zero corresponds to that instant, and `SimTime(t)`
/// falls due `t` microseconds later. The engine's service pump asks
/// [`WallClock::until`] how long to sleep before the next event is due;
/// a `None` answer means the event is already due (or overdue — e.g.
/// after a long window the loop is behind real time) and must be
/// processed immediately. Overdue events are *not* skipped or re-stamped,
/// so a temporarily lagging service catches up by processing its backlog
/// in the original deterministic order.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    anchor: Instant,
}

impl WallClock {
    /// Anchor simulated time zero at the current instant.
    pub fn start() -> Self {
        WallClock {
            anchor: Instant::now(),
        }
    }

    /// The wall-clock duration since the anchor, i.e. "now" in simulated
    /// units. Useful for stamping externally-arriving work (a live
    /// request) with the simulated instant it arrived at.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.anchor.elapsed().as_micros() as u64)
    }

    /// How long until simulated instant `at` falls due, or `None` if it
    /// is already due.
    pub fn until(&self, at: SimTime) -> Option<Duration> {
        let due = Duration::from_micros(at.as_micros());
        due.checked_sub(self.anchor.elapsed())
            .filter(|d| !d.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for m in [ClockMode::Sim, ClockMode::Wall] {
            assert_eq!(ClockMode::parse(m.name()), Some(m));
        }
        assert_eq!(ClockMode::parse("warp"), None);
    }

    #[test]
    fn wall_clock_deadlines() {
        let clock = WallClock::start();
        // The far future is not yet due; the past is.
        assert!(clock.until(SimTime::from_secs(3600)).is_some());
        assert!(clock.until(SimTime::ZERO).is_none());
        // `now` advances monotonically with real time.
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
