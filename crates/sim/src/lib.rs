//! Deterministic discrete-event simulation kernel used by the Mantle
//! reproduction.
//!
//! The kernel is intentionally small: a virtual millisecond clock
//! ([`SimTime`]), a stable-order event queue ([`EventQueue`]), seeded random
//! number streams ([`SimRng`]), and the statistics helpers the paper's
//! evaluation needs (Welford summaries, bucketed time series).
//!
//! Everything is deterministic given a seed: the event queue breaks ties on
//! insertion order, and every component draws randomness from a named
//! sub-stream of the master seed, so experiment runs are exactly
//! reproducible — an explicit contrast with the measurement noise the paper
//! describes in §2.2.2 (which we re-introduce *deliberately*, as seeded
//! noise, in the MDS crate).
//!
//! The crate at the bottom of the workspace also carries the one thing
//! every layer above serializes with: [`json`], the dependency-free JSON
//! codec behind the trace stream and the daemon's wire protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod events;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::{ClockMode, WallClock};
pub use events::{EventQueue, SchedulerKind};
pub use rng::SimRng;
pub use stats::{OnlineStats, Summary, TimeSeries};
pub use time::SimTime;
