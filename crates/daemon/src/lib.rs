//! `mantled`: the Mantle cluster as a long-running service.
//!
//! The batch harness ([`mantle_core`]) runs an experiment to completion
//! and prints a report; this crate runs the *same engine* continuously
//! behind a TCP wire protocol. Real client connections issue metadata
//! ops over length-prefixed JSON frames, an admin endpoint performs
//! **hot policy reload** (compile → validate → epoch-tagged install in
//! one engine step, so no decision straddles two policies),
//! and the trace subsystem streams live to `trace`-role subscribers.
//!
//! The split, layer by layer:
//!
//! * [`json`] / [`wire`] — the workspace's dependency-free JSON codec
//!   (it lives in `mantle-sim`, below every emitter, and is re-exported
//!   here) and the framed protocol documented in `PROTOCOL.md`;
//! * [`config`] — `mantled`'s flags and defaults;
//! * [`engine`] — boots [`Cluster::serve`](mantle_mds::Cluster::serve)
//!   on its own thread and owns the policy swap pipeline
//!   ([`mantle_policy::install::prepare`], then the next epoch);
//! * [`server`] — the nonblocking `std::net` reactor tying sockets to
//!   the engine's command inbox and event stream, blocked in `poll(2)`
//!   when both are quiet;
//! * [`sys`] — the hand-declared `poll(2)` and `prctl(2)` bindings (the
//!   library's only `unsafe` blocks); `poll` makes this crate unix-only;
//! * [`client`] — a blocking protocol client (`mantlectl`, smoke tests).
//!
//! Determinism is preserved across the daemon boundary: with
//! `--clock=sim` and no live traffic, a scenario run through the
//! service path is byte-identical to the batch harness (pinned by
//! `tests/daemon_equivalence.rs` at the workspace root). `--clock=wall`
//! maps the same virtual timeline onto real time without feeding wall
//! time back into the engine, so event *order* stays deterministic even
//! live — see `DESIGN.md` §18.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[cfg(not(unix))]
compile_error!("mantle-daemon needs a unix host: its reactor blocks in poll(2)");

pub mod client;
pub mod config;
pub mod engine;
pub mod server;
#[allow(unsafe_code)]
pub mod sys;
pub mod wire;

pub use client::MantleClient;
pub use config::DaemonConfig;
pub use engine::Engine;
pub use mantle_sim::json::{self, Json};
pub use server::Server;
