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
//! * [`engine`] — builds the cluster and serves it
//!   ([`Cluster::serve`](mantle_mds::Cluster::serve)), and owns the
//!   policy swap pipeline ([`mantle_policy::install::prepare`], then the
//!   next epoch);
//! * [`server`] — the nonblocking `std::net` reactor, the daemon's one
//!   thread: it reads sockets, steps the engine in line, routes what the
//!   engine says back to connections, and blocks in `ppoll(2)` until a
//!   socket is ready or the engine's next deadline passes;
//! * [`sys`] — the hand-declared `ppoll(2)` and `prctl(2)` bindings (the
//!   library's only `unsafe` blocks); `ppoll` decides which hosts this
//!   crate builds on;
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

#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "dragonfly"
)))]
compile_error!("mantle-daemon needs a host with ppoll(2): its reactor blocks in it");

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
