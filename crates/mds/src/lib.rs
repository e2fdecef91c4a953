//! A deterministic simulation of a CephFS-like metadata server (MDS)
//! cluster with pluggable, programmable load balancers — the substrate the
//! Mantle paper runs on, rebuilt as a discrete-event model.
//!
//! The moving parts mirror Fig. 2 of the paper:
//!
//! * **clients** issue metadata ops in a closed loop, learn the
//!   subtree→MDS map from replies, and contact MDSs round-robin for
//!   creates in directories whose fragments span several MDSs (§4.1);
//! * each **MDS** is a single-server queue with per-op service costs,
//!   plus surcharges for coherency traffic when directories span
//!   authorities;
//! * requests landing on the wrong MDS are **forwarded** (hop latency +
//!   wasted service on the wrong node) — the hits-vs-forwards split of
//!   Fig. 3b;
//! * every 10 s each MDS packages its metrics into a **heartbeat**, with
//!   seeded sampling noise on loads and CPU (§2.2.2); every MDS balances
//!   on the snapshots taken at that tick, which are stale only inside
//!   injected heartbeat drop or delay windows;
//! * the **balancer** on each MDS — either the hard-coded CephFS one
//!   (Table 1) or a Mantle policy script — decides when/where/how much to
//!   migrate; migrations freeze the moved subtree for a two-phase commit
//!   and flush client sessions (§4.1).
//!
//! The engine is one event loop over one simulation state: the
//! [`world`] module's `World` holds the namespace, the MDSs and clients,
//! the configuration, the trace buffer and the one event queue; the
//! coordinator in [`cluster`] holds the balancers and runs the global
//! events (heartbeat ticks, faults, admin actions, hot installs), which
//! wait in that queue beside the data-plane events. `Cluster::run` runs
//! the earliest event to completion, again and again, and everything
//! emitted between events is stamped with the time frontier, the queue's
//! clock — so every trace, batch or live, is in time order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod balancer;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod config;
pub mod elastic;
pub mod faults;
pub mod heartbeat;
pub mod invariants;
pub mod metrics;
pub mod migration;
pub mod partition;
pub mod report;
pub mod selector;
pub mod service;
pub mod trace;
pub mod tracer;
pub mod world;

pub use balancer::{BalanceContext, Balancer, CephfsBalancer, MantleBalancer, MigrationPlan};
pub use cache::{cacheable, group_of, GroupCache, RouteTable};
pub use client::{ClientOp, Workload, PARKED};
pub use cluster::Cluster;
pub use config::{CacheConfig, ClusterConfig, CostModel, ElasticConfig, ExecMode, PlacementPolicy};
pub use elastic::rendezvous_owner;
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use invariants::{assert_invariants, check_trace, Violation};
pub use mantle_policy::HookEngine;
// Harness pin, ignored: see the bottom of `config.rs`.
pub use mantle_sim::SchedulerKind;
pub use report::RunReport;
pub use selector::{select_best, DirfragSelector};
pub use service::{LiveCompletion, LiveService, LiveWorkload, ServiceEvent};
pub use trace::{TraceBuffer, TraceEvent, TraceLevel, TraceRecord};
pub use world::{ExecStats, ShardStats};
