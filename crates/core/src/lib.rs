//! High-level experiment API for the Mantle reproduction.
//!
//! This crate ties the substrates together:
//!
//! * [`policies`] — the paper's balancers (Listings 1–4, Table 1) as
//!   embedded, validated policy scripts;
//! * [`experiment`] — declarative experiment specs ([`Experiment`]) and
//!   runners (single run, parallel seed sweeps);
//! * [`repro`] — one regenerator per table/figure of the paper's
//!   evaluation section, and [`repro::TARGETS`], every table below by
//!   name: `cargo run -p mantle-core --bin repro -- <target> [--full]`;
//! * [`degraded`] — fault-injection scenarios (crash/restart, slow MDS,
//!   stale heartbeats, poisoned balancer) and their degradation table
//!   (target `degraded`);
//! * [`flashcrowd`] — the hot-directory readdir storm, cache-off vs
//!   cache-on under each built-in balancer (target `flashcrowd`);
//! * [`elastic`] — the diurnal day/night cycle on an elastic cluster
//!   (the `howmany` hook) vs every fixed size, scored in ops per
//!   provisioned MDS-hour (target `elastic`);
//! * [`scale`] — scale-mode scenarios (≥64 MDSs, ≥100k dirs), set-up and
//!   run timed separately (target `scale`);
//! * [`search`] — policy-parameter grid search: every Fill & Spill
//!   knob combination ranked across the fault catalogue (target
//!   `search`);
//! * [`service`] — the daemon's scenario harness: named fixed
//!   experiments run through the live-service engine path
//!   (`mantled --scenario <name>`, `tests/daemon_equivalence.rs`);
//! * [`table`] — dependency-free text-table/CSV output.

#![forbid(unsafe_code)]

pub mod degraded;
pub mod elastic;
pub mod experiment;
pub mod flashcrowd;
pub mod policies;
pub mod repro;
pub mod scale;
pub mod search;
pub mod service;
pub mod table;

pub use experiment::{
    build_cluster, run_experiment, run_experiment_traced, run_seeds, BalancerSpec, Experiment,
    ScheduledPartition, WorkloadSpec,
};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::experiment::{
        run_experiment, run_experiment_traced, run_seeds, BalancerSpec, Experiment, WorkloadSpec,
    };
    pub use crate::policies;
    pub use crate::service::{run_service, scenario, SCENARIO_NAMES};
    pub use crate::table::TextTable;
    pub use mantle_mds::{
        assert_invariants, check_trace, Balancer, CacheConfig, CephfsBalancer, Cluster,
        ClusterConfig, ElasticConfig, FaultEvent, FaultKind, FaultPlan, MantleBalancer, RunReport,
        TraceBuffer, TraceEvent, TraceLevel, TraceRecord, Violation,
    };
    pub use mantle_namespace::{Namespace, NodeId, NsConfig, OpKind};
    pub use mantle_policy::env::PolicySet;
    pub use mantle_policy::{PolicyValidator, Value};
    pub use mantle_sim::{SimTime, Summary};
}
