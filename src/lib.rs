//! Facade crate re-exporting the Mantle reproduction workspace.
//!
//! See [`mantle_core`] for the high-level experiment API, [`mantle_policy`]
//! for the embedded balancing-policy language, and [`mantle_mds`] for the
//! simulated CephFS-like metadata cluster.
//!
//! ```
//! use mantle::prelude::*;
//!
//! let spec = Experiment::new(
//!     ClusterConfig::default().with_mds(2),
//!     WorkloadSpec::CreateShared { clients: 4, files: 500 },
//!     BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap()),
//! );
//! let report = run_experiment(&spec);
//! assert_eq!(report.total_ops(), 2_000.0);
//! ```

#![forbid(unsafe_code)]

pub use mantle_core as core;
pub use mantle_daemon as daemon;
pub use mantle_mds as mds;
pub use mantle_namespace as namespace;
pub use mantle_policy as policy;
pub use mantle_sim as sim;
pub use mantle_workloads as workloads;

pub use mantle_core::prelude;
