//! Hierarchical file-system namespace for the simulated MDS cluster.
//!
//! This crate models exactly the state the CephFS metadata balancer reasons
//! about (paper §2):
//!
//! * a **directory tree** of inodes, where files are counted per directory
//!   fragment rather than materialized individually (the balancer never
//!   looks at single files — dirfrags are its smallest migration unit);
//! * **dirfrags** — GIGA+-style directory fragments. A directory starts as
//!   one fragment; when it outgrows the split threshold it fragments
//!   (first split is 2³ = 8 ways, as in §4.1), and each fragment can
//!   split again as it grows;
//! * **decayed popularity counters** per fragment (inode reads/writes,
//!   readdirs, fetches, stores — the `IRD`/`IWR`/`READDIR`/`FETCH`/`STORE`
//!   inputs of the `metaload` hook), tempered with the exponential decay of
//!   Fig. 1, and rolled up to every ancestor directory;
//! * a **subtree authority map**: each directory may carry an authority
//!   override, each fragment may carry a finer one; everything else
//!   inherits from its nearest ancestor. Dynamic subtree partitioning is
//!   the act of installing/removing these overrides.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod heat;
pub mod tree;
pub mod types;

pub use heat::{DecayRate, DecayTable, FragHeat, HeatSample};
pub use tree::{
    AuthSlot, ChildList, Dir, Frag, FragId, FragRef, IndexMode, Namespace, NsConfig, SplitEvent,
    SubtreeMigration,
};
pub use types::{MdsId, NodeId, OpKind};
