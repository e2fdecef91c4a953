//! Workload generators for the Mantle evaluation (§4 "Workloads"):
//!
//! * [`CreateSeparateDirs`] — every client creates N files in its own
//!   directory (the mdtest-style storm of Figs. 4 and 5; the HPC
//!   checkpoint/restart pattern);
//! * [`CreateSharedDir`] — every client creates into the *same* directory,
//!   forcing directory fragmentation (Figs. 7 and 8; GIGA+'s target
//!   workload);
//! * [`Compile`] — a phased stand-in for compiling the Linux source:
//!   untar (create sweep), compile (hot subdirectories: `arch`, `kernel`,
//!   `fs`, `mm`), and a link-phase readdir flash crowd (Figs. 1, 3, 9, 10);
//! * [`FlashCrowd`] — the link-phase flash crowd distilled to its worst
//!   case: every client hammers one hot directory with read-class ops
//!   (the proxy-cache tier's target workload);
//! * [`Diurnal`] — a day/night cycle: bursty daytime clients plus a
//!   paced nighttime baseline (the elastic-membership target workload).
//!
//! All generators are deterministic given their seed.

#![forbid(unsafe_code)]

pub mod compile;
pub mod create;
pub mod diurnal;
pub mod flashcrowd;
pub mod zipf;

pub use compile::Compile;
pub use create::{CreateSeparateDirs, CreateSharedDir};
pub use diurnal::Diurnal;
pub use flashcrowd::FlashCrowd;
pub use zipf::ZipfMix;
