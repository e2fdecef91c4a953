//! A pinned report above the paper's ten MDSs: the `batch-rebalance`
//! shape of `benchmark/` (128 MDSs, 128 clients, zipf-mix, greedy-spill-even)
//! at a tenth of its directories and ops, `format!("{report:?}")` hashed.
//!
//! Every other golden in `tests/` runs two to ten MDSs, where a balancer
//! tick is a rounding error. At 128 the tick is most of the run, so this is
//! the report that moves first when the tick's machinery — the shared `MDSs`
//! image, the `Table` array part, the export planner's walks — changes what
//! it computes rather than what it costs. The constant was recorded on the
//! commit *before* that machinery was rewritten.
//!
//! A second pin runs 300 MDSs, more than a client's one-byte route slot
//! can name, so the routes to MDSs 254 and up take the route table's
//! overflow path in a whole run.
//!
//! A third pins the proxy-cache counters, which no other golden records:
//! the cache-on half of the quick flash-crowd pair, the table's
//! no-balancer row.

use mantle::core::flashcrowd::run_pair;
use mantle::core::repro::ReproOpts;
use mantle::core::scale::{scale_experiment, ScaleSpec};
use mantle::core::BalancerSpec;
use mantle::prelude::*;

mod support;
use support::fnv1a;

const PINNED: u64 = 13_494_702_248_942_097_695;

fn tenth_of_batch_rebalance() -> Experiment {
    let spec = ScaleSpec {
        name: "batch-rebalance/10",
        num_mds: 128,
        clients: 128,
        dirs: 10_000,
        ops_per_client: 500,
    };
    scale_experiment(&spec, Default::default(), 1)
}

/// The 300-MDS report's hash, recorded before client routes moved into a
/// one-byte-per-client table.
const PINNED_300: u64 = 0xe19a_0def_5fa2_07af;

#[test]
fn report_at_300_mds_is_pinned_through_the_far_routes() {
    let spec = ScaleSpec {
        name: "far-routes",
        num_mds: 300,
        clients: 32,
        dirs: 4_000,
        ops_per_client: 1_000,
    };
    let report = run_experiment(&scale_experiment(&spec, Default::default(), 42));
    let far_hits: u64 = report.mds[254..].iter().map(|m| m.hits).sum();
    assert!(far_hits > 0, "no MDS from 254 up served a routed hit");
    assert_eq!(
        fnv1a(&format!("{report:?}")),
        PINNED_300,
        "the 300-MDS report changed"
    );
}

#[test]
fn report_at_128_mds_is_pinned_in_both_exec_modes() {
    let report = run_experiment(&tenth_of_batch_rebalance());
    assert_eq!(report.total_ops(), 64_000.0, "the run does its work");
    assert!(
        report.total_migrations() > 100,
        "the pinned run must rebalance, saw {} migrations",
        report.total_migrations()
    );
    assert_eq!(
        fnv1a(&format!("{report:?}")),
        PINNED,
        "the 128-MDS report changed"
    );
}

/// The cache-on storm report's hash, recorded before the per-MDS run
/// totals moved into the report the data plane fills.
const PINNED_FLASHCROWD: u64 = 13_491_174_549_482_971_996;

#[test]
fn cache_on_flashcrowd_report_is_pinned() {
    let (_, on) = run_pair(ReproOpts::QUICK, BalancerSpec::None, 42);
    assert!(on.cache_hits > 0, "the cache absorbed nothing");
    assert_eq!(
        fnv1a(&format!("{on:?}")),
        PINNED_FLASHCROWD,
        "the cache-on flash-crowd report changed"
    );
}
