//! The flash-crowd readdir storm: the proxy-cache tier's target scenario.
//!
//! One hot directory, many clients, read-class ops. Cache off, every
//! request queues at the single MDS that owns the hot directory —
//! cluster throughput is pinned to one server's service rate and no
//! balancer can help (migrating the hot dir just moves the bottleneck).
//! Cache on, the first lookup per proxy group fills an entry and the
//! rest of the storm is absorbed at cache-service time.
//!
//! [`flashcrowd_table`] runs the storm cache-off and cache-on under each
//! built-in balancer and prints ops/s, hit rate, migrations, and the
//! speedup — the table EXPERIMENTS.md quotes. The cache-on/off ops/s
//! ratio on the `none` row is the ≥2× bound `cache_absorbs_the_storm`
//! gates.

use crate::experiment::{run_experiment, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;
use crate::repro::ReproOpts;
use crate::table::TextTable;
use mantle_mds::{CacheConfig, ClusterConfig, RunReport};
use mantle_sim::SimTime;

/// The storm experiment: `clients` clients × `ops_per_client` ops, 90%
/// of them read-class against one hot directory, on a 4-MDS cluster.
pub fn storm_experiment(
    clients: usize,
    ops_per_client: u64,
    balancer: BalancerSpec,
    cache: CacheConfig,
    seed: u64,
) -> Experiment {
    let config = ClusterConfig {
        num_mds: 4,
        seed,
        heartbeat_interval: SimTime::from_millis(400),
        frag_split_threshold: 500,
        ..Default::default()
    }
    .with_cache(cache);
    Experiment::new(
        config,
        WorkloadSpec::FlashCrowd {
            clients,
            ops_per_client,
            hot_fraction: 0.9,
            write_fraction: 0.2,
        },
        balancer,
    )
}

/// Workload size per mode: quick keeps CI fast, full matches
/// EXPERIMENTS.md.
fn sizes(opts: ReproOpts) -> (usize, u64) {
    if opts.quick {
        (16, 1_500)
    } else {
        (32, 6_000)
    }
}

/// Client-visible ops/s over the run ([`RunReport::client_ops`], which
/// counts cache-absorbed hits, over the makespan).
pub fn ops_per_sec(r: &RunReport) -> f64 {
    r.client_ops() as f64 / r.makespan.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// The balancers each storm row runs under.
fn storm_balancers() -> Vec<BalancerSpec> {
    vec![
        BalancerSpec::None,
        BalancerSpec::Cephfs,
        BalancerSpec::mantle(
            "greedy-spill-even",
            policies::greedy_spill_even().expect("preset policy parses"),
        ),
        BalancerSpec::mantle(
            "fill-and-spill",
            policies::fill_and_spill(0.25).expect("preset policy parses"),
        ),
    ]
}

/// Run the storm cache-off and cache-on under one balancer.
pub fn run_pair(opts: ReproOpts, balancer: BalancerSpec, seed: u64) -> (RunReport, RunReport) {
    let (clients, ops) = sizes(opts);
    let off = run_experiment(&storm_experiment(
        clients,
        ops,
        balancer.clone(),
        CacheConfig::default(),
        seed,
    ));
    let on = run_experiment(&storm_experiment(
        clients,
        ops,
        balancer,
        CacheConfig::on(),
        seed,
    ));
    (off, on)
}

/// Run every balancer × {cache off, cache on} and render the table.
pub fn flashcrowd_table(opts: ReproOpts) -> String {
    let seed = 42;
    let mut table = TextTable::new([
        "balancer",
        "cache",
        "ops/s",
        "hit rate",
        "migrations",
        "speedup",
    ]);
    for balancer in storm_balancers() {
        let name = balancer.name().to_string();
        let (off, on) = run_pair(opts, balancer, seed);
        let (off_rate, on_rate) = (ops_per_sec(&off), ops_per_sec(&on));
        table.row([
            name.clone(),
            "off".into(),
            format!("{off_rate:.0}"),
            "-".into(),
            off.total_migrations().to_string(),
            "1.00x".into(),
        ]);
        table.row([
            name,
            "on".into(),
            format!("{on_rate:.0}"),
            format!("{:.3}", on.cache_hit_rate()),
            on.total_migrations().to_string(),
            format!("{:.2}x", on_rate / off_rate.max(f64::MIN_POSITIVE)),
        ]);
    }
    format!(
        "Flash-crowd readdir storm (4 MDS, 90% hot-dir reads)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_absorbs_the_storm() {
        // The acceptance bound, at quick size under the no-balancer row:
        // cache-on must be at least 2x cache-off ops/s, with a high hit
        // rate and zero lost ops. Seed 42 is the one the table prints.
        for seed in [7, 42] {
            let (off, on) = run_pair(ReproOpts::QUICK, BalancerSpec::None, seed);
            assert_eq!(off.client_ops(), on.client_ops(), "same work either way");
            assert_eq!(
                on.total_ops() as u64 + on.cache_hits,
                on.client_ops(),
                "MDS-served ops + absorbed hits account for every completion"
            );
            assert_eq!(off.cache_hits, 0, "cache off records no hits");
            let ratio = ops_per_sec(&on) / ops_per_sec(&off);
            assert!(ratio >= 2.0, "seed {seed}: storm speedup {ratio:.2}x < 2x");
            assert!(
                on.cache_hit_rate() > 0.5,
                "seed {seed}: hit rate {}",
                on.cache_hit_rate()
            );
        }
    }

    #[test]
    fn storm_rows_cover_all_builtin_balancers() {
        let names: Vec<String> = storm_balancers()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "none",
                "cephfs-default",
                "greedy-spill-even",
                "fill-and-spill"
            ]
        );
    }
}
