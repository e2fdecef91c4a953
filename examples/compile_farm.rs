//! A build farm: five clients compile in separate directories while the
//! Adaptable balancer (Listing 4) spreads the load — the Fig. 9/10
//! scenario.
//!
//! ```text
//! cargo run --release --example compile_farm
//! ```

use mantle::prelude::*;

fn main() {
    let config = ClusterConfig::default().with_mds(5).with_seed(11);
    let workload = WorkloadSpec::Compile {
        clients: 5,
        scale: 6.0,
    };

    println!("5 clients compile the source tree on a 5-MDS cluster (Adaptable balancer):\n");
    let report = run_experiment(&Experiment::new(
        config.clone(),
        workload.clone(),
        BalancerSpec::mantle("adaptable", policies::adaptable().unwrap()),
    ));
    let baseline = run_experiment(&Experiment::new(
        ClusterConfig {
            num_mds: 1,
            ..config.clone()
        },
        workload,
        BalancerSpec::None,
    ));

    let mut table = TextTable::new(["MDS", "ops served", "migrations out", "inodes exported"]);
    for (i, m) in report.mds.iter().enumerate() {
        table.row([
            format!("mds.{i}"),
            format!("{:.0}", m.total_ops),
            m.migrations_out.to_string(),
            m.inodes_exported.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "makespan: {:.2} min on 5 MDSs vs {:.2} min on 1 MDS ({:+.1}% speedup)\n",
        report.makespan.as_mins_f64(),
        baseline.makespan.as_mins_f64(),
        (baseline.makespan.as_mins_f64() / report.makespan.as_mins_f64() - 1.0) * 100.0,
    );
}
