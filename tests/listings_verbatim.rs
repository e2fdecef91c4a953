//! The paper's listings, end to end: every published balancer script
//! compiles in the policy language, passes the validator, and drives the
//! documented decisions (Table 1 equivalence, Listing 1/2/3/4 behaviour).

use mantle::mds::balancer::{BalanceContext, Balancer, CephfsBalancer, MantleBalancer};
use mantle::mds::metrics::Heartbeat;
use mantle::mds::DirfragSelector;
use mantle::prelude::*;

fn hb(auth: f64, cpu: f64) -> Heartbeat {
    Heartbeat {
        auth_metaload: auth,
        all_metaload: auth,
        cpu,
        mem: 20.0,
        queue_len: 0.0,
        req_rate: 0.0,
        cache_hits: 0.0,
        cache_misses: 0.0,
        taken_at: SimTime::ZERO,
    }
}

fn ctx(whoami: usize, loads: &[(f64, f64)]) -> BalanceContext {
    BalanceContext {
        whoami,
        heartbeats: loads.iter().map(|&(l, c)| hb(l, c)).collect(),
    }
}

#[test]
fn all_paper_policies_validate() {
    let v = PolicyValidator::new();
    v.validate(&policies::greedy_spill().unwrap()).unwrap();
    v.validate(&policies::greedy_spill_even().unwrap()).unwrap();
    v.validate(&policies::fill_and_spill(0.25).unwrap())
        .unwrap();
    v.validate(&policies::fill_and_spill(0.10).unwrap())
        .unwrap();
    v.validate(&policies::adaptable().unwrap()).unwrap();
    v.validate(&policies::adaptable_conservative().unwrap())
        .unwrap();
    v.validate(&policies::adaptable_too_aggressive().unwrap())
        .unwrap();
    v.validate(&policies::cephfs_original().unwrap()).unwrap();
}

#[test]
fn listing1_greedy_spill_cascades() {
    let mut b = MantleBalancer::new("greedy", policies::greedy_spill().unwrap()).unwrap();
    // MDS0 loaded, MDS1 idle → spill half of allmetaload to MDS1.
    let plan = b
        .decide(&ctx(0, &[(60.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]))
        .unwrap()
        .expect("spills");
    assert_eq!(plan.targets[1], 30.0);
    assert_eq!(plan.selectors.as_ref(), [DirfragSelector::Half.into()]);
    // The cascade: MDS1 loaded, MDS2 idle → MDS1 spills too.
    let plan2 = b
        .decide(&ctx(1, &[(30.0, 0.0), (30.0, 0.0), (0.0, 0.0), (0.0, 0.0)]))
        .unwrap()
        .expect("cascade continues");
    assert!(plan2.targets[2] > 0.0);
    // The last MDS has nowhere to go.
    assert!(b
        .decide(&ctx(3, &[(30.0, 0.0), (15.0, 0.0), (8.0, 0.0), (7.0, 0.0)]))
        .unwrap()
        .is_none());
}

#[test]
fn listing2_even_spill_partitions_the_cluster() {
    let mut b = MantleBalancer::new("even", policies::greedy_spill_even().unwrap()).unwrap();
    // whoami=0 (1-based 1) on a 4-MDS cluster: midpoint target is MDS 3
    // (1-based), i.e. index 2.
    let plan = b
        .decide(&ctx(0, &[(80.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]))
        .unwrap()
        .expect("spills to the far half");
    assert!(plan.targets[2] > 0.0, "targets {:?}", plan.targets);
    assert_eq!(plan.targets[1], 0.0);
    // When the midpoint is already loaded, it walks down to a free MDS.
    let plan2 = b
        .decide(&ctx(0, &[(40.0, 0.0), (0.0, 0.0), (40.0, 0.0), (0.0, 0.0)]))
        .unwrap()
        .expect("walks down");
    assert!(plan2.targets[1] > 0.0, "targets {:?}", plan2.targets);
}

#[test]
fn listing3_fill_and_spill_waits_three_ticks() {
    let mut b = MantleBalancer::new("fs", policies::fill_and_spill(0.25).unwrap()).unwrap();
    let busy = ctx(0, &[(100.0, 95.0), (0.0, 2.0)]);
    // Cold start fires, then the 3-tick patience counter gates.
    assert!(b.decide(&busy).unwrap().is_some(), "tick 1 (cold) fires");
    assert!(b.decide(&busy).unwrap().is_none(), "tick 2 waits");
    assert!(b.decide(&busy).unwrap().is_none(), "tick 3 waits");
    let plan = b.decide(&busy).unwrap().expect("tick 4 fires again");
    assert!((plan.targets[1] - 25.0).abs() < 1e-9, "spills load/4");
    // Dropping below the CPU threshold re-arms and never fires.
    let idle = ctx(0, &[(100.0, 30.0), (0.0, 2.0)]);
    assert!(b.decide(&idle).unwrap().is_none());
    assert!(b.decide(&idle).unwrap().is_none());
}

#[test]
fn listing4_adaptable_requires_majority() {
    let mut b = MantleBalancer::new("adaptable", policies::adaptable().unwrap()).unwrap();
    // Majority holder exports toward the average.
    let plan = b
        .decide(&ctx(0, &[(70.0, 0.0), (20.0, 0.0), (10.0, 0.0)]))
        .unwrap()
        .expect("majority exports");
    let avg = 100.0 / 3.0;
    assert!((plan.targets[1] - (avg - 20.0)).abs() < 1e-9);
    assert!((plan.targets[2] - (avg - 10.0)).abs() < 1e-9);
    // No single majority → nobody moves (the "only one exporter" rule).
    assert!(b
        .decide(&ctx(0, &[(40.0, 0.0), (35.0, 0.0), (25.0, 0.0)]))
        .unwrap()
        .is_none());
    // The most loaded MDS without majority stays put too.
    assert!(b
        .decide(&ctx(1, &[(40.0, 0.0), (45.0, 0.0), (15.0, 0.0)]))
        .unwrap()
        .is_none());
}

#[test]
fn table1_script_equals_hardcoded_on_a_grid() {
    let mut hard = CephfsBalancer;
    let mut script =
        MantleBalancer::new("cephfs-script", policies::cephfs_original().unwrap()).unwrap();
    for n in [2usize, 3, 4, 7] {
        for hot in 0..n {
            for whoami in 0..n {
                let heartbeats: std::sync::Arc<[Heartbeat]> = (0..n)
                    .map(|i| {
                        let load = if i == hot { 120.0 } else { 12.0 + i as f64 };
                        Heartbeat {
                            auth_metaload: load,
                            all_metaload: load * 1.3,
                            cpu: 40.0,
                            mem: 25.0,
                            queue_len: (load / 30.0).floor(),
                            req_rate: load * 1.7,
                            cache_hits: 0.0,
                            cache_misses: 0.0,
                            taken_at: SimTime::ZERO,
                        }
                    })
                    .collect();
                let c = BalanceContext { whoami, heartbeats };
                let a = hard.decide(&c).unwrap();
                let b = script.decide(&c).unwrap();
                match (a, b) {
                    (None, None) => {}
                    (Some(pa), Some(pb)) => {
                        for (x, y) in pa.targets.iter().zip(&pb.targets) {
                            assert!(
                                (x - y).abs() < 1e-6,
                                "targets diverge at n={n} hot={hot} whoami={whoami}: \
                                 {:?} vs {:?}",
                                pa.targets,
                                pb.targets
                            );
                        }
                    }
                    (a, b) => panic!(
                        "when-decision diverges at n={n} hot={hot} whoami={whoami}: \
                         hard={:?} script={:?}",
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        }
    }
}

#[test]
fn fill_and_spill_10_vs_25_matches_section_4_2() {
    // §4.2: "spilling 10% has a longer runtime … spilling 25% of the load
    // has the best performance."
    // Same shape as the Fig. 8 quick configuration (the effect needs
    // enough balancer ticks to show).
    let workload = WorkloadSpec::CreateShared {
        clients: 4,
        files: 25_000,
    };
    let cfg = ClusterConfig {
        num_mds: 4,
        heartbeat_interval: SimTime::from_secs(2),
        seed: 7,
        ..Default::default()
    };
    let r10 = run_experiment(&Experiment::new(
        cfg.clone(),
        workload.clone(),
        BalancerSpec::mantle("fs10", policies::fill_and_spill(0.10).unwrap()),
    ));
    let r25 = run_experiment(&Experiment::new(
        cfg,
        workload,
        BalancerSpec::mantle("fs25", policies::fill_and_spill(0.25).unwrap()),
    ));
    assert!(
        r25.makespan <= r10.makespan,
        "25% spill must not be slower: {} vs {}",
        r25.makespan,
        r10.makespan
    );
}
