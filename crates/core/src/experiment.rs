//! Declarative experiment specs and runners.
//!
//! An [`Experiment`] is pure data (so it can be cloned across threads);
//! [`run_experiment`] builds the cluster and runs it; [`run_seeds`] fans
//! repeated runs out over a bounded pool of OS threads (the simulation
//! itself is single-threaded and deterministic — parallelism is across
//! runs, the same way the paper repeats jobs).

use mantle_mds::cluster::NoopBalancer;
use mantle_mds::{
    Balancer, CephfsBalancer, Cluster, ClusterConfig, HookEngine, MantleBalancer, RunReport,
};
use mantle_namespace::{MdsId, Namespace};
use mantle_policy::env::PolicySet;
use mantle_sim::SimTime;
use mantle_workloads::{
    Compile, CreateSeparateDirs, CreateSharedDir, Diurnal, FlashCrowd, ZipfMix,
};

/// Which workload to run.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Every client creates `files` files in its own directory.
    CreateSeparate {
        /// Number of clients.
        clients: usize,
        /// Files per client.
        files: u64,
    },
    /// Every client creates `files` files in one shared directory.
    CreateShared {
        /// Number of clients.
        clients: usize,
        /// Files per client.
        files: u64,
    },
    /// The phased compile job.
    Compile {
        /// Number of clients.
        clients: usize,
        /// Op-count scale (1.0 ≈ 7 700 ops/client).
        scale: f64,
    },
    /// A readdir flash crowd over one hot directory plus per-client
    /// private traffic (the proxy-cache tier's target workload).
    FlashCrowd {
        /// Number of clients.
        clients: usize,
        /// Ops each client issues.
        ops_per_client: u64,
        /// Fraction of ops aimed at the hot directory.
        hot_fraction: f64,
        /// Fraction of the private remainder that mutates.
        write_fraction: f64,
    },
    /// A day/night cycle: bursty daytime clients plus a uniformly paced
    /// nighttime baseline, repeated for `days` periods (the
    /// elastic-membership target workload; canonical 20% write mix).
    Diurnal {
        /// Number of clients; the first `night_clients` run all night.
        clients: usize,
        /// Clients that pace their budget around the clock.
        night_clients: usize,
        /// Number of day/night periods.
        days: u64,
        /// Op budget per client per period.
        ops_per_day: u64,
        /// Length of one virtual "day".
        period: SimTime,
        /// Fraction of each period that is the day window.
        day_fraction: f64,
    },
    /// Zipf-skewed mixed metadata ops over a large directory population
    /// (the scale-mode workload: ≥100k dirs, multi-million request runs).
    ZipfMix {
        /// Number of clients.
        clients: usize,
        /// Directory population size.
        dirs: usize,
        /// Ops each client issues.
        ops_per_client: u64,
        /// Zipf exponent (1.0 ≈ classic web skew).
        exponent: f64,
        /// Fraction of metadata writes.
        write_fraction: f64,
    },
}

impl WorkloadSpec {
    fn build(&self, seed: u64) -> Box<dyn mantle_mds::Workload> {
        match *self {
            WorkloadSpec::CreateSeparate { clients, files } => {
                Box::new(CreateSeparateDirs::new(clients, files))
            }
            WorkloadSpec::CreateShared { clients, files } => {
                Box::new(CreateSharedDir::new(clients, files))
            }
            WorkloadSpec::Compile { clients, scale } => {
                Box::new(Compile::new(clients, scale, seed ^ 0x00c0_ffee))
            }
            WorkloadSpec::FlashCrowd {
                clients,
                ops_per_client,
                hot_fraction,
                write_fraction,
            } => Box::new(FlashCrowd::new(
                clients,
                ops_per_client,
                hot_fraction,
                write_fraction,
                seed ^ 0x0000_f1a5,
            )),
            WorkloadSpec::Diurnal {
                clients,
                night_clients,
                days,
                ops_per_day,
                period,
                day_fraction,
            } => Box::new(Diurnal::new(
                clients,
                night_clients,
                days,
                ops_per_day,
                period,
                day_fraction,
                0.2,
                seed ^ 0x0000_d1a1,
            )),
            WorkloadSpec::ZipfMix {
                clients,
                dirs,
                ops_per_client,
                exponent,
                write_fraction,
            } => Box::new(ZipfMix::new(
                clients,
                dirs,
                ops_per_client,
                exponent,
                write_fraction,
                seed ^ 0x0000_21bf,
            )),
        }
    }
}

/// Which balancer runs on every MDS.
#[derive(Debug, Clone)]
pub enum BalancerSpec {
    /// No balancing (static partitions only).
    None,
    /// The hard-coded CephFS balancer (Table 1).
    Cephfs,
    /// A Mantle policy set injected on every MDS.
    Mantle {
        /// Display name.
        name: String,
        /// The compiled policy.
        policy: PolicySet,
        /// Which hook engine evaluates the policy. The two engines are
        /// pinned bit-identical by the differential suites; the tree
        /// walker is the reference those suites select.
        engine: HookEngine,
    },
}

impl BalancerSpec {
    /// Convenience constructor for Mantle policies (default engine).
    pub fn mantle(name: impl Into<String>, policy: PolicySet) -> Self {
        Self::mantle_with_engine(name, policy, HookEngine::default())
    }

    /// [`BalancerSpec::mantle`] with an explicit hook engine.
    pub fn mantle_with_engine(
        name: impl Into<String>,
        policy: PolicySet,
        engine: HookEngine,
    ) -> Self {
        BalancerSpec::Mantle {
            name: name.into(),
            policy,
            engine,
        }
    }

    /// The per-MDS balancer factory for a cluster. A Mantle policy is
    /// compiled here, once; each call of the factory forks the compiled
    /// balancer for one more MDS.
    fn build(&self) -> Box<dyn Fn(MdsId) -> Box<dyn Balancer>> {
        match self {
            BalancerSpec::None => Box::new(|_| Box::new(NoopBalancer)),
            BalancerSpec::Cephfs => Box::new(|_| Box::new(CephfsBalancer)),
            BalancerSpec::Mantle {
                name,
                policy,
                engine,
            } => {
                // No validation here: a run takes the policy as given
                // (presets are validated by `policies`' tests).
                let first = MantleBalancer::new_unvalidated(name.clone(), policy.clone())
                    .expect("every howmuch selector is a builtin or the policy's own")
                    .with_engine(*engine);
                Box::new(move |_| Box::new(first.fork()))
            }
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            BalancerSpec::None => "none",
            BalancerSpec::Cephfs => "cephfs-default",
            BalancerSpec::Mantle { name, .. } => name,
        }
    }
}

/// A scheduled manual repartition: at `at`, assign each listed path's
/// subtree to an MDS (used by the Fig. 3 locality setups).
#[derive(Debug, Clone)]
pub struct ScheduledPartition {
    /// When to apply.
    pub at: SimTime,
    /// `(path, mds)` assignments.
    pub assignments: Vec<(String, MdsId)>,
}

/// A full experiment description.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Cluster configuration.
    pub config: ClusterConfig,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The balancer.
    pub balancer: BalancerSpec,
    /// Static partition applied before the run (`(path, mds)`).
    pub initial_partition: Vec<(String, MdsId)>,
    /// Partitions applied mid-run.
    pub scheduled_partitions: Vec<ScheduledPartition>,
}

impl Experiment {
    /// A new experiment with no static partitions.
    pub fn new(config: ClusterConfig, workload: WorkloadSpec, balancer: BalancerSpec) -> Self {
        Experiment {
            config,
            workload,
            balancer,
            initial_partition: Vec::new(),
            scheduled_partitions: Vec::new(),
        }
    }

    /// Add an initial static assignment.
    pub fn assign(mut self, path: &str, mds: MdsId) -> Self {
        self.initial_partition.push((path.to_string(), mds));
        self
    }

    /// Add a scheduled repartition.
    pub fn repartition_at(mut self, at: SimTime, assignments: Vec<(String, MdsId)>) -> Self {
        self.scheduled_partitions
            .push(ScheduledPartition { at, assignments });
        self
    }

    /// Same experiment with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }
}

fn apply_assignments(ns: &mut Namespace, assignments: &[(String, MdsId)]) {
    for (path, mds) in assignments {
        let node = ns.mkdir_p(path);
        ns.set_auth(node, Some(*mds));
    }
}

/// Build the cluster an experiment describes — workload, balancers,
/// static partitions, and scheduled repartitions all applied — without
/// running it. This is the shared front half of [`run_experiment`] and
/// the daemon's scenario path ([`crate::service`]), so both drive
/// byte-identical engines.
pub fn build_cluster(spec: &Experiment) -> Cluster {
    let workload = spec.workload.build(spec.config.seed);
    let mut cluster = Cluster::new(spec.config.clone(), workload, spec.balancer.build());
    apply_assignments(cluster.namespace_mut(), &spec.initial_partition);
    for sched in &spec.scheduled_partitions {
        let assignments = sched.assignments.clone();
        cluster.schedule_admin(sched.at, move |ns| apply_assignments(ns, &assignments));
    }
    cluster
}

/// Run one experiment to completion.
pub fn run_experiment(spec: &Experiment) -> RunReport {
    build_cluster(spec).run()
}

/// Run one experiment with a trace sink attached, returning the report
/// together with the captured event stream.
pub fn run_experiment_traced(
    spec: &Experiment,
    level: mantle_mds::TraceLevel,
) -> (RunReport, mantle_mds::TraceBuffer) {
    build_cluster(spec).run_traced(level)
}

/// Run the experiment once per seed, in parallel across OS threads.
pub fn run_seeds(spec: &Experiment, seeds: &[u64]) -> Vec<RunReport> {
    par_map(seeds, |&seed| run_experiment(&spec.clone().with_seed(seed)))
}

/// `items.iter().map(f)`, in parallel across OS threads, results in input
/// order.
///
/// Fan-out is capped at [`std::thread::available_parallelism`]: spawning
/// one thread per item (64 seeds = 64 threads on a 1-core box) only adds
/// scheduler pressure, so workers instead pull items from a shared queue.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *out[i].lock().expect("slot lock never poisoned") = Some(result);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock never poisoned")
                .expect("all slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies;

    fn quick_cfg(num_mds: usize) -> ClusterConfig {
        ClusterConfig {
            num_mds,
            frag_split_threshold: 200,
            // Tests use tiny workloads; shrink the balancer cadence so
            // runs still span several ticks.
            heartbeat_interval: mantle_sim::SimTime::from_millis(400),
            ..Default::default()
        }
    }

    #[test]
    fn create_separate_runs_end_to_end() {
        let spec = Experiment::new(
            quick_cfg(1),
            WorkloadSpec::CreateSeparate {
                clients: 2,
                files: 300,
            },
            BalancerSpec::None,
        );
        let r = run_experiment(&spec);
        assert_eq!(r.total_ops(), 600.0);
        assert_eq!(r.workload, "create-separate-dirs");
        assert_eq!(r.balancer, "none");
    }

    #[test]
    fn greedy_spill_distributes_shared_dir() {
        let spec = Experiment::new(
            quick_cfg(2),
            WorkloadSpec::CreateShared {
                clients: 4,
                files: 2_000,
            },
            BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap()),
        );
        let r = run_experiment(&spec);
        assert!(r.total_migrations() >= 1, "spill happened");
        assert!(r.mds[1].total_ops > 0.0, "MDS1 served spilled fragments");
        assert_eq!(r.total_ops(), 8_000.0, "no ops lost in migration");
    }

    #[test]
    fn cephfs_balancer_distributes_separate_dirs() {
        let spec = Experiment::new(
            quick_cfg(3),
            WorkloadSpec::CreateSeparate {
                clients: 4,
                files: 4_000,
            },
            BalancerSpec::Cephfs,
        );
        let r = run_experiment(&spec);
        assert!(r.total_migrations() >= 1);
        let served: Vec<bool> = r.mds.iter().map(|m| m.total_ops > 0.0).collect();
        assert!(served.iter().filter(|&&s| s).count() >= 2, "load spread");
        assert_eq!(r.total_ops(), 16_000.0);
    }

    #[test]
    fn a_cluster_compiles_its_policy_once() {
        let mantle = |engine| {
            Experiment::new(
                quick_cfg(128),
                WorkloadSpec::CreateSeparate {
                    clients: 2,
                    files: 10,
                },
                BalancerSpec::mantle_with_engine(
                    "adaptable",
                    policies::adaptable().unwrap(),
                    engine,
                ),
            )
        };
        for engine in [HookEngine::Bytecode, HookEngine::Tree] {
            let cluster = build_cluster(&mantle(engine));
            let first = cluster.balancer(0).compiled_policy().expect("Mantle");
            for m in 1..128 {
                let other = cluster.balancer(m).compiled_policy().expect("Mantle");
                assert!(std::rc::Rc::ptr_eq(first, other), "MDS {m} compiled again");
            }
            // One per MDS: `build_cluster` kept no copy for itself beyond
            // the factory it handed over, which the cluster dropped.
            assert_eq!(std::rc::Rc::strong_count(first), 128);
        }
        // Two clusters never share: a compilation belongs to one build.
        let (a, b) = (
            build_cluster(&mantle(HookEngine::Bytecode)),
            build_cluster(&mantle(HookEngine::Bytecode)),
        );
        assert!(!std::rc::Rc::ptr_eq(
            a.balancer(0).compiled_policy().unwrap(),
            b.balancer(0).compiled_policy().unwrap()
        ));
        let hard = build_cluster(&Experiment::new(
            quick_cfg(2),
            WorkloadSpec::CreateSeparate {
                clients: 1,
                files: 1,
            },
            BalancerSpec::Cephfs,
        ));
        assert!(hard.balancer(1).compiled_policy().is_none());
    }

    #[test]
    fn seeds_run_in_parallel_and_differ() {
        let spec = Experiment::new(
            quick_cfg(1),
            WorkloadSpec::CreateSeparate {
                clients: 2,
                files: 200,
            },
            BalancerSpec::None,
        );
        let rs = run_seeds(&spec, &[1, 2, 3, 4]);
        assert_eq!(rs.len(), 4);
        assert!(rs.iter().all(|r| r.total_ops() == 400.0));
        let makespans: std::collections::HashSet<u64> =
            rs.iter().map(|r| r.makespan.as_micros()).collect();
        assert!(makespans.len() > 1, "seeds must differ");
    }

    #[test]
    fn compile_workload_runs() {
        let spec = Experiment::new(
            quick_cfg(1),
            WorkloadSpec::Compile {
                clients: 1,
                scale: 0.05,
            },
            BalancerSpec::None,
        );
        let r = run_experiment(&spec);
        assert!(r.total_ops() > 300.0);
        assert_eq!(r.workload, "compile");
    }

    #[test]
    fn initial_partition_applies() {
        let spec = Experiment::new(
            quick_cfg(2),
            WorkloadSpec::CreateSeparate {
                clients: 2,
                files: 500,
            },
            BalancerSpec::None,
        )
        .assign("/client1", 1);
        let r = run_experiment(&spec);
        assert!(r.mds[1].total_ops >= 500.0);
    }
}
