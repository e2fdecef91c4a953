//! Policy-language micro-benchmarks: how much does the programmable layer
//! cost per balancer tick? (The paper's answer for LuaJIT was "near
//! native"; here we quantify our tree-walking interpreter against the
//! compiled bytecode engine and the scalar fast path.)

use std::sync::Arc;

use mantle_bench::harness::Runner;
use mantle_core::policies;
use mantle_mds::balancer::{BalanceContext, Balancer, CephfsBalancer, MantleBalancer};
use mantle_mds::metrics::Heartbeat;
use mantle_policy::env::{BalancerInputs, FragMetrics, MantleRuntime, MdsMetrics};
use mantle_policy::{compile, HookEngine, Interpreter};
use mantle_sim::SimTime;

const ADAPTABLE_SRC: &str = include_str!("../../core/policies/adaptable.lua");

fn cluster_inputs(n: usize) -> BalancerInputs {
    BalancerInputs {
        whoami: 0,
        mds: (0..n)
            .map(|i| MdsMetrics {
                auth: 100.0 / (i + 1) as f64,
                all: 120.0 / (i + 1) as f64,
                cpu: 50.0,
                mem: 25.0,
                q: i as f64,
                req: 100.0,
                cache_hits: 0.0,
                cache_misses: 0.0,
            })
            .collect(),
        auth_metaload: 100.0,
        all_metaload: 120.0,
    }
}

fn heartbeats(n: usize) -> Arc<[Heartbeat]> {
    (0..n)
        .map(|i| Heartbeat {
            auth_metaload: 100.0 / (i + 1) as f64,
            all_metaload: 120.0 / (i + 1) as f64,
            cpu: 50.0,
            mem: 25.0,
            queue_len: i as f64,
            req_rate: 100.0,
            cache_hits: 0.0,
            cache_misses: 0.0,
            taken_at: SimTime::ZERO,
        })
        .collect()
}

fn main() {
    let mut r = Runner::from_env();
    r.group("policy_lang");

    r.bench("lex+parse adaptable.lua", || {
        compile(ADAPTABLE_SRC).unwrap()
    });

    let script = compile(ADAPTABLE_SRC).unwrap();
    r.bench("pretty_print adaptable.lua", || {
        mantle_policy::script_to_source(&script)
    });

    // Raw interpreter throughput: a tight arithmetic loop.
    let loop_script = compile("s = 0 for i = 1, 1000 do s = s + i * 2 end").unwrap();
    r.bench("interp 1k-iteration loop", || {
        let mut interp = Interpreter::new();
        interp.run(&loop_script).unwrap()
    });

    // Full balancer decisions across cluster sizes.
    for n in [3usize, 16, 64] {
        let rt = MantleRuntime::new(policies::adaptable().unwrap());
        let inputs = cluster_inputs(n);
        r.bench(&format!("mantle decide, {n} MDSs"), || {
            rt.decide(&inputs).unwrap()
        });
    }

    // The hard-coded balancer as the "native" reference point.
    let mut hard = CephfsBalancer::default();
    let ctx = BalanceContext {
        whoami: 0,
        heartbeats: heartbeats(16),
    };
    r.bench("hard-coded cephfs decide, 16 MDSs", || {
        hard.decide(&ctx).unwrap()
    });
    let mut scripted =
        MantleBalancer::new("cephfs-script", policies::cephfs_original().unwrap()).unwrap();
    r.bench("scripted cephfs decide, 16 MDSs", || {
        scripted.decide(&ctx).unwrap()
    });

    // Metaload hook (runs once per dirfrag per tick — the hottest hook).
    let rt = MantleRuntime::new(policies::cephfs_original().unwrap());
    let frag = FragMetrics {
        ird: 10.0,
        iwr: 20.0,
        readdir: 3.0,
        fetch: 1.0,
        store: 2.0,
    };
    r.bench("metaload hook (fast path)", || {
        rt.eval_metaload(0, &frag).unwrap()
    });
    let slow =
        MantleRuntime::new(policies::cephfs_original().unwrap()).with_engine(HookEngine::Tree);
    r.bench("metaload hook (tree-walking)", || {
        slow.eval_metaload(0, &frag).unwrap()
    });
}
