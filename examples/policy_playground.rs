//! Policy-language playground: evaluate Mantle balancer snippets against a
//! synthetic cluster state from the command line.
//!
//! ```text
//! cargo run --release --example policy_playground -- 'targets[2] = MDSs[whoami]["load"] / 2'
//! cargo run --release --example policy_playground          # runs the demo reel
//! ```

use mantle::policy::env::{BalancerInputs, MantleRuntime, MdsMetrics, PolicySet};
use mantle::policy::parse_script;

/// The synthetic cluster the snippet runs against: MDS 1 is hot, 2–4 idle.
fn demo_inputs() -> BalancerInputs {
    BalancerInputs {
        whoami: 0,
        mds: vec![
            MdsMetrics {
                auth: 80.0,
                all: 96.0,
                cpu: 91.0,
                mem: 35.0,
                q: 7.0,
                req: 420.0,
                cache_hits: 900.0,
                cache_misses: 120.0,
            },
            MdsMetrics {
                auth: 6.0,
                all: 7.0,
                cpu: 11.0,
                mem: 21.0,
                q: 0.0,
                req: 40.0,
                cache_hits: 60.0,
                cache_misses: 8.0,
            },
            MdsMetrics {
                auth: 3.0,
                all: 4.0,
                cpu: 6.0,
                mem: 20.0,
                q: 0.0,
                req: 22.0,
                cache_hits: 30.0,
                cache_misses: 4.0,
            },
            MdsMetrics::default(),
        ],
        auth_metaload: 80.0,
        all_metaload: 96.0,
    }
}

fn run_snippet(snippet: &str) {
    println!("--- policy ---------------------------------------------------");
    println!("{snippet}");
    if let Err(e) = parse_script(snippet) {
        println!("parse error: {e}");
        return;
    }
    let policy = match PolicySet::from_combined(
        "IRD + 2*IWR",
        "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"]",
        snippet,
        &["big_first"],
    ) {
        Ok(p) => p,
        Err(e) => {
            println!("compile error: {e}");
            return;
        }
    };
    let runtime = MantleRuntime::new(policy);
    match runtime.decide(&demo_inputs()) {
        Ok(outcome) => {
            println!("--- outcome --------------------------------------------------");
            println!("per-MDS loads: {:?}", outcome.mds_loads);
            println!("total load:    {:.1}", outcome.total);
            println!("migrate?       {}", outcome.migrate);
            println!("targets:       {:?}", outcome.targets);
        }
        Err(e) => println!("runtime error: {e}"),
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        run_snippet(&args.join(" "));
        return;
    }
    println!("no snippet given — demo reel (cluster: MDS 1 hot, 2–4 idle)\n");
    for snippet in [
        // Listing 1, Greedy Spill.
        r#"if whoami < #MDSs and MDSs[whoami]["load"] > .01 and MDSs[whoami+1]["load"] < .01 then
             targets[whoami+1] = allmetaload / 2
           end"#,
        // Top everyone up to the average (Table 1's where).
        r#"avg = total / #MDSs
           if MDSs[whoami]["load"] > avg then
             for i = 1, #MDSs do
               if MDSs[i]["load"] < avg then targets[i] = avg - MDSs[i]["load"] end
             end
           end"#,
        // A do-nothing policy.
        "x = 1",
        // A runtime error: calling something that is not in the environment.
        "targets[2] = totally_not_a_function()",
    ] {
        run_snippet(snippet);
    }
}
