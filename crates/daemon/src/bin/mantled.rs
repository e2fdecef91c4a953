//! `mantled` — serve the metadata cluster over TCP.
//!
//! ```text
//! mantled [--addr=HOST:PORT] [--sessions=N] [--mds=N] [--seed=N]
//!         [--clock=wall|sim] [--trace=decisions|full|off]
//!         [--policy=PRESET] [--scenario=NAME]
//! ```
//!
//! In serve mode (the default) the daemon prints `listening <addr>` once
//! bound, runs until a `shutdown` admin request drains it, then prints
//! the final run report as JSON. With `--scenario=<name>` it instead
//! runs one named scenario through the service engine path and exits.

#![forbid(unsafe_code)]

use std::io::Write as _;

use mantle_daemon::wire::report_json;
use mantle_daemon::{DaemonConfig, Server};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", mantle_daemon::config::USAGE);
        return;
    }
    let cfg = match DaemonConfig::parse(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mantled: {e}");
            std::process::exit(2);
        }
    };

    if let Some(name) = &cfg.scenario {
        match mantle_core::service::self_check(name) {
            Ok(report) => println!("{}", report_json(&report)),
            Err(e) => {
                eprintln!("mantled: unknown scenario `{name}` ({e})");
                std::process::exit(2);
            }
        }
        return;
    }

    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mantled: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Scripts (and the CI smoke test) parse this line to find an
            // ephemeral port, so flush it out before serving.
            println!("listening {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => eprintln!("mantled: local_addr: {e}"),
    }
    let report = server.run();
    println!("{}", report_json(&report));
}
