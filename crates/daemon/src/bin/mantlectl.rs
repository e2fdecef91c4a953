//! `mantlectl` — the operator CLI for a running `mantled`.
//!
//! ```text
//! mantlectl [--addr=HOST:PORT] <command> [args]
//!
//! commands:
//!   status                      daemon status (policy epoch, sessions, op counters)
//!   policy-show                 name + epoch of the installed policy
//!   policy-swap <file.json>     validate + hot-install a policy bundle
//!   scenario <name>             run a named scenario on the daemon, print its report
//!   op <kind> <path> [n]        issue n metadata ops (default 1) and print replies
//!   trace [limit]               subscribe to the live trace stream (JSONL on stdout)
//!   shutdown                    drain the daemon and exit
//! ```
//!
//! Policy bundle files are the `policy` object of the `policy-swap`
//! request in `PROTOCOL.md`: `{"name":..., "metaload":..., "mdsload":...,
//! "when":..., "where":..., "howmuch":[...], "howmany":...}`.

#![forbid(unsafe_code)]

use std::process::exit;

use mantle_daemon::json::{parse, Json};
use mantle_daemon::MantleClient;

const USAGE: &str = "usage: mantlectl [--addr=HOST:PORT] \
status|policy-show|policy-swap|scenario|op|trace|shutdown [args]";

fn main() {
    let mut addr = "127.0.0.1:7717".to_string();
    let mut rest = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(a) = arg.strip_prefix("--addr=") {
            addr = a.to_string();
        } else if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return;
        } else {
            rest.push(arg);
        }
    }
    let Some(command) = rest.first().map(String::as_str) else {
        die(USAGE);
    };
    let result = match command {
        "status" => admin(&addr, "status", vec![]),
        "policy-show" => admin(&addr, "policy-show", vec![]),
        "shutdown" => admin(&addr, "shutdown", vec![]),
        "scenario" => {
            let name = rest.get(1).unwrap_or_else(|| die("scenario needs a name"));
            admin(&addr, "scenario", vec![("name", Json::str(name.as_str()))])
        }
        "policy-swap" => {
            let path = rest
                .get(1)
                .unwrap_or_else(|| die("policy-swap needs a bundle file"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            let bundle = parse(&text).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
            admin(&addr, "policy-swap", vec![("policy", bundle)])
        }
        "op" => run_ops(&addr, &rest),
        "trace" => run_trace(&addr, &rest),
        other => die(&format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => {}
        Err(e) => die(&format!("{e}")),
    }
}

fn admin(addr: &str, verb: &str, extra: Vec<(&str, Json)>) -> std::io::Result<()> {
    let mut client = MantleClient::connect(addr, "admin")?;
    let reply = client.admin(verb, extra)?;
    println!("{reply}");
    if reply.get_str("type") == Some("error") {
        exit(1);
    }
    Ok(())
}

fn run_ops(addr: &str, rest: &[String]) -> std::io::Result<()> {
    let kind = rest
        .get(1)
        .unwrap_or_else(|| die("op needs a kind (e.g. create)"));
    let path = rest.get(2).unwrap_or_else(|| die("op needs a path"));
    let count: u64 = match rest.get(3) {
        Some(n) => n
            .parse()
            .unwrap_or_else(|_| die("op count must be a number")),
        None => 1,
    };
    let mut client = MantleClient::connect(addr, "client")?;
    for _ in 0..count {
        let reply = client.op(kind, path)?;
        println!("{reply}");
        if reply.get_str("type") == Some("error") {
            exit(1);
        }
    }
    Ok(())
}

fn run_trace(addr: &str, rest: &[String]) -> std::io::Result<()> {
    let limit: Option<u64> = rest.get(1).map(|n| {
        n.parse()
            .unwrap_or_else(|_| die("trace limit must be a number"))
    });
    let mut client = MantleClient::connect(addr, "trace")?;
    let mut seen = 0u64;
    while let Some(record) = client.recv()? {
        println!("{record}");
        seen += 1;
        if limit.is_some_and(|l| seen >= l) {
            break;
        }
    }
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("mantlectl: {msg}");
    exit(2)
}
