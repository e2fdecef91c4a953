//! Seam guards: names that must not come back, and where.
//!
//! Each row of [`GUARDS`] is one design seam the workspace keeps — the
//! engine is single-threaded, there is one event queue, one namespace
//! index, one trace buffer, one heat type, one route table, one hook
//! pipeline — written as the identifiers whose return would break it. A
//! name matches as a whole identifier (or, for `a::b`, as consecutive
//! path segments) anywhere in a searched `.rs` file, comments included:
//! a deleted design is not to be described as if it were live either.
//! This file names every guarded identifier and is itself not searched.

use std::path::Path;

/// The part of a file a guard searches.
enum Scope {
    /// Every line.
    All,
    /// The lines above the file's first `#[cfg(test)]`: the name is a
    /// test oracle and may live there.
    NonTest,
    /// The item opened by the first line that starts with this text,
    /// through the first line that is `}`.
    Item(&'static str),
}

/// One seam: the names that must not appear, where they are searched,
/// the files that may still hold them, and why.
struct Guard {
    /// Identifiers, or `::` paths of them.
    names: &'static [&'static str],
    /// Files, and directories searched recursively for `.rs` files.
    paths: &'static [&'static str],
    /// Files under `paths` that are not searched.
    allowed: &'static [&'static str],
    scope: Scope,
    why: &'static str,
}

/// Every `.rs` file outside the benchmark crate and `target/`.
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];

const GUARDS: &[Guard] = &[
    Guard {
        names: &[
            "Mutex",
            "RwLock",
            "MutexGuard",
            "Condvar",
            "AtomicBool",
            "AtomicPtr",
            "AtomicI8",
            "AtomicI16",
            "AtomicI32",
            "AtomicI64",
            "AtomicIsize",
            "AtomicU8",
            "AtomicU16",
            "AtomicU32",
            "AtomicU64",
            "AtomicUsize",
            "thread::spawn",
            "thread::scope",
        ],
        paths: &["crates/mds/src"],
        allowed: &["crates/mds/src/service.rs"],
        scope: Scope::All,
        why: "the engine is single-threaded: simulation state is owned by Driver; only the \
              service inbox crosses threads",
    },
    Guard {
        names: &["clippy::too_many_arguments"],
        paths: &[
            "crates/mds/src/cluster.rs",
            "crates/mds/src/driver.rs",
            "crates/mds/src/heartbeat.rs",
            "crates/mds/src/elastic.rs",
            "crates/mds/src/migration.rs",
            "crates/mds/src/barrier.rs",
            "crates/mds/src/faults.rs",
            "crates/mds/src/tracer.rs",
            "crates/mds/src/service.rs",
            "crates/mds/src/balancer.rs",
            "crates/mds/src/shard.rs",
        ],
        allowed: &[],
        scope: Scope::All,
        why: "a step in the split engine grew past seven parameters: bundle state into the \
              component that owns it",
    },
    Guard {
        names: &[
            "ShardRouter",
            "CrossShardMsg",
            "exchange_messages",
            "outbox",
            "mds_lo",
            "client_lo",
        ],
        paths: &["crates/mds/src"],
        allowed: &[],
        scope: Scope::All,
        why: "the simulator is not partitioned: one Shard owns every MDS and client, and \
              schedules into its own queue",
    },
    Guard {
        names: &["ExecMode"],
        paths: EVERYWHERE,
        allowed: &["crates/mds/src/config.rs", "crates/mds/src/lib.rs"],
        scope: Scope::All,
        why: "ExecMode is an ignored name kept for the pinned benchmark harness (ROADMAP item \
              1): nothing else in the workspace may use it",
    },
    Guard {
        names: &[
            "TimingWheel",
            "WalkOracle",
            "agg_dirty",
            "auth_epoch",
            "rebuild_aggregates",
        ],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "there is one event queue (a binary heap) and one set of namespace indexes, \
              maintained eagerly: the wheel measured as noise three times, and the walk-based \
              paths are test support (tests/support), not a library mode",
    },
    Guard {
        names: &["SchedulerKind", "with_scheduler", "IndexMode"],
        paths: EVERYWHERE,
        allowed: &[
            "crates/sim/src/events.rs",
            "crates/sim/src/lib.rs",
            "crates/core/src/scale.rs",
            "crates/namespace/src/tree.rs",
            "crates/namespace/src/lib.rs",
            "crates/mds/src/config.rs",
            "crates/mds/src/lib.rs",
        ],
        scope: Scope::All,
        why: "SchedulerKind, with_scheduler and IndexMode are ignored names kept for the \
              pinned benchmark harness (ROADMAP item 1), one documented block per crate: \
              nothing else in the workspace may use them",
    },
    Guard {
        names: &[
            "SchedulerKind::Heap",
            "SchedulerKind::Wheel",
            "IndexMode::Incremental",
            "index_mode",
        ],
        paths: EVERYWHERE,
        allowed: &["crates/namespace/src/tree.rs", "crates/mds/src/config.rs"],
        scope: Scope::All,
        why: "a branch on an ignored harness pin: SchedulerKind and IndexMode select nothing, \
              so no variant is named and no `index_mode` field is read",
    },
    Guard {
        names: &["prefix_cold", "SubtreeWindow"],
        paths: &["crates/mds/src"],
        allowed: &[],
        scope: Scope::NonTest,
        why: "a list of export windows is back outside test code: per-request cost must not \
              depend on how many migrations are live — freeze and cold-prefix state is a \
              per-directory stamp (shard::DirStamps); the window list is the test oracle",
    },
    Guard {
        names: &[
            "euler_interval",
            "in_subtree",
            "renumber",
            "renumbers",
            "alloc_interval",
            "IntervalRegion",
            "by_tin",
            "sync_epoch",
        ],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "Euler-tour labels are back: a migrated region is the export's directory list \
              (subtree_dirs), which stamps the freeze and drops every cache entry and client \
              route in it — no second representation of the same set, and no renumber for a \
              wide parent to trigger",
    },
    Guard {
        names: &[
            "TraceKey",
            "cur_key",
            "cur_emit",
            "cur_epoch",
            "hb_epoch",
            "trace_full",
        ],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "trace records are keyed or re-sorted again: the engine runs on one thread, so \
              the Tracer's one buffer takes records in emission order, which is the stream's \
              order, and holds the heartbeat epoch once",
    },
    Guard {
        names: &[
            "DecayCounter",
            "SharedDecay",
            "hit_sharing",
            "get_sharing",
            "moved_dirs",
        ],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "a second heat type or a second walk of a migrated region is back: the decay \
              rule lives in namespace::FragHeat, which takes the namespace's one half life as \
              an argument, and an export's directory list is the one its migration walk \
              returns (SubtreeMigration::dirs)",
    },
    Guard {
        names: &["RouteIndex", "ClientCache"],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "per-client route maps or a (dir, client) index are back: every client's learned \
              routes live in one cache::RouteTable, a byte per (directory, client), which the \
              issue reads, the reply writes and an export scans row by row",
    },
    Guard {
        names: &["frag_owners_into", "scratch_owners"],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "a per-op scan of a directory's fragments is back: the data plane reads \
              Namespace::frag_span, one load of the directory's fragment summary, which splits \
              and authority changes keep",
    },
    Guard {
        names: &["partition_point"],
        paths: &["crates/workloads/src/zipf.rs"],
        allowed: &[],
        scope: Scope::NonTest,
        why: "ZipfMix samples through a binary search again: a draw starts at its guide-table \
              bucket and steps forward; the binary search is the test oracle",
    },
    Guard {
        names: &["Interpreter"],
        paths: &[
            "crates/mds/src",
            "crates/core/src",
            "crates/daemon/src",
            "crates/policy/src/value.rs",
        ],
        allowed: &[],
        scope: Scope::All,
        why: "the tree interpreter is named outside the policy crate's reference path: run \
              scripts through MantleRuntime / ScriptedSelector, and give natives HostState",
    },
    Guard {
        names: &[
            "decide_tree",
            "decide_bytecode_pass2",
            "mdsload_tree",
            "base_interp",
            "whoami_cell",
        ],
        paths: &["crates/policy/src/env.rs"],
        allowed: &[],
        scope: Scope::All,
        why: "a per-engine copy of the hook pipeline is back in env.rs: HookEngine forks \
              run_hook and nothing else",
    },
    Guard {
        names: &[
            "hits",
            "forwards_out",
            "forwards_in",
            "migrations_out",
            "inodes_exported",
            "sessions_flushed",
            "splits",
            "remote_prefix",
            "dropped",
            "cache_hits",
            "cache_misses",
            "completed",
        ],
        paths: &["crates/mds/src/metrics.rs"],
        allowed: &[],
        scope: Scope::Item("pub struct MdsCounters"),
        why: "a per-MDS run total is declared twice again: MdsCounters holds heartbeat-window \
              state only, and the data plane counts run totals straight into its MdsReport",
    },
    Guard {
        names: &["membership_epoch"],
        paths: &["crates/mds/src/shard.rs"],
        allowed: &[],
        scope: Scope::Item("pub struct SharedSim"),
        why: "the membership epoch is stored again: it is joins + leaves, counted once by \
              elastic::Membership",
    },
    Guard {
        names: &["GlobalScan", "unknown_globals"],
        paths: &["crates/policy/src"],
        allowed: &[],
        scope: Scope::All,
        why: "the validator re-scopes the AST again: which names are globals is the bytecode \
              compiler's answer, read through CompiledHook::unassigned_reads",
    },
    Guard {
        names: &["mdss", "rows", "DecideTables"],
        paths: &["crates/policy/src/env.rs"],
        allowed: &[],
        scope: Scope::Item("struct PerMds"),
        why: "a private per-MDS copy of the MDSs table is back in PerMds: the image is one per \
              CompiledPolicy (MdsImage), filled once per heartbeat snapshot",
    },
];

/// The identifier paths on a line, as their segments:
/// `let t = std::thread::spawn(f);` holds `[let]`, `[t]`,
/// `[std, thread, spawn]` and `[f]`.
fn paths(line: &str) -> Vec<Vec<&str>> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut paths = vec![Vec::new()];
    let mut rest = line;
    while let Some(c) = rest.chars().next() {
        if ident(c) {
            let end = rest.find(|c: char| !ident(c)).unwrap_or(rest.len());
            paths.last_mut().expect("never empty").push(&rest[..end]);
            rest = &rest[end..];
        } else if let Some(after) = rest.strip_prefix("::") {
            rest = after;
        } else {
            paths.push(Vec::new());
            rest = &rest[c.len_utf8()..];
        }
    }
    paths
}

/// The lines of `text` a guard with this scope searches, numbered from 1.
fn scoped<'a>(text: &'a str, scope: &Scope) -> Vec<(usize, &'a str)> {
    let lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    match scope {
        Scope::All => lines.collect(),
        Scope::NonTest => lines
            .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
            .collect(),
        Scope::Item(opener) => lines
            .skip_while(|(_, l)| !l.starts_with(opener))
            .scan(false, |closed, (n, l)| {
                (!*closed).then(|| {
                    *closed = l == "}";
                    (n, l)
                })
            })
            .collect(),
    }
}

/// Every line of `files` (repository-relative path, contents) that
/// breaks `guard`, as `path:line: text`.
fn violations(guard: &Guard, files: &[(String, String)]) -> Vec<String> {
    let under = |file: &str, path: &str| {
        file == path
            || file
                .strip_prefix(path)
                .is_some_and(|rest| rest.starts_with('/'))
    };
    let wanted: Vec<Vec<&str>> = guard
        .names
        .iter()
        .map(|n| n.split("::").collect())
        .collect();
    let mut hits = Vec::new();
    for (file, text) in files {
        if !guard.paths.iter().any(|p| under(file, p)) || guard.allowed.contains(&file.as_str()) {
            continue;
        }
        for (n, line) in scoped(text, &guard.scope) {
            // Tokenize only the lines that hold a guarded name as text.
            let near = wanted
                .iter()
                .any(|want| want.last().is_some_and(|seg| line.contains(seg)));
            let found = near
                && paths(line).iter().any(|path| {
                    wanted
                        .iter()
                        .any(|want| path.windows(want.len()).any(|w| w == want.as_slice()))
                });
            if found {
                hits.push(format!("{file}:{n}: {}", line.trim()));
            }
        }
    }
    hits
}

/// Every `.rs` file under `dir`, as (repository-relative path, contents).
fn rust_files(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries {
        let entry = entry.expect("readable entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{dir}/{name}");
        if entry.file_type().expect("file type").is_dir() {
            rust_files(root, &rel, out);
        } else if name.ends_with(".rs") && rel != "tests/seams.rs" {
            let text = std::fs::read_to_string(entry.path()).expect("readable source");
            out.push((rel, text));
        }
    }
}

#[test]
fn no_guarded_name_is_back() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in EVERYWHERE {
        rust_files(root, dir, &mut files);
    }
    assert!(files.len() > 100, "found only {} source files", files.len());
    let mut report = String::new();
    for guard in GUARDS {
        let hits = violations(guard, &files);
        if !hits.is_empty() {
            report += &format!("{}\n  {}\n\n", guard.why, hits.join("\n  "));
        }
    }
    assert!(report.is_empty(), "{report}");
}

#[test]
fn a_planted_name_is_found_and_only_where_it_is_guarded() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let threads = &GUARDS[0];
    let planted = [
        file(
            "crates/mds/src/cluster.rs",
            "fn f() {\n    let lock = std::sync::Mutex::new(0);\n}\n",
        ),
        file("crates/mds/src/driver.rs", "let h = thread::spawn(run);\n"),
        // Allowed file, unsearched directory, and longer identifiers.
        file("crates/mds/src/service.rs", "let lock = Mutex::new(0);\n"),
        file("crates/core/src/lib.rs", "let lock = Mutex::new(0);\n"),
        file("crates/mds/src/shard.rs", "struct Mutexes; fn spawn() {}\n"),
    ];
    assert_eq!(
        violations(threads, &planted),
        [
            "crates/mds/src/cluster.rs:2: let lock = std::sync::Mutex::new(0);",
            "crates/mds/src/driver.rs:1: let h = thread::spawn(run);",
        ]
    );

    // A test oracle may keep the name below `#[cfg(test)]`.
    let windows = GUARDS
        .iter()
        .find(|g| g.names.contains(&"SubtreeWindow"))
        .expect("the window guard");
    let oracle = [file(
        "crates/mds/src/shard.rs",
        "struct SubtreeWindow;\n#[cfg(test)]\nmod tests { struct SubtreeWindow; }\n",
    )];
    assert_eq!(
        violations(windows, &oracle),
        ["crates/mds/src/shard.rs:1: struct SubtreeWindow;"]
    );

    // An item-scoped guard looks inside that item only.
    let per_mds = GUARDS.last().expect("the PerMds guard");
    let env = [file(
        "crates/policy/src/env.rs",
        "struct PerMds {\n    rows: Vec<u8>,\n}\nstruct MdsImage {\n    rows: Vec<u8>,\n}\n",
    )];
    assert_eq!(
        violations(per_mds, &env),
        ["crates/policy/src/env.rs:2: rows: Vec<u8>,"]
    );
}
