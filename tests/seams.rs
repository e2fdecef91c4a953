//! Seam guards: names that must not come back, and where.
//!
//! Each row of [`GUARDS`] is one design seam the workspace keeps — the
//! engine is single-threaded, there is one event queue, one namespace
//! index, one trace buffer, one heat type, one route table, one hook
//! pipeline — written as the identifiers whose return would break it. A
//! name matches as a whole identifier (or, for `a::b` and `a.b`, as
//! consecutive path segments; a `-` joins two segments too, as in a thread
//! or program name) anywhere in a searched `.rs` file, comments included:
//! a deleted design is not to be described as if it were live either.
//! This file names every guarded identifier and is itself not searched.
//!
//! One more guard keeps the public surface honest: every `pub fn` of a
//! library file must be named by some other file, or rustc's dead-code
//! lint — which does not look at `pub` items — would never see it go
//! unused. A mention in a comment or as a `name:` field does not count,
//! and a method counts only as a call, `.name(`, or a path, `::name`.
//!
//! And one keeps the configuration honest: every `pub` field of the
//! cluster's configuration structs must be set by some file other than
//! the one that declares it. A value nobody sets is the frozen
//! calibration, and belongs in a named constant.

use std::collections::HashSet;
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
    /// Identifiers, or `::`, `.` or `-` paths of them.
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

/// What a second thread, and the hand-off to it, would be written with:
/// locks, atomics, spawns, channels, the socket pair that woke the
/// reactor, the notifier behind it, and the engine thread's name.
const ONE_THREAD: &[&str] = &[
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
    "mpsc",
    "UnixStream",
    "Notifier",
    "notify_with",
    "drain_wakes",
    "mantled-engine",
];

const GUARDS: &[Guard] = &[
    Guard {
        names: ONE_THREAD,
        paths: &["crates/mds/src"],
        allowed: &[],
        scope: Scope::All,
        why: "the engine is single-threaded: simulation state is owned by the World, and the \
              live service is stepped in line by its one caller",
    },
    Guard {
        names: ONE_THREAD,
        paths: &["crates/daemon/src"],
        allowed: &[],
        scope: Scope::NonTest,
        why: "mantled is one thread: the reactor steps the engine in line, with no inbox, \
              channel, wake stream or notifier between them",
    },
    Guard {
        names: &["clippy::too_many_arguments"],
        paths: &[
            "crates/mds/src/cluster.rs",
            "crates/mds/src/heartbeat.rs",
            "crates/mds/src/elastic.rs",
            "crates/mds/src/migration.rs",
            "crates/mds/src/faults.rs",
            "crates/mds/src/tracer.rs",
            "crates/mds/src/service.rs",
            "crates/mds/src/balancer.rs",
            "crates/mds/src/world.rs",
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
        why: "the simulator is not partitioned: one World owns every MDS and client, and \
              schedules into its own queue",
    },
    Guard {
        names: &[
            "WIDTH",
            "NsOp",
            "DeferredNsOp",
            "Barrier",
            "Window",
            "process_window",
            "Exclusive",
            "record_op_no_split",
            "check_split",
            "pop_before",
            "last_emit_at",
        ],
        paths: &["crates"],
        allowed: &[],
        scope: Scope::All,
        why: "the engine is one event loop: each event runs to completion and every mutation \
              it makes lands before the next one runs — no window, no barrier, no deferred \
              namespace op, and no split check apart from the op that causes it",
    },
    Guard {
        names: &[
            "SharedSim",
            "Driver",
            "Frontier",
            "last_event",
            "last_now",
            "cache_on",
            "faults_active",
        ],
        paths: &["crates"],
        allowed: &[],
        scope: Scope::All,
        why: "the simulation state is split again: one World owns the namespace, the data \
              plane, the config and the tracer; the time frontier is the one queue's own \
              clock (World::queue's now), not a copy kept in step with the loop; and whether \
              the cache or the fault plan is on is read off the caches and the config, not a \
              flag",
    },
    Guard {
        names: &["next_global_at", "co.globals"],
        paths: &["crates"],
        allowed: &[],
        scope: Scope::All,
        why: "there is one event queue: coordinator events wait in the world's queue under \
              rank-0 keys, so no second queue is peeked, popped or compared with it",
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
              per-directory stamp (world::DirStamps); the window list is the test oracle",
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
        names: &["Timeline", "MdsSeries", "timeline.jsonl"],
        paths: &["crates", "src"],
        allowed: &[],
        scope: Scope::All,
        why: "a second per-tick store is back: the heartbeat_tick record carries every \
              per-MDS gauge (loads, queued, window_ops), a run keeps nothing per tick beyond \
              its records, and the trace bin writes one file",
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
              rule lives in namespace::FragHeat, which takes the namespace's one decay table \
              (or its half life) as an argument, and an export's directory list is the one its migration walk \
              returns (SubtreeMigration::dirs)",
    },
    Guard {
        names: &["RouteIndex", "ClientCache"],
        paths: EVERYWHERE,
        allowed: &[],
        scope: Scope::All,
        why: "per-client route maps or a (dir, client) index are back: every client's learned \
              routes live in one cache::RouteTable, a slot of four (client, route) pairs per \
              learned directory and a byte per client once a fifth client learns it, which the \
              issue reads, the reply writes and an export scans slot by slot and row by row",
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
        why: "ZipfMix samples through a binary search again: a draw's bucket bounds hold its \
              answer, and a walk from where it falls between them finds it; the binary search \
              is the test oracle",
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
        paths: &["crates/mds/src/world.rs"],
        allowed: &[],
        scope: Scope::Item("pub(crate) struct World"),
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

/// Public functions nothing in the workspace calls, kept as API, as
/// `file stem::name`: EXPERIMENTS.md names `fill_and_spill_with` as the
/// way to build a fill-and-spill policy with other constants, and
/// POLICY.md and EXPERIMENTS.md document `elastic_scaler` as the
/// canonical scaler.
const UNCALLED_API: &[&str] = &["policies::fill_and_spill_with", "policies::elastic_scaler"];

/// Where a caller of a public function may live: the workspace and the
/// benchmark harness.
const CALLERS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// The configuration structs, as (declaring file, item opener). Every
/// `pub` field of one must be set by some file other than the declaring
/// one, searched where [`CALLERS`] are, or by a setter of the declaring
/// file: a value only its own file sets is a constant, not a knob.
const CONFIG_STRUCTS: &[(&str, &str)] = &[
    ("crates/mds/src/config.rs", "pub struct ClusterConfig"),
    ("crates/mds/src/config.rs", "pub struct CostModel"),
    ("crates/mds/src/faults.rs", "pub struct FaultPlan"),
    ("crates/mds/src/balancer.rs", "pub struct CephfsBalancer"),
];

/// Config fields nothing sets that stay fields, as `struct.field`: the
/// pinned benchmark harness reads `index_mode` (ROADMAP item 1).
const HARNESS_PIN_FIELDS: &[&str] = &["ClusterConfig.index_mode"];

/// The identifier paths on a line, as their segments, joined by `::` or
/// `.`: `let t = std::thread::spawn(f.0);` holds `[let]`, `[t]`,
/// `[std, thread, spawn]` and `[f, 0]`.
fn paths(line: &str) -> Vec<Vec<&str>> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut paths = vec![Vec::new()];
    let mut rest = line;
    while let Some(c) = rest.chars().next() {
        if ident(c) {
            let end = rest.find(|c: char| !ident(c)).unwrap_or(rest.len());
            paths.last_mut().expect("never empty").push(&rest[..end]);
            rest = &rest[end..];
        } else if let Some(after) = rest
            .strip_prefix("::")
            .or(rest.strip_prefix('.'))
            .or(rest.strip_prefix('-'))
        {
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
        .map(|n| {
            n.split("::")
                .flat_map(|s| s.split('.'))
                .flat_map(|s| s.split('-'))
                .collect()
        })
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

/// The name of the function a line declares `pub fn` or `pub const fn`.
fn public_fn(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The identifiers a file names, outside comments, `pub use` items (a
/// re-export is not a use) and `name:` field positions.
#[derive(Default)]
struct Named<'a> {
    /// Every such identifier.
    any: HashSet<&'a str>,
    /// Those called as a method, `.name(`, or named as a path segment,
    /// `::name`: the uses a method can have.
    qualified: HashSet<&'a str>,
}

fn named(text: &str) -> Named<'_> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut names = Named::default();
    let mut in_use = false;
    for line in text.lines() {
        in_use |= line.trim_start().starts_with("pub use ");
        if in_use {
            in_use = !line.contains(';');
            continue;
        }
        let code = line.find("//").map_or(line, |i| &line[..i]);
        let mut start = 0;
        while let Some(at) = code[start..].find(ident) {
            let at = start + at;
            let end = code[at..]
                .find(|c| !ident(c))
                .map_or(code.len(), |n| at + n);
            let (before, name, after) = (&code[..at], &code[at..end], &code[end..]);
            start = end;
            if after.trim_start().starts_with(':') && !after.starts_with("::") {
                continue; // a `name:` field position
            }
            names.any.insert(name);
            if before.ends_with("::") || (before.ends_with('.') && after.starts_with('(')) {
                names.qualified.insert(name);
            }
        }
    }
    names
}

/// Every `pub fn` above the first `#[cfg(test)]` of a file under
/// `crates/*/src` that no other file of `files` names and that is not
/// [`UNCALLED_API`], as `path:line: text`. A function inside an `impl`
/// block counts only the uses a method can have.
fn uncalled_public_fns(files: &[(String, String)]) -> Vec<String> {
    let names: Vec<Named> = files.iter().map(|(_, text)| named(text)).collect();
    let mut hits = Vec::new();
    for (i, (file, text)) in files.iter().enumerate() {
        let library = file
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
        if !library {
            continue;
        }
        let stem = Path::new(file).file_stem().expect("a file name");
        // The indentation of the `impl` block the line is in, if any.
        let mut impl_indent: Option<usize> = None;
        for (n, line) in scoped(text, &Scope::NonTest) {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            let opens = code.starts_with("impl ") || code.starts_with("impl<");
            if opens && !code.ends_with('}') {
                impl_indent = Some(indent);
            } else if code == "}" && impl_indent == Some(indent) {
                impl_indent = None;
            }
            let Some(name) = public_fn(line) else {
                continue;
            };
            let called = names.iter().enumerate().any(|(j, named)| {
                let uses = match impl_indent {
                    Some(_) => &named.qualified,
                    None => &named.any,
                };
                j != i && uses.contains(name)
            });
            let api = format!("{}::{name}", stem.to_string_lossy());
            if !called && !UNCALLED_API.contains(&api.as_str()) {
                hits.push(format!("{file}:{n}: {}", line.trim()));
            }
        }
    }
    hits
}

/// The `pub` fields of the struct whose declaration starts with `opener`
/// in `text`; `None` if there is no such declaration. A unit or tuple
/// struct has no named fields.
fn pub_fields<'a>(text: &'a str, opener: &'static str) -> Option<Vec<&'a str>> {
    let item = scoped(text, &Scope::Item(opener));
    let (_, first) = item.first()?;
    if first.trim_end().ends_with(';') {
        return Some(Vec::new());
    }
    let fields = item.iter().filter_map(|(_, line)| {
        let (name, _) = line.trim_start().strip_prefix("pub ")?.split_once(':')?;
        name.chars()
            .all(|c| c.is_alphanumeric() || c == '_')
            .then_some(name)
    });
    Some(fields.collect())
}

/// Whether `text` sets the field `field` of the struct `name`, outside
/// comments: directly inside a `name { … }` literal, as `field: …` or the
/// shorthand `field` (a same-named field of another struct's literal does
/// not count), or by assignment to it or through it, `x.field = …` or
/// `x.field.inner = …`, on any receiver but a bare `self` (which, outside
/// the declaring file, is some other struct).
fn sets_field(text: &str, name: &str, field: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let code: Vec<&str> = text
        .lines()
        .map(|line| line.find("//").map_or(line, |i| &line[..i]))
        .collect();
    let code = code.join("\n");
    let in_literal = code.match_indices(name).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + name.len()..]);
        let Some(body) = after.trim_start().strip_prefix('{') else {
            return false;
        };
        if before.ends_with(ident) {
            return false;
        }
        // The literal's own text, up to its closing brace, with the
        // contents of every bracket nested in it left out.
        let mut depth = 0;
        let mut own = String::new();
        for c in body.chars() {
            match c {
                '{' | '(' | '[' => depth += 1,
                '}' | ')' | ']' if depth == 0 => break,
                '}' | ')' | ']' => depth -= 1,
                _ if depth == 0 => own.push(c),
                _ => {}
            }
        }
        own.split(',').map(str::trim).any(|item| {
            item.strip_prefix(field).is_some_and(|rest| {
                let rest = rest.trim_start();
                rest.is_empty() || (rest.starts_with(':') && !rest.starts_with("::"))
            })
        })
    });
    in_literal
        || code.match_indices(field).any(|(at, _)| {
            let (before, after) = (&code[..at], &code[at + field.len()..]);
            let Some(path) = before.strip_suffix('.') else {
                return false;
            };
            let receiver = path.rsplit(|c: char| !ident(c) && c != '.').next();
            let rhs = after
                .trim_start_matches(|c: char| ident(c) || c == '.')
                .trim_start();
            receiver != Some("self")
                && !after.starts_with(ident)
                && rhs.starts_with('=')
                && !rhs.starts_with("==")
        })
}

/// Whether the non-test code of `text` writes `field` through `self`,
/// `self.field = …` or `self.field.push(…)`: a setter, such as
/// `ClusterConfig::with_cache`, that callers elsewhere use instead of
/// naming the field.
fn has_setter(text: &str, field: &str) -> bool {
    let (assign, push) = (format!("self.{field} = "), format!("self.{field}.push("));
    scoped(text, &Scope::NonTest).iter().any(|(_, line)| {
        let code = line.trim_start();
        code.starts_with(&assign) || code.starts_with(&push)
    })
}

/// Every `pub` field of [`CONFIG_STRUCTS`] outside [`HARNESS_PIN_FIELDS`]
/// that no file of `files` other than its declaring one sets, and no
/// setter in the declaring file writes, as `path: struct.field`.
fn unset_config_fields(files: &[(String, String)]) -> Vec<String> {
    let mut hits = Vec::new();
    for &(path, opener) in CONFIG_STRUCTS {
        let (_, text) = files
            .iter()
            .find(|(file, _)| file == path)
            .unwrap_or_else(|| panic!("{path} is missing"));
        let fields =
            pub_fields(text, opener).unwrap_or_else(|| panic!("`{opener}` is not in {path}"));
        let name = opener.rsplit(' ').next().expect("a struct name");
        for field in fields {
            let set = has_setter(text, field)
                || files
                    .iter()
                    .any(|(file, text)| file != path && sets_field(text, name, field));
            let qualified = format!("{name}.{field}");
            if !set && !HARNESS_PIN_FIELDS.contains(&qualified.as_str()) {
                hits.push(format!("{path}: {qualified}"));
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
        file("crates/mds/src/world.rs", "let h = thread::spawn(run);\n"),
        file("crates/mds/src/service.rs", "// named \"mantled-engine\"\n"),
        // Unsearched directory, and longer identifiers.
        file("crates/core/src/lib.rs", "let lock = Mutex::new(0);\n"),
        file(
            "crates/mds/src/elastic.rs",
            "struct Mutexes; fn spawn() {}\nlet engine = mantled - engine_count;\n",
        ),
    ];
    assert_eq!(
        violations(threads, &planted),
        [
            "crates/mds/src/cluster.rs:2: let lock = std::sync::Mutex::new(0);",
            "crates/mds/src/world.rs:1: let h = thread::spawn(run);",
            "crates/mds/src/service.rs:1: // named \"mantled-engine\"",
        ]
    );

    // The daemon's row searches above its files' tests only.
    let reactor = [file(
        "crates/daemon/src/server.rs",
        "use std::sync::mpsc;\n#[cfg(test)]\nmod tests { use std::os::unix::net::UnixStream; }\n",
    )];
    assert_eq!(
        violations(&GUARDS[1], &reactor),
        ["crates/daemon/src/server.rs:1: use std::sync::mpsc;"]
    );

    // A test oracle may keep the name below `#[cfg(test)]`.
    let windows = GUARDS
        .iter()
        .find(|g| g.names.contains(&"SubtreeWindow"))
        .expect("the window guard");
    let oracle = [file(
        "crates/mds/src/world.rs",
        "struct SubtreeWindow;\n#[cfg(test)]\nmod tests { struct SubtreeWindow; }\n",
    )];
    assert_eq!(
        violations(windows, &oracle),
        ["crates/mds/src/world.rs:1: struct SubtreeWindow;"]
    );

    // A dotted name matches as consecutive segments, not word by word.
    let dotted = Guard {
        names: &["out.jsonl"],
        paths: &["src"],
        allowed: &[],
        scope: Scope::All,
        why: "",
    };
    let bin = [file(
        "src/bin/trace.rs",
        "// out, as jsonl\nlet p = format!(\"{prefix}.out.jsonl\");\n",
    )];
    assert_eq!(
        violations(&dotted, &bin),
        ["src/bin/trace.rs:2: let p = format!(\"{prefix}.out.jsonl\");"]
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

#[test]
fn every_public_fn_is_named_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CALLERS {
        rust_files(root, dir, &mut files);
    }
    assert!(files.len() > 100, "found only {} source files", files.len());
    let hits = uncalled_public_fns(&files);
    assert!(
        hits.is_empty(),
        "a `pub fn` nothing outside its file names: delete it, or drop `pub` so the \
         dead-code lint watches it\n  {}",
        hits.join("\n  ")
    );
}

#[test]
fn a_planted_uncalled_fn_is_found_and_a_called_one_is_not() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let planted = [
        file(
            "crates/sim/src/rng.rs",
            "pub fn lonely() {}\nfn f() { lonely() }\npub fn reexported() {}\n\
             pub const fn tested() {}\n#[cfg(test)]\nmod tests {\n    pub fn oracle() {}\n}\n",
        ),
        // Re-exports on one line and over several do not count as uses.
        file(
            "crates/sim/src/lib.rs",
            "pub use rng::reexported;\npub use rng::{\n    reexported,\n};\n",
        ),
        file("tests/rng.rs", "fn t() { rng::tested() }\n"),
        // A comment and a field position are not uses; a method counts
        // only where it is called or named as a path segment.
        file(
            "crates/sim/src/time.rs",
            "pub fn commented() {}\npub fn field() {}\nimpl Time {\n    pub fn named() {}\n\
             pub fn called(&self) {}\n    pub fn pathed() {}\n}\npub fn bare() {}\n",
        ),
        file(
            "crates/mds/src/cluster.rs",
            "// commented() is not a use\nlet c = Config { field: 1 };\nlet named = 2;\n\
             t.called();\nlet f = Time::pathed;\nbare();\n",
        ),
        // The allowlisted function needs no caller.
        file(
            "crates/core/src/policies.rs",
            "pub fn fill_and_spill_with() {}\n",
        ),
    ];
    assert_eq!(
        uncalled_public_fns(&planted),
        [
            "crates/sim/src/rng.rs:1: pub fn lonely() {}",
            "crates/sim/src/rng.rs:3: pub fn reexported() {}",
            "crates/sim/src/time.rs:1: pub fn commented() {}",
            "crates/sim/src/time.rs:2: pub fn field() {}",
            "crates/sim/src/time.rs:4: pub fn named() {}",
        ]
    );
}

#[test]
fn every_config_field_is_set_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CALLERS {
        rust_files(root, dir, &mut files);
    }
    let hits = unset_config_fields(&files);
    assert!(
        hits.is_empty(),
        "{} `pub` config field(s) nothing outside the declaring file sets, directly or \
         through a setter: make each a named constant with its default value\n  {}",
        hits.len(),
        hits.join("\n  ")
    );
}

#[test]
fn a_planted_unset_field_is_found_and_a_set_one_is_not() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let config = "pub struct ClusterConfig {\n    /// Docs.\n    pub literal: u64,\n    \
                  pub shorthand: u64,\n    pub assigned: u64,\n    pub nested: Costs,\n    \
                  pub lonely: u64,\n    pub compared: u64,\n    pub built: u64,\n    \
                  pub index_mode: u8,\n    pub(crate) private: u64,\n}\n\
                  fn f() { let c = ClusterConfig { lonely: 1 }; }\n\
                  impl ClusterConfig {\n    pub fn with_built(mut self) -> Self {\n        \
                  self.built = 1;\n        self\n    }\n}\n\
                  pub struct CostModel {\n    pub commented: f64,\n}\n";
    let planted = [
        file("crates/mds/src/config.rs", config),
        file(
            "crates/mds/src/faults.rs",
            "pub struct FaultPlan {\n    pub events: Vec<u8>,\n    pub seed: u64,\n}\n",
        ),
        file("crates/mds/src/balancer.rs", "pub struct CephfsBalancer;\n"),
        file(
            "tests/uses.rs",
            "let c = ClusterConfig { literal: 1, ..x };\nlet d = ClusterConfig {\n    \
             shorthand,\n};\nc.assigned = 2;\nc.nested.inner = 3;\nif c.compared == 4 {}\n\
             // c.commented = 5;\nlet p = FaultPlan { seed };\n\
             let r = RunStart { lonely: 1, events: vec![] };\nself.compared = 6;\n\
             let e = ClusterConfig { nested: Costs { compared: 1 }, ..x };\n",
        ),
    ];
    assert_eq!(
        unset_config_fields(&planted),
        [
            "crates/mds/src/config.rs: ClusterConfig.lonely",
            "crates/mds/src/config.rs: ClusterConfig.compared",
            "crates/mds/src/config.rs: CostModel.commented",
            "crates/mds/src/faults.rs: FaultPlan.events",
        ]
    );
}
