//! Trace-driven invariant checking: replay a [`TraceRecord`] stream
//! against a small namespace/cluster model and assert cluster-wide safety
//! properties, independently of the live simulation that produced it.
//!
//! The checked catalogue (DESIGN.md §12):
//!
//! * **authority** — every served/forwarded request lands on the unique
//!   MDS the replayed authority map assigns to its dirfrag, migrations
//!   move units their exporter actually owns, and crashed MDSs serve
//!   nothing;
//! * **freeze-discipline** — no request is served inside a frozen
//!   (mid-migration) region before its thaw;
//! * **conservation** — every issued request terminates exactly once
//!   (completed, stale, ghost, or dropped) or is still in flight at
//!   [`TraceEvent::RunEnd`]; migrations move exactly the inodes the model
//!   says the region holds (inodes are neither created nor lost);
//! * **epoch-monotonicity** — heartbeat epochs increase by exactly one
//!   per tick and every record is stamped with the tick count at emission;
//! * **fallback-after-k** — a balancer fallback happens only after
//!   exactly `fallback_after` consecutive policy errors;
//! * **migration-phases** — every migration id runs freeze → journal
//!   (exporter + importer) → commit → unfreeze, completely;
//! * **cache-coherence** — a proxy-cache hit is served only from an
//!   entry with a live fill: filled earlier in the stream, not dropped
//!   since by a dentry invalidation or by a migration's region
//!   invalidation (replayed from [`TraceEvent::MigrationFreeze`]), and
//!   attributed to the MDS the fill named. The model never evicts, so
//!   it is a superset of the real LRU — every real hit must still
//!   satisfy it;
//! * **membership** — a drained MDS holds no dirfrag authority at
//!   `mds_drain_complete` and neither serves, imports, nor is pinned or
//!   forwarded to while departed (until it rejoins);
//! * **membership-epoch** — the membership epoch increments by exactly
//!   one per join/leave transition and never regresses;
//! * **membership-phases** — every join runs `join_start` →
//!   `join_complete` and every leave runs `drain_start` →
//!   `drain_complete` → `departed`, completely and without interleaving
//!   another transition;
//! * **structure** — the stream itself is well-formed (header first,
//!   known dirs, in-range fragments and MDS ids).
//!
//! Some rules need the data plane: conservation and freeze-discipline are
//! only checked when the stream was captured at [`TraceLevel::Full`]
//! (announced in [`TraceEvent::RunStart`]); inode conservation degrades to
//! a structural lower bound at [`TraceLevel::Decisions`], where per-op
//! file-count changes are not in the stream.

use std::collections::HashMap;

use mantle_namespace::{FragId, MdsId, NodeId, OpKind};
use mantle_sim::SimTime;

use crate::trace::{TraceEvent, TraceLevel, TraceRecord};

/// One invariant violation found while replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the offending record in the stream (stream length for
    /// end-of-stream violations).
    pub index: usize,
    /// Virtual time of the offending record.
    pub at: SimTime,
    /// Which rule broke: `authority`, `freeze-discipline`, `conservation`,
    /// `inode-conservation`, `epoch-monotonicity`, `fallback-after-k`,
    /// `migration-phases`, `cache-coherence`, `membership`,
    /// `membership-epoch`, `membership-phases`, or `structure`.
    pub rule: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] record {} at {:?}: {}",
            self.rule, self.index, self.at, self.detail
        )
    }
}

/// Modelled fragment: explicit override + file count.
#[derive(Debug, Clone, Default)]
struct FragState {
    over: Option<MdsId>,
    files: u64,
}

/// Modelled directory.
#[derive(Debug, Clone)]
struct DirState {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    over: Option<MdsId>,
    frags: Vec<FragState>,
}

/// A frozen region captured from a [`TraceEvent::MigrationFreeze`].
#[derive(Debug, Clone)]
struct FreezeWindow {
    root: NodeId,
    root_only: bool,
    holes: Vec<NodeId>,
    watermark: u32,
    until: SimTime,
}

/// In-flight migration phase, per migration id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigPhase {
    Frozen { journals: u8 },
    Committed,
    Done,
}

/// The replay state.
struct Checker {
    violations: Vec<Violation>,
    level: TraceLevel,
    num_mds: usize,
    /// The K of fallback-after-k: the header's `fallback_after`.
    fallback_k: u32,
    started: bool,
    ended: bool,
    dirs: Vec<DirState>,
    up: Vec<bool>,
    /// Heartbeat ticks seen so far; every record's `epoch` stamp is
    /// checked against it.
    epochs_seen: u64,
    /// Per-MDS consecutive policy errors, replayed from the stream.
    consecutive: Vec<u32>,
    /// Highest hot-install epoch announced; installs must only grow it.
    install_epoch: u64,
    frozen: Vec<FreezeWindow>,
    /// `(mig id, exporter, importer, phase)`.
    migrations: Vec<(u64, MdsId, MdsId, MigPhase)>,
    issued: u64,
    completed: u64,
    stale: u64,
    ghost: u64,
    dropped: u64,
    end_inflight: Option<usize>,
    /// Proxy-cache model: `(group, dir) → MDS` of the most recent live
    /// fill. Never evicts (capacity is not in the stream), so it is a
    /// superset of the real caches — a hit the real LRU can make is a
    /// hit the model allows, while stale hits are outside both.
    cache_model: HashMap<(usize, NodeId), MdsId>,
    /// Highest membership epoch seen; each transition must announce
    /// exactly `mem_epoch + 1`.
    mem_epoch: u64,
    /// Per-MDS departed flag: set at `drain_complete`, cleared at
    /// `mds_join_start` (re-homing imports toward a rejoiner land
    /// between join start and complete) — i.e. cleared when the
    /// MDS rejoins. Departed MDSs must hold and gain no authority.
    departed: Vec<bool>,
    /// An open join chain: `(mds, membership_epoch)` from `join_start`.
    pending_join: Option<(MdsId, u64)>,
    /// An open leave chain: `(mds, membership_epoch, drain_complete
    /// seen)` from `drain_start`.
    pending_leave: Option<(MdsId, u64, bool)>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            violations: Vec::new(),
            level: TraceLevel::Decisions,
            num_mds: 0,
            fallback_k: 0,
            started: false,
            ended: false,
            dirs: Vec::new(),
            up: Vec::new(),
            epochs_seen: 0,
            consecutive: Vec::new(),
            install_epoch: 0,
            frozen: Vec::new(),
            migrations: Vec::new(),
            issued: 0,
            completed: 0,
            stale: 0,
            ghost: 0,
            dropped: 0,
            end_inflight: None,
            cache_model: HashMap::new(),
            mem_epoch: 0,
            departed: Vec::new(),
            pending_join: None,
            pending_leave: None,
        }
    }

    fn flag(&mut self, index: usize, at: SimTime, rule: &'static str, detail: String) {
        self.violations.push(Violation {
            index,
            at,
            rule,
            detail,
        });
    }

    // ---- namespace model ----

    fn dir(&self, d: NodeId) -> Option<&DirState> {
        self.dirs.get(d.0 as usize)
    }

    /// Nearest explicit override walking up from `d` (the model's
    /// `resolve_auth`). `None` only for malformed streams.
    fn resolve(&self, d: NodeId) -> Option<MdsId> {
        let mut cur = Some(d);
        while let Some(c) = cur {
            let ds = self.dir(c)?;
            if let Some(m) = ds.over {
                return Some(m);
            }
            cur = ds.parent;
        }
        None
    }

    /// The model's `frag_auth`: fragment override, else the dir's
    /// resolution.
    fn frag_auth(&self, d: NodeId, f: FragId) -> Option<MdsId> {
        let ds = self.dir(d)?;
        match ds.frags.get(f) {
            Some(fs) => fs.over.or_else(|| self.resolve(d)),
            None => None,
        }
    }

    /// Is `d` inside the subtree rooted at `root` (inclusive)? Parent
    /// walk: traces are small.
    fn is_under(&self, d: NodeId, root: NodeId) -> bool {
        let mut cur = Some(d);
        while let Some(c) = cur {
            if c == root {
                return true;
            }
            cur = self.dir(c).and_then(|ds| ds.parent);
        }
        false
    }

    /// The bounded migrated region below `root`: preorder dirs stopping at
    /// (but not descending into) explicit overrides strictly below the
    /// root. Returns `(region dirs, holes)`.
    fn bounded_region(&self, root: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut region = Vec::new();
        let mut holes = Vec::new();
        let mut stack = vec![root];
        while let Some(cur) = stack.pop() {
            let Some(ds) = self.dir(cur) else { continue };
            if cur != root && ds.over.is_some() {
                holes.push(cur);
                continue;
            }
            region.push(cur);
            stack.extend(ds.children.iter().copied());
        }
        (region, holes)
    }

    /// Does any live frozen window cover `d` at time `t`? Windows expire
    /// exactly when the simulation purges them (`until > now`).
    fn frozen_covers(&mut self, d: NodeId, t: SimTime) -> bool {
        self.frozen.retain(|w| w.until > t);
        self.frozen.iter().any(|w| {
            if d.0 >= w.watermark {
                return false;
            }
            if w.root_only {
                return d == w.root;
            }
            self.is_under(d, w.root) && !w.holes.iter().any(|&h| self.is_under(d, h))
        })
    }

    fn mds_ok(&mut self, i: usize, at: SimTime, mds: MdsId, what: &str) -> bool {
        if mds >= self.num_mds {
            self.flag(
                i,
                at,
                "structure",
                format!("{what}: MDS {mds} out of range (num_mds {})", self.num_mds),
            );
            return false;
        }
        true
    }

    fn dir_ok(&mut self, i: usize, at: SimTime, d: NodeId, what: &str) -> bool {
        if self.dir(d).is_none() {
            self.flag(
                i,
                at,
                "structure",
                format!("{what}: directory {} unknown to the stream", d.0),
            );
            return false;
        }
        true
    }

    // ---- per-record replay ----

    fn step(&mut self, i: usize, r: &TraceRecord) {
        let at = r.at;
        // Epoch stamping: HeartbeatTick announces `epochs_seen + 1`;
        // everything else carries the current count.
        match &r.event {
            TraceEvent::HeartbeatTick { .. } => {
                if r.epoch != self.epochs_seen + 1 {
                    self.flag(
                        i,
                        at,
                        "epoch-monotonicity",
                        format!(
                            "heartbeat tick stamped epoch {} after {} ticks (want {})",
                            r.epoch,
                            self.epochs_seen,
                            self.epochs_seen + 1
                        ),
                    );
                }
                self.epochs_seen = self.epochs_seen.max(r.epoch);
            }
            _ => {
                if r.epoch != self.epochs_seen {
                    self.flag(
                        i,
                        at,
                        "epoch-monotonicity",
                        format!(
                            "{} stamped epoch {} during epoch {}",
                            r.event.name(),
                            r.epoch,
                            self.epochs_seen
                        ),
                    );
                }
            }
        }
        if !self.started && !matches!(r.event, TraceEvent::RunStart { .. }) {
            self.flag(
                i,
                at,
                "structure",
                format!("{} before run_start", r.event.name()),
            );
        }
        if self.ended {
            self.flag(
                i,
                at,
                "structure",
                format!("{} after run_end", r.event.name()),
            );
        }
        match &r.event {
            TraceEvent::RunStart {
                num_mds,
                fallback_after,
                level,
                ..
            } => {
                if self.started {
                    self.flag(i, at, "structure", "duplicate run_start".into());
                    return;
                }
                self.started = true;
                self.level = *level;
                self.num_mds = *num_mds;
                self.fallback_k = *fallback_after;
                self.up = vec![true; *num_mds];
                self.consecutive = vec![0; *num_mds];
                self.departed = vec![false; *num_mds];
            }
            TraceEvent::DirAdded { dir, parent, files } => {
                if dir.0 as usize != self.dirs.len() {
                    self.flag(
                        i,
                        at,
                        "structure",
                        format!(
                            "dir_added {} out of order (model has {} dirs)",
                            dir.0,
                            self.dirs.len()
                        ),
                    );
                    return;
                }
                if let Some(p) = parent {
                    if !self.dir_ok(i, at, *p, "dir_added parent") {
                        return;
                    }
                    self.dirs[p.0 as usize].children.push(*dir);
                } else if dir.0 != 0 {
                    self.flag(
                        i,
                        at,
                        "structure",
                        format!("non-root dir {} without a parent", dir.0),
                    );
                }
                self.dirs.push(DirState {
                    parent: *parent,
                    children: Vec::new(),
                    over: None,
                    frags: files
                        .iter()
                        .map(|&f| FragState {
                            over: None,
                            files: f,
                        })
                        .collect(),
                });
            }
            TraceEvent::AuthSnapshot { dirs, frags } => {
                for ds in &mut self.dirs {
                    ds.over = None;
                    for fs in &mut ds.frags {
                        fs.over = None;
                    }
                }
                for &(d, m) in dirs {
                    if self.dir_ok(i, at, d, "auth_snapshot dir")
                        && self.mds_ok(i, at, m, "auth_snapshot dir")
                    {
                        self.dirs[d.0 as usize].over = Some(m);
                    }
                }
                for &(d, f, m) in frags {
                    if !self.dir_ok(i, at, d, "auth_snapshot frag")
                        || !self.mds_ok(i, at, m, "auth_snapshot frag")
                    {
                        continue;
                    }
                    match self.dirs[d.0 as usize].frags.get_mut(f) {
                        Some(fs) => fs.over = Some(m),
                        None => self.flag(
                            i,
                            at,
                            "structure",
                            format!("auth_snapshot frag {f} of dir {} out of range", d.0),
                        ),
                    }
                }
                if self.resolve(NodeId(0)).is_none() {
                    self.flag(
                        i,
                        at,
                        "authority",
                        "auth_snapshot leaves the root unowned".into(),
                    );
                }
            }
            TraceEvent::HeartbeatTick {
                loads,
                queued,
                window_ops,
            } => {
                let lens = [
                    ("loads", loads.len()),
                    ("queued", queued.len()),
                    ("window_ops", window_ops.len()),
                ];
                for (field, len) in lens {
                    if len != self.num_mds {
                        let detail =
                            format!("tick carries {len} {field} for {} MDSs", self.num_mds);
                        self.flag(i, at, "structure", detail);
                    }
                }
            }
            TraceEvent::BalancerTick { mds } | TraceEvent::BalancerPlan { mds, .. } => {
                if self.mds_ok(i, at, *mds, "balancer tick") {
                    if !self.up[*mds] {
                        self.flag(
                            i,
                            at,
                            "authority",
                            format!("crashed MDS {mds} ran its balancer"),
                        );
                    }
                    // A successful tick resets the error streak.
                    self.consecutive[*mds] = 0;
                }
            }
            TraceEvent::PolicyError { mds, consecutive } => {
                if self.mds_ok(i, at, *mds, "policy error") {
                    self.consecutive[*mds] += 1;
                    if *consecutive != self.consecutive[*mds] {
                        self.flag(
                            i,
                            at,
                            "fallback-after-k",
                            format!(
                                "MDS {mds} reported {consecutive} consecutive errors, replay says {}",
                                self.consecutive[*mds]
                            ),
                        );
                        self.consecutive[*mds] = *consecutive;
                    }
                }
            }
            TraceEvent::PolicyInstalled { install_epoch, .. } => {
                // A hot install swaps every MDS's balancer in one
                // global step: error streaks belong to the replaced
                // policy, and install epochs must only grow.
                if *install_epoch <= self.install_epoch {
                    self.flag(
                        i,
                        at,
                        "structure",
                        format!(
                            "install epoch {install_epoch} not past previous {}",
                            self.install_epoch
                        ),
                    );
                }
                self.install_epoch = (*install_epoch).max(self.install_epoch);
                for c in &mut self.consecutive {
                    *c = 0;
                }
            }
            TraceEvent::BalancerFallback { mds } => {
                if self.mds_ok(i, at, *mds, "fallback") {
                    if self.fallback_k == 0 {
                        self.flag(
                            i,
                            at,
                            "fallback-after-k",
                            format!("MDS {mds} fell back with fallback disabled (K = 0)"),
                        );
                    } else if self.consecutive[*mds] < self.fallback_k {
                        self.flag(
                            i,
                            at,
                            "fallback-after-k",
                            format!(
                                "MDS {mds} fell back after {} consecutive errors (K = {})",
                                self.consecutive[*mds], self.fallback_k
                            ),
                        );
                    }
                    self.consecutive[*mds] = 0;
                }
            }
            TraceEvent::MigrationFreeze {
                mig,
                from,
                to,
                root,
                frag,
                holes,
                watermark,
                until,
            } => {
                if !self.mds_ok(i, at, *from, "freeze exporter")
                    || !self.mds_ok(i, at, *to, "freeze importer")
                    || !self.dir_ok(i, at, *root, "freeze root")
                {
                    return;
                }
                if self.migrations.iter().any(|&(m, ..)| m == *mig) {
                    self.flag(
                        i,
                        at,
                        "migration-phases",
                        format!("migration {mig} frozen twice"),
                    );
                }
                if frag.is_none() {
                    // The freeze's holes must be exactly the model's nested
                    // bounds under the root (order-insensitive).
                    let (_, mut expect) = self.bounded_region(*root);
                    expect.sort_unstable();
                    let mut got = holes.clone();
                    got.sort_unstable();
                    if got != expect {
                        self.flag(
                            i,
                            at,
                            "authority",
                            format!(
                                "freeze of {} lists holes {:?}, model has {:?}",
                                root.0,
                                got.iter().map(|h| h.0).collect::<Vec<_>>(),
                                expect.iter().map(|h| h.0).collect::<Vec<_>>()
                            ),
                        );
                    }
                }
                self.frozen.push(FreezeWindow {
                    root: *root,
                    root_only: frag.is_some(),
                    holes: holes.clone(),
                    watermark: *watermark,
                    until: *until,
                });
                // The simulation invalidates every cached entry inside the
                // moved region at freeze time; replay that on the model so a
                // later hit without a fresh fill is flagged as stale.
                let root_only = frag.is_some();
                let gone: Vec<(usize, NodeId)> = self
                    .cache_model
                    .keys()
                    .copied()
                    .filter(|&(_, d)| {
                        d.0 < *watermark
                            && if root_only {
                                d == *root
                            } else {
                                self.is_under(d, *root)
                                    && !holes.iter().any(|&h| self.is_under(d, h))
                            }
                    })
                    .collect();
                for key in gone {
                    self.cache_model.remove(&key);
                }
                self.migrations
                    .push((*mig, *from, *to, MigPhase::Frozen { journals: 0 }));
            }
            TraceEvent::MigrationJournal { mig, mds, micros } => {
                if *micros < 0.0 {
                    self.flag(
                        i,
                        at,
                        "structure",
                        format!("migration {mig} journals negative time"),
                    );
                }
                let problem = match self.migrations.iter_mut().find(|(m, ..)| m == mig) {
                    Some((_, from, to, MigPhase::Frozen { journals })) => {
                        let expect = if *journals == 0 { *from } else { *to };
                        let p = (*mds != expect).then(|| {
                            format!(
                                "migration {mig} journal {} on MDS {mds}, want {expect}",
                                *journals + 1
                            )
                        });
                        *journals += 1;
                        p
                    }
                    Some(_) => Some(format!("migration {mig} journaled after commit")),
                    None => Some(format!("migration {mig} journaled before freeze")),
                };
                if let Some(detail) = problem {
                    self.flag(i, at, "migration-phases", detail);
                }
            }
            TraceEvent::MigrationCommit {
                mig,
                from,
                to,
                root,
                frag,
                inodes,
            } => {
                if !self.mds_ok(i, at, *from, "commit exporter")
                    || !self.mds_ok(i, at, *to, "commit importer")
                    || !self.dir_ok(i, at, *root, "commit root")
                {
                    return;
                }
                let problem = match self.migrations.iter_mut().find(|(m, ..)| m == mig) {
                    Some((_, f, t, phase @ MigPhase::Frozen { journals: 2 })) => {
                        let p = ((*f, *t) != (*from, *to)).then(|| {
                            format!("migration {mig} committed {from}→{to}, froze {f}→{t}")
                        });
                        *phase = MigPhase::Committed;
                        p
                    }
                    Some((_, _, _, phase)) => {
                        let detail = match phase {
                            MigPhase::Frozen { journals } => {
                                format!("migration {mig} committed after {journals} journals")
                            }
                            _ => format!("migration {mig} committed twice"),
                        };
                        *phase = MigPhase::Committed;
                        Some(detail)
                    }
                    None => Some(format!("migration {mig} committed before freeze")),
                };
                if let Some(detail) = problem {
                    self.flag(i, at, "migration-phases", detail);
                }
                if !self.up[*from] || !self.up[*to] {
                    self.flag(
                        i,
                        at,
                        "authority",
                        format!("migration {mig}: {from}→{to} with a crashed endpoint"),
                    );
                }
                if self.departed[*to] {
                    self.flag(
                        i,
                        at,
                        "membership",
                        format!("migration {mig} imports onto departed MDS {to}"),
                    );
                }
                match frag {
                    None => {
                        // Subtree export: the exporter must own the root,
                        // and the moved-inode count must match the model's
                        // bounded region (1 per dir + its files).
                        if self.resolve(*root) != Some(*from) {
                            self.flag(
                                i,
                                at,
                                "authority",
                                format!(
                                    "migration {mig} exports subtree {} from MDS {from}, model owner {:?}",
                                    root.0,
                                    self.resolve(*root)
                                ),
                            );
                        }
                        let (region, _) = self.bounded_region(*root);
                        let model: u64 = region
                            .iter()
                            .map(|&d| {
                                1 + self.dirs[d.0 as usize]
                                    .frags
                                    .iter()
                                    .map(|f| f.files)
                                    .sum::<u64>()
                            })
                            .sum();
                        let exact = self.level == TraceLevel::Full;
                        if (exact && *inodes != model) || (!exact && *inodes < region.len() as u64)
                        {
                            self.flag(
                                i,
                                at,
                                "inode-conservation",
                                format!(
                                    "migration {mig} claims {inodes} inodes moved from subtree {}, model holds {model}",
                                    root.0
                                ),
                            );
                        }
                        // Apply: clear superseded fragment overrides inside
                        // the region, then bind the root to the importer.
                        for &d in &region {
                            for fs in &mut self.dirs[d.0 as usize].frags {
                                fs.over = None;
                            }
                        }
                        self.dirs[root.0 as usize].over = Some(*to);
                    }
                    Some(f) => {
                        match self.frag_auth(*root, *f) {
                            Some(owner) if owner == *from => {}
                            owner => self.flag(
                                i,
                                at,
                                "authority",
                                format!(
                                    "migration {mig} exports frag {f} of dir {} from MDS {from}, model owner {owner:?}",
                                    root.0
                                ),
                            ),
                        }
                        let exact = self.level == TraceLevel::Full;
                        let problem = match self.dirs[root.0 as usize].frags.get_mut(*f) {
                            Some(fs) => {
                                let model = fs.files + 1;
                                let p = ((exact && *inodes != model) || (!exact && *inodes < 1))
                                    .then(|| {
                                        (
                                            "inode-conservation",
                                            format!(
                                                "migration {mig} claims {inodes} inodes moved from frag {f} of dir {}, model holds {model}",
                                                root.0
                                            ),
                                        )
                                    });
                                fs.over = Some(*to);
                                p
                            }
                            None => Some((
                                "structure",
                                format!("migration {mig}: frag {f} of dir {} out of range", root.0),
                            )),
                        };
                        if let Some((rule, detail)) = problem {
                            self.flag(i, at, rule, detail);
                        }
                    }
                }
            }
            TraceEvent::MigrationUnfreeze { mig, .. } => {
                let problem = match self.migrations.iter_mut().find(|(m, ..)| m == mig) {
                    Some((_, _, _, phase @ MigPhase::Committed)) => {
                        *phase = MigPhase::Done;
                        None
                    }
                    Some((_, _, _, phase)) => {
                        let detail = format!("migration {mig} unfroze in phase {phase:?}");
                        *phase = MigPhase::Done;
                        Some(detail)
                    }
                    None => Some(format!("migration {mig} unfroze before freeze")),
                };
                if let Some(detail) = problem {
                    self.flag(i, at, "migration-phases", detail);
                }
            }
            TraceEvent::SessionFlush { mds, .. } => {
                self.mds_ok(i, at, *mds, "session flush");
            }
            TraceEvent::FragSplit {
                dir,
                frag,
                ways,
                resulting_frags,
            } => {
                if !self.dir_ok(i, at, *dir, "frag split") {
                    return;
                }
                let nfrags = self.dirs[dir.0 as usize].frags.len();
                if *frag >= nfrags || *ways < 2 {
                    self.flag(
                        i,
                        at,
                        "structure",
                        format!(
                            "split of frag {frag} ({ways} ways) in dir {} with {nfrags} frags",
                            dir.0
                        ),
                    );
                    return;
                }
                let ds = &mut self.dirs[dir.0 as usize];
                // Replay exactly what the namespace does: remove, then
                // append `ways` children splitting the files (+1 for the
                // first `old % ways`), inheriting the override.
                let old = ds.frags.remove(*frag);
                let each = old.files / *ways as u64;
                let mut rem = old.files % *ways as u64;
                for _ in 0..*ways {
                    let extra = u64::from(rem > 0);
                    rem = rem.saturating_sub(1);
                    ds.frags.push(FragState {
                        over: old.over,
                        files: each + extra,
                    });
                }
                let got = ds.frags.len();
                if got != *resulting_frags {
                    self.flag(
                        i,
                        at,
                        "structure",
                        format!(
                            "split of dir {} reports {resulting_frags} resulting frags, model has {got}",
                            dir.0
                        ),
                    );
                }
            }
            TraceEvent::HashPin { dir, mds } => {
                if self.dir_ok(i, at, *dir, "hash pin") && self.mds_ok(i, at, *mds, "hash pin") {
                    if !self.up[*mds] {
                        self.flag(
                            i,
                            at,
                            "authority",
                            format!("dir {} pinned on crashed MDS {mds}", dir.0),
                        );
                    }
                    if self.departed[*mds] {
                        self.flag(
                            i,
                            at,
                            "membership",
                            format!("dir {} pinned on departed MDS {mds}", dir.0),
                        );
                    }
                    self.dirs[dir.0 as usize].over = Some(*mds);
                }
            }
            TraceEvent::MdsCrash { mds } => {
                if !self.mds_ok(i, at, *mds, "crash") {
                    return;
                }
                if *mds == 0 {
                    self.flag(i, at, "structure", "MDS 0 (mount authority) crashed".into());
                }
                if !self.up[*mds] {
                    self.flag(i, at, "structure", format!("MDS {mds} crashed twice"));
                }
                self.up[*mds] = false;
                // Failover: everything it served moves to the mount
                // authority.
                for ds in &mut self.dirs {
                    if ds.over == Some(*mds) {
                        ds.over = Some(0);
                    }
                    for fs in &mut ds.frags {
                        if fs.over == Some(*mds) {
                            fs.over = Some(0);
                        }
                    }
                }
            }
            TraceEvent::MdsRestart { mds } => {
                if self.mds_ok(i, at, *mds, "restart") {
                    if self.up[*mds] {
                        self.flag(i, at, "structure", format!("MDS {mds} restarted while up"));
                    }
                    self.up[*mds] = true;
                }
            }
            TraceEvent::FaultInjected { mds, .. } => {
                self.mds_ok(i, at, *mds, "fault");
            }
            TraceEvent::RequestIssued { dir, mds, .. } => {
                self.issued += 1;
                self.dir_ok(i, at, *dir, "issue");
                self.mds_ok(i, at, *mds, "issue");
            }
            TraceEvent::RequestTimeout { .. } | TraceEvent::RequestRetry { .. } => {}
            TraceEvent::Dropped { mds, .. } => {
                self.dropped += 1;
                if self.mds_ok(i, at, *mds, "drop") && self.up[*mds] {
                    self.flag(
                        i,
                        at,
                        "conservation",
                        format!("MDS {mds} dropped a request while up"),
                    );
                }
            }
            TraceEvent::Deferred { dir, until, .. } => {
                if self.dir_ok(i, at, *dir, "defer") && !self.frozen_covers(*dir, at) {
                    self.flag(
                        i,
                        at,
                        "freeze-discipline",
                        format!(
                            "request to dir {} deferred until {until:?} with no live freeze",
                            dir.0
                        ),
                    );
                }
            }
            TraceEvent::Forwarded {
                from,
                to,
                dir,
                frag,
                ..
            } => {
                if !self.mds_ok(i, at, *from, "forward")
                    || !self.mds_ok(i, at, *to, "forward")
                    || !self.dir_ok(i, at, *dir, "forward")
                {
                    return;
                }
                match self.frag_auth(*dir, *frag) {
                    Some(owner) if owner == *to => {}
                    owner => self.flag(
                        i,
                        at,
                        "authority",
                        format!(
                            "frag {frag} of dir {} forwarded to MDS {to}, model owner {owner:?}",
                            dir.0
                        ),
                    ),
                }
                if self.departed[*to] {
                    self.flag(
                        i,
                        at,
                        "membership",
                        format!("request forwarded to departed MDS {to}"),
                    );
                }
            }
            TraceEvent::Served { mds, dir, frag, .. } => {
                if !self.mds_ok(i, at, *mds, "serve") || !self.dir_ok(i, at, *dir, "serve") {
                    return;
                }
                if !self.up[*mds] {
                    self.flag(
                        i,
                        at,
                        "authority",
                        format!("crashed MDS {mds} served a request"),
                    );
                }
                if self.departed[*mds] {
                    self.flag(
                        i,
                        at,
                        "membership",
                        format!("departed MDS {mds} served a request"),
                    );
                }
                match self.frag_auth(*dir, *frag) {
                    Some(owner) if owner == *mds => {}
                    owner => self.flag(
                        i,
                        at,
                        "authority",
                        format!(
                            "frag {frag} of dir {} served by MDS {mds}, model owner {owner:?}",
                            dir.0
                        ),
                    ),
                }
                if self.frozen_covers(*dir, at) {
                    self.flag(
                        i,
                        at,
                        "freeze-discipline",
                        format!("dir {} served while frozen", dir.0),
                    );
                }
            }
            TraceEvent::GhostReply { mds } => {
                self.ghost += 1;
                self.mds_ok(i, at, *mds, "ghost");
            }
            TraceEvent::StaleReply {
                dir, frag, kind, ..
            }
            | TraceEvent::Completed {
                dir, frag, kind, ..
            } => {
                if matches!(r.event, TraceEvent::StaleReply { .. }) {
                    self.stale += 1;
                } else {
                    self.completed += 1;
                }
                if !self.dir_ok(i, at, *dir, "complete") {
                    return;
                }
                // Server-side work happened either way: replay the file
                // count change so migrations keep balancing.
                let ds = &mut self.dirs[dir.0 as usize];
                match ds.frags.get_mut(*frag) {
                    Some(fs) => match kind {
                        OpKind::Create => fs.files += 1,
                        OpKind::Unlink => fs.files = fs.files.saturating_sub(1),
                        _ => {}
                    },
                    None => self.flag(
                        i,
                        at,
                        "structure",
                        format!("completion on frag {frag} of dir {} out of range", dir.0),
                    ),
                }
            }
            TraceEvent::CacheHit {
                group,
                client: _,
                dir,
                mds,
            } => {
                if !self.dir_ok(i, at, *dir, "cache hit") || !self.mds_ok(i, at, *mds, "cache hit")
                {
                    return;
                }
                match self.cache_model.get(&(*group, *dir)) {
                    Some(&m) if m == *mds => {}
                    Some(&m) => self.flag(
                        i,
                        at,
                        "cache-coherence",
                        format!(
                            "cache hit on dir {} in group {group} attributed to MDS {mds}, \
                             live fill names {m}",
                            dir.0
                        ),
                    ),
                    None => self.flag(
                        i,
                        at,
                        "cache-coherence",
                        format!(
                            "cache hit on dir {} in group {group} with no live fill \
                             (stale or never-filled entry)",
                            dir.0
                        ),
                    ),
                }
            }
            TraceEvent::CacheFill { group, dir, mds } => {
                if self.dir_ok(i, at, *dir, "cache fill") && self.mds_ok(i, at, *mds, "cache fill")
                {
                    self.cache_model.insert((*group, *dir), *mds);
                }
            }
            TraceEvent::CacheInvalidate { dir, entries } => {
                if !self.dir_ok(i, at, *dir, "cache invalidate") {
                    return;
                }
                let live = self.cache_model.keys().filter(|&&(_, d)| d == *dir).count() as u64;
                if *entries > live {
                    self.flag(
                        i,
                        at,
                        "cache-coherence",
                        format!(
                            "invalidation of dir {} drops {entries} entries, \
                             model holds {live}",
                            dir.0
                        ),
                    );
                }
                self.cache_model.retain(|&(_, d), _| d != *dir);
            }
            TraceEvent::MdsJoinStart {
                mds,
                membership_epoch,
            } => {
                if !self.mds_ok(i, at, *mds, "join start") {
                    return;
                }
                if *membership_epoch != self.mem_epoch + 1 {
                    self.flag(
                        i,
                        at,
                        "membership-epoch",
                        format!(
                            "join of MDS {mds} announces epoch {membership_epoch} after epoch {} (want {})",
                            self.mem_epoch,
                            self.mem_epoch + 1
                        ),
                    );
                }
                self.mem_epoch = self.mem_epoch.max(*membership_epoch);
                if self.pending_join.is_some() || self.pending_leave.is_some() {
                    self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!("join of MDS {mds} started inside another transition"),
                    );
                }
                self.pending_join = Some((*mds, *membership_epoch));
                // A rejoining MDS is an import target from join_start on:
                // the re-homing migrations toward it land between start
                // and complete, and committed imports make it
                // authoritative for what it received.
                self.departed[*mds] = false;
            }
            TraceEvent::MdsJoinComplete {
                mds,
                membership_epoch,
                ..
            } => {
                if !self.mds_ok(i, at, *mds, "join complete") {
                    return;
                }
                match self.pending_join.take() {
                    Some((m, e)) if m == *mds && e == *membership_epoch => {}
                    Some((m, e)) => self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!(
                            "join_complete of MDS {mds} at epoch {membership_epoch} closes a join of MDS {m} at epoch {e}"
                        ),
                    ),
                    None => self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!("join_complete of MDS {mds} without join_start"),
                    ),
                }
                // A rejoined MDS may hold authority again.
                self.departed[*mds] = false;
            }
            TraceEvent::MdsDrainStart {
                mds,
                membership_epoch,
            } => {
                if !self.mds_ok(i, at, *mds, "drain start") {
                    return;
                }
                if *mds == 0 {
                    self.flag(
                        i,
                        at,
                        "membership",
                        "MDS 0 (mount authority) started draining".into(),
                    );
                }
                if *membership_epoch != self.mem_epoch + 1 {
                    self.flag(
                        i,
                        at,
                        "membership-epoch",
                        format!(
                            "drain of MDS {mds} announces epoch {membership_epoch} after epoch {} (want {})",
                            self.mem_epoch,
                            self.mem_epoch + 1
                        ),
                    );
                }
                self.mem_epoch = self.mem_epoch.max(*membership_epoch);
                if self.pending_join.is_some() || self.pending_leave.is_some() {
                    self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!("drain of MDS {mds} started inside another transition"),
                    );
                }
                self.pending_leave = Some((*mds, *membership_epoch, false));
            }
            TraceEvent::MdsDrainComplete {
                mds,
                membership_epoch,
                ..
            } => {
                if !self.mds_ok(i, at, *mds, "drain complete") {
                    return;
                }
                match &mut self.pending_leave {
                    Some((m, e, done)) if *m == *mds && *e == *membership_epoch && !*done => {
                        *done = true;
                    }
                    _ => self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!("drain_complete of MDS {mds} without a matching drain_start"),
                    ),
                }
                // The drained MDS must hold no dirfrag authority: every
                // explicit override naming it should have been exported.
                let residual: usize = self
                    .dirs
                    .iter()
                    .map(|ds| {
                        usize::from(ds.over == Some(*mds))
                            + ds.frags.iter().filter(|fs| fs.over == Some(*mds)).count()
                    })
                    .sum();
                if residual > 0 {
                    self.flag(
                        i,
                        at,
                        "membership",
                        format!(
                            "MDS {mds} completed draining with {residual} authority override(s) still naming it"
                        ),
                    );
                }
                self.departed[*mds] = true;
            }
            TraceEvent::MdsDeparted {
                mds,
                membership_epoch,
            } => {
                if !self.mds_ok(i, at, *mds, "departed") {
                    return;
                }
                match self.pending_leave.take() {
                    Some((m, e, true)) if m == *mds && e == *membership_epoch => {}
                    Some((m, _, done)) => self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!(
                            "departed of MDS {mds} closes a drain of MDS {m} (drain_complete seen: {done})"
                        ),
                    ),
                    None => self.flag(
                        i,
                        at,
                        "membership-phases",
                        format!("departed of MDS {mds} without drain_start"),
                    ),
                }
            }
            TraceEvent::RunEnd { inflight } => {
                self.ended = true;
                self.end_inflight = Some(*inflight);
            }
        }
    }

    fn finish(mut self, total: usize, last_at: SimTime) -> Vec<Violation> {
        if !self.started {
            self.flag(
                total,
                last_at,
                "structure",
                "stream has no run_start".into(),
            );
            return self.violations;
        }
        if self.end_inflight.is_none() {
            self.flag(total, last_at, "structure", "stream has no run_end".into());
        }
        let stuck: Vec<(u64, MigPhase)> = self
            .migrations
            .iter()
            .filter(|&&(_, _, _, phase)| phase != MigPhase::Done)
            .map(|&(mig, _, _, phase)| (mig, phase))
            .collect();
        for (mig, phase) in stuck {
            self.flag(
                total,
                last_at,
                "migration-phases",
                format!("migration {mig} never completed (stuck in {phase:?})"),
            );
        }
        if let Some((mds, epoch)) = self.pending_join {
            self.flag(
                total,
                last_at,
                "membership-phases",
                format!("join of MDS {mds} (epoch {epoch}) never completed"),
            );
        }
        if let Some((mds, epoch, done)) = self.pending_leave {
            self.flag(
                total,
                last_at,
                "membership-phases",
                format!(
                    "leave of MDS {mds} (epoch {epoch}) never completed (drain_complete seen: {done})"
                ),
            );
        }
        // Conservation needs the data plane.
        if self.level == TraceLevel::Full {
            let inflight = self.end_inflight.unwrap_or(0) as u64;
            let accounted = self.completed + self.stale + self.ghost + self.dropped + inflight;
            if self.issued != accounted {
                self.flag(
                    total,
                    last_at,
                    "conservation",
                    format!(
                        "{} issued ≠ {} completed + {} stale + {} ghost + {} dropped + {} in flight",
                        self.issued, self.completed, self.stale, self.ghost, self.dropped, inflight
                    ),
                );
            }
        }
        self.violations
    }
}

/// Replay `records` and return every invariant violation found (empty =
/// the trace is internally consistent).
pub fn check_trace(records: &[TraceRecord]) -> Vec<Violation> {
    let mut c = Checker::new();
    for (i, r) in records.iter().enumerate() {
        c.step(i, r);
    }
    let last_at = records.last().map(|r| r.at).unwrap_or(SimTime::ZERO);
    c.finish(records.len(), last_at)
}

/// [`check_trace`], panicking with a readable report on the first failure.
/// The assertion form the test suite leans on.
pub fn assert_invariants(records: &[TraceRecord]) {
    let violations = check_trace(records);
    if !violations.is_empty() {
        let mut msg = format!("{} invariant violation(s):\n", violations.len());
        for v in violations.iter().take(20) {
            msg.push_str(&format!("  {v}\n"));
        }
        if violations.len() > 20 {
            msg.push_str(&format!("  … and {} more\n", violations.len() - 20));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: u64, epoch: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            epoch,
            event,
        }
    }

    /// A minimal healthy stream: 2 MDSs, root + one dir, one tick, one
    /// complete subtree migration, one served + completed request.
    fn healthy() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                0,
                TraceEvent::RunStart {
                    num_mds: 2,
                    fallback_after: 3,
                    level: TraceLevel::Full,
                    heartbeat_us: 400_000,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::DirAdded {
                    dir: NodeId(0),
                    parent: None,
                    files: vec![0],
                },
            ),
            rec(
                0,
                0,
                TraceEvent::DirAdded {
                    dir: NodeId(1),
                    parent: Some(NodeId(0)),
                    files: vec![2],
                },
            ),
            rec(
                0,
                0,
                TraceEvent::AuthSnapshot {
                    dirs: vec![(NodeId(0), 0)],
                    frags: vec![],
                },
            ),
            rec(
                1,
                0,
                TraceEvent::RequestIssued {
                    client: 0,
                    dir: NodeId(1),
                    mds: 0,
                    seq: 0,
                },
            ),
            rec(
                2,
                0,
                TraceEvent::Served {
                    mds: 0,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Create,
                    seq: 0,
                },
            ),
            rec(
                3,
                0,
                TraceEvent::Completed {
                    mds: 0,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Create,
                },
            ),
            rec(
                400,
                1,
                TraceEvent::HeartbeatTick {
                    loads: vec![3.0, 0.0],
                    queued: vec![1, 0],
                    window_ops: vec![1, 0],
                },
            ),
            rec(
                400,
                1,
                TraceEvent::MigrationFreeze {
                    mig: 1,
                    from: 0,
                    to: 1,
                    root: NodeId(1),
                    frag: None,
                    holes: vec![],
                    watermark: 2,
                    until: SimTime::from_millis(450),
                },
            ),
            rec(
                400,
                1,
                TraceEvent::MigrationJournal {
                    mig: 1,
                    mds: 0,
                    micros: 100.0,
                },
            ),
            rec(
                400,
                1,
                TraceEvent::MigrationJournal {
                    mig: 1,
                    mds: 1,
                    micros: 100.0,
                },
            ),
            rec(
                400,
                1,
                TraceEvent::MigrationCommit {
                    mig: 1,
                    from: 0,
                    to: 1,
                    root: NodeId(1),
                    frag: None,
                    // dir 1 itself + 2 setup files + 1 traced create
                    inodes: 4,
                },
            ),
            rec(
                400,
                1,
                TraceEvent::MigrationUnfreeze {
                    mig: 1,
                    root: NodeId(1),
                    thaw: SimTime::from_millis(450),
                },
            ),
            rec(400, 1, TraceEvent::SessionFlush { mds: 0, clients: 1 }),
            rec(
                500,
                1,
                TraceEvent::Served {
                    mds: 1,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Stat,
                    seq: 1,
                },
            ),
            rec(500, 1, TraceEvent::RunEnd { inflight: 0 }),
        ]
    }

    /// An unissued completion slipped in just before run_end.
    fn unbalanced() -> Vec<TraceRecord> {
        let mut t = healthy();
        let end = t.len() - 1;
        t.insert(
            end,
            rec(
                501,
                1,
                TraceEvent::Completed {
                    mds: 1,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Stat,
                },
            ),
        );
        t
    }

    #[test]
    fn healthy_stream_passes() {
        // The post-migration serve at 500 ms never terminates in the base
        // stream; balance the books by issuing and completing it.
        let mut t = healthy();
        t.insert(
            14,
            rec(
                460,
                1,
                TraceEvent::RequestIssued {
                    client: 0,
                    dir: NodeId(1),
                    mds: 1,
                    seq: 1,
                },
            ),
        );
        t.insert(
            16,
            rec(
                501,
                1,
                TraceEvent::Completed {
                    mds: 1,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Stat,
                },
            ),
        );
        assert_eq!(check_trace(&t), vec![]);
    }

    #[test]
    fn conservation_catches_unissued_completion() {
        let v = check_trace(&unbalanced());
        assert!(
            v.iter().any(|v| v.rule == "conservation"),
            "2 completions, 1 issue: {v:?}"
        );
    }

    #[test]
    fn wrong_authority_is_flagged() {
        let mut t = healthy();
        // The first serve claims MDS 1, but dir 1 resolves to MDS 0.
        t[5] = rec(
            2,
            0,
            TraceEvent::Served {
                mds: 1,
                client: 0,
                dir: NodeId(1),
                frag: 0,
                kind: OpKind::Create,
                seq: 0,
            },
        );
        let v = check_trace(&t);
        assert!(v.iter().any(|v| v.rule == "authority"), "{v:?}");
    }

    #[test]
    fn serving_frozen_region_is_flagged() {
        let mut t = healthy();
        // A serve at 420 ms, inside the 400–450 ms freeze of dir 1.
        t.insert(
            13,
            rec(
                420,
                1,
                TraceEvent::Served {
                    mds: 0,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Stat,
                    seq: 9,
                },
            ),
        );
        let v = check_trace(&t);
        assert!(v.iter().any(|v| v.rule == "freeze-discipline"), "{v:?}");
    }

    #[test]
    fn inflated_migration_inodes_are_flagged() {
        let mut t = healthy();
        let TraceEvent::MigrationCommit { inodes, .. } = &mut t[11].event else {
            panic!("record 11 is the commit");
        };
        *inodes += 1;
        let v = check_trace(&t);
        assert!(v.iter().any(|v| v.rule == "inode-conservation"), "{v:?}");
    }

    #[test]
    fn short_tick_gauges_are_flagged() {
        let structure = |t: &[TraceRecord]| {
            check_trace(t)
                .into_iter()
                .filter(|v| v.rule == "structure")
                .count()
        };
        let mut t = healthy();
        assert_eq!(structure(&t), 0);
        let TraceEvent::HeartbeatTick { queued, .. } = &mut t[7].event else {
            panic!("record 7 is the tick");
        };
        queued.pop();
        assert_eq!(structure(&t), 1, "one MDS's queue depth is missing");
    }

    #[test]
    fn epoch_regression_is_flagged() {
        let mut t = healthy();
        t[7].epoch = 0; // the tick must announce epoch 1
        let v = check_trace(&t);
        assert!(v.iter().any(|v| v.rule == "epoch-monotonicity"), "{v:?}");
    }

    #[test]
    fn premature_fallback_is_flagged() {
        let mut t = healthy();
        t.insert(
            8,
            rec(
                400,
                1,
                TraceEvent::PolicyError {
                    mds: 0,
                    consecutive: 1,
                },
            ),
        );
        t.insert(9, rec(400, 1, TraceEvent::BalancerFallback { mds: 0 }));
        let v = check_trace(&t);
        assert!(v.iter().any(|v| v.rule == "fallback-after-k"), "{v:?}");
    }

    #[test]
    fn exact_fallback_passes() {
        let mut t = healthy();
        for k in 1..=3u32 {
            t.insert(
                7 + k as usize,
                rec(
                    400,
                    1,
                    TraceEvent::PolicyError {
                        mds: 0,
                        consecutive: k,
                    },
                ),
            );
        }
        t.insert(11, rec(400, 1, TraceEvent::BalancerFallback { mds: 0 }));
        let v = check_trace(&t);
        assert!(
            !v.iter().any(|v| v.rule == "fallback-after-k"),
            "3 errors then fallback is legal: {v:?}"
        );
    }

    #[test]
    fn incomplete_migration_is_flagged() {
        let mut t = healthy();
        // Drop the unfreeze.
        t.retain(|r| !matches!(r.event, TraceEvent::MigrationUnfreeze { .. }));
        let v = check_trace(&t);
        assert!(v.iter().any(|v| v.rule == "migration-phases"), "{v:?}");
    }

    #[test]
    fn crash_failover_updates_model() {
        let mut t = healthy();
        t.truncate(14); // keep through session_flush (dir 1 now on MDS 1)
        t.push(rec(450, 1, TraceEvent::MdsCrash { mds: 1 }));
        // After the crash, dir 1 failed over to MDS 0 — a serve by 0 is
        // legal, a serve by 1 is not.
        t.push(rec(
            460,
            1,
            TraceEvent::Served {
                mds: 0,
                client: 0,
                dir: NodeId(1),
                frag: 0,
                kind: OpKind::Stat,
                seq: 1,
            },
        ));
        t.push(rec(470, 1, TraceEvent::RunEnd { inflight: 0 }));
        let v = check_trace(&t);
        assert!(
            !v.iter().any(|v| v.rule == "authority"),
            "failover must be replayed: {v:?}"
        );
    }

    #[test]
    fn split_replay_redistributes_files() {
        let t = vec![
            rec(
                0,
                0,
                TraceEvent::RunStart {
                    num_mds: 1,
                    fallback_after: 0,
                    level: TraceLevel::Decisions,
                    heartbeat_us: 400_000,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::DirAdded {
                    dir: NodeId(0),
                    parent: None,
                    files: vec![11],
                },
            ),
            rec(
                0,
                0,
                TraceEvent::AuthSnapshot {
                    dirs: vec![(NodeId(0), 0)],
                    frags: vec![],
                },
            ),
            rec(
                1,
                0,
                TraceEvent::FragSplit {
                    dir: NodeId(0),
                    frag: 0,
                    ways: 8,
                    resulting_frags: 8,
                },
            ),
            rec(1, 0, TraceEvent::RunEnd { inflight: 0 }),
        ];
        assert_eq!(check_trace(&t), vec![]);
        // A wrong resulting_frags count is structural corruption.
        let mut bad = t.clone();
        let TraceEvent::FragSplit {
            resulting_frags, ..
        } = &mut bad[3].event
        else {
            panic!("record 3 is the split");
        };
        *resulting_frags = 9;
        assert!(check_trace(&bad).iter().any(|v| v.rule == "structure"));
    }

    fn fill(at_ms: u64, epoch: u64, group: usize, dir: u32, mds: MdsId) -> TraceRecord {
        rec(
            at_ms,
            epoch,
            TraceEvent::CacheFill {
                group,
                dir: NodeId(dir),
                mds,
            },
        )
    }

    fn hit(at_ms: u64, epoch: u64, group: usize, dir: u32, mds: MdsId) -> TraceRecord {
        rec(
            at_ms,
            epoch,
            TraceEvent::CacheHit {
                group,
                client: 0,
                dir: NodeId(dir),
                mds,
            },
        )
    }

    fn cache_violations(t: &[TraceRecord]) -> Vec<Violation> {
        check_trace(t)
            .into_iter()
            .filter(|v| v.rule == "cache-coherence")
            .collect()
    }

    #[test]
    fn cache_fill_then_hit_passes() {
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        t.insert(8, hit(5, 0, 0, 1, 0));
        assert_eq!(cache_violations(&t), vec![]);
    }

    #[test]
    fn cache_hit_without_fill_is_flagged() {
        let mut t = healthy();
        t.insert(7, hit(5, 0, 0, 1, 0));
        let v = cache_violations(&t);
        assert!(!v.is_empty(), "hit with no fill must be stale: {v:?}");
    }

    #[test]
    fn cache_hit_in_wrong_group_is_flagged() {
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        t.insert(8, hit(5, 0, 1, 1, 0)); // group 1 never filled
        assert!(!cache_violations(&t).is_empty());
    }

    #[test]
    fn cache_hit_with_wrong_attribution_is_flagged() {
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        t.insert(8, hit(5, 0, 0, 1, 1)); // fill named MDS 0
        assert!(!cache_violations(&t).is_empty());
    }

    #[test]
    fn cache_hit_after_invalidation_is_flagged() {
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        t.insert(
            8,
            rec(
                5,
                0,
                TraceEvent::CacheInvalidate {
                    dir: NodeId(1),
                    entries: 1,
                },
            ),
        );
        t.insert(9, hit(6, 0, 0, 1, 0));
        assert!(!cache_violations(&t).is_empty());
    }

    #[test]
    fn cache_invalidation_overcount_is_flagged() {
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        // Claims 2 entries dropped; only one fill is live in the model.
        t.insert(
            8,
            rec(
                5,
                0,
                TraceEvent::CacheInvalidate {
                    dir: NodeId(1),
                    entries: 2,
                },
            ),
        );
        assert!(!cache_violations(&t).is_empty());
    }

    #[test]
    fn cache_hit_after_migration_freeze_is_flagged() {
        // The freeze of dir 1 at 400 ms invalidates the region; a hit
        // after it — even past the thaw — is stale without a fresh fill.
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        let end = t.len() - 1;
        t.insert(end, hit(460, 1, 0, 1, 0));
        assert!(!cache_violations(&t).is_empty());
    }

    #[test]
    fn cache_refill_after_migration_passes() {
        let mut t = healthy();
        t.insert(7, fill(4, 0, 0, 1, 0));
        let end = t.len() - 1;
        // A fresh fill from the importer re-arms the entry.
        t.insert(end, fill(455, 1, 0, 1, 1));
        t.insert(end + 1, hit(460, 1, 0, 1, 1));
        assert_eq!(cache_violations(&t), vec![]);
    }

    fn mem_violations(t: &[TraceRecord]) -> Vec<Violation> {
        check_trace(t)
            .into_iter()
            .filter(|v| v.rule.starts_with("membership"))
            .collect()
    }

    /// Append a complete leave chain for MDS 1 (which owns dir 1 after
    /// healthy()'s migration): drain dir 1 back to MDS 0, then the
    /// drain_complete/departed pair — all just before run_end.
    fn with_leave_of_mds1() -> Vec<TraceRecord> {
        let mut t = healthy();
        let end = t.len() - 1;
        let chain = vec![
            rec(
                520,
                1,
                TraceEvent::MdsDrainStart {
                    mds: 1,
                    membership_epoch: 1,
                },
            ),
            rec(
                520,
                1,
                TraceEvent::MigrationFreeze {
                    mig: 2,
                    from: 1,
                    to: 0,
                    root: NodeId(1),
                    frag: None,
                    holes: vec![],
                    watermark: 2,
                    until: SimTime::from_millis(560),
                },
            ),
            rec(
                520,
                1,
                TraceEvent::MigrationJournal {
                    mig: 2,
                    mds: 1,
                    micros: 100.0,
                },
            ),
            rec(
                520,
                1,
                TraceEvent::MigrationJournal {
                    mig: 2,
                    mds: 0,
                    micros: 100.0,
                },
            ),
            rec(
                520,
                1,
                TraceEvent::MigrationCommit {
                    mig: 2,
                    from: 1,
                    to: 0,
                    root: NodeId(1),
                    frag: None,
                    // dir 1 + 2 setup files + 1 traced create
                    inodes: 4,
                },
            ),
            rec(
                520,
                1,
                TraceEvent::MigrationUnfreeze {
                    mig: 2,
                    root: NodeId(1),
                    thaw: SimTime::from_millis(560),
                },
            ),
            rec(
                521,
                1,
                TraceEvent::MdsDrainComplete {
                    mds: 1,
                    membership_epoch: 1,
                    drained: 1,
                },
            ),
            rec(
                521,
                1,
                TraceEvent::MdsDeparted {
                    mds: 1,
                    membership_epoch: 1,
                },
            ),
        ];
        for (k, r) in chain.into_iter().enumerate() {
            t.insert(end + k, r);
        }
        t
    }

    #[test]
    fn well_formed_leave_chain_passes() {
        assert_eq!(mem_violations(&with_leave_of_mds1()), vec![]);
    }

    #[test]
    fn membership_epoch_regression_is_flagged() {
        let mut t = with_leave_of_mds1();
        let end = t.len() - 1;
        // A rejoin announcing epoch 1 again: the leave already took it.
        t.insert(
            end,
            rec(
                530,
                1,
                TraceEvent::MdsJoinStart {
                    mds: 1,
                    membership_epoch: 1,
                },
            ),
        );
        t.insert(
            end + 1,
            rec(
                530,
                1,
                TraceEvent::MdsJoinComplete {
                    mds: 1,
                    membership_epoch: 1,
                    rehomed: 0,
                },
            ),
        );
        let v = mem_violations(&t);
        assert!(v.iter().any(|v| v.rule == "membership-epoch"), "{v:?}");
    }

    #[test]
    fn residual_authority_at_drain_complete_is_flagged() {
        // Drain chain with no export: dir 1 still names MDS 1 at
        // drain_complete time.
        let mut t = healthy();
        let end = t.len() - 1;
        t.insert(
            end,
            rec(
                520,
                1,
                TraceEvent::MdsDrainStart {
                    mds: 1,
                    membership_epoch: 1,
                },
            ),
        );
        t.insert(
            end + 1,
            rec(
                521,
                1,
                TraceEvent::MdsDrainComplete {
                    mds: 1,
                    membership_epoch: 1,
                    drained: 0,
                },
            ),
        );
        t.insert(
            end + 2,
            rec(
                521,
                1,
                TraceEvent::MdsDeparted {
                    mds: 1,
                    membership_epoch: 1,
                },
            ),
        );
        let v = mem_violations(&t);
        assert!(v.iter().any(|v| v.rule == "membership"), "{v:?}");
    }

    #[test]
    fn split_leave_chain_is_flagged() {
        // drain_start straight to departed: the drain_complete is missing.
        let mut t = with_leave_of_mds1();
        t.retain(|r| !matches!(r.event, TraceEvent::MdsDrainComplete { .. }));
        let v = mem_violations(&t);
        assert!(v.iter().any(|v| v.rule == "membership-phases"), "{v:?}");
    }

    #[test]
    fn dangling_join_start_is_flagged() {
        let mut t = healthy();
        let end = t.len() - 1;
        t.insert(
            end,
            rec(
                520,
                1,
                TraceEvent::MdsJoinStart {
                    mds: 1,
                    membership_epoch: 1,
                },
            ),
        );
        let v = mem_violations(&t);
        assert!(v.iter().any(|v| v.rule == "membership-phases"), "{v:?}");
    }

    #[test]
    fn serve_on_departed_mds_is_flagged() {
        let mut t = with_leave_of_mds1();
        let end = t.len() - 1;
        t.insert(
            end,
            rec(
                530,
                1,
                TraceEvent::Served {
                    mds: 1,
                    client: 0,
                    dir: NodeId(1),
                    frag: 0,
                    kind: OpKind::Stat,
                    seq: 7,
                },
            ),
        );
        let v = mem_violations(&t);
        assert!(v.iter().any(|v| v.rule == "membership"), "{v:?}");
    }

    #[test]
    fn assert_invariants_panics_with_report() {
        let err = std::panic::catch_unwind(|| assert_invariants(&unbalanced()))
            .expect_err("unbalanced books must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("conservation"), "{msg}");
    }
}
