//! Property-based tests over the core data structures and invariants.
//!
//! These are hand-rolled properties (no external property-testing crate):
//! every test draws its cases from a deterministically seeded
//! [`SimRng`] stream, so a failure reproduces exactly by rerunning the
//! test — the failing case index is in the assertion message.

use mantle::mds::{select_best, DirfragSelector};
use mantle::namespace::{FragHeat, HeatSample, Namespace, NodeId, NsConfig, OpKind};
use mantle::policy::env::{BalancerInputs, MantleRuntime, MdsMetrics, PolicySet};
use mantle::policy::{parse_script, Interpreter, StepBudget, Value};
use mantle::policy::{BytecodeProgram, BytecodeVm};
use mantle::sim::{EventQueue, OnlineStats, SimRng, SimTime, Summary};

mod support;

/// Per-test RNG: independent stream per property, fixed master seed.
fn cases_rng(label: &str) -> SimRng {
    SimRng::new(0x4D41_4E54_4C45).stream(label)
}

fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: u64, max_len: u64) -> Vec<f64> {
    let len = rng.range_inclusive(min_len, max_len) as usize;
    (0..len).map(|_| f64_in(rng, lo, hi)).collect()
}

// ---------------------------------------------------------------------------
// Simulation kernel
// ---------------------------------------------------------------------------

#[test]
fn event_queue_pops_in_nondecreasing_time() {
    let mut rng = cases_rng("event-queue");
    for case in 0..100 {
        let len = rng.range_inclusive(1, 200) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.below(1_000_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "case {case}: time went backwards");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len(), "case {case}");
    }
}

/// The queue's contract, said as plainly as it can be: pending events in
/// a `Vec`, the next one found by a min-scan on `(time, key)`, where the
/// key is the caller's or else the count of unkeyed pushes so far.
#[derive(Default)]
struct QueueModel {
    pending: Vec<(SimTime, u64, u64)>,
    now: SimTime,
    unkeyed: u64,
}

impl QueueModel {
    fn push(&mut self, at: SimTime, key: Option<u64>, id: u64) {
        let key = key.unwrap_or_else(|| {
            self.unkeyed += 1;
            self.unkeyed - 1
        });
        self.pending.push((at, key, id));
    }

    fn peek(&self) -> Option<(SimTime, u64, u64)> {
        self.pending.iter().copied().min()
    }

    /// Pop the next event.
    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let next = self.peek()?;
        self.pending.retain(|&e| e != next);
        self.now = next.0;
        Some(next)
    }
}

/// `EventQueue` against the model through random interleavings of every
/// entry point the engine uses: unkeyed and caller-keyed pushes (disjoint
/// key spaces, as the contract asks), `pop`, `pop_keyed`, and
/// pop-and-reschedule — over same-instant ties and delays past 2^37 µs.
#[test]
fn event_queue_matches_min_scan_model() {
    let mut rng = cases_rng("queue-model");
    for case in 0..48 {
        let mut q = EventQueue::new();
        let mut model = QueueModel::default();
        let mut next_id = 0u64;
        let steps = rng.range_inclusive(1, 400);
        for step in 0..steps {
            let ctx = format!("case {case} step {step}");
            match rng.below(5) {
                // Push a burst; coarse delays force same-instant ties.
                0 | 1 => {
                    for _ in 0..rng.range_inclusive(1, 5) {
                        let delay = SimTime::from_micros(match rng.below(8) {
                            0 => 0,                              // now
                            1..=4 => rng.below(500) * 10,        // sub-5ms, coarse
                            5 | 6 => rng.below(30_000_000),      // ≤ 30 s
                            _ => (1 << 37) + rng.below(1 << 20), // weeks out
                        });
                        let at = model.now + delay;
                        // Caller keys: in random order within an instant,
                        // unique, above every push count.
                        let key =
                            (rng.below(3) == 0).then(|| ((1 + rng.below(1 << 16)) << 32) | next_id);
                        match key {
                            Some(key) => q.schedule_at_key(at, key, next_id),
                            None if rng.below(2) == 0 => q.schedule_at(at, next_id),
                            None => q.schedule_in(delay, next_id),
                        }
                        model.push(at, key, next_id);
                        next_id += 1;
                    }
                }
                2 => {
                    let want = model.pop().map(|(at, _, id)| (at, id));
                    assert_eq!(q.pop(), want, "{ctx}");
                }
                3 => assert_eq!(q.pop_keyed(), model.pop(), "{ctx}"),
                // Pop and reschedule the payload at a fresh delay (the
                // retry/heartbeat pattern).
                _ => {
                    let popped = q.pop_keyed();
                    assert_eq!(popped, model.pop(), "{ctx}");
                    if let Some((.., id)) = popped {
                        let delay = SimTime::from_micros(rng.below(5_000_000));
                        q.schedule_in(delay, id);
                        model.push(model.now + delay, None, id);
                    }
                }
            }
            assert_eq!(q.now(), model.now, "{ctx}");
            assert_eq!(q.len(), model.pending.len(), "{ctx}");
            assert_eq!(q.is_empty(), model.pending.is_empty(), "{ctx}");
            assert_eq!(q.peek_time(), model.peek().map(|(at, ..)| at), "{ctx}");
        }
        // Drain fully; order must match to the last event.
        while let Some(want) = model.pop() {
            assert_eq!(q.pop_keyed(), Some(want), "case {case}: drain");
        }
        assert_eq!(q.pop(), None, "case {case}");
    }
}

#[test]
fn online_stats_matches_naive() {
    let mut rng = cases_rng("online-stats");
    for case in 0..100 {
        let xs = vec_f64(&mut rng, -1e6, 1e6, 1, 200);
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            (s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "case {case}: mean"
        );
        assert!(
            (s.stddev() - var.sqrt()).abs() < 1e-6 * (1.0 + var.sqrt()),
            "case {case}: stddev"
        );
    }
}

#[test]
fn summary_percentiles_are_ordered() {
    let mut rng = cases_rng("summary");
    for case in 0..100 {
        let xs = vec_f64(&mut rng, 0.0, 1e9, 1, 300);
        let s = Summary::of(&xs);
        assert!(s.min <= s.p50 + 1e-9, "case {case}");
        assert!(s.p50 <= s.p95 + 1e-9, "case {case}");
        assert!(s.p95 <= s.p99 + 1e-9, "case {case}");
        assert!(s.p99 <= s.max + 1e-9, "case {case}");
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
    }
}

#[test]
fn frag_heat_is_monotone_without_hits() {
    let mut rng = cases_rng("decay");
    let half_life = SimTime::from_secs(10);
    let counters = |s: HeatSample| [s.ird, s.iwr, s.readdir, s.fetch, s.store];
    for case in 0..200 {
        let amount = HeatSample {
            ird: f64_in(&mut rng, 0.1, 1e6),
            iwr: f64_in(&mut rng, 0.1, 1e6),
            readdir: f64_in(&mut rng, 0.1, 1e6),
            fetch: f64_in(&mut rng, 0.1, 1e6),
            store: f64_in(&mut rng, 0.1, 1e6),
        };
        let dt1 = rng.range_inclusive(1, 100_000);
        let dt2 = rng.range_inclusive(1, 100_000);
        let mut h = FragHeat::default();
        h.add_sample(&amount, SimTime::ZERO, 1.0, half_life);
        let v1 = h.sample(SimTime::from_millis(dt1), half_life);
        let v2 = h.sample(SimTime::from_millis(dt1 + dt2), half_life);
        for ((a, v1), v2) in counters(amount)
            .into_iter()
            .zip(counters(v1))
            .zip(counters(v2))
        {
            assert!(v1 <= a + 1e-9, "case {case}");
            assert!(v2 <= v1 + 1e-9, "case {case}: decay must be monotone");
            assert!(v2 >= 0.0, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Dirfrag selectors (§3.2)
// ---------------------------------------------------------------------------

#[test]
fn selectors_return_valid_disjoint_indices() {
    let mut rng = cases_rng("selector-indices");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 100.0, 0, 40);
        let target = f64_in(&mut rng, 0.0, 2_000.0);
        for sel in DirfragSelector::all() {
            let chosen = sel.select(&loads, target);
            let mut seen = std::collections::HashSet::new();
            for &i in &chosen {
                assert!(i < loads.len(), "case {case}: {sel}: index out of range");
                assert!(seen.insert(i), "case {case}: {sel}: duplicate index");
            }
        }
    }
}

#[test]
fn greedy_selectors_never_wildly_overshoot() {
    let mut rng = cases_rng("selector-overshoot");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 100.0, 1, 40);
        let target = f64_in(&mut rng, 0.1, 500.0);
        // big_first/small_first stop as soon as the target is reached, so
        // the shipped load overshoots by at most one unit's load.
        for sel in [DirfragSelector::BigFirst, DirfragSelector::SmallFirst] {
            let chosen = sel.select(&loads, target);
            let shipped: f64 = chosen.iter().map(|&i| loads[i]).sum();
            let max_unit = loads.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                shipped <= target + max_unit + 1e-9,
                "case {case}: {sel} shipped {shipped} for target {target}"
            );
        }
    }
}

#[test]
fn select_best_is_no_worse_than_any_single_selector() {
    let mut rng = cases_rng("select-best");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 100.0, 1, 40);
        let target = f64_in(&mut rng, 0.1, 500.0);
        let all = DirfragSelector::all();
        let (_, _, best_shipped) = select_best(&all, &loads, target);
        let best_dist = (best_shipped - target).abs();
        for sel in all {
            let chosen = sel.select(&loads, target);
            let shipped: f64 = chosen.iter().map(|&i| loads[i]).sum();
            assert!(
                best_dist <= (shipped - target).abs() + 1e-9,
                "case {case}: select_best lost to {sel}"
            );
        }
    }
}

#[test]
fn half_selector_takes_exactly_half() {
    let mut rng = cases_rng("half");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 10.0, 0, 32);
        let chosen = DirfragSelector::Half.select(&loads, 1.0);
        assert_eq!(chosen.len(), loads.len() / 2, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Namespace invariants
// ---------------------------------------------------------------------------

/// A random namespace operation.
#[derive(Debug, Clone)]
enum NsAction {
    Mkdir(u8),
    Create(u8),
    Unlink(u8),
    Stat(u8),
    Migrate(u8, u8),
    MigrateFrag(u8, u8),
    /// Install or clear a subtree override (what failover does).
    SetAuth(u8, Option<u8>),
    /// Install or clear the override of the next fragment to be hit.
    SetFragAuth(u8, Option<u8>),
}

fn ns_action(rng: &mut SimRng) -> NsAction {
    let d = rng.below(16) as u8;
    // Half of the `Set*` actions clear.
    let maybe_mds = |rng: &mut SimRng| (rng.below(2) == 0).then(|| rng.below(4) as u8);
    match rng.below(8) {
        0 => NsAction::Mkdir(d),
        1 => NsAction::Create(d),
        2 => NsAction::Unlink(d),
        3 => NsAction::Stat(d),
        4 => NsAction::Migrate(d, rng.below(4) as u8),
        5 => NsAction::MigrateFrag(d, rng.below(4) as u8),
        6 => NsAction::SetAuth(d, maybe_mds(rng)),
        _ => NsAction::SetFragAuth(d, maybe_mds(rng)),
    }
}

/// A history that fragments a handful of directories and spreads their
/// fragments over MDSs: creates on the first few directories, fragment
/// overrides set and cleared, and migrations that clear them again.
/// [`ns_action`] almost never leaves a directory whose fragments span
/// two MDSs.
fn fragmenting_ns_action(rng: &mut SimRng) -> NsAction {
    let d = rng.below(4) as u8;
    let mds = rng.below(4) as u8;
    match rng.below(8) {
        0 => NsAction::Mkdir(d),
        1..=3 => NsAction::Create(d),
        4 => NsAction::Unlink(d),
        5 => NsAction::SetFragAuth(d, (rng.below(4) != 0).then_some(mds)),
        6 => NsAction::MigrateFrag(d, mds),
        _ => NsAction::Migrate(d, mds),
    }
}

#[test]
fn namespace_invariants_hold_under_random_ops() {
    let mut rng = cases_rng("namespace-ops");
    for case in 0..64 {
        let n_actions = rng.range_inclusive(1, 400) as usize;
        let actions: Vec<NsAction> = (0..n_actions).map(|_| ns_action(&mut rng)).collect();
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 6, // force frequent splits
            ..Default::default()
        });
        let mut created: i64 = 0;
        let mut unlinked: i64 = 0;
        let mut dirs = vec![ns.root()];
        for action in actions {
            let before = ns.file_count();
            apply_ns_action(&mut ns, &mut dirs, &action, SimTime::ZERO);
            match action {
                NsAction::Create(_) => created += 1,
                NsAction::Unlink(_) if ns.file_count() < before => unlinked += 1,
                _ => {}
            }
            // Invariant: every directory resolves to exactly one authority.
            for &dir in &dirs {
                let _ = ns.resolve_auth(dir);
            }
        }
        // Invariant: files are conserved across splits and migrations.
        assert_eq!(ns.file_count() as i64, created - unlinked, "case {case}");
        // Invariant: auth_frags partitions the fragment set.
        let frags: usize = ns.all_dirs().map(|d| ns.dir(d).frags.len()).sum();
        let total_from_partition: usize = (0..4).map(|m| ns.auth_frags(m).len()).sum();
        assert_eq!(total_from_partition, frags, "case {case}");
        // Invariant: every dir keeps at least one fragment.
        for &dir in &dirs {
            assert!(!ns.dir(dir).frags.is_empty(), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental index layer ≡ walks over the tree (`support`)
// ---------------------------------------------------------------------------

/// Apply one random action to a namespace at `now`, growing `dirs` as
/// mkdirs land. A migration must report what a walk predicted and leave
/// the region it moved on the new authority with no override inside.
fn apply_ns_action(
    ns: &mut Namespace,
    dirs: &mut Vec<NodeId>,
    action: &NsAction,
    now: mantle::sim::SimTime,
) {
    match *action {
        NsAction::Mkdir(p) => {
            let parent = dirs[p as usize % dirs.len()];
            let name = format!("d{}", dirs.len());
            dirs.push(ns.mkdir(parent, name));
        }
        NsAction::Create(d) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.record_op(dir, OpKind::Create, now);
        }
        NsAction::Unlink(d) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.record_op(dir, OpKind::Unlink, now);
        }
        NsAction::Stat(d) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.record_op(dir, OpKind::Stat, now);
        }
        NsAction::Migrate(d, m) => {
            let dir = dirs[d as usize % dirs.len()];
            let predicted = support::walk_migration(ns, dir);
            let moved = ns.migrate_subtree(dir, m as usize);
            assert_eq!((moved.inodes, moved.holes), predicted, "migrate {dir:?}");
            for region_dir in ns.subtree_dirs(dir, true) {
                let frags = &ns.dir(region_dir).frags;
                assert!(frags.iter().all(|f| f.auth.is_none()), "{region_dir:?}");
                assert_eq!(support::walk_resolve(ns, region_dir), m as usize);
            }
        }
        NsAction::MigrateFrag(d, m) => {
            let dir = dirs[d as usize % dirs.len()];
            let frag = ns.peek_frag(dir);
            ns.migrate_frag(dir, frag, m as usize);
        }
        NsAction::SetAuth(d, auth) => {
            let dir = dirs[d as usize % dirs.len()];
            // The root keeps an authority, always.
            if dir != ns.root() || auth.is_some() {
                ns.set_auth(dir, auth.map(usize::from));
            }
        }
        NsAction::SetFragAuth(d, auth) => {
            let dir = dirs[d as usize % dirs.len()];
            let frag = ns.peek_frag(dir);
            ns.set_frag_auth(dir, frag, auth.map(usize::from));
        }
    }
}

/// (a) Resolution, the per-MDS ownership indexes, the fragment summaries
/// and the tree's structure are what a walk over the tree says, after
/// *every* step of a random history — including overrides set and
/// cleared outside a migration, and directories whose fragments span
/// several MDSs.
#[test]
fn indexed_ownership_matches_walk_oracle() {
    let histories = [
        ("index-ownership", ns_action as fn(&mut SimRng) -> NsAction),
        ("index-fragmenting", fragmenting_ns_action),
    ];
    let mut spanning = 0;
    for (label, next_action) in histories {
        let mut rng = cases_rng(label);
        for case in 0..32 {
            let n_actions = rng.range_inclusive(1, 300) as usize;
            let mut ns = Namespace::new(NsConfig {
                frag_split_threshold: 6,
                ..Default::default()
            });
            let mut dirs = vec![ns.root()];
            for step in 0..n_actions {
                let action = next_action(&mut rng);
                let now = mantle::sim::SimTime::from_millis(step as u64 * 20);
                apply_ns_action(&mut ns, &mut dirs, &action, now);
                // The checker's panic names the mismatch; this adds where.
                // Each op adds at most one entry and `record_op` splits
                // inline, so no fragment is ever left over the threshold.
                let caught = std::panic::catch_unwind(|| {
                    support::assert_indexes_match_walk(&ns, 4);
                    support::assert_no_frag_over_threshold(&ns);
                });
                assert!(
                    caught.is_ok(),
                    "{label} case {case} step {step}: after {action:?}"
                );
                spanning += ns.all_dirs().filter(|&d| ns.frag_span(d) > 1).count();
            }
        }
    }
    assert!(spanning > 1_000, "{spanning} spanning directory-steps");
}

/// (b) Delta-maintained per-MDS aggregates track a from-scratch recompute
/// off per-frag truth. Migrations move heat between aggregates by sampled
/// deltas, so agreement is to floating-point tolerance, not bitwise.
#[test]
fn delta_aggregates_match_full_recompute() {
    let mut rng = cases_rng("delta-aggregates");
    for case in 0..24 {
        let n_actions = rng.range_inclusive(1, 300) as usize;
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 6,
            ..Default::default()
        });
        let mut dirs = vec![ns.root()];
        let mut now = mantle::sim::SimTime::ZERO;
        for step in 0..n_actions {
            let action = ns_action(&mut rng);
            now = mantle::sim::SimTime::from_millis(step as u64 * 20);
            apply_ns_action(&mut ns, &mut dirs, &action, now);
        }
        let (auth, rep) = ns.mds_load_samples(4, now);
        let (auth_o, rep_o) = support::walk_load_samples(&ns, 4, now);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + b.abs());
        for m in 0..4 {
            assert!(
                close(auth[m].cephfs_metaload(), auth_o[m].cephfs_metaload()),
                "case {case}: auth aggregate of MDS {m}: {:?} vs {:?}",
                auth[m],
                auth_o[m]
            );
            assert!(
                close(rep[m].cephfs_metaload(), rep_o[m].cephfs_metaload()),
                "case {case}: replica aggregate of MDS {m}: {:?} vs {:?}",
                rep[m],
                rep_o[m]
            );
        }
    }
}

/// Oracle for `lookup_child`, by sibling scan: the first child of
/// `parent`, in creation order, whose name is `name`.
fn scan_child(ns: &Namespace, parent: NodeId, name: &str) -> Option<NodeId> {
    ns.children(parent)
        .iter()
        .copied()
        .find(|&c| ns.name(c) == name)
}

/// Component names that collide across parents and differ only in case,
/// length or a trailing byte. `""` is reachable through `mkdir` only.
const NAMES: [&str; 11] = ["", "a", "A", "aa", "a ", "ab", "b", "B", "d0", "d00", "é"];

/// A random path over [`NAMES`]: repeated and trailing slashes, sometimes
/// no leading one.
fn random_path(rng: &mut SimRng) -> String {
    let mut path = String::new();
    for i in 0..rng.range_inclusive(1, 4) {
        if i > 0 || rng.below(4) > 0 {
            path.push_str(if rng.below(3) == 0 { "//" } else { "/" });
        }
        path.push_str(NAMES[rng.range_inclusive(1, NAMES.len() as u64 - 1) as usize]);
    }
    if rng.below(4) == 0 {
        path.push('/');
    }
    path
}

/// One random `mkdir` or `mkdir_p` on `ns`, then the whole index checked
/// against [`scan_child`].
fn grow_and_check_child_index(ns: &mut Namespace, rng: &mut SimRng, ctx: &str) {
    let before = ns.dir_count();
    if rng.below(3) == 0 {
        let parent = NodeId(rng.below(before as u64) as u32);
        let name = NAMES[rng.below(NAMES.len() as u64) as usize];
        let first = scan_child(ns, parent, name);
        let id = ns.mkdir(parent, name);
        assert_eq!(id, NodeId(before as u32), "{ctx}: ids in creation order");
        assert_eq!(ns.children(parent).last(), Some(&id), "{ctx}");
        assert_eq!(
            ns.lookup_child(parent, name),
            first.or(Some(id)),
            "{ctx}: first created wins"
        );
    } else {
        let path = random_path(rng);
        // Walk the path with the oracle: where it ends and how many
        // components are missing below that.
        let (mut at, mut missing) = (ns.root(), 0);
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            match scan_child(ns, at, comp) {
                Some(c) if missing == 0 => at = c,
                _ => missing += 1,
            }
        }
        let leaf = ns.mkdir_p(&path);
        assert_eq!(ns.dir_count(), before + missing, "{ctx}: mkdir_p({path:?})");
        let expected = match missing {
            0 => at,
            _ => NodeId((before + missing - 1) as u32),
        };
        assert_eq!(leaf, expected, "{ctx}: mkdir_p({path:?})");
        assert_eq!(ns.mkdir_p(&path), leaf, "{ctx}: second mkdir_p({path:?})");
        assert_eq!(ns.dir_count(), before + missing, "{ctx}: nothing new");
    }
    for parent in ns.all_dirs() {
        for name in NAMES.iter().copied().chain(["absent", "a\0"]) {
            assert_eq!(
                ns.lookup_child(parent, name),
                scan_child(ns, parent, name),
                "{ctx}: lookup_child({parent:?}, {name:?})"
            );
        }
    }
}

/// (c) The child-name index answers exactly what a scan of the siblings
/// answers, after every step of a random `mkdir` / `mkdir_p`
/// history — and a clone carries its own copy: original and clone grown
/// apart keep agreeing with their own `children`.
#[test]
fn child_index_matches_sibling_scan() {
    let mut rng = cases_rng("child-index");
    for case in 0..24 {
        let mut ns = Namespace::default();
        for step in 0..rng.range_inclusive(1, 60) {
            grow_and_check_child_index(&mut ns, &mut rng, &format!("case {case} step {step}"));
        }
        let mut twin = ns.clone();
        for step in 0..rng.range_inclusive(1, 40) {
            grow_and_check_child_index(&mut twin, &mut rng, &format!("case {case} twin {step}"));
            grow_and_check_child_index(&mut ns, &mut rng, &format!("case {case} orig {step}"));
        }
    }
}

/// Path resolution does not depend on how wide a directory is: 200 000
/// children of one parent, created through `mkdir_p` and then resolved
/// again. A resolver that scans siblings needs 2 × 10¹⁰ string compares
/// to create these and 10¹⁰ to resolve them — minutes each, even in a
/// release build — against ≈ 0.4 s of resolving in a debug build. And
/// creating a child is a lookup plus an append: creation within 5× of
/// resolution catches any per-`mkdir` work that grows with the parent's
/// width or the tree's size.
#[test]
fn wide_directory_resolves_in_linear_time() {
    const WIDTH: usize = 200_000;
    let paths: Vec<String> = (0..WIDTH).map(|i| format!("/wide/c{i}")).collect();
    let mut ns = Namespace::default();
    let resolve_all = |ns: &mut Namespace, what: &str, bound_secs: f64| {
        let started = std::time::Instant::now();
        for (i, path) in paths.iter().enumerate() {
            // Ids in creation order: root, wide, then the children.
            assert_eq!(ns.mkdir_p(path), NodeId(i as u32 + 2), "{path} {what}");
        }
        assert_eq!(ns.dir_count(), WIDTH + 2, "{what}");
        let secs = started.elapsed().as_secs_f64();
        assert!(secs < bound_secs, "{what} {WIDTH} siblings: {secs:.1} s");
        secs
    };
    let created = resolve_all(&mut ns, "created", 60.0);
    let resolved = resolve_all(&mut ns, "resolved", 10.0);
    assert!(
        created <= 5.0 * resolved,
        "creating {WIDTH} siblings took {created:.2} s, {:.1}× resolving them ({resolved:.2} s)",
        created / resolved
    );
    assert_eq!(ns.children(NodeId(1)).len(), WIDTH);
}

// ---------------------------------------------------------------------------
// Policy language
// ---------------------------------------------------------------------------

/// Arithmetic in the policy language matches Rust f64 arithmetic.
#[test]
fn interpreter_arithmetic_matches_rust() {
    let mut rng = cases_rng("arith");
    for case in 0..128 {
        let a = f64_in(&mut rng, -1e6, 1e6);
        let b = f64_in(&mut rng, -1e6, 1e6);
        let c = f64_in(&mut rng, 0.001, 1e3);
        let src = format!("r = ({a}) + ({b}) * ({c})");
        let script = parse_script(&src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&script).unwrap();
        let got = interp.get_global("r").as_number(0).unwrap();
        let want = a + b * c;
        assert!(
            (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "case {case}: got {got}, want {want}"
        );
    }
}

/// Random balancer states never crash the shipped policies; targets are
/// finite and non-negative, and never point at self.
#[test]
fn shipped_policies_are_total_over_random_states() {
    let mut rng = cases_rng("shipped-total");
    for case in 0..48 {
        let loads = vec_f64(&mut rng, 0.0, 10_000.0, 1, 8);
        let cpus = vec_f64(&mut rng, 0.0, 100.0, 1, 8);
        let n = loads.len().min(cpus.len());
        let whoami = rng.below(8) as usize % n;
        let inputs = BalancerInputs {
            whoami,
            mds: (0..n)
                .map(|i| MdsMetrics {
                    auth: loads[i],
                    all: loads[i] * 1.2,
                    cpu: cpus[i],
                    mem: 25.0,
                    q: (loads[i] / 100.0).floor(),
                    req: loads[i],
                    cache_hits: loads[i] * 3.0,
                    cache_misses: loads[i] / 2.0,
                })
                .collect(),
            auth_metaload: loads[whoami],
            all_metaload: loads[whoami] * 1.2,
        };
        for policy in [
            mantle::core::policies::greedy_spill().unwrap(),
            mantle::core::policies::greedy_spill_even().unwrap(),
            mantle::core::policies::fill_and_spill(0.25).unwrap(),
            mantle::core::policies::adaptable().unwrap(),
            mantle::core::policies::cephfs_original().unwrap(),
        ] {
            let rt = MantleRuntime::new(policy);
            let out = rt.decide(&inputs).unwrap();
            assert_eq!(out.targets.len(), n, "case {case}");
            for (i, &t) in out.targets.iter().enumerate() {
                assert!(t.is_finite() && t >= 0.0, "case {case}");
                if i == whoami {
                    assert!(t == 0.0, "case {case}: policy exported to itself");
                }
            }
        }
    }
}

/// Scripts that loop forever always hit the step budget, regardless of
/// loop structure.
#[test]
fn budget_always_terminates_loops() {
    let mut rng = cases_rng("budget");
    for case in 0..32 {
        let body_len = rng.range_inclusive(1, 3) as usize;
        let body = "x = x + 1 ".repeat(body_len);
        let step = rng.range_inclusive(1, 4);
        let src = format!("x = 0 while true do {body} end y = {step}");
        let script = parse_script(&src).unwrap();
        let mut interp = Interpreter::new().with_budget(StepBudget(5_000));
        let err = interp.run(&script).unwrap_err();
        let budget_hit = matches!(err, mantle::policy::PolicyError::BudgetExhausted { .. });
        assert!(
            budget_hit,
            "case {case}: expected budget exhaustion, got {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tree-walking ≡ bytecode evaluation
// ---------------------------------------------------------------------------

/// Generate a random expression over globals `a`, `b`, `c` mixing
/// arithmetic, comparison, and logical operators. Comparisons between
/// incompatible types are possible — the property then checks that both
/// engines produce the *same* error.
fn random_expr(rng: &mut SimRng, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => format!("{}", rng.below(2_000) as i64 - 1_000),
            1 => format!("{:.3}", rng.f64() * 100.0),
            2 => ["a", "b", "c"][rng.below(3) as usize].to_string(),
            _ => format!("{}", rng.below(100)),
        };
    }
    let lhs = random_expr(rng, depth - 1);
    let rhs = random_expr(rng, depth - 1);
    let op = [
        "+", "-", "*", "/", "%", "^", "<", "<=", ">", ">=", "==", "~=", "and", "or",
    ][rng.below(14) as usize];
    match rng.below(3) {
        0 => format!("({lhs} {op} {rhs})"),
        // The space after the unary minus matters: a negative literal
        // after `-` would otherwise form `--`, a Lua comment.
        1 => format!("(- {lhs} {op} {rhs})"),
        _ => format!("({lhs} {op} not {rhs})"),
    }
}

/// Run a script through both engines (tree walker, bytecode VM) with
/// identical globals and budget; results (success value of every global,
/// steps consumed, or the error) must be identical — numbers bit-for-bit.
fn assert_engines_agree(src: &str, globals: &[(&str, f64)], case: usize) {
    let script = parse_script(src).unwrap_or_else(|e| panic!("case {case}: parse {src}: {e}"));
    let budget = StepBudget(100_000);

    let mut tree = Interpreter::new().with_budget(budget);
    for &(name, v) in globals {
        tree.set_global(name, Value::Number(v));
    }
    let tree_result = tree.run(&script);

    let bc = BytecodeProgram::compile(&script);
    let mut bvm = BytecodeVm::new(&bc, budget);
    for &(name, v) in globals {
        if let Some(slot) = bc.global_slot(name) {
            bvm.set_global(slot, Value::Number(v));
        }
    }
    let bvm_result = bvm.run(&bc);

    match (&tree_result, &bvm_result) {
        (Ok(_), Ok(_)) => {
            for (slot, name) in bc.global_names().iter().enumerate() {
                let t = tree.get_global(name);
                let v = bvm.get_global(slot);
                let same = match (&t, v) {
                    (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
                    (t, v) => t.lua_eq(v),
                };
                assert!(
                    same,
                    "case {case}: global {name} diverged on {src}: tree={t:?} bytecode={v:?}"
                );
            }
            assert_eq!(
                tree.steps_used(),
                bvm.steps_used(),
                "case {case}: tree/bytecode step counts diverged on {src}"
            );
        }
        (Err(te), Err(be)) => {
            assert_eq!(
                te, be,
                "case {case}: tree/bytecode errors diverged on {src}"
            );
        }
        _ => panic!(
            "case {case}: engines disagree on whether {src} errors: \
             tree={tree_result:?} bytecode={bvm_result:?}"
        ),
    }
}

/// Both engines agree on random expressions: same values
/// (bit-identical numbers), same step counts, same errors.
#[test]
fn all_engines_agree_on_random_expressions() {
    let mut rng = cases_rng("slots-expr");
    for case in 0..256 {
        let depth = rng.range_inclusive(1, 4) as u32;
        let expr = random_expr(&mut rng, depth);
        let src = format!("r = {expr}");
        let a = f64_in(&mut rng, -100.0, 100.0);
        let b = f64_in(&mut rng, -10.0, 10.0);
        let c = f64_in(&mut rng, 0.0, 5.0);
        assert_engines_agree(&src, &[("a", a), ("b", b), ("c", c)], case);
    }
}

/// Same property over random multi-statement scripts exercising locals,
/// scoping, conditionals, and bounded loops.
#[test]
fn all_engines_agree_on_random_scripts() {
    let mut rng = cases_rng("slots-script");
    for case in 0..128 {
        let e1 = random_expr(&mut rng, 2);
        let e2 = random_expr(&mut rng, 2);
        let e3 = random_expr(&mut rng, 1);
        let n = rng.range_inclusive(1, 8);
        let src = format!(
            "local t = {e1}\n\
             acc = 0\n\
             for i = 1, {n} do\n\
               local t = i + acc\n\
               if t > 3 then acc = acc + 1 else acc = acc + 0.5 end\n\
             end\n\
             u = {e2}\n\
             while acc > 2 do acc = acc - ({n}) end\n\
             v = {e3}"
        );
        let a = f64_in(&mut rng, -100.0, 100.0);
        let b = f64_in(&mut rng, -10.0, 10.0);
        let c = f64_in(&mut rng, 0.0, 5.0);
        assert_engines_agree(&src, &[("a", a), ("b", b), ("c", c)], case);
    }
}

// ---------------------------------------------------------------------------
// PolicySet construction is total over selector lists
// ---------------------------------------------------------------------------

#[test]
fn policy_from_combined_handles_arbitrary_howmuch() {
    let mut rng = cases_rng("howmuch");
    for _case in 0..100 {
        let n_names = rng.below(5) as usize;
        let names: Vec<String> = (0..n_names)
            .map(|_| {
                let len = rng.range_inclusive(1, 12) as usize;
                (0..len)
                    .map(|_| {
                        let alphabet = b"abcdefghijklmnopqrstuvwxyz_";
                        alphabet[rng.below(alphabet.len() as u64) as usize] as char
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        // Construction itself must not panic; unknown selector names are
        // rejected later, at balancer construction.
        let _ = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &refs);
    }
}

// ---------------------------------------------------------------------------
// Elastic membership: rendezvous re-homing and drain conservation
// ---------------------------------------------------------------------------

/// Draw a sorted, duplicate-free random member set from `0..pool`.
fn random_members(rng: &mut SimRng, pool: u64, min_len: u64) -> Vec<usize> {
    loop {
        let members: Vec<usize> = (0..pool)
            .filter(|_| rng.f64() < 0.5)
            .map(|m| m as usize)
            .collect();
        if members.len() as u64 >= min_len {
            return members;
        }
    }
}

/// Rendezvous hashing's minimal-movement law, differentially against the
/// full-recompute oracle: when a member joins, the only dirs whose owner
/// changes are exactly those the full recompute assigns to the joiner.
/// Nothing shuffles between surviving members.
#[test]
fn rendezvous_join_rehomes_only_the_minimal_set() {
    let mut rng = cases_rng("rendezvous-join");
    for case in 0..200 {
        let before = random_members(&mut rng, 16, 1);
        let joiner = loop {
            let j = rng.below(16) as usize;
            if !before.contains(&j) {
                break j;
            }
        };
        let mut after = before.clone();
        after.push(joiner);
        after.sort_unstable();

        let dirs: Vec<NodeId> = (0..rng.range_inclusive(1, 300))
            .map(|_| NodeId(rng.below(1 << 30) as u32))
            .collect();
        let mut moved = 0usize;
        for &dir in &dirs {
            let old = mantle::mds::rendezvous_owner(dir, &before);
            let new = mantle::mds::rendezvous_owner(dir, &after);
            if new != old {
                assert_eq!(
                    new, joiner,
                    "case {case}: dir {dir:?} moved {old} -> {new}, not onto the joiner {joiner}"
                );
                moved += 1;
            } else {
                assert_ne!(
                    new, joiner,
                    "case {case}: oracle assigns {dir:?} to the joiner but it did not move"
                );
            }
        }
        // The moved set is the oracle's ownership set of the joiner.
        let oracle: usize = dirs
            .iter()
            .filter(|&&d| mantle::mds::rendezvous_owner(d, &after) == joiner)
            .count();
        assert_eq!(
            moved, oracle,
            "case {case}: moved set != full-recompute oracle"
        );
    }
}

/// The leave direction: removing a member re-homes exactly that member's
/// dirs; every dir owned by a survivor keeps its owner.
#[test]
fn rendezvous_leave_moves_only_the_departed_members_dirs() {
    let mut rng = cases_rng("rendezvous-leave");
    for case in 0..200 {
        let before = random_members(&mut rng, 16, 2);
        let leaver = before[rng.below(before.len() as u64) as usize];
        let after: Vec<usize> = before.iter().copied().filter(|&m| m != leaver).collect();

        for _ in 0..rng.range_inclusive(1, 300) {
            let dir = NodeId(rng.below(1 << 30) as u32);
            let old = mantle::mds::rendezvous_owner(dir, &before);
            let new = mantle::mds::rendezvous_owner(dir, &after);
            if old == leaver {
                assert!(after.contains(&new), "case {case}: orphaned dir {dir:?}");
            } else {
                assert_eq!(old, new, "case {case}: survivor-owned dir {dir:?} moved");
            }
        }
    }
}

/// End to end, across seeds: an elastic diurnal run completes every
/// client's budget (drain-on-leave loses nothing), drops no requests,
/// and its trace satisfies every membership invariant — including
/// zero dirfrag authority on a drained MDS and no service while
/// departed.
#[test]
fn elastic_runs_conserve_ops_across_seeds() {
    use mantle::core::elastic::{diurnal_experiment, POOL};
    use mantle::core::repro::ReproOpts;
    use mantle::core::run_experiment_traced;
    use mantle::mds::{assert_invariants, ElasticConfig, TraceLevel};

    for seed in [3, 42, 1337] {
        let spec = diurnal_experiment(ReproOpts::QUICK, POOL, ElasticConfig::on(), seed);
        let expected: u64 = match spec.workload {
            mantle::core::WorkloadSpec::Diurnal {
                clients,
                days,
                ops_per_day,
                ..
            } => clients as u64 * days * ops_per_day,
            _ => unreachable!("diurnal spec"),
        };
        let (report, trace) = run_experiment_traced(&spec, TraceLevel::Full);
        assert_invariants(trace.records());
        assert_eq!(
            report.client_ops(),
            expected,
            "seed {seed}: client budget not conserved"
        );
        let dropped: u64 = report.mds.iter().map(|m| m.dropped).sum();
        assert_eq!(dropped, 0, "seed {seed}: requests dropped");
        assert!(
            report.joins >= 1 && report.leaves >= 1,
            "seed {seed}: vacuous run — never scaled ({} joins, {} leaves)",
            report.joins,
            report.leaves
        );
        assert_eq!(report.membership_epoch, report.joins + report.leaves);
    }
}
