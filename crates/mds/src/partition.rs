//! Partitioning the namespace: turning a [`MigrationPlan`]'s per-MDS load
//! targets into concrete subtree/dirfrag exports.
//!
//! The traversal follows §3.2: start at this MDS's subtree roots and work
//! downward — "subtrees are divided and migrated only if their ancestors
//! are too popular to migrate" — running every configured dirfrag selector
//! at each level and keeping the one that lands closest to the remaining
//! target.
//!
//! # One walk per subtree per call, and none for subtrees nobody touched
//!
//! Working downward asks for the same loads again and again: a subtree is
//! sized whole to learn it is too big to ship, then each of its children is
//! sized one level down, then theirs; and every further destination of the
//! plan starts over from the roots. Sizing is a walk over every directory of
//! the subtree (`subtree_load`, the tests' oracle), so done naively one
//! call of [`plan_exports`] walks a large subtree once per level per
//! destination.
//!
//! Instead, the walk that sizes a subtree also records the load of **every
//! subtree inside it** (`SubtreeLoads`), and the planner consults that
//! record before walking. A directory is therefore visited at most once per
//! call, with one exception: a bound root of `me` nested inside another of
//! its regions is both an export root (its children get sized) and a child
//! of its parent directory (its total gets sized). If the queue pops it as a
//! root *before* its parent — equal rolled-up heat — the children were sized
//! one by one, and the total, which is a sum over every fragment below in
//! walk order and not a sum of those subtotals, takes one more walk.
//!
//! The recorded loads are not approximately but **bit-for-bit** what the
//! tests' oracle `subtree_load` returns for the same directory, which is
//! what keeps every export, every selector decision and every report
//! unchanged:
//!
//! * `subtree_load` of `c` pops directories off a stack, children pushed
//!   in order, and adds each owned fragment's `metaload` to one `f64`
//!   starting at 0. A walk that *passes through* `c` pops exactly the same
//!   directories in exactly the same order between the moment it pops `c`
//!   and the moment it pops something at `c`'s depth or above — the stack
//!   discipline is the same and so is the rule for stopping at nested
//!   bounds. It keeps one running sum per directory on the current path,
//!   each started at 0 when its directory is popped and fed every fragment
//!   load from then on: the same numbers added in the same order, so the
//!   same floating-point result.
//! * Fragment heat decays lazily, but every sample in a call is taken at
//!   the same `now`: the first visit decays, any later one would have been
//!   a no-op, so skipping the later ones leaves every counter as it was.
//! * `metaload` is evaluated on fewer samples, never on different ones. It
//!   is a function of the heat sample (the cluster already evaluates it on
//!   per-MDS aggregates instead of per fragment when it is additive), so
//!   how often it runs is not observable.
//!
//! A child the bounded walk steps over — it is a bound root itself, owned
//! by `me` — has no recorded load and is sized by a walk of its own when
//! the planner asks. `plan_exports_matches_the_reference_planner` holds the
//! whole arrangement against a planner that calls the tests' oracle,
//! `subtree_load`, for every load it needs.
//!
//! ## Never-charged subtrees
//!
//! Most directories of a large namespace have never had an op recorded on
//! them or below them, and the namespace knows which: one
//! [`Namespace::is_warm`] bit per directory. When the hook is additive
//! ([`Balancer::metaload_is_additive`]) the walk does not push a cold
//! child, a cold subtree's load is answered `0.0` unasked, and the
//! candidate loop tests the bit before it reads the child's `Dir`. This
//! is exact, for these reasons and no weaker ones:
//!
//! * every counter under a never-charged directory is exactly `0`, at any
//!   sampling instant;
//! * an additive hook — linear, no constant term — maps the zero sample
//!   to `+0.0` or `-0.0`;
//! * `x + ±0.0 == x` bit for bit for every running sum, which start at
//!   `+0.0` and can never become `-0.0`: the visits left out added
//!   nothing;
//! * a subtree of load `±0.0` falls out of the candidate loop at
//!   `load <= 0.0` whoever owns it;
//! * the lazy decay the visit would have applied to a zero counter leaves
//!   zero, so no later sample can tell it was skipped.
//!
//! A hook with a constant term gives a cold subtree the load
//! `fragments × constant`, so a non-additive hook keeps the full walk. And
//! the rule must never be widened from "never charged" to "small": a
//! skipped sample of a *non-zero* counter moves the instant it is next
//! decayed from, which changes later rounding.
//! `never_charged_subtrees_are_skipped_exactly_when_metaload_is_additive`
//! holds both halves against the reference planner over two ticks.

use std::collections::{HashMap, HashSet};

use mantle_namespace::{FragId, MdsId, Namespace, NodeId};
use mantle_policy::PolicyResult;
use mantle_sim::SimTime;

use crate::balancer::{Balancer, MigrationPlan};
use crate::selector::select_best_of;

/// One unit of metadata chosen for export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExportUnit {
    /// A whole subtree rooted at a directory.
    Subtree(NodeId),
    /// One fragment of a directory.
    Frag(NodeId, FragId),
}

/// A planned export: what goes where, and how much load it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Export {
    /// The unit to move.
    pub unit: ExportUnit,
    /// Destination MDS.
    pub to: MdsId,
    /// The unit's metadata load at planning time.
    pub load: f64,
}

/// Internal: a candidate unit with its load.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    unit: ExportUnit,
    load: f64,
}

/// Fraction of the target below which we stop drilling (close enough).
const TARGET_EPSILON: f64 = 0.05;

/// The running sum of one directory on the path from a walk's root to the
/// directory it is visiting.
struct OpenDir {
    depth: u32,
    /// Where the finished sum goes in [`SubtreeLoads::loads`].
    slot: usize,
    total: f64,
}

/// Subtree loads already known in one [`plan_exports`] call — each
/// bit-equal to what the tests' `subtree_load` returns for that directory,
/// `me` and `now` (see the module docs) — plus the buffers the walks
/// reuse.
struct SubtreeLoads {
    me: MdsId,
    now: SimTime,
    /// The hook is additive, so a directory nobody ever charged — and its
    /// whole subtree — loads exactly zero and is never visited.
    skip_cold: bool,
    /// `loads[blocks[d] + i]` is the load of `d`'s `i`-th child: one hash
    /// lookup per directory whose children are asked about, one slot write
    /// per directory visited.
    blocks: HashMap<NodeId, usize>,
    /// `None`: not sized (yet) — the bounded walk stepped over it, or no
    /// walk has been near it.
    loads: Vec<Option<f64>>,
    /// Directories still to visit, each with the slot its load goes to.
    stack: Vec<(NodeId, usize)>,
    path: Vec<OpenDir>,
}

impl SubtreeLoads {
    fn new(me: MdsId, now: SimTime, skip_cold: bool) -> Self {
        SubtreeLoads {
            me,
            now,
            skip_cold,
            blocks: HashMap::new(),
            loads: Vec::new(),
            stack: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Where the loads of `dir`'s children are (to be) recorded.
    fn block_of(&mut self, ns: &Namespace, dir: NodeId) -> usize {
        let SubtreeLoads { blocks, loads, .. } = self;
        let children = ns.dir(dir).children.len();
        if children == 0 {
            // An empty block is anywhere; leaves — most directories — stay
            // out of the map.
            return loads.len();
        }
        *blocks.entry(dir).or_insert_with(|| {
            let block = loads.len();
            loads.resize(block + children, None);
            block
        })
    }

    /// Is `dir`'s subtree known to load exactly zero without a visit?
    fn is_cold(&self, ns: &Namespace, dir: NodeId) -> bool {
        self.skip_cold && !ns.is_warm(dir)
    }

    /// The load of the subtree at `dir`, whose slot is `slot`: looked up,
    /// or walked now.
    fn load<B: Balancer + ?Sized>(
        &mut self,
        ns: &mut Namespace,
        balancer: &B,
        dir: NodeId,
        slot: usize,
    ) -> PolicyResult<f64> {
        match self.loads[slot] {
            Some(load) => Ok(load),
            None if self.is_cold(ns, dir) => Ok(0.0),
            None => self.walk(ns, balancer, dir, slot),
        }
    }

    /// The tests' `subtree_load` of `root`, recording along the way the
    /// load of every subtree inside it. Visits what
    /// `Namespace::subtree_dirs(root, true)` lists, in that order, without
    /// building the list.
    fn walk<B: Balancer + ?Sized>(
        &mut self,
        ns: &mut Namespace,
        balancer: &B,
        root: NodeId,
        slot: usize,
    ) -> PolicyResult<f64> {
        debug_assert!(self.stack.is_empty() && self.path.is_empty());
        self.stack.push((root, slot));
        while let Some((cur, slot)) = self.stack.pop() {
            let depth = ns.dir(cur).depth;
            // Popping a directory at this depth means every subtree at this
            // depth or below that was open is complete.
            self.close_below(depth);
            if cur != root && ns.dir(cur).auth.is_some() {
                continue;
            }
            self.path.push(OpenDir {
                depth,
                slot,
                total: 0.0,
            });
            for f in 0..ns.dir(cur).frags.len() {
                if ns.frag_auth(cur, f) == self.me {
                    let heat = ns.frag_heat(cur, f, self.now);
                    let load = balancer.metaload(&heat)?;
                    for open in &mut self.path {
                        open.total += load;
                    }
                }
            }
            // (The root may already have a block — see the module docs'
            // exception. The loads in it are then overwritten with the
            // bit-equal ones this walk computes.)
            let block = self.block_of(ns, cur);
            let children = ns.dir(cur).children.iter().enumerate();
            let warm = children.filter(|&(_, &c)| !self.skip_cold || ns.is_warm(c));
            self.stack.extend(warm.map(|(i, &c)| (c, block + i)));
        }
        self.close_below(ns.dir(root).depth);
        Ok(self.loads[slot].expect("closing the root recorded its load"))
    }

    /// Record and drop the running sums of directories at `depth` or deeper.
    fn close_below(&mut self, depth: u32) {
        while let Some(open) = self.path.pop_if(|open| open.depth >= depth) {
            self.loads[open.slot] = Some(open.total);
        }
    }
}

/// Plan concrete exports for `plan` on behalf of MDS `me`.
///
/// Reads (and lazily decays) fragment heat via the balancer's `metaload`
/// hook; does **not** mutate authority — the cluster applies the returned
/// exports so it can charge migration costs. The exports are disjoint:
/// none lies in the subtree of another, across destinations too.
pub fn plan_exports<B: Balancer + ?Sized>(
    ns: &mut Namespace,
    me: MdsId,
    balancer: &B,
    plan: &MigrationPlan,
    now: SimTime,
) -> PolicyResult<Vec<Export>> {
    let mut exports = Vec::new();
    // Process destinations largest target first, so big importers get the
    // big subtrees.
    let mut order: Vec<usize> = (0..plan.targets.len()).collect();
    order.sort_by(|&a, &b| {
        plan.targets[b]
            .partial_cmp(&plan.targets[a])
            .expect("targets are never NaN")
    });

    // Units already claimed, by this destination or an earlier one. One
    // rule keeps a plan's units disjoint: nothing at or under a claimed
    // subtree is looked at again, and a subtree holding a claimed unit
    // (a fragment of its root, or anything below) is not offered whole —
    // only what else lies inside it is.
    let mut claimed_subtrees: HashSet<NodeId> = HashSet::new();
    let mut claimed_frags: HashSet<(NodeId, FragId)> = HashSet::new();
    // Every directory at or above a claimed unit.
    let mut holds_claim: HashSet<NodeId> = HashSet::new();
    let mut known = SubtreeLoads::new(me, now, balancer.metaload_is_additive());

    for dest in order {
        let target = plan.targets[dest];
        if dest == me || target <= 0.0 {
            continue;
        }
        let mut remaining = target;
        // My export roots: dirs explicitly bound to me, plus dirs where I
        // own individual fragments (an MDS that only ever *imported*
        // dirfrags — the downstream nodes of a spill cascade — has no
        // bound subtree but must still be able to shed its fragments).
        // The namespace's ownership index yields these directly instead of
        // a full-namespace scan.
        let mut queue: Vec<NodeId> = ns.export_candidate_dirs(me);
        sort_by_load(ns, balancer, &mut queue, now)?;

        while remaining > target * TARGET_EPSILON {
            let Some(dir) = queue.pop() else { break };
            if ancestors(ns, dir).any(|d| claimed_subtrees.contains(&d)) {
                continue;
            }
            let mut cands: Vec<Candidate> = Vec::new();
            let mut drill: Vec<NodeId> = Vec::new();
            // Child subtrees still bound to me.
            let block = known.block_of(ns, dir);
            for i in 0..ns.dir(dir).children.len() {
                let c = ns.dir(dir).children[i];
                // (A cold child would fall out at `load <= 0.0`, whoever
                // owns it; tested first, its `Dir` is never read.)
                if !known.is_cold(ns, c)
                    && ns.resolve_auth(c) == me
                    && ns.dir(c).auth.is_none_or(|a| a == me)
                {
                    let load = known.load(ns, balancer, c, block + i)?;
                    if load <= 0.0 {
                        continue;
                    }
                    // A subtree holding a claimed unit is not offered
                    // whole, but the rest of it still can be: look inside.
                    // A subtree that dwarfs the remaining target is too
                    // popular to migrate whole — divide it instead
                    // (§3.2: "subtrees are divided and migrated only if
                    // their ancestors are too popular to migrate").
                    let divisible = !ns.dir(c).children.is_empty() || ns.dir(c).frags.len() > 1;
                    if holds_claim.contains(&c) || (divisible && load > remaining * 1.25) {
                        drill.push(c);
                        continue;
                    }
                    cands.push(Candidate {
                        unit: ExportUnit::Subtree(c),
                        load,
                    });
                }
            }
            // My fragments of this directory.
            for f in 0..ns.dir(dir).frags.len() {
                if ns.frag_auth(dir, f) == me && !claimed_frags.contains(&(dir, f)) {
                    let heat = ns.frag_heat(dir, f, now);
                    let load = balancer.metaload(&heat)?;
                    if load > 0.0 {
                        cands.push(Candidate {
                            unit: ExportUnit::Frag(dir, f),
                            load,
                        });
                    }
                }
            }
            if cands.is_empty() {
                sort_by_load(ns, balancer, &mut drill, now)?;
                queue.extend(drill);
                continue;
            }
            let loads: Vec<f64> = cands.iter().map(|c| c.load).collect();
            let (_, chosen, shipped) = select_best_of(&plan.selectors, &loads, remaining)?;
            for &i in &chosen {
                let c = cands[i];
                let at = match c.unit {
                    ExportUnit::Subtree(d) => {
                        claimed_subtrees.insert(d);
                        d
                    }
                    ExportUnit::Frag(d, f) => {
                        claimed_frags.insert((d, f));
                        d
                    }
                };
                // (An ancestor already marked has all of its own marked.)
                for d in ancestors(ns, at) {
                    if !holds_claim.insert(d) {
                        break;
                    }
                }
                exports.push(Export {
                    unit: c.unit,
                    to: dest,
                    load: c.load,
                });
            }
            remaining -= shipped;
            // Drill down: oversized and unchosen child subtrees become the
            // next level.
            let mut next: Vec<NodeId> = drill;
            next.extend(
                cands
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| {
                        !chosen.contains(i) && matches!(c.unit, ExportUnit::Subtree(_))
                    })
                    .map(|(_, c)| match c.unit {
                        ExportUnit::Subtree(d) => d,
                        ExportUnit::Frag(..) => unreachable!(),
                    }),
            );
            sort_by_load(ns, balancer, &mut next, now)?;
            queue.extend(next);
        }
    }
    Ok(exports)
}

/// `dir`, then its parent, and so on up to the root.
fn ancestors(ns: &Namespace, dir: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(Some(dir), |&d| ns.dir(d).parent)
}

fn sort_by_load<B: Balancer + ?Sized>(
    ns: &mut Namespace,
    balancer: &B,
    dirs: &mut [NodeId],
    now: SimTime,
) -> PolicyResult<()> {
    let mut keyed: Vec<(NodeId, f64)> = Vec::with_capacity(dirs.len());
    for &d in dirs.iter() {
        let heat = ns.subtree_heat(d, now);
        keyed.push((d, balancer.metaload(&heat)?));
    }
    keyed.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("loads are never NaN"));
    for (slot, (d, _)) in dirs.iter_mut().zip(keyed) {
        *slot = d;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{BalanceContext, CephfsBalancer};
    use crate::selector::DirfragSelector;
    use crate::world::tests::is_under;
    use mantle_namespace::{HeatSample, NsConfig, OpKind};
    use mantle_sim::SimRng;

    /// Metadata load of the subtree rooted at `dir`, counting only
    /// fragments bound to `me` (nested bounds belong to other MDSs).
    ///
    /// The plain, stand-alone walk: [`plan_exports`] gets the same numbers
    /// from fewer walks (see the module docs), and these tests hold it
    /// against a planner built on this function.
    fn subtree_load<B: Balancer + ?Sized>(
        ns: &mut Namespace,
        balancer: &B,
        dir: NodeId,
        me: MdsId,
        now: SimTime,
    ) -> PolicyResult<f64> {
        let mut total = 0.0;
        for d in ns.subtree_dirs(dir, true) {
            for f in 0..ns.dir(d).frags.len() {
                if ns.frag_auth(d, f) == me {
                    let heat = ns.frag_heat(d, f, now);
                    total += balancer.metaload(&heat)?;
                }
            }
        }
        Ok(total)
    }

    fn heat_up(ns: &mut Namespace, dir: NodeId, creates: usize) {
        for _ in 0..creates {
            ns.record_op(dir, OpKind::Create, SimTime::ZERO);
        }
    }

    fn plan(targets: Vec<f64>, selectors: Vec<DirfragSelector>) -> MigrationPlan {
        MigrationPlan {
            targets,
            selectors: selectors.into_iter().map(Into::into).collect(),
        }
    }

    #[test]
    fn exports_biggest_client_dirs_first() {
        let mut ns = Namespace::default();
        let d1 = ns.mkdir_p("/client0");
        let d2 = ns.mkdir_p("/client1");
        let d3 = ns.mkdir_p("/client2");
        heat_up(&mut ns, d1, 100);
        heat_up(&mut ns, d2, 60);
        heat_up(&mut ns, d3, 10);
        let b = CephfsBalancer;
        let root = ns.root();
        let total = subtree_load(&mut ns, &b, root, 0, SimTime::ZERO).unwrap();
        let p = plan(vec![0.0, total / 2.0], vec![DirfragSelector::BigFirst]);
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        assert!(!exports.is_empty());
        // The hottest dir goes first.
        assert_eq!(exports[0].unit, ExportUnit::Subtree(d1));
        assert!(exports.iter().all(|e| e.to == 1));
        let shipped: f64 = exports.iter().map(|e| e.load).sum();
        assert!(shipped >= total / 2.0 * 0.5, "made real progress");
    }

    #[test]
    fn half_selector_drills_into_shared_dir() {
        // One hot fragmented directory: the `half` selector can't take
        // "half of one subtree", so the planner drills into the dir and
        // ships half its fragments (the Greedy Spill shape of §4.1).
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 16,
            ..Default::default()
        });
        let d = ns.mkdir_p("/shared");
        heat_up(&mut ns, d, 100); // splits into 8 frags
        assert_eq!(ns.dir(d).frags.len(), 8);
        let b = CephfsBalancer;
        let total = subtree_load(&mut ns, &b, d, 0, SimTime::ZERO).unwrap();
        let p = plan(vec![0.0, total / 2.0], vec![DirfragSelector::Half]);
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        let frag_exports: Vec<_> = exports
            .iter()
            .filter(|e| matches!(e.unit, ExportUnit::Frag(..)))
            .collect();
        assert_eq!(frag_exports.len(), 4, "half of 8 fragments move");
    }

    #[test]
    fn nothing_to_export_when_targets_zero() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/x");
        heat_up(&mut ns, d, 10);
        let b = CephfsBalancer;
        let p = plan(vec![0.0, 0.0], vec![DirfragSelector::BigFirst]);
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        assert!(exports.is_empty());
    }

    #[test]
    fn cold_namespace_exports_nothing() {
        let mut ns = Namespace::default();
        ns.mkdir_p("/idle");
        let b = CephfsBalancer;
        let p = plan(vec![0.0, 100.0], vec![DirfragSelector::BigFirst]);
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        assert!(exports.is_empty(), "no load → nothing moves");
    }

    #[test]
    fn two_destinations_get_disjoint_units() {
        let mut ns = Namespace::default();
        let dirs: Vec<NodeId> = (0..6).map(|i| ns.mkdir_p(&format!("/c{i}"))).collect();
        for (i, d) in dirs.iter().enumerate() {
            heat_up(&mut ns, *d, 20 + i * 10);
        }
        let b = CephfsBalancer;
        let root = ns.root();
        let total = subtree_load(&mut ns, &b, root, 0, SimTime::ZERO).unwrap();
        let p = plan(
            vec![0.0, total / 3.0, total / 3.0],
            vec![DirfragSelector::BigFirst],
        );
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in &exports {
            let key = format!("{:?}", e.unit);
            assert!(seen.insert(key), "unit exported twice: {:?}", e.unit);
        }
        assert!(exports.iter().any(|e| e.to == 1));
        assert!(exports.iter().any(|e| e.to == 2));
    }

    #[test]
    fn a_claim_inside_a_child_leaves_the_rest_of_it_to_the_next_destination() {
        // `/a` is too hot to ship whole to either destination, so the
        // first takes one of its children; the second must still reach
        // the other one by looking inside `/a`.
        let mut ns = Namespace::default();
        let x = ns.mkdir_p("/a/x");
        let y = ns.mkdir_p("/a/y");
        heat_up(&mut ns, x, 40);
        heat_up(&mut ns, y, 40);
        let b = CephfsBalancer;
        let each = subtree_load(&mut ns, &b, x, 0, SimTime::ZERO).unwrap();
        let p = plan(vec![0.0, each, each], vec![DirfragSelector::BigFirst]);
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        let mut got: Vec<(MdsId, ExportUnit)> = exports.iter().map(|e| (e.to, e.unit)).collect();
        got.sort_by_key(|&(to, _)| to);
        let units: Vec<ExportUnit> = got.iter().map(|&(_, u)| u).collect();
        assert_eq!(got.iter().map(|&(to, _)| to).collect::<Vec<_>>(), [1, 2]);
        assert!(units.contains(&ExportUnit::Subtree(x)) && units.contains(&ExportUnit::Subtree(y)));
    }

    #[test]
    fn nested_bounds_are_not_exported() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        heat_up(&mut ns, a, 50);
        heat_up(&mut ns, ab, 50);
        ns.set_auth(ab, Some(2)); // /a/b already belongs to MDS 2
        let b = CephfsBalancer;
        let p = plan(vec![0.0, 1_000.0], vec![DirfragSelector::BigFirst]);
        let exports = plan_exports(&mut ns, 0, &b, &p, SimTime::ZERO).unwrap();
        assert!(
            exports.iter().all(|e| e.unit != ExportUnit::Subtree(ab)),
            "someone else's subtree must not move"
        );
    }

    #[test]
    fn subtree_load_respects_bounds() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        heat_up(&mut ns, a, 10);
        heat_up(&mut ns, ab, 90);
        let b = CephfsBalancer;
        let full = subtree_load(&mut ns, &b, a, 0, SimTime::ZERO).unwrap();
        ns.set_auth(ab, Some(1));
        let bounded = subtree_load(&mut ns, &b, a, 0, SimTime::ZERO).unwrap();
        assert!(bounded < full, "bounded {bounded} < full {full}");
    }
    // ---- the planner against its reference ----

    /// `plan_exports` as it was before it kept any record of the loads it
    /// had computed: every load it needs is a stand-alone [`subtree_load`]
    /// walk, every "already claimed?" a scan of the claimed units.
    fn reference_plan_exports<B: Balancer + ?Sized>(
        ns: &mut Namespace,
        me: MdsId,
        balancer: &B,
        plan: &MigrationPlan,
        now: SimTime,
    ) -> PolicyResult<Vec<Export>> {
        let mut exports = Vec::new();
        let mut order: Vec<usize> = (0..plan.targets.len()).collect();
        order.sort_by(|&a, &b| plan.targets[b].partial_cmp(&plan.targets[a]).unwrap());
        let mut claimed_subtrees: Vec<NodeId> = Vec::new();
        let mut claimed_frags: Vec<(NodeId, FragId)> = Vec::new();
        for dest in order {
            let target = plan.targets[dest];
            if dest == me || target <= 0.0 {
                continue;
            }
            let mut remaining = target;
            let mut queue: Vec<NodeId> = ns.export_candidate_dirs(me);
            sort_by_load(ns, balancer, &mut queue, now)?;
            while remaining > target * TARGET_EPSILON {
                let Some(dir) = queue.pop() else { break };
                if claimed_subtrees.iter().any(|&s| is_under(ns, dir, s)) {
                    continue;
                }
                let mut cands: Vec<Candidate> = Vec::new();
                let mut drill: Vec<NodeId> = Vec::new();
                let children: Vec<NodeId> = ns.dir(dir).children.clone();
                for c in &children {
                    let holds_claim = claimed_subtrees.iter().any(|&s| is_under(ns, s, *c))
                        || claimed_frags.iter().any(|&(d, _)| is_under(ns, d, *c));
                    if ns.resolve_auth(*c) == me && ns.dir(*c).auth.is_none_or(|a| a == me) {
                        let load = subtree_load(ns, balancer, *c, me, now)?;
                        if load <= 0.0 {
                            continue;
                        }
                        let divisible =
                            !ns.dir(*c).children.is_empty() || ns.dir(*c).frags.len() > 1;
                        if holds_claim || (divisible && load > remaining * 1.25) {
                            drill.push(*c);
                            continue;
                        }
                        let unit = ExportUnit::Subtree(*c);
                        cands.push(Candidate { unit, load });
                    }
                }
                for f in 0..ns.dir(dir).frags.len() {
                    if ns.frag_auth(dir, f) == me && !claimed_frags.contains(&(dir, f)) {
                        let heat = ns.frag_heat(dir, f, now);
                        let load = balancer.metaload(&heat)?;
                        if load > 0.0 {
                            let unit = ExportUnit::Frag(dir, f);
                            cands.push(Candidate { unit, load });
                        }
                    }
                }
                if cands.is_empty() {
                    sort_by_load(ns, balancer, &mut drill, now)?;
                    queue.extend(drill);
                    continue;
                }
                let loads: Vec<f64> = cands.iter().map(|c| c.load).collect();
                let (_, chosen, shipped) = select_best_of(&plan.selectors, &loads, remaining)?;
                for &i in &chosen {
                    let c = cands[i];
                    match c.unit {
                        ExportUnit::Subtree(d) => claimed_subtrees.push(d),
                        ExportUnit::Frag(d, f) => claimed_frags.push((d, f)),
                    }
                    exports.push(Export {
                        unit: c.unit,
                        to: dest,
                        load: c.load,
                    });
                }
                remaining -= shipped;
                let mut next: Vec<NodeId> = drill;
                for (i, c) in cands.iter().enumerate() {
                    if let (false, ExportUnit::Subtree(d)) = (chosen.contains(&i), c.unit) {
                        next.push(d);
                    }
                }
                sort_by_load(ns, balancer, &mut next, now)?;
                queue.extend(next);
            }
        }
        Ok(exports)
    }

    /// A `metaload` that is neither linear nor cheap to reassociate, and
    /// that counts how often it is asked.
    #[derive(Default)]
    struct CountingBalancer {
        calls: std::cell::Cell<u64>,
    }

    impl Balancer for CountingBalancer {
        fn name(&self) -> &str {
            "counting"
        }
        fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64> {
            self.calls.set(self.calls.get() + 1);
            Ok(heat.cephfs_metaload() + 0.3 * heat.iwr.sqrt() + heat.ird / 7.0)
        }
        fn decide(&mut self, _: &BalanceContext) -> PolicyResult<Option<MigrationPlan>> {
            Ok(None)
        }
    }

    /// A namespace of three to four levels with everything the planner has
    /// a rule for: fragmented dirs, cold subtrees, bounds nested inside
    /// `me`'s region owned by others and by `me` itself, fragment overrides
    /// towards and away from `me`.
    fn random_namespace(rng: &mut SimRng, me: MdsId) -> Namespace {
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 6 + rng.below(20),
            ..Default::default()
        });
        let mut levels: Vec<Vec<NodeId>> = vec![vec![ns.root()]];
        for depth in 1..=3 + rng.below(2) {
            let mut level = Vec::new();
            for &parent in &levels[depth as usize - 1] {
                let fanout = match depth {
                    1 => 2 + rng.below(3),
                    _ => rng.below(5),
                };
                for i in 0..fanout {
                    level.push(ns.mkdir(parent, format!("d{i}")));
                }
            }
            levels.push(level);
        }
        let dirs: Vec<NodeId> = levels.concat();
        let pick = |rng: &mut SimRng, from: &[NodeId]| from[rng.below(from.len() as u64) as usize];
        // Heat: whole level-1 subtrees stay cold now and then; the rest get
        // ops spread over five seconds.
        let cold = pick(rng, &levels[1]);
        for &d in &dirs {
            if is_under(&ns, d, cold) && rng.below(3) > 0 {
                continue;
            }
            for _ in 0..rng.below(4) * rng.below(30) {
                let op = [
                    OpKind::Create,
                    OpKind::Create,
                    OpKind::Stat,
                    OpKind::Readdir,
                ][rng.below(4) as usize];
                ns.record_op(d, op, SimTime::from_millis(rng.below(5_000)));
            }
        }
        // Authority. `me` always owns something: the root, or a level-1 dir.
        if me != 0 {
            ns.set_auth(pick(rng, &levels[1]), Some(me));
        }
        for _ in 0..rng.below(5) {
            // Nested bounds: someone else's, or (one in three) my own.
            let owner = [me, 2, 3][rng.below(3) as usize];
            ns.set_auth(pick(rng, &dirs[1..]), Some(owner));
        }
        for _ in 0..rng.below(6) {
            let d = pick(rng, &dirs);
            let f = rng.below(ns.dir(d).frags.len() as u64) as usize;
            let to = if ns.frag_auth(d, f) == me { 2 } else { me };
            ns.set_frag_auth(d, f, Some(to));
        }
        ns
    }

    /// A plan for `me` over `ns` with one to three destinations, which
    /// together ask for anything from a sliver to more than `me` owns.
    fn random_plan<B: Balancer + ?Sized>(
        rng: &mut SimRng,
        ns: &Namespace,
        me: MdsId,
        balancer: &B,
        now: SimTime,
    ) -> MigrationPlan {
        let owned = {
            let mut probe = ns.clone();
            let mut total = 0.0;
            for d in probe.export_candidate_dirs(me) {
                total += subtree_load(&mut probe, balancer, d, me, now).unwrap();
            }
            total
        };
        let mut targets = vec![0.0; 4];
        for _ in 0..1 + rng.below(3) {
            let dest = rng.below(4) as usize;
            targets[dest] = owned * [0.02, 0.1, 0.25, 0.5, 1.5][rng.below(5) as usize];
        }
        let selectors = [
            vec![DirfragSelector::BigFirst],
            vec![DirfragSelector::Half],
            vec![DirfragSelector::SmallFirst, DirfragSelector::BigSmall],
            vec![
                DirfragSelector::BigFirst,
                DirfragSelector::Half,
                DirfragSelector::SmallFirst,
            ],
        ][rng.below(4) as usize]
            .clone();
        plan(targets, selectors)
    }

    #[test]
    fn plan_exports_matches_the_reference_planner() {
        let mut rng = SimRng::new(0x9a27_1710);
        let now = SimTime::from_secs(6);
        let (mut exported, mut multi_dest, mut frag_units) = (0, 0, 0);
        let (mut calls, mut reference_calls) = (0, 0);
        for case in 0..300 {
            let me = rng.below(2) as MdsId;
            let ns = random_namespace(&mut rng, me);
            let balancer = CountingBalancer::default();
            let plan = random_plan(&mut rng, &ns, me, &balancer, now);

            let (mut ours, mut theirs) = (ns.clone(), ns);
            balancer.calls.set(0);
            let got = plan_exports(&mut ours, me, &balancer, &plan, now).unwrap();
            let ours_calls = balancer.calls.replace(0);
            let want = reference_plan_exports(&mut theirs, me, &balancer, &plan, now).unwrap();
            assert!(ours_calls <= balancer.calls.get(), "case {case}");
            calls += ours_calls;
            reference_calls += balancer.calls.get();

            assert_eq!(got.len(), want.len(), "case {case}: {got:?} vs {want:?}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.unit, g.to), (w.unit, w.to), "case {case}");
                assert_eq!(g.load.to_bits(), w.load.to_bits(), "case {case}: {g:?}");
            }
            // Every decay counter was left exactly as the reference leaves
            // it (and nothing else in the namespace was touched at all).
            assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "case {case}");

            exported += got.len();
            frag_units += got
                .iter()
                .filter(|e| matches!(e.unit, ExportUnit::Frag(..)))
                .count();
            let dests: HashSet<MdsId> = got.iter().map(|e| e.to).collect();
            multi_dest += usize::from(dests.len() > 1);
        }
        // The cases did exercise the planner, and the record did save walks.
        assert!(exported > 600, "{exported} exports");
        assert!(frag_units > 50, "{frag_units} fragment exports");
        assert!(multi_dest > 40, "{multi_dest} multi-destination plans");
        // (Both counts include the calls the record cannot save: sorting
        // by rolled-up heat and sampling a directory's own fragments.)
        assert!(
            calls * 5 < reference_calls * 4,
            "{calls} metaload calls against the reference's {reference_calls}"
        );
    }

    /// Whether `unit` lies in the region `of` moves: at or under an
    /// exported subtree's root, or the same fragment.
    fn inside(ns: &Namespace, unit: ExportUnit, of: ExportUnit) -> bool {
        match (unit, of) {
            (ExportUnit::Subtree(d) | ExportUnit::Frag(d, _), ExportUnit::Subtree(root)) => {
                is_under(ns, d, root)
            }
            (_, ExportUnit::Frag(..)) => unit == of,
        }
    }

    /// What a plan ships, checked against the namespace it was planned on
    /// rather than against another planner: every unit is `me`'s, and no
    /// unit lies in another's region — across destinations too — so
    /// nothing is shipped twice.
    #[test]
    fn a_plan_ships_disjoint_units_that_me_owns() {
        let mut rng = SimRng::new(0xd15_0147);
        let now = SimTime::from_secs(6);
        let balancer = CountingBalancer::default();
        let (mut exported, mut multi_dest) = (0, 0);
        for case in 0..300 {
            let me = rng.below(2) as MdsId;
            let ns = random_namespace(&mut rng, me);
            let plan = random_plan(&mut rng, &ns, me, &balancer, now);
            let got = plan_exports(&mut ns.clone(), me, &balancer, &plan, now).unwrap();
            for (i, e) in got.iter().enumerate() {
                let owner = match e.unit {
                    ExportUnit::Subtree(d) => ns.resolve_auth(d),
                    ExportUnit::Frag(d, f) => ns.frag_auth(d, f),
                };
                assert_eq!(owner, me, "case {case}: {e:?}");
                for other in &got[..i] {
                    assert!(
                        !inside(&ns, e.unit, other.unit) && !inside(&ns, other.unit, e.unit),
                        "case {case}: {e:?} overlaps {other:?}"
                    );
                }
            }
            exported += got.len();
            let dests: HashSet<MdsId> = got.iter().map(|e| e.to).collect();
            multi_dest += usize::from(dests.len() > 1);
        }
        assert!(exported > 600, "{exported} exports");
        assert!(multi_dest > 40, "{multi_dest} multi-destination plans");
    }

    /// `CountingBalancer`'s opposite number for the cold-subtree rule: a
    /// `metaload` that is a linear form plus `constant`. With no constant
    /// it is additive and says so; with one, a directory nobody ever
    /// charged loads `frags × constant`, and it must not say so.
    struct AffineBalancer {
        constant: f64,
        calls: std::cell::Cell<u64>,
    }

    impl AffineBalancer {
        fn new(constant: f64) -> Self {
            let calls = std::cell::Cell::new(0);
            AffineBalancer { constant, calls }
        }
    }

    impl Balancer for AffineBalancer {
        fn name(&self) -> &str {
            "affine"
        }
        fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64> {
            self.calls.set(self.calls.get() + 1);
            Ok(heat.iwr * 2.0 - heat.ird + 0.25 * heat.readdir + heat.store + self.constant)
        }
        fn metaload_is_additive(&self) -> bool {
            self.constant == 0.0
        }
        fn decide(&mut self, _: &BalanceContext) -> PolicyResult<Option<MigrationPlan>> {
            Ok(None)
        }
    }

    /// A few hundred directories of which most are never charged: the
    /// ops land in a handful of level-1 subtrees, and inside the warm
    /// region hangs a bound root of `me` with a subtree nobody touched.
    /// Returns the namespace and a directory that is cold so far.
    fn sparse_namespace(rng: &mut SimRng, me: MdsId) -> (Namespace, NodeId) {
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 8 + rng.below(20),
            ..Default::default()
        });
        let pick = |rng: &mut SimRng, from: &[NodeId]| from[rng.below(from.len() as u64) as usize];
        let tops: Vec<NodeId> = (0..6 + rng.below(4))
            .map(|i| ns.mkdir(NodeId(0), format!("t{i}")))
            .collect();
        let mut under: Vec<Vec<NodeId>> = tops.iter().map(|&t| vec![t]).collect();
        for i in 0..250 + rng.below(150) {
            let sub = &mut under[rng.below(tops.len() as u64) as usize];
            let parent = pick(rng, sub);
            sub.push(ns.mkdir(parent, format!("d{i}")));
        }
        if me != 0 {
            ns.set_auth(tops[0], Some(me));
        }
        // Ops: a tenth of the directories of two of the subtrees.
        let mine = usize::from(me == 0);
        for sub in [&under[0], &under[mine]] {
            for _ in 0..sub.len() / 10 + 1 {
                let d = pick(rng, sub);
                for _ in 0..1 + rng.below(40) {
                    let op = [OpKind::Create, OpKind::Stat, OpKind::Readdir][rng.below(3) as usize];
                    ns.record_op(d, op, SimTime::from_millis(rng.below(5_000)));
                }
            }
        }
        // My own cold bound, three directories deep, under a warm one.
        let warm: Vec<NodeId> = under[0]
            .iter()
            .copied()
            .filter(|&d| ns.is_warm(d))
            .collect();
        let mut nested = ns.mkdir(pick(rng, &warm), "nested");
        ns.set_auth(nested, Some(me));
        for i in 0..3 {
            nested = ns.mkdir(nested, format!("n{i}"));
        }
        // Others' bounds and fragment overrides, warm or cold as they fall.
        for _ in 0..rng.below(4) {
            ns.set_auth(pick(rng, &under[0][1..]), Some(2));
        }
        for _ in 0..rng.below(4) {
            let d = pick(rng, &under[0]);
            let f = rng.below(ns.dir(d).frags.len() as u64) as usize;
            let to = if ns.frag_auth(d, f) == me { 3 } else { me };
            ns.set_frag_auth(d, f, Some(to));
        }
        let cold: Vec<NodeId> = under[0]
            .iter()
            .copied()
            .filter(|&d| !ns.is_warm(d))
            .collect();
        let turns_warm = pick(rng, &cold);
        (ns, turns_warm)
    }

    /// What later ticks can still see of the decay state: every counter's
    /// value at `at`, bit for bit. (When a never-charged counter was last
    /// looked at is not among it — zero decays to zero from anywhere.)
    fn heat_bits(ns: &Namespace, at: SimTime) -> Vec<u64> {
        let bits = |h: HeatSample| [h.ird, h.iwr, h.readdir, h.fetch, h.store].map(f64::to_bits);
        let half_life = ns.config().decay_half_life;
        let mut out = Vec::new();
        for d in ns.all_dirs() {
            out.extend(bits(ns.dir(d).subtree_heat.peek(at, half_life)));
            for f in &ns.dir(d).frags {
                out.extend(bits(f.heat.peek(at, half_life)));
            }
        }
        out
    }

    #[test]
    fn never_charged_subtrees_are_skipped_exactly_when_metaload_is_additive() {
        let mut rng = SimRng::new(0xc01d_5ab7);
        let (mut exported, mut warmed_exports) = (0, 0);
        let (mut calls, mut reference_calls) = (0, 0);
        for case in 0..60 {
            let me = rng.below(2) as MdsId;
            let (ns, turns_warm) = sparse_namespace(&mut rng, me);
            let half_life = ns.config().decay_half_life;
            let charged = ns.all_dirs().filter(|&d| {
                let frags = &ns.dir(d).frags;
                frags
                    .iter()
                    .any(|f| f.heat.peek(SimTime::ZERO, half_life) != HeatSample::default())
            });
            assert!(charged.count() * 5 < ns.dir_count(), "case {case}");
            // Additive two cases in three; else a constant term, under
            // which every cold fragment carries load and nothing may be
            // skipped.
            let balancer = AffineBalancer::new([0.0, 0.0, 0.5][case % 3]);
            let selectors = vec![DirfragSelector::BigFirst, DirfragSelector::Half];
            let (mut ours, mut theirs) = (ns.clone(), ns);
            // Two ticks; in between, ops reach a directory that was cold.
            for (tick, secs) in [(0, 6), (1, 16)] {
                let now = SimTime::from_secs(secs);
                let owned = {
                    let mut probe = theirs.clone();
                    let mut total = 0.0;
                    for d in probe.export_candidate_dirs(me) {
                        total += subtree_load(&mut probe, &balancer, d, me, now).unwrap();
                    }
                    total
                };
                let mut targets = vec![0.0; 4];
                targets[1 + rng.below(3) as usize] = owned * [0.1, 0.4, 1.5][rng.below(3) as usize];
                targets[me] = 0.0;
                let plan = plan(targets, selectors.clone());
                balancer.calls.set(0);
                let got = plan_exports(&mut ours, me, &balancer, &plan, now).unwrap();
                let ours_calls = balancer.calls.replace(0);
                let want = reference_plan_exports(&mut theirs, me, &balancer, &plan, now).unwrap();
                assert_eq!(got.len(), want.len(), "case {case} tick {tick}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.unit, g.to), (w.unit, w.to), "case {case} tick {tick}");
                    assert_eq!(
                        g.load.to_bits(),
                        w.load.to_bits(),
                        "case {case} tick {tick}"
                    );
                }
                let later = now + SimTime::from_millis(1_234);
                assert_eq!(
                    heat_bits(&ours, later),
                    heat_bits(&theirs, later),
                    "case {case}"
                );
                if balancer.metaload_is_additive() {
                    calls += ours_calls;
                    reference_calls += balancer.calls.get();
                } else {
                    // The full walk: the reference's decay state to the
                    // last timestamp.
                    assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "case {case}");
                }
                exported += got.len();
                let in_warmed = |e: &&Export| match e.unit {
                    ExportUnit::Subtree(d) | ExportUnit::Frag(d, _) => {
                        is_under(&ours, turns_warm, d)
                    }
                };
                warmed_exports += got.iter().filter(in_warmed).count() * tick;
                for ns in [&mut ours, &mut theirs] {
                    for i in 0..30 {
                        ns.record_op(turns_warm, OpKind::Create, now + SimTime::from_millis(i));
                    }
                }
            }
        }
        assert!(exported > 150, "{exported} exports");
        assert!(
            warmed_exports > 10,
            "{warmed_exports} exports of what was cold a tick ago"
        );
        assert!(
            calls * 3 < reference_calls,
            "{calls} metaload calls against the reference's {reference_calls}"
        );
    }

    #[test]
    fn a_walk_records_every_subtree_inside_it_bit_for_bit() {
        let mut rng = SimRng::new(0x5b7_0a15);
        let now = SimTime::from_secs(6);
        let balancer = CountingBalancer::default();
        for case in 0..100 {
            let me = rng.below(2) as MdsId;
            let mut ns = random_namespace(&mut rng, me);
            let root = ns.root();
            let mut known = SubtreeLoads::new(me, now, false);
            let block = known.block_of(&ns, root);
            assert_eq!(block, 0);
            let top = ns.dir(root).children[0];
            let total = known.load(&mut ns, &balancer, top, 0).unwrap();
            let visits = balancer.calls.replace(0);
            assert_eq!(
                total.to_bits(),
                subtree_load(&mut ns, &balancer, top, me, now)
                    .unwrap()
                    .to_bits()
            );
            balancer.calls.set(0);
            // Every directory the bounded walk reached has its load on
            // record; every one it stepped over, and everything below, has
            // none.
            for d in ns.subtree_dirs(top, false) {
                let Some(parent) = ns.dir(d).parent.filter(|_| d != top) else {
                    continue;
                };
                let i = ns.dir(parent).children.iter().position(|&c| c == d);
                let recorded = known
                    .blocks
                    .get(&parent)
                    .and_then(|block| known.loads[block + i.unwrap()]);
                let reached = ns.subtree_dirs(top, true).contains(&d);
                assert_eq!(recorded.is_some(), reached, "case {case}: {d:?}");
                if let Some(load) = recorded {
                    let alone = subtree_load(&mut ns, &balancer, d, me, now).unwrap();
                    assert_eq!(load.to_bits(), alone.to_bits(), "case {case}: {d:?}");
                }
            }
            // Asking again walks nothing.
            balancer.calls.set(0);
            assert_eq!(
                known.load(&mut ns, &balancer, top, 0).unwrap().to_bits(),
                total.to_bits()
            );
            assert_eq!(
                balancer.calls.get(),
                0,
                "case {case}: {visits} the first time"
            );
        }
    }
}
