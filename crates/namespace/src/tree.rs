//! The directory tree, dirfrags, and the subtree authority map.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use mantle_sim::SimTime;

use crate::heat::{FragHeat, HeatSample};
use crate::types::{MdsId, NodeId, OpKind};

/// Namespace configuration.
#[derive(Debug, Clone)]
pub struct NsConfig {
    /// A directory fragments once it holds this many entries (§4.1 uses
    /// 50 000; experiments scale it down together with file counts).
    pub frag_split_threshold: u64,
    /// Ways of the first split (2³ = 8 in the paper).
    pub initial_split_ways: usize,
    /// Ways of every further per-fragment split.
    pub resplit_ways: usize,
    /// Half life of the popularity counters (the exponential decay of
    /// Fig. 1).
    pub decay_half_life: SimTime,
    /// Ignored (see [`IndexMode`]).
    pub index_mode: IndexMode,
}

impl Default for NsConfig {
    fn default() -> Self {
        NsConfig {
            frag_split_threshold: 50_000,
            initial_split_ways: 8,
            resplit_ways: 2,
            decay_half_life: SimTime::from_secs(10),
            index_mode: IndexMode::Incremental,
        }
    }
}

/// Index of a fragment within its directory.
pub type FragId = usize;

/// A directory fragment: a slice of one directory's entries.
#[derive(Debug, Clone, Default)]
pub struct Frag {
    /// Number of file entries living in this fragment.
    pub files: u64,
    /// Decayed popularity counters.
    pub heat: FragHeat,
    /// Authority override for just this fragment (spilling a hot directory
    /// distributes its fragments across MDS nodes).
    pub auth: Option<MdsId>,
}

/// A directory inode.
#[derive(Debug, Clone)]
pub struct Dir {
    /// This directory's id.
    pub id: NodeId,
    /// Parent directory (`None` for the root).
    pub parent: Option<NodeId>,
    /// Name within the parent, interned; read it through
    /// [`Namespace::name`].
    name: u32,
    /// Depth (root = 0).
    pub depth: u32,
    /// Child directories.
    pub children: Vec<NodeId>,
    /// Fragments (≥ 1).
    pub frags: Vec<Frag>,
    /// Subtree authority override: when set, this directory and everything
    /// below it (up to deeper overrides) is served by this MDS.
    pub auth: Option<MdsId>,
    /// Rolled-up decayed heat of the whole subtree (every op on this dir or
    /// any descendant hits this) — the per-directory heat of Fig. 1.
    pub subtree_heat: FragHeat,
    /// Memoized authority resolution, kept fresh by every mutation.
    auth_cache: AuthCache,
    // The fragment summary: what per-op reads need of `frags`, kept so
    // that none of them scans it. An op's charge updates `files` and
    // `over`; a split or an authority change recomputes all three
    // (`Namespace::refresh_summary`).
    /// Entries over all fragments.
    files: u64,
    /// Distinct effective owners of the fragments.
    span: u32,
    /// Fragments holding more than `frag_split_threshold` entries.
    over: u32,
}

/// Interned path-component names: each distinct name is stored once and
/// directories hold its index (the root's empty name is index 0).
#[derive(Debug, Clone, Default)]
struct Names {
    ids: HashMap<Arc<str>, u32>,
    strs: Vec<Arc<str>>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.strs.len() as u32;
        let name: Arc<str> = name.into();
        self.strs.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }
}

/// What `resolve_auth` and `ancestor_auth_chain` answer for one dir.
#[derive(Debug, Clone)]
struct AuthCache {
    auth: MdsId,
    /// The ancestor authority chain, nearest first, deduplicated.
    chain: Vec<MdsId>,
}

/// Per-MDS decayed heat totals, maintained incrementally so heartbeat
/// snapshots need not walk every dirfrag.
#[derive(Debug, Clone, Default)]
struct LoadAggregates {
    /// Heat of all frags each MDS is the authority for.
    auth: Vec<FragHeat>,
    /// Heat of all frags each MDS replicates via an ancestor prefix
    /// (unscaled; readers apply the replica discount).
    replica: Vec<FragHeat>,
}

impl LoadAggregates {
    /// Grow both vectors so `mds` is a valid index.
    fn ensure(&mut self, mds: MdsId) {
        while self.auth.len() <= mds {
            self.auth.push(FragHeat::default());
            self.replica.push(FragHeat::default());
        }
    }
}

/// Emitted when a directory fragments, so the MDS can charge the cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEvent {
    /// The directory that fragmented.
    pub dir: NodeId,
    /// The fragment that split, as an index into the *pre-split* layout.
    pub frag: FragId,
    /// How many fragments it split into.
    pub ways: usize,
    /// Number of fragments the directory now has.
    pub resulting_frags: usize,
}

/// A reference to one dirfrag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragRef {
    /// The directory.
    pub dir: NodeId,
    /// The fragment within it.
    pub frag: FragId,
}

// -- Harness pin ----------------------------------------------------------
//
// The pinned benchmark harness (`benchmark/src/layers.rs`) copies
// `ClusterConfig::index_mode` into `NsConfig::index_mode`; the type behind
// both fields has one value and nothing reads it. All three leave with the
// harness un-pin (ROADMAP item 1).

/// Ignored: the namespace has one set of indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Ignored.
    #[default]
    Incremental,
}

/// Result of a subtree migration.
#[derive(Debug, Clone)]
pub struct SubtreeMigration {
    /// Inodes (directories + file entries) whose authority changed.
    pub inodes: u64,
    /// Roots of nested subtree bounds inside the migrated region — the
    /// bounded walk stopped there, so they and their subtrees stayed put.
    pub holes: Vec<NodeId>,
    /// The migrated region itself: every directory whose authority moved
    /// with the root, as [`Namespace::subtree_dirs`]`(root, true)` lists
    /// them after the move. Settled for good: the namespace only grows,
    /// and a directory created later is in no earlier migration's region.
    pub dirs: Vec<NodeId>,
}

/// The namespace: a tree of [`Dir`]s with authority annotations.
///
/// Besides the tree itself, the namespace maintains per-MDS decayed heat
/// aggregates incrementally: every [`Namespace::record_op`] also charges
/// the authority's (and each prefix replica's) aggregate counter, and every
/// authority mutation moves the affected fragments' heat between them. A
/// heartbeat snapshot via [`Namespace::mds_load_samples`] is O(MDSs).
#[derive(Debug, Clone)]
pub struct Namespace {
    cfg: NsConfig,
    dirs: Vec<Dir>,
    names: Names,
    /// Child-name index: `(parent, interned name)` → the first child
    /// created under that name. [`Namespace::mkdir`] maintains it and
    /// [`Namespace::lookup_child`] reads it; it is never iterated, so
    /// `Dir::children` stays the one ordered record of the tree.
    child_index: HashMap<(NodeId, u32), NodeId>,
    agg: LoadAggregates,
    /// High-water mark of every timestamp the namespace has seen.
    /// Authority mutations carry no timestamp of their own; they move heat
    /// between aggregates by sampling at this time — exact, because it is
    /// ≥ every counter's last touch under the shared exponential decay.
    clock: SimTime,
    /// Per-MDS set of dirs with `auth == Some(m)` (subtree bound roots).
    bound_roots: Vec<BTreeSet<NodeId>>,
    /// Per-MDS set of fragment authority overrides `(dir, frag)`.
    frag_over: Vec<BTreeSet<(NodeId, FragId)>>,
    /// One bit per directory, 64 to a word: an op was recorded on it or
    /// below it ([`Namespace::is_warm`]). Grown by [`Namespace::mkdir`].
    warm: Vec<u64>,
}

impl Namespace {
    /// A namespace with just the root directory, owned by MDS 0.
    pub fn new(cfg: NsConfig) -> Self {
        assert!(
            cfg.decay_half_life.as_millis() > 0,
            "half life must be positive"
        );
        let root = Dir {
            id: NodeId(0),
            parent: None,
            name: 0,
            depth: 0,
            children: Vec::new(),
            frags: vec![Frag::default()],
            auth: Some(0),
            subtree_heat: FragHeat::default(),
            auth_cache: AuthCache {
                auth: 0,
                chain: vec![0],
            },
            files: 0,
            span: 1,
            over: 0,
        };
        let mut root_set = BTreeSet::new();
        root_set.insert(NodeId(0));
        let mut names = Names::default();
        names.intern("");
        Namespace {
            dirs: vec![root],
            names,
            child_index: HashMap::new(),
            cfg,
            agg: LoadAggregates::default(),
            clock: SimTime::ZERO,
            bound_roots: vec![root_set],
            frag_over: vec![BTreeSet::new()],
            warm: vec![0],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NsConfig {
        &self.cfg
    }

    /// The root directory id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a directory.
    pub fn dir(&self, id: NodeId) -> &Dir {
        &self.dirs[id.0 as usize]
    }

    fn dir_mut(&mut self, id: NodeId) -> &mut Dir {
        &mut self.dirs[id.0 as usize]
    }

    /// Number of directories.
    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// Total file entries across all directories.
    pub fn file_count(&self) -> u64 {
        self.dirs.iter().map(|d| d.files).sum()
    }

    /// Create a subdirectory. Does not record heat; callers route a
    /// [`OpKind::Mkdir`] through [`Namespace::record_op`] on the parent.
    pub fn mkdir(&mut self, parent: NodeId, name: impl AsRef<str>) -> NodeId {
        let id = NodeId(self.dirs.len() as u32);
        let name = self.names.intern(name.as_ref());
        // First created wins: a name resolves to its earliest entry in
        // `children`, however often it is created again.
        self.child_index.entry((parent, name)).or_insert(id);
        let depth = self.dir(parent).depth + 1;
        // A new dir resolves as its parent does: every cache stays valid.
        let auth_cache = self.dirs[parent.0 as usize].auth_cache.clone();
        let dir = Dir {
            id,
            parent: Some(parent),
            name,
            depth,
            children: Vec::new(),
            frags: vec![Frag::default()],
            auth: None,
            subtree_heat: FragHeat::default(),
            auth_cache,
            files: 0,
            span: 1,
            over: 0,
        };
        self.dirs.push(dir);
        if self.warm.len() * 64 < self.dirs.len() {
            self.warm.push(0);
        }
        self.dir_mut(parent).children.push(id);
        id
    }

    /// Create every component of a `/`-separated path, returning the leaf.
    pub fn mkdir_p(&mut self, path: &str) -> NodeId {
        let mut cur = self.root();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = match self.lookup_child(cur, comp) {
                Some(existing) => existing,
                None => self.mkdir(cur, comp),
            };
        }
        cur
    }

    /// Find a child directory by name: two hash probes, however many
    /// siblings `parent` has.
    pub fn lookup_child(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        let name = *self.names.ids.get(name)?;
        self.child_index.get(&(parent, name)).copied()
    }

    /// Name of a directory within its parent (empty for the root).
    pub fn name(&self, id: NodeId) -> &str {
        &self.names.strs[self.dir(id).name as usize]
    }

    /// Full path of a directory (`/a/b/c`; root is `/`).
    pub fn path(&self, id: NodeId) -> String {
        let mut comps = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let name = self.name(c);
            if !name.is_empty() {
                comps.push(name);
            }
            cur = self.dir(c).parent;
        }
        comps.reverse();
        format!("/{}", comps.join("/"))
    }

    /// Record a metadata operation against a directory at time `now`.
    ///
    /// Picks the target fragment (creates spread over fragments the way
    /// GIGA+ hashes entries), bumps its counters and every ancestor's
    /// rolled-up subtree heat, updates entry counts, and fragments the
    /// directory when it crosses the split threshold.
    pub fn record_op(
        &mut self,
        id: NodeId,
        op: OpKind,
        now: SimTime,
    ) -> (FragId, Option<SplitEvent>) {
        let frag_id = self.peek_frag(id);
        self.record_op_on(id, frag_id, op, now)
    }

    /// Record a metadata operation against a specific fragment (chosen by
    /// the client when it routed the request). `frag` is clamped to the
    /// current fragment count — the directory may have split while the
    /// request was in flight. Bumps heat, entry counts and per-MDS
    /// aggregates, then fragments the directory if the op took a
    /// fragment over the split threshold. One op adds at most one entry,
    /// so one split always brings every fragment back under it.
    pub fn record_op_on(
        &mut self,
        id: NodeId,
        frag: FragId,
        op: OpKind,
        now: SimTime,
    ) -> (FragId, Option<SplitEvent>) {
        let frag_id = frag.min(self.dir(id).frags.len() - 1);
        let (half_life, threshold) = (self.cfg.decay_half_life, self.cfg.frag_split_threshold);
        self.touch(now);
        self.mark_warm(id);
        {
            let d = self.dir_mut(id);
            d.frags[frag_id].heat.record(op, now, half_life);
            d.subtree_heat.record(op, now, half_life);
            let f = &mut d.frags[frag_id];
            let was_over = f.files > threshold;
            if op == OpKind::Create {
                f.files += 1;
                d.files += 1;
            } else if op == OpKind::Unlink && f.files > 0 {
                f.files -= 1;
                d.files -= 1;
            }
            match (was_over, f.files > threshold) {
                (false, true) => d.over += 1,
                (true, false) => d.over -= 1,
                _ => {}
            }
        }
        // Charge the per-MDS aggregates.
        let idx = id.0 as usize;
        let auth = self.dirs[idx].frags[frag_id]
            .auth
            .unwrap_or(self.dirs[idx].auth_cache.auth);
        self.agg.ensure(auth);
        self.agg.auth[auth].record(op, now, half_life);
        for &rep in &self.dirs[idx].auth_cache.chain {
            if rep != auth {
                self.agg.ensure(rep);
                self.agg.replica[rep].record(op, now, half_life);
            }
        }
        // Roll up to every ancestor without materializing the chain.
        let mut anc = self.dirs[id.0 as usize].parent;
        while let Some(a) = anc {
            let d = &mut self.dirs[a.0 as usize];
            d.subtree_heat.record(op, now, half_life);
            anc = d.parent;
        }
        (frag_id, self.maybe_split(id, now))
    }

    /// Has an op ever been recorded on `id` or on a directory below it?
    ///
    /// Heat reaches a fragment only through
    /// [`Namespace::record_op_on`] (splits divide what is already
    /// there), which charges the directory and rolls up to each ancestor;
    /// the bit is set for exactly those. So while it is clear, every
    /// counter of every fragment in `id`'s whole subtree, and `id`'s
    /// rolled-up heat, is exactly zero — at any sampling instant, decay
    /// of zero being zero. One bit per directory: a planner that asks
    /// this first never pulls a cold [`Dir`] into cache.
    pub fn is_warm(&self, id: NodeId) -> bool {
        (self.warm[id.0 as usize / 64] >> (id.0 % 64)) & 1 != 0
    }

    /// Set the bit on `id` and its ancestors, stopping at the first one
    /// already set (its own ancestors were set with it).
    fn mark_warm(&mut self, id: NodeId) {
        let mut cur = Some(id);
        while let Some(d) = cur.filter(|&d| !self.is_warm(d)) {
            self.warm[d.0 as usize / 64] |= 1 << (d.0 % 64);
            cur = self.dirs[d.0 as usize].parent;
        }
    }

    /// Advance the namespace's high-water clock, the timestamp authority
    /// mutations move heat at.
    fn touch(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }

    /// The fragment the next operation on `id` will hit, and the one
    /// [`Namespace::record_op`] charges: creates hash over fragments by
    /// the running entry count, and reads hit fragments proportionally
    /// the same way. Request routing asks it before the op is recorded.
    pub fn peek_frag(&self, id: NodeId) -> FragId {
        let d = self.dir(id);
        if d.frags.len() == 1 {
            return 0;
        }
        (d.files % d.frags.len() as u64) as usize
    }

    /// Distinct MDSs owning fragments of `id`, in fragment order. A
    /// directory whose fragments span several MDSs triggers round-robin
    /// client contact and coherency traffic (§4.1).
    pub fn frag_owners(&self, id: NodeId) -> Vec<MdsId> {
        let resolved = self.resolve_auth(id);
        let mut out = Vec::new();
        for f in &self.dir(id).frags {
            let a = f.auth.unwrap_or(resolved);
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    /// How many distinct MDSs own fragments of `id`:
    /// [`Namespace::frag_owners`]`(id).len()`, in one load.
    pub fn frag_span(&self, id: NodeId) -> usize {
        self.dir(id).span as usize
    }

    /// Recompute `id`'s fragment summary from its fragments and its
    /// resolved authority: O(fragments), at a split or an authority
    /// change, never per op.
    fn refresh_summary(&mut self, id: NodeId) {
        let threshold = self.cfg.frag_split_threshold;
        let d = self.dir(id);
        let span = if d.frags.len() == 1 {
            1
        } else {
            self.frag_owners(id).len() as u32
        };
        let files = d.frags.iter().map(|f| f.files).sum();
        let over = d.frags.iter().filter(|f| f.files > threshold).count() as u32;
        let d = self.dir_mut(id);
        d.files = files;
        d.span = span;
        d.over = over;
    }

    fn maybe_split(&mut self, id: NodeId, now: SimTime) -> Option<SplitEvent> {
        // No fragment is over the threshold: nothing to split, and nothing
        // to scan. With one fragment its count is the directory's total.
        let d = self.dir(id);
        if d.over == 0 {
            return None;
        }
        if d.frags.len() == 1 {
            // First fragmentation: 2^3-way, as in §4.1.
            let ways = self.cfg.initial_split_ways;
            self.split_frag(id, 0, ways, now);
            return Some(SplitEvent {
                dir: id,
                frag: 0,
                ways,
                resulting_frags: ways,
            });
        }
        // The last of the biggest fragments, which is over the threshold.
        let (biggest, _) = d
            .frags
            .iter()
            .enumerate()
            .max_by_key(|&(_, f)| f.files)
            .expect("dirs always have ≥1 frag");
        let ways = self.cfg.resplit_ways;
        self.split_frag(id, biggest, ways, now);
        Some(SplitEvent {
            dir: id,
            frag: biggest,
            ways,
            resulting_frags: self.dir(id).frags.len(),
        })
    }

    fn split_frag(&mut self, id: NodeId, frag: FragId, ways: usize, now: SimTime) {
        // Splitting removes + appends fragments, shifting every FragId in
        // this dir: drop all of its entries from the ownership index and
        // re-insert from the post-split layout below.
        for (i, f) in self.dirs[id.0 as usize].frags.iter().enumerate() {
            if let Some(a) = f.auth {
                self.frag_over[a].remove(&(id, i));
            }
        }
        let half_life = self.cfg.decay_half_life;
        let d = self.dir_mut(id);
        let mut old = d.frags.remove(frag);
        let mut heats = old.heat.split(now, ways, half_life);
        let files_each = old.files / ways as u64;
        let mut remainder = old.files % ways as u64;
        for _ in 0..ways {
            let extra = if remainder > 0 {
                remainder -= 1;
                1
            } else {
                0
            };
            d.frags.push(Frag {
                files: files_each + extra,
                heat: heats.pop().expect("split returns `ways` heats"),
                // Children of a split inherit the parent fragment's
                // authority placement.
                auth: old.auth,
            });
        }
        for (i, f) in self.dirs[id.0 as usize].frags.iter().enumerate() {
            if let Some(a) = f.auth {
                self.frag_over[a].insert((id, i));
            }
        }
        self.refresh_summary(id);
    }

    // ---- authority ----

    /// Grow the per-MDS index vectors so `mds` is a valid index.
    fn ensure_mds_index(&mut self, mds: MdsId) {
        while self.bound_roots.len() <= mds {
            self.bound_roots.push(BTreeSet::new());
            self.frag_over.push(BTreeSet::new());
        }
    }

    /// Keep `bound_roots` in step with a subtree override change at `id`.
    fn update_bound_index(&mut self, id: NodeId, old: Option<MdsId>, new: Option<MdsId>) {
        if let Some(o) = old {
            self.bound_roots[o].remove(&id);
        }
        if let Some(n) = new {
            self.ensure_mds_index(n);
            self.bound_roots[n].insert(id);
        }
    }

    /// Install (or clear) a subtree authority override at `id`.
    pub fn set_auth(&mut self, id: NodeId, auth: Option<MdsId>) {
        self.apply_auth_change(id, auth, false);
    }

    /// Install (or clear) a per-fragment authority override.
    pub fn set_frag_auth(&mut self, id: NodeId, frag: FragId, auth: Option<MdsId>) {
        let old = self.dir(id).frags[frag].auth;
        if let Some(o) = old {
            self.frag_over[o].remove(&(id, frag));
        }
        if let Some(n) = auth {
            self.ensure_mds_index(n);
            self.frag_over[n].insert((id, frag));
        }
        self.dir_mut(id).frags[frag].auth = auth;
        self.refresh_summary(id);
        // One fragment's effective authority moves; the dir's chain (and
        // every cache) is untouched.
        let cache = &self.dirs[id.0 as usize].auth_cache;
        let eff_old = old.unwrap_or(cache.auth);
        let eff_new = auth.unwrap_or(cache.auth);
        if eff_old == eff_new {
            return;
        }
        let in_chain_old = cache.chain.contains(&eff_old);
        let in_chain_new = cache.chain.contains(&eff_new);
        let (clock, half_life) = (self.clock, self.cfg.decay_half_life);
        let h = self.dirs[id.0 as usize].frags[frag]
            .heat
            .peek(clock, half_life);
        if h == HeatSample::default() {
            return;
        }
        self.agg.ensure(eff_old.max(eff_new));
        self.agg.auth[eff_old].add_sample(&h, clock, -1.0, half_life);
        self.agg.auth[eff_new].add_sample(&h, clock, 1.0, half_life);
        if in_chain_old {
            // Was the authority, now a mere prefix replica.
            self.agg.replica[eff_old].add_sample(&h, clock, 1.0, half_life);
        }
        if in_chain_new {
            // Was a prefix replica, now the authority.
            self.agg.replica[eff_new].add_sample(&h, clock, -1.0, half_life);
        }
    }

    /// The MDS serving directory `id` (nearest ancestor override; the root
    /// always has one). One load: the cache is maintained eagerly.
    pub fn resolve_auth(&self, id: NodeId) -> MdsId {
        self.dirs[id.0 as usize].auth_cache.auth
    }

    /// The MDS serving one fragment (fragment override, else the dir's).
    pub fn frag_auth(&self, id: NodeId, frag: FragId) -> MdsId {
        self.dir(id).frags[frag]
            .auth
            .unwrap_or_else(|| self.resolve_auth(id))
    }

    /// All fragments currently served by `mds`, in `(dir, frag)` order.
    ///
    /// Enumerates only what `mds` owns — its subtree bound roots' bounded
    /// regions plus its fragment overrides — instead of scanning the whole
    /// namespace; a final sort restores scan order.
    pub fn auth_frags(&self, mds: MdsId) -> Vec<FragRef> {
        let mut out = Vec::new();
        // Bounded subtrees of this MDS's bound roots: every dir in them
        // resolves to `mds`, so all frags count except those overridden
        // away to another MDS.
        if let Some(roots) = self.bound_roots.get(mds) {
            let mut stack = Vec::new();
            for &root in roots {
                stack.push(root);
                while let Some(cur) = stack.pop() {
                    if cur != root && self.dir(cur).auth.is_some() {
                        continue;
                    }
                    let d = self.dir(cur);
                    for (i, f) in d.frags.iter().enumerate() {
                        if f.auth.is_none() || f.auth == Some(mds) {
                            out.push(FragRef { dir: cur, frag: i });
                        }
                    }
                    stack.extend(d.children.iter().copied());
                }
            }
        }
        // Fragment overrides on dirs owned by someone else (overrides on
        // dirs resolving to `mds` were already collected above).
        if let Some(over) = self.frag_over.get(mds) {
            for &(d, f) in over {
                if self.dirs[d.0 as usize].auth_cache.auth != mds {
                    out.push(FragRef { dir: d, frag: f });
                }
            }
        }
        out.sort_unstable_by_key(|r| (r.dir, r.frag));
        out
    }

    /// The MDSs holding an override on `id` or above it, nearest first,
    /// each once: every MDS that replicates this path prefix and therefore
    /// "knows" about the subtree. One load, like [`Namespace::resolve_auth`].
    pub fn ancestor_auth_chain(&self, id: NodeId) -> &[MdsId] {
        &self.dirs[id.0 as usize].auth_cache.chain
    }

    /// Directories in the subtree rooted at `id` (inclusive, preorder),
    /// stopping at directories with their own authority override when
    /// `stop_at_bounds` is set (those belong to a different subtree).
    pub fn subtree_dirs(&self, id: NodeId, stop_at_bounds: bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if stop_at_bounds && cur != id && self.dir(cur).auth.is_some() {
                continue;
            }
            out.push(cur);
            stack.extend(self.dir(cur).children.iter().copied());
        }
        out
    }

    /// Count inodes (directories + file entries) in the subtree rooted at
    /// `id`, honouring subtree bounds.
    pub fn subtree_inodes(&self, id: NodeId) -> u64 {
        self.subtree_dirs(id, true)
            .iter()
            .map(|&d| 1 + self.dir(d).files)
            .sum()
    }

    /// Migrate the subtree rooted at `id` to `to`: one walk lists the moved
    /// directories and counts their inodes, clears superseded fragment
    /// overrides, records the nested bounds it stopped at, and moves the
    /// subtree's heat between the per-MDS aggregates by deltas.
    pub fn migrate_subtree(&mut self, id: NodeId, to: MdsId) -> SubtreeMigration {
        self.apply_auth_change(id, Some(to), true)
    }

    /// Migrate one fragment to `to`. Returns the entries moved.
    pub fn migrate_frag(&mut self, id: NodeId, frag: FragId, to: MdsId) -> u64 {
        let moved = self.dir(id).frags[frag].files;
        self.set_frag_auth(id, frag, Some(to));
        moved + 1
    }

    /// The engine behind `set_auth` and `migrate_subtree`: change `id`'s
    /// subtree override to `new_auth` (clearing inner fragment overrides
    /// when `clear_frag_overrides`, as a migration does) in ONE preorder
    /// walk of `id`'s full subtree, which
    ///
    /// * refreshes every walked dir's eager auth cache (resolution +
    ///   replica chain),
    /// * moves each affected frag's heat between the per-MDS auth
    ///   aggregates (sampled non-destructively at the high-water clock, so
    ///   the move is exact under the shared exponential decay),
    /// * fixes the replica aggregates of every MDS whose chain membership
    ///   or authority/replica role flipped, and
    /// * lists the bounded region's directories, and counts their inodes
    ///   and the nested bounds ("holes") the region stops at.
    ///
    /// The walk must cover the *full* subtree (through nested bounds):
    /// replica chains below a hole still gain/lose the old/new authority.
    fn apply_auth_change(
        &mut self,
        id: NodeId,
        new_auth: Option<MdsId>,
        clear_frag_overrides: bool,
    ) -> SubtreeMigration {
        let old_auth = self.dir(id).auth;
        if old_auth == new_auth && !clear_frag_overrides {
            return SubtreeMigration {
                inodes: 0,
                holes: Vec::new(),
                dirs: Vec::new(),
            };
        }
        if let Some(n) = new_auth {
            self.ensure_mds_index(n);
            self.agg.ensure(n);
        }
        self.update_bound_index(id, old_auth, new_auth);
        // Resolution of the bounded region before/after the change.
        let a_old = self.dirs[id.0 as usize].auth_cache.auth;
        let parent = self.dirs[id.0 as usize].parent;
        let a_new = new_auth.unwrap_or_else(|| {
            let p = parent.expect("root always has an authority");
            self.dirs[p.0 as usize].auth_cache.auth
        });
        // Does the new authority already replicate the prefix *above* `id`?
        // (Membership below is tracked per-path during the walk.)
        let n_above = match (new_auth, parent) {
            (Some(n), Some(p)) => self.dirs[p.0 as usize].auth_cache.chain.contains(&n),
            _ => false,
        };
        self.dirs[id.0 as usize].auth = new_auth;
        let (clock, half_life) = (self.clock, self.cfg.decay_half_life);

        let mut inodes = 0u64;
        let mut holes = Vec::new();
        let mut dirs = Vec::new();
        // (node, inside the bounded region?, occurrences of `new_auth` as
        // an override on the path from `id` (exclusive) down to the node).
        let mut stack: Vec<(NodeId, bool, u32)> = vec![(id, true, 0)];
        let mut cands: Vec<MdsId> = Vec::with_capacity(4);
        while let Some((x, bounded, n_below)) = stack.pop() {
            let xi = x.0 as usize;
            // New chain: own override (nearest) + parent's already-updated
            // chain, deduplicated. `id`'s parent is outside the walk and
            // its cache is untouched — correct before and after.
            let mut chain: Vec<MdsId> = Vec::new();
            if let Some(a) = self.dirs[xi].auth {
                chain.push(a);
            }
            if let Some(p) = self.dirs[xi].parent {
                for &m in &self.dirs[p.0 as usize].auth_cache.chain {
                    if !chain.contains(&m) {
                        chain.push(m);
                    }
                }
            }
            let resolved_new = self.dirs[xi].auth.unwrap_or(if bounded {
                a_new
            } else {
                // Under a hole the nearest override is below `id`; only
                // reachable when the hole itself has the override, so a
                // dir here without one resolves via its parent's cache.
                self.dirs[self.dirs[xi]
                    .parent
                    .expect("hole descendants have parents")
                    .0 as usize]
                    .auth_cache
                    .auth
            });
            let resolved_old = if bounded || x == id {
                a_old
            } else {
                resolved_new
            };
            if bounded {
                inodes += 1 + self.dirs[xi].files;
                dirs.push(x);
            }
            for f in 0..self.dirs[xi].frags.len() {
                let over = self.dirs[xi].frags[f].auth;
                let eff_old = over.unwrap_or(resolved_old);
                let cleared = clear_frag_overrides && bounded && over.is_some();
                let eff_new = if cleared {
                    resolved_new
                } else {
                    over.unwrap_or(resolved_new)
                };
                if cleared {
                    let a = over.expect("cleared implies an override");
                    self.frag_over[a].remove(&(x, f));
                    self.dirs[xi].frags[f].auth = None;
                }
                let h = self.dirs[xi].frags[f].heat.peek(clock, half_life);
                if h == HeatSample::default() {
                    continue;
                }
                if eff_old != eff_new {
                    self.agg.ensure(eff_old.max(eff_new));
                    self.agg.auth[eff_old].add_sample(&h, clock, -1.0, half_life);
                    self.agg.auth[eff_new].add_sample(&h, clock, 1.0, half_life);
                }
                // Replica membership can only change for the old/new
                // override holders; the authority-exclusion can only flip
                // for the old/new effective authorities.
                cands.clear();
                for r in [Some(eff_old), Some(eff_new), old_auth, new_auth]
                    .into_iter()
                    .flatten()
                {
                    if !cands.contains(&r) {
                        cands.push(r);
                    }
                }
                for &r in &cands {
                    let member_new = chain.contains(&r);
                    let member_old = if old_auth == new_auth {
                        member_new
                    } else if Some(r) == old_auth {
                        // The walk never leaves `id`'s subtree, and `id`
                        // carried the old override.
                        true
                    } else if Some(r) == new_auth {
                        n_above || n_below > 0
                    } else {
                        member_new
                    };
                    let was = member_old && r != eff_old;
                    let is = member_new && r != eff_new;
                    if was != is {
                        self.agg.ensure(r);
                        let sign = if is { 1.0 } else { -1.0 };
                        self.agg.replica[r].add_sample(&h, clock, sign, half_life);
                    }
                }
            }
            self.dirs[xi].auth_cache = AuthCache {
                auth: resolved_new,
                chain,
            };
            self.refresh_summary(x);
            for ci in 0..self.dirs[xi].children.len() {
                let c = self.dirs[xi].children[ci];
                let c_auth = self.dirs[c.0 as usize].auth;
                if bounded && c_auth.is_some() {
                    holes.push(c);
                }
                let c_below = n_below + u32::from(c_auth.is_some() && c_auth == new_auth);
                stack.push((c, bounded && c_auth.is_none(), c_below));
            }
        }
        SubtreeMigration {
            inodes,
            holes,
            dirs,
        }
    }

    /// Sample a fragment's heat at `now`.
    pub fn frag_heat(&mut self, id: NodeId, frag: FragId, now: SimTime) -> HeatSample {
        self.touch(now);
        let half_life = self.cfg.decay_half_life;
        self.dir_mut(id).frags[frag].heat.sample(now, half_life)
    }

    /// Sample a directory's rolled-up subtree heat at `now` (Fig. 1).
    pub fn subtree_heat(&mut self, id: NodeId, now: SimTime) -> HeatSample {
        self.touch(now);
        let half_life = self.cfg.decay_half_life;
        self.dir_mut(id).subtree_heat.sample(now, half_life)
    }

    /// Per-MDS decayed heat totals at `now`, for MDS ids `0..num_mds`:
    /// `(auth, replica)`, where `auth[m]` sums the heat of every frag MDS
    /// `m` is the authority for, and `replica[m]` sums the heat of every
    /// frag whose ancestor authority chain includes `m` without `m` being
    /// the authority (i.e. `m` replicates its path prefix). The replica
    /// totals are unscaled; readers apply their own replica discount.
    ///
    /// O(num_mds): authority changes moved the heat when they happened.
    pub fn mds_load_samples(
        &mut self,
        num_mds: usize,
        now: SimTime,
    ) -> (Vec<HeatSample>, Vec<HeatSample>) {
        self.touch(now);
        if num_mds > 0 {
            self.agg.ensure(num_mds - 1);
        }
        let half_life = self.cfg.decay_half_life;
        let auth = (0..num_mds)
            .map(|m| self.agg.auth[m].sample(now, half_life))
            .collect();
        let replica = (0..num_mds)
            .map(|m| self.agg.replica[m].sample(now, half_life))
            .collect();
        (auth, replica)
    }

    /// Iterate all directory ids.
    pub fn all_dirs(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.dirs.len()).map(|i| NodeId(i as u32))
    }

    /// Directories from which `mds` can export load: its subtree bound
    /// roots, plus dirs where it owns individual fragments without owning
    /// the directory — in ascending id order, read off the ownership
    /// indexes (O(dirs owned)).
    pub fn export_candidate_dirs(&self, mds: MdsId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .bound_roots
            .get(mds)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        if let Some(over) = self.frag_over.get(mds) {
            let mut last = None;
            for &(d, _) in over {
                if last == Some(d) {
                    continue;
                }
                last = Some(d);
                // Dirs this MDS resolves are already in via their bound
                // root; a frag override only adds foreign dirs.
                if self.dirs[d.0 as usize].auth_cache.auth != mds {
                    out.push(d);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

impl Default for Namespace {
    fn default() -> Self {
        Namespace::new(NsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> NsConfig {
        NsConfig {
            frag_split_threshold: 10,
            ..Default::default()
        }
    }

    #[test]
    fn mkdir_p_builds_and_reuses() {
        let mut ns = Namespace::default();
        let c1 = ns.mkdir_p("/a/b/c");
        let c2 = ns.mkdir_p("/a/b/c");
        assert_eq!(c1, c2);
        assert_eq!(ns.path(c1), "/a/b/c");
        assert_eq!(ns.dir(c1).depth, 3);
        let b = ns.mkdir_p("/a/b");
        assert_eq!(ns.dir(c1).parent, Some(b));
        assert_eq!(ns.dir_count(), 4); // root, a, b, c
    }

    #[test]
    fn root_path_and_lookup() {
        let mut ns = Namespace::default();
        assert_eq!(ns.path(ns.root()), "/");
        let a = ns.mkdir(ns.root(), "a");
        assert_eq!(ns.lookup_child(ns.root(), "a"), Some(a));
        assert_eq!(ns.lookup_child(ns.root(), "zzz"), None);
    }

    #[test]
    fn creates_count_files() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/data");
        for _ in 0..5 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        assert_eq!(ns.file_count(), 5);
        ns.record_op(d, OpKind::Unlink, SimTime::ZERO);
        assert_eq!(ns.file_count(), 4);
    }

    #[test]
    fn directory_fragments_at_threshold() {
        let mut ns = Namespace::new(small_cfg());
        let d = ns.mkdir_p("/big");
        let mut split_seen = None;
        for _ in 0..11 {
            let (_, split) = ns.record_op(d, OpKind::Create, SimTime::ZERO);
            if split.is_some() {
                split_seen = split;
            }
        }
        let split = split_seen.expect("11 creates over threshold 10 must split");
        assert_eq!(split.resulting_frags, 8, "first split is 2^3-way");
        assert_eq!(ns.dir(d).frags.len(), 8);
        // Entries conserved.
        let total: u64 = ns.dir(d).frags.iter().map(|f| f.files).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn fragment_resplits_two_ways() {
        let mut ns = Namespace::new(small_cfg());
        let d = ns.mkdir_p("/big");
        // Push far past the threshold; creates round-robin across frags, so
        // every frag grows; eventually frags individually exceed 10.
        for _ in 0..200 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        assert!(ns.dir(d).frags.len() > 8, "resplits happened");
        let total: u64 = ns.dir(d).frags.iter().map(|f| f.files).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn authority_inheritance() {
        let mut ns = Namespace::default();
        let c = ns.mkdir_p("/a/b/c");
        let a = ns.mkdir_p("/a");
        assert_eq!(ns.resolve_auth(c), 0, "inherits root's MDS0");
        ns.set_auth(a, Some(2));
        assert_eq!(ns.resolve_auth(c), 2, "inherits nearest override");
        ns.set_auth(c, Some(1));
        assert_eq!(ns.resolve_auth(c), 1);
        let b = ns.mkdir_p("/a/b");
        assert_eq!(ns.resolve_auth(b), 2, "b still under a's subtree");
    }

    #[test]
    fn frag_auth_override() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/shared");
        ns.set_frag_auth(d, 0, Some(3));
        assert_eq!(ns.frag_auth(d, 0), 3);
        assert_eq!(ns.resolve_auth(d), 0, "dir itself still MDS0");
    }

    #[test]
    fn auth_frags_enumerates() {
        let mut ns = Namespace::default();
        let d1 = ns.mkdir_p("/one");
        let _d2 = ns.mkdir_p("/two");
        ns.set_auth(d1, Some(1));
        let mds0 = ns.auth_frags(0);
        let mds1 = ns.auth_frags(1);
        assert_eq!(mds1.len(), 1);
        assert_eq!(mds1[0].dir, d1);
        // root + /two for MDS0
        assert_eq!(mds0.len(), 2);
    }

    #[test]
    fn subtree_migration_moves_inodes_and_respects_bounds() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        let _ac = ns.mkdir_p("/a/c");
        let abd = ns.mkdir_p("/a/b/d");
        for _ in 0..4 {
            ns.record_op(ab, OpKind::Create, SimTime::ZERO);
        }
        // Nested bound: /a/b/d belongs to MDS 2 already.
        ns.set_auth(abd, Some(2));
        let moved = ns.migrate_subtree(a, 1);
        // dirs a, b, c (3) + 4 files; d is excluded (own bound).
        assert_eq!(moved.inodes, 7);
        assert_eq!(moved.holes, vec![abd], "the walk stopped at /a/b/d");
        assert_eq!(ns.resolve_auth(ab), 1);
        assert_eq!(ns.resolve_auth(abd), 2, "nested subtree untouched");
    }

    #[test]
    fn a_migration_lists_the_region_its_walk_moved() {
        let mut rng = mantle_sim::SimRng::new(0xd125);
        let sorted = |mut v: Vec<NodeId>| {
            v.sort_unstable();
            v
        };
        let (mut nested, mut listed) = (0, 0);
        for case in 0..100 {
            let mut ns = Namespace::default();
            let mut all = vec![ns.root()];
            for i in 0..1 + rng.below(80) {
                let parent = all[rng.below(all.len() as u64) as usize];
                all.push(ns.mkdir(parent, format!("d{i}")));
            }
            for _ in 0..rng.below(6) {
                let d = all[rng.below(all.len() as u64) as usize];
                ns.set_auth(d, Some(rng.below(4) as MdsId));
            }
            for step in 0..5 {
                let d = all[rng.below(all.len() as u64) as usize];
                let moved = ns.migrate_subtree(d, rng.below(4) as MdsId);
                nested += usize::from(!moved.holes.is_empty());
                listed += moved.dirs.len();
                assert_eq!(
                    sorted(moved.dirs),
                    sorted(ns.subtree_dirs(d, true)),
                    "case {case} step {step}"
                );
            }
        }
        assert!(nested > 100, "{nested} migrations stopped at a bound");
        assert!(listed > 1_000, "{listed} directories listed");
    }

    #[test]
    fn migrate_subtree_clears_inner_frag_overrides() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/x");
        ns.set_frag_auth(d, 0, Some(3));
        ns.migrate_subtree(d, 1);
        assert_eq!(ns.frag_auth(d, 0), 1, "frag override superseded");
    }

    #[test]
    fn migrate_frag_counts_entries() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/x");
        for _ in 0..3 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        let moved = ns.migrate_frag(d, 0, 2);
        assert_eq!(moved, 4, "3 entries + the frag itself");
        assert_eq!(ns.frag_auth(d, 0), 2);
    }

    #[test]
    fn heat_rolls_up_to_ancestors() {
        let mut ns = Namespace::default();
        let deep = ns.mkdir_p("/linux/fs/ext4");
        let top = ns.mkdir_p("/linux");
        ns.record_op(deep, OpKind::Stat, SimTime::ZERO);
        ns.record_op(deep, OpKind::Stat, SimTime::ZERO);
        let h = ns.subtree_heat(top, SimTime::ZERO);
        assert_eq!(h.ird, 2.0, "ancestor sees descendant ops");
        let hr = ns.subtree_heat(ns.root(), SimTime::ZERO);
        assert_eq!(hr.ird, 2.0);
    }

    #[test]
    fn warm_marks_exactly_the_charged_dir_and_its_ancestors() {
        let warm_set =
            |ns: &Namespace| -> Vec<NodeId> { ns.all_dirs().filter(|&d| ns.is_warm(d)).collect() };
        let mut ns = Namespace::new(small_cfg());
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        let abc = ns.mkdir_p("/a/b/c");
        let ax = ns.mkdir_p("/a/x");
        let other = ns.mkdir_p("/other");
        assert_eq!(warm_set(&ns), vec![], "nothing charged, nothing warm");
        let root = ns.root();
        ns.record_op(ab, OpKind::Stat, SimTime::ZERO);
        assert_eq!(warm_set(&ns), vec![root, a, ab]);
        ns.record_op_on(other, 0, OpKind::Create, SimTime::ZERO);
        assert_eq!(warm_set(&ns), vec![root, a, ab, other]);
        ns.record_op_on(abc, 0, OpKind::Readdir, SimTime::from_secs(1));
        assert_eq!(warm_set(&ns), vec![root, a, ab, abc, other]);
        // Creating directories — past a word of the bitset — and moving
        // authority warm nothing up.
        let wide: Vec<NodeId> = (0..200).map(|i| ns.mkdir(ax, format!("w{i}"))).collect();
        ns.migrate_subtree(ax, 1);
        ns.set_frag_auth(wide[7], 0, Some(2));
        assert_eq!(warm_set(&ns), vec![root, a, ab, abc, other]);
        ns.record_op(wide[150], OpKind::Create, SimTime::from_secs(2));
        assert_eq!(warm_set(&ns), vec![root, a, ab, abc, ax, other, wide[150]]);
        // And that is where the heat is: everything cold samples zero.
        for d in ns.all_dirs().collect::<Vec<_>>() {
            let heat = ns.subtree_heat(d, SimTime::from_secs(3));
            assert_eq!(heat != HeatSample::default(), ns.is_warm(d), "{d:?}");
        }
    }

    #[test]
    fn ancestor_auth_chain_lists_replica_holders() {
        let mut ns = Namespace::default();
        let c = ns.mkdir_p("/a/b/c");
        let a = ns.mkdir_p("/a");
        ns.set_auth(a, Some(1));
        ns.set_auth(c, Some(2));
        let chain = ns.ancestor_auth_chain(c);
        assert_eq!(chain, vec![2, 1, 0]);
    }

    #[test]
    fn subtree_inodes_counts_dirs_and_files() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        let _b = ns.mkdir_p("/a/b");
        ns.record_op(a, OpKind::Create, SimTime::ZERO);
        ns.record_op(a, OpKind::Create, SimTime::ZERO);
        assert_eq!(ns.subtree_inodes(a), 4); // a, b + 2 files
    }

    /// Reference implementation of `mds_load_samples`: the full per-frag
    /// walk the aggregates replace.
    fn brute_force_loads(
        ns: &mut Namespace,
        num_mds: usize,
        now: SimTime,
    ) -> (Vec<HeatSample>, Vec<HeatSample>) {
        let mut auth = vec![HeatSample::default(); num_mds];
        let mut rep = vec![HeatSample::default(); num_mds];
        let dirs: Vec<_> = ns.all_dirs().collect();
        for d in dirs {
            for f in 0..ns.dir(d).frags.len() {
                let s = ns.frag_heat(d, f, now);
                let a = ns.frag_auth(d, f);
                auth[a] = auth[a].add(&s);
                for &r in ns.ancestor_auth_chain(d) {
                    if r != a {
                        rep[r] = rep[r].add(&s);
                    }
                }
            }
        }
        (auth, rep)
    }

    fn assert_close(a: &HeatSample, b: &HeatSample, ctx: &str) {
        for (x, y) in [
            (a.ird, b.ird),
            (a.iwr, b.iwr),
            (a.readdir, b.readdir),
            (a.fetch, b.fetch),
            (a.store, b.store),
        ] {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                "{ctx}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn aggregates_match_per_frag_walk() {
        let mut ns = Namespace::new(small_cfg());
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        let c = ns.mkdir_p("/c");
        ns.set_auth(a, Some(1));
        ns.set_auth(ab, Some(2));
        // Mixed ops, including enough creates on /a/b to force splits.
        for i in 0..40 {
            ns.record_op(ab, OpKind::Create, SimTime::from_millis(i * 10));
            ns.record_op(a, OpKind::Stat, SimTime::from_millis(i * 10));
            ns.record_op(c, OpKind::Readdir, SimTime::from_millis(i * 10));
        }
        let now = SimTime::from_secs(1);
        let (agg_auth, agg_rep) = ns.mds_load_samples(3, now);
        let (bf_auth, bf_rep) = brute_force_loads(&mut ns, 3, now);
        for m in 0..3 {
            assert_close(&agg_auth[m], &bf_auth[m], &format!("auth[{m}]"));
            assert_close(&agg_rep[m], &bf_rep[m], &format!("replica[{m}]"));
        }
        // /a/b's heat is authored by MDS 2, replicated by 1 (via /a) and 0
        // (via root).
        assert!(agg_auth[2].iwr > 0.0);
        assert!(agg_rep[1].iwr > 0.0);
        assert!(agg_rep[0].iwr > 0.0);
    }

    #[test]
    fn aggregates_stay_in_sync_incrementally() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        ns.set_auth(a, Some(1));
        // An early read between the authority change and the ops.
        let _ = ns.mds_load_samples(2, SimTime::ZERO);
        for i in 0..25 {
            ns.record_op(a, OpKind::Create, SimTime::from_millis(i * 7));
            ns.record_op(ns.root(), OpKind::Stat, SimTime::from_millis(i * 7));
        }
        let now = SimTime::from_millis(500);
        let (agg_auth, agg_rep) = ns.mds_load_samples(2, now);
        let (bf_auth, bf_rep) = brute_force_loads(&mut ns, 2, now);
        for m in 0..2 {
            assert_close(&agg_auth[m], &bf_auth[m], &format!("auth[{m}]"));
            assert_close(&agg_rep[m], &bf_rep[m], &format!("replica[{m}]"));
        }
    }

    #[test]
    fn migration_moves_aggregate_heat() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/hot");
        for _ in 0..10 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        let (auth, _) = ns.mds_load_samples(2, SimTime::ZERO);
        assert!(auth[0].iwr > 0.0);
        assert_eq!(auth[1].iwr, 0.0);
        ns.migrate_subtree(d, 1);
        let (auth, rep) = ns.mds_load_samples(2, SimTime::ZERO);
        assert!(auth[1].iwr > 0.0, "heat followed the migration");
        assert!(
            rep[0].iwr > 0.0,
            "old authority still replicates the prefix"
        );
        let (bf_auth, bf_rep) = brute_force_loads(&mut ns, 2, SimTime::ZERO);
        for m in 0..2 {
            assert_close(&auth[m], &bf_auth[m], &format!("auth[{m}]"));
            assert_close(&rep[m], &bf_rep[m], &format!("replica[{m}]"));
        }
    }

    #[test]
    fn aggregate_heat_decays_like_frag_heat() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/x");
        for _ in 0..8 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        let half_life = ns.config().decay_half_life;
        let (hot, _) = ns.mds_load_samples(1, SimTime::ZERO);
        let (cooled, _) = ns.mds_load_samples(1, half_life);
        assert!((cooled[0].iwr - hot[0].iwr / 2.0).abs() < 1e-9);
    }

    #[test]
    fn split_preserves_frag_auth() {
        let mut ns = Namespace::new(small_cfg());
        let d = ns.mkdir_p("/spill");
        ns.set_frag_auth(d, 0, Some(1));
        for _ in 0..12 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        assert!(ns.dir(d).frags.len() >= 8);
        for i in 0..ns.dir(d).frags.len() {
            assert_eq!(ns.frag_auth(d, i), 1, "children inherit placement");
        }
    }

    #[test]
    fn dir_is_at_most_216_bytes() {
        // 200 before the fragment summary; the summary is 16 bytes.
        assert!(std::mem::size_of::<Dir>() <= 216);
    }

    /// `(files, span, over)` of `d`, as kept and as a scan of its
    /// fragments says.
    fn summary_and_scan(ns: &Namespace, d: NodeId) -> ((u64, u32, u32), (u64, u32, u32)) {
        let dir = ns.dir(d);
        let threshold = ns.config().frag_split_threshold;
        let scan = (
            dir.frags.iter().map(|f| f.files).sum(),
            ns.frag_owners(d).len() as u32,
            dir.frags.iter().filter(|f| f.files > threshold).count() as u32,
        );
        ((dir.files, dir.span, dir.over), scan)
    }

    fn assert_summaries(ns: &Namespace) {
        for d in ns.all_dirs() {
            let (kept, scan) = summary_and_scan(ns, d);
            assert_eq!(kept, scan, "{d:?}");
        }
    }

    #[test]
    fn an_op_that_crosses_the_threshold_splits_at_once() {
        let mut ns = Namespace::new(small_cfg());
        let d = ns.mkdir_p("/x");
        let over = |ns: &Namespace| ns.dir(d).over;
        for _ in 0..10 {
            assert_eq!(ns.record_op(d, OpKind::Create, SimTime::ZERO).1, None);
        }
        assert_eq!((ns.dir(d).files, over(&ns)), (10, 0), "at the threshold");
        assert_eq!(ns.record_op(d, OpKind::Unlink, SimTime::ZERO).1, None);
        assert_eq!(ns.record_op(d, OpKind::Create, SimTime::ZERO).1, None);
        let split = ns
            .record_op(d, OpKind::Create, SimTime::ZERO)
            .1
            .expect("11 > 10 splits");
        assert_eq!(split.resulting_frags, 8);
        assert_eq!((ns.dir(d).files, over(&ns)), (11, 0));
        assert_summaries(&ns);
        // Unlinks past zero change nothing.
        let empty = ns.mkdir_p("/empty");
        ns.record_op(empty, OpKind::Unlink, SimTime::ZERO);
        assert_eq!(summary_and_scan(&ns, empty).0, (0, 1, 0));
        assert_summaries(&ns);
    }

    #[test]
    fn a_threshold_of_u64_max_never_counts_a_fragment_over() {
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: u64::MAX,
            ..Default::default()
        });
        let d = ns.mkdir_p("/x");
        for op in [
            OpKind::Create,
            OpKind::Create,
            OpKind::Unlink,
            OpKind::Unlink,
        ] {
            assert_eq!(ns.record_op(d, op, SimTime::ZERO).1, None);
            assert_eq!(ns.dir(d).over, 0);
        }
        assert_summaries(&ns);
    }

    #[test]
    fn the_span_follows_every_authority_change() {
        let mut ns = Namespace::new(small_cfg());
        let a = ns.mkdir_p("/a");
        let b = ns.mkdir_p("/a/b");
        let hole = ns.mkdir_p("/a/h");
        let deep = ns.mkdir_p("/a/h/deep");
        for d in [a, b, deep] {
            for _ in 0..11 {
                ns.record_op(d, OpKind::Create, SimTime::ZERO);
            }
            assert_eq!(ns.dir(d).frags.len(), 8);
        }
        let span = |ns: &Namespace, d| {
            assert_summaries(ns);
            ns.frag_span(d)
        };
        assert_eq!(span(&ns, a), 1);
        // Through `set_frag_auth`: an override to another MDS widens the
        // span, a second one to the same MDS does not, one naming the
        // directory's own authority does not, and clearing narrows it.
        ns.set_frag_auth(a, 0, Some(1));
        assert_eq!(span(&ns, a), 2);
        ns.set_frag_auth(a, 1, Some(1));
        ns.set_frag_auth(a, 2, Some(0));
        assert_eq!(span(&ns, a), 2);
        ns.set_frag_auth(a, 3, Some(2));
        assert_eq!(span(&ns, a), 3);
        ns.set_frag_auth(a, 3, None);
        assert_eq!(span(&ns, a), 2);
        ns.set_frag_auth(b, 5, Some(3));
        assert_eq!(span(&ns, b), 2);
        // Below a hole: `/a/h` is its own subtree, and `deep` spans MDS 2
        // (inherited) and MDS 1 (an override).
        ns.set_auth(hole, Some(2));
        ns.set_frag_auth(deep, 4, Some(1));
        assert_eq!(span(&ns, deep), 2);
        // Through `migrate_subtree` to MDS 1: every override in the
        // region is cleared, so `a` and `b` are served by MDS 1 alone;
        // the walk passes through the hole, and `deep` keeps both owners.
        let moved = ns.migrate_subtree(a, 1);
        assert_eq!(moved.holes, vec![hole]);
        assert_eq!((span(&ns, a), span(&ns, b)), (1, 1));
        assert_eq!(span(&ns, deep), 2);
        // Dissolving the hole leaves `deep` resolving to MDS 1, which its
        // override names too.
        ns.set_auth(hole, None);
        assert_eq!(span(&ns, deep), 1);
        // A split keeps the span: children inherit their parent's owner.
        ns.set_frag_auth(b, 0, Some(3));
        for _ in 0..100 {
            ns.record_op(b, OpKind::Create, SimTime::ZERO);
        }
        assert!(ns.dir(b).frags.len() > 8);
        assert_eq!(span(&ns, b), 2);
    }
}
