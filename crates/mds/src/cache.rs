//! The hotspot-absorbing metadata cache tier.
//!
//! Mantle attacks hotspots by *migrating* them; MIDAS/Fletch-style
//! systems attack the same hotspots by *absorbing* them in a cache in
//! front of the cluster. This module composes the two: clients are
//! partitioned into proxy groups, each group fronted by a
//! capacity-bounded LRU [`GroupCache`] that serves read-class lookups
//! (stat / open / readdir) without an MDS round-trip. Coherence is
//! TTL-free and purely invalidation-driven:
//!
//! * **mutating ops** (create / mkdir / setattr / unlink) invalidate the
//!   touched directory's entries in every group when they complete, in
//!   the same step that charges their heat;
//! * **migrations and session flushes** invalidate every directory the
//!   export moved: the list `Migrator::apply_export` already walked to
//!   stamp the freeze, one [`GroupCache::invalidate`] per directory.
//!
//! The clients' learned routes are dropped the same way. Every client's
//! directory→MDS map lives in **one** [`RouteTable`]: a row of one byte
//! per client for each directory any client has learned, so an export
//! finds every client's route to a moved directory by scanning that
//! directory's row, and a reply re-learns its route in the byte the issue
//! just read. (A per-client map scanned with the region's predicate
//! survives as the differential oracle in the unit tests below.)
//!
//! Determinism: group caches live in the simulation state ([`crate::world`]). Every
//! mutation — fill, LRU touch, dentry invalidation — lands as the event
//! that causes it runs, in `(time, key)` order, so the LRU clock and
//! eviction order are pure functions of the event stream.

use std::collections::{BTreeMap, HashMap};

use mantle_namespace::{MdsId, NodeId, OpKind};
use mantle_sim::SimTime;

use crate::client::ClientState;

/// Is `kind` servable by the proxy tier? Read-class lookups are; every
/// mutating op goes to the MDS (and invalidates instead).
pub fn cacheable(kind: OpKind) -> bool {
    matches!(kind, OpKind::Stat | OpKind::OpenRead | OpKind::Readdir)
}

/// Rows per allocation: the table grows a chunk at a time, so a new row
/// never copies the rows before it.
const ROW_CHUNK: usize = 64;

/// The slot byte that says "look in `far`". Any other non-zero byte is
/// `mds + 1`.
const FAR: u8 = u8::MAX;

/// No row: the directory has never been learned by any client.
const NO_ROW: u32 = u32::MAX;

/// Every client's learned directory→MDS map: what each client routes by,
/// built from replies exactly as the client builds "its own mapping of
/// subtrees to MDS nodes" (§2). Owned by the data plane.
///
/// Each directory some client has learned gets a row of one byte per
/// client: `0` for no route, `mds + 1` for MDSs below 254, and `255` when
/// the route sits in `far` (MDS ids from 254 up; no shipped scenario
/// has them). A directory past `row_of`'s end — one created after the
/// newest learned directory — has no row yet, so it reads as no route.
/// Rows are never freed: the namespace only grows, and a row that an
/// export emptied is refilled by the next reply.
#[derive(Debug)]
pub struct RouteTable {
    clients: usize,
    /// Row per directory, indexed by `NodeId`; [`NO_ROW`] if unlearned.
    row_of: Vec<u32>,
    /// [`ROW_CHUNK`] rows of `clients` bytes each, per chunk.
    chunks: Vec<Box<[u8]>>,
    /// Rows handed out so far.
    rows: u32,
    /// The routes behind every [`FAR`] byte, one entry each.
    far: HashMap<(NodeId, u32), MdsId>,
}

impl RouteTable {
    /// An empty table for `clients` clients.
    pub fn new(clients: usize) -> Self {
        RouteTable {
            clients,
            row_of: Vec::new(),
            chunks: Vec::new(),
            rows: 0,
            far: HashMap::new(),
        }
    }

    /// Where `dir`'s row lives, if some client has learned it.
    fn find(&self, dir: NodeId) -> Option<(usize, usize)> {
        let row = *self.row_of.get(dir.0 as usize)?;
        (row != NO_ROW).then(|| self.locate(row))
    }

    /// Where `row` lives: its chunk, and its first byte in that chunk.
    fn locate(&self, row: u32) -> (usize, usize) {
        let row = row as usize;
        (row / ROW_CHUNK, row % ROW_CHUNK * self.clients)
    }

    /// `dir`'s row, handed out on first use.
    fn row_or_insert(&mut self, dir: NodeId) -> u32 {
        let d = dir.0 as usize;
        if d >= self.row_of.len() {
            self.row_of.resize(d + 1, NO_ROW);
        }
        if self.row_of[d] == NO_ROW {
            if self.rows as usize == self.chunks.len() * ROW_CHUNK {
                let chunk = vec![0u8; ROW_CHUNK * self.clients].into_boxed_slice();
                self.chunks.push(chunk);
            }
            self.row_of[d] = self.rows;
            self.rows += 1;
        }
        self.row_of[d]
    }

    /// Client `c`'s learned authority for `dir`, if any.
    pub fn get(&self, c: usize, dir: NodeId) -> Option<MdsId> {
        let (chunk, at) = self.find(dir)?;
        match self.chunks[chunk][at + c] {
            0 => None,
            FAR => Some(self.far[&(dir, c as u32)]),
            b => Some(b as MdsId - 1),
        }
    }

    /// A reply told client `c` that `dir` was ultimately served by `mds`.
    pub(crate) fn learn(&mut self, c: usize, dir: NodeId, mds: MdsId) {
        let row = self.row_or_insert(dir);
        let (chunk, at) = self.locate(row);
        let slot = &mut self.chunks[chunk][at + c];
        if mds + 1 < FAR as MdsId {
            if std::mem::replace(slot, mds as u8 + 1) == FAR {
                self.far.remove(&(dir, c as u32));
            }
        } else {
            *slot = FAR;
            self.far.insert((dir, c as u32), mds);
        }
    }

    /// Client `c` forgets what it learned about `dir` alone.
    pub(crate) fn forget(&mut self, c: usize, dir: NodeId) {
        if let Some((chunk, at)) = self.find(dir) {
            if std::mem::take(&mut self.chunks[chunk][at + c]) == FAR {
                self.far.remove(&(dir, c as u32));
            }
        }
    }

    /// Drop every route to one of `dirs` held by a client still running,
    /// returning how many were dropped: one scan of each directory's
    /// row. A `done` client routes nothing any more; its entries stay,
    /// uncounted.
    pub(crate) fn invalidate_dirs(&mut self, clients: &[ClientState], dirs: &[NodeId]) -> u64 {
        let mut dropped = 0;
        for &dir in dirs {
            let Some((chunk, at)) = self.find(dir) else {
                continue;
            };
            let slots = &mut self.chunks[chunk][at..at + self.clients];
            for (c, slot) in slots.iter_mut().enumerate() {
                if *slot != 0 && !clients[c].done {
                    if std::mem::take(slot) == FAR {
                        self.far.remove(&(dir, c as u32));
                    }
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

/// Entries per group cache; LRU eviction beyond this.
pub(crate) const CACHE_CAPACITY: usize = 4096;

/// Proxy groups; clients are split into contiguous ranges, one
/// [`GroupCache`] each ([`group_of`]).
pub(crate) const CACHE_GROUPS: usize = 4;

/// Client-observed latency of a cache hit (round trip to the proxy plus
/// its service time). Hits never enqueue at an MDS, so this replaces the
/// whole `rtt + queue + service` miss path.
pub(crate) const CACHE_HIT_LATENCY: SimTime = SimTime::from_micros(60);

/// One proxy group's read cache: directory → the MDS whose metadata the
/// proxy holds, with capacity-bounded LRU eviction.
///
/// The LRU clock (`tick`) advances on every touch and fill, which land in
/// global `(time, key)` event order — eviction order is therefore a pure
/// function of the event stream.
#[derive(Debug, Clone)]
pub struct GroupCache {
    capacity: usize,
    entries: HashMap<NodeId, GroupSlot>,
    /// LRU recency: tick of last use → directory. Ticks are unique
    /// (each use consumes a fresh one), so this is a total order.
    recency: BTreeMap<u64, NodeId>,
    tick: u64,
}

#[derive(Debug, Clone, Copy)]
struct GroupSlot {
    mds: MdsId,
    tick: u64,
}

impl GroupCache {
    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        GroupCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
        }
    }

    /// The cached authority for `dir`, if present. Read-only: a hit that
    /// the tier serves marks its use with [`GroupCache::touch`].
    pub fn lookup(&self, dir: NodeId) -> Option<MdsId> {
        self.entries.get(&dir).map(|s| s.mds)
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Nothing cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mark `dir` most-recently-used (a hit was served from it). No-op if
    /// the entry is absent.
    pub fn touch(&mut self, dir: NodeId) {
        if let Some(slot) = self.entries.get_mut(&dir) {
            let old = slot.tick;
            self.tick += 1;
            slot.tick = self.tick;
            self.recency.remove(&old);
            self.recency.insert(self.tick, dir);
        }
    }

    /// Insert (or refresh) `dir` as served by `mds`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn fill(&mut self, dir: NodeId, mds: MdsId) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.entries.insert(dir, GroupSlot { mds, tick }) {
            self.recency.remove(&slot.tick);
        }
        self.recency.insert(tick, dir);
        while self.entries.len() > self.capacity {
            let (_, victim) = self.recency.pop_first().expect("len > capacity ≥ 1");
            self.entries.remove(&victim);
        }
    }

    /// Drop `dir`'s entry (a mutating op landed on it, or an export moved
    /// it). Returns whether an entry was present.
    pub fn invalidate(&mut self, dir: NodeId) -> bool {
        match self.entries.remove(&dir) {
            Some(slot) => {
                self.recency.remove(&slot.tick);
                true
            }
            None => false,
        }
    }
}

/// The proxy group fronting `client`. Groups are contiguous client
/// ranges (a proxy serves a rack of clients), a pure function of the
/// client id — identical in every execution mode.
pub fn group_of(client: usize, num_clients: usize, groups: usize) -> usize {
    debug_assert!(client < num_clients && groups > 0);
    client * groups / num_clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::tests::{is_under, SubtreeWindow};
    use mantle_namespace::Namespace;
    use mantle_sim::{SimRng, SimTime};

    fn pick(rng: &mut SimRng, from: &[NodeId]) -> NodeId {
        from[rng.below(from.len() as u64) as usize]
    }

    /// One export drawn at random: a root, up to two new authority bounds
    /// nested below it, and one time in five a frag export (which moves
    /// the fragmented directory alone). Returns the list the export moves,
    /// the parent-walk predicate it must equal, and the bounds to clear
    /// once the case is checked.
    fn random_export(
        ns: &mut Namespace,
        rng: &mut SimRng,
        all: &[NodeId],
    ) -> (Vec<NodeId>, SubtreeWindow, Vec<NodeId>) {
        let root = pick(rng, all);
        let bounds: Vec<NodeId> = (0..rng.below(3))
            .map(|_| pick(rng, all))
            .filter(|&h| h != root && is_under(ns, h, root) && ns.dir(h).auth.is_none())
            .collect();
        for &h in &bounds {
            ns.set_auth(h, Some(1));
        }
        let holes = ns
            .all_dirs()
            .filter(|&d| d != root && ns.dir(d).auth.is_some() && is_under(ns, d, root))
            .collect();
        let window = SubtreeWindow {
            root,
            holes,
            watermark: ns.dir_count() as u32,
            root_only: rng.below(5) == 0,
            until: SimTime::ZERO,
        };
        let moved = if window.root_only {
            vec![root]
        } else {
            ns.subtree_dirs(root, true)
        };
        (moved, window, bounds)
    }

    /// What the learns draw from: near MDS ids, the last near one (253),
    /// and far ones, which sit behind a `255` byte.
    const LEARNED: [MdsId; 9] = [0, 1, 2, 3, 253, 254, 255, 300, 65_535];

    /// Every `get` — for each client and for every directory up to two
    /// past the namespace's end — agrees with the oracle, and `far` holds
    /// exactly one entry per `255` byte.
    fn assert_table_matches(
        routes: &RouteTable,
        oracle: &[HashMap<NodeId, MdsId>],
        dirs: usize,
        at: &str,
    ) {
        for (c, map) in oracle.iter().enumerate() {
            for d in (0..dirs as u32 + 2).map(NodeId) {
                let want = map.get(&d).copied();
                assert_eq!(routes.get(c, d), want, "{at} client {c} {d:?}");
            }
        }
        let far_bytes = routes.chunks.iter().flat_map(|ch| ch.iter());
        let far_bytes = far_bytes.filter(|&&b| b == FAR).count();
        assert_eq!(routes.far.len(), far_bytes, "{at}: far entries");
    }

    /// Satellite check: one route table shared by many clients drops
    /// exactly what a predicate scan of each running client's own map
    /// drops — across random trees and exports (nested bounds,
    /// root-only), directories created after the export, clients that
    /// finish, single-directory forgets, and routes that move between the
    /// byte and `far` in both directions.
    #[test]
    fn interval_invalidation_matches_predicate_oracle() {
        let mut rng = SimRng::new(0xCAFE);
        let (mut late_routes, mut dropped_total, mut spared_done) = (0, 0, 0);
        let (mut to_far, mut to_near, mut most_chunks) = (0, 0, 0);
        for round in 0..40u32 {
            let mut ns = Namespace::default();
            let mut all = vec![ns.root()];
            for i in 0..60 {
                let parent = pick(&mut rng, &all);
                all.push(ns.mkdir(parent, format!("d{i}")));
            }
            let n = 2 + rng.below(7) as usize;
            let mut clients: Vec<ClientState> = (0..n).map(ClientState::new).collect();
            let mut routes = RouteTable::new(n);
            // The oracle: a plain map per client, scanned with the
            // region's predicate.
            let mut oracle: Vec<HashMap<NodeId, MdsId>> = vec![HashMap::new(); n];
            for step in 0..10 {
                let (moved, w, bounds) = random_export(&mut ns, &mut rng, &all);
                // Directories created after the export, half of them in
                // its region: routes to them must survive it.
                let mut late = Vec::new();
                for i in 0..1 + rng.below(4) {
                    let parent = pick(&mut rng, if i % 2 == 0 { &moved } else { &all });
                    late.push(ns.mkdir(parent, format!("late{step}.{i}")));
                }
                all.extend(&late);
                for k in 0..10 * n {
                    let c = rng.below(n as u64) as usize;
                    if !clients[c].done {
                        let d = match late.get(k) {
                            Some(&d) => d,
                            None => pick(&mut rng, &all),
                        };
                        let mds = LEARNED[rng.below(LEARNED.len() as u64) as usize];
                        routes.learn(c, d, mds);
                        if let Some(old) = oracle[c].insert(d, mds) {
                            to_far += usize::from(old < 254 && mds >= 254);
                            to_near += usize::from(old >= 254 && mds < 254);
                        }
                        late_routes += usize::from(d.0 >= w.watermark && is_under(&ns, d, w.root));
                    }
                }
                // A request timed out: one client forgets one directory.
                for _ in 0..rng.below(4) {
                    let (c, d) = (rng.below(n as u64) as usize, pick(&mut rng, &all));
                    routes.forget(c, d);
                    oracle[c].remove(&d);
                }
                if rng.below(5) == 0 {
                    clients[rng.below(n as u64) as usize].done = true;
                }
                let dropped = routes.invalidate_dirs(&clients, &moved);
                let mut want = 0;
                for (c, map) in oracle.iter_mut().enumerate() {
                    let before = map.len();
                    if clients[c].done {
                        spared_done += map.keys().filter(|&&d| w.contains(&ns, d)).count();
                    } else {
                        map.retain(|&d, _| !w.contains(&ns, d));
                    }
                    want += (before - map.len()) as u64;
                }
                assert_eq!(dropped, want, "round {round} step {step}: count");
                dropped_total += dropped;
                let at = format!("round {round} step {step}");
                assert_table_matches(&routes, &oracle, ns.dir_count(), &at);
                for h in bounds {
                    ns.set_auth(h, None);
                }
            }
            most_chunks = most_chunks.max(routes.chunks.len());
        }
        assert!(
            late_routes > 400,
            "{late_routes} routes created after an export"
        );
        assert!(dropped_total > 1_000, "{dropped_total} routes dropped");
        assert!(
            spared_done > 100,
            "{spared_done} routes of finished clients spared"
        );
        assert!(
            to_far > 100 && to_near > 100,
            "{to_far} near routes re-learned far, {to_near} far ones near"
        );
        assert!(most_chunks >= 2, "no round learned past one chunk of rows");
    }

    #[test]
    fn group_cache_evicts_lru_order() {
        let mut ns = Namespace::default();
        let dirs: Vec<NodeId> = (0..4).map(|i| ns.mkdir_p(&format!("/d{i}"))).collect();
        let mut c = GroupCache::new(3);
        c.fill(dirs[0], 0);
        c.fill(dirs[1], 1);
        c.fill(dirs[2], 2);
        // Touch the oldest so it survives the next eviction.
        c.touch(dirs[0]);
        c.fill(dirs[3], 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.lookup(dirs[0]), Some(0), "touched entry survives");
        assert_eq!(c.lookup(dirs[1]), None, "LRU entry evicted");
        assert_eq!(c.lookup(dirs[3]), Some(3));
        // The recency index tracks entries exactly.
        assert_eq!(c.recency.len(), c.entries.len());
    }

    #[test]
    fn group_cache_region_invalidation_spares_holes_and_new_dirs() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        let abc = ns.mkdir_p("/a/b/c");
        let other = ns.mkdir_p("/other");
        let mut c = GroupCache::new(16);
        for &d in &[a, ab, abc, other] {
            c.fill(d, 0);
        }
        // Export /a with a nested bound at /a/b: the hole's subtree and
        // directories created after the export survive.
        ns.set_auth(ab, Some(2));
        let moved = ns.subtree_dirs(a, true);
        let w = SubtreeWindow {
            root: a,
            holes: vec![ab],
            watermark: ns.dir_count() as u32,
            root_only: false,
            until: SimTime::ZERO,
        };
        let late = ns.mkdir_p("/a/late");
        c.fill(late, 0);
        let mut drop_all =
            |moved: &[NodeId]| -> u64 { moved.iter().map(|&d| u64::from(c.invalidate(d))).sum() };
        assert_eq!(drop_all(&moved), 1, "only /a itself is in the region");
        let gone: Vec<NodeId> = ns.all_dirs().filter(|&d| w.contains(&ns, d)).collect();
        assert_eq!(gone, vec![a], "the list is the predicate's region");
        // A frag export moves the fragmented directory alone.
        assert_eq!(drop_all(&[ab]), 1);
        assert_eq!(c.lookup(a), None);
        assert_eq!(c.lookup(ab), None);
        assert_eq!(c.lookup(abc), Some(0), "hole descendant spared");
        assert_eq!(c.lookup(other), Some(0), "outside the region");
        assert_eq!(c.lookup(late), Some(0), "created after the export");
        assert_eq!(c.recency.len(), c.entries.len());
    }

    #[test]
    fn group_assignment_is_contiguous_and_total() {
        let groups = 4;
        let clients = 10;
        let assigned: Vec<usize> = (0..clients).map(|c| group_of(c, clients, groups)).collect();
        assert!(assigned.windows(2).all(|w| w[0] <= w[1]), "contiguous");
        assert_eq!(assigned[0], 0);
        assert_eq!(*assigned.last().unwrap(), groups - 1);
        assert!(assigned.iter().all(|&g| g < groups));
    }
}
