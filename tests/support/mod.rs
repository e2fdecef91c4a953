//! Test support shared by the files in `tests/`: the namespace walk
//! oracles (`properties.rs`, `index_equivalence.rs`), the report hash
//! the pinned goldens compare against, and the Markdown fence reader the
//! docs suites check examples with (`docs_examples.rs`,
//! `golden_trace.rs`).
//!
//! [`Namespace`] answers `resolve_auth`, `auth_frags`,
//! `export_candidate_dirs`, `frag_span`, `peek_frag`, `migrate_subtree`'s
//! `(inodes, holes)` and `mds_load_samples` from state it maintains by
//! deltas: a resolution cache and a fragment summary on every directory,
//! per-MDS ownership sets, per-MDS heat aggregates. Everything here
//! recomputes the same answers
//! from the tree alone — `Dir::{parent, children, auth}` and
//! `Frag::{auth, files, heat}` — by walking it, and compares.

#![allow(dead_code)] // each test crate uses its own part

use mantle::namespace::{FragRef, HeatSample, MdsId, Namespace, NodeId};
use mantle::sim::SimTime;

/// FNV-1a over a report's `Debug` text: written out so a pinned constant
/// does not depend on the standard library's unspecified `DefaultHasher`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Subtree overrides from `d` up to the root, nearest first, each MDS
/// once: the MDSs that know `d`'s path prefix. The first serves `d`.
pub fn walk_chain(ns: &Namespace, d: NodeId) -> Vec<MdsId> {
    let mut chain = Vec::new();
    let mut cur = Some(d);
    while let Some(c) = cur {
        let dir = ns.dir(c);
        if let Some(a) = dir.auth.filter(|a| !chain.contains(a)) {
            chain.push(a);
        }
        cur = dir.parent;
    }
    chain
}

/// The MDS serving `d`: its nearest override, walking up.
pub fn walk_resolve(ns: &Namespace, d: NodeId) -> MdsId {
    walk_chain(ns, d)[0]
}

/// Every fragment `mds` serves, by scanning all of them.
pub fn walk_auth_frags(ns: &Namespace, mds: MdsId) -> Vec<FragRef> {
    let mut out = Vec::new();
    for dir in ns.all_dirs() {
        let resolved = walk_resolve(ns, dir);
        for (frag, f) in ns.dir(dir).frags.iter().enumerate() {
            if f.auth.unwrap_or(resolved) == mds {
                out.push(FragRef { dir, frag });
            }
        }
    }
    out
}

/// Directories `mds` can export from: its subtree roots, and directories
/// of another MDS in which it holds a fragment.
pub fn walk_export_candidates(ns: &Namespace, mds: MdsId) -> Vec<NodeId> {
    ns.all_dirs()
        .filter(|&d| {
            let dir = ns.dir(d);
            dir.auth == Some(mds)
                || (walk_resolve(ns, d) != mds && dir.frags.iter().any(|f| f.auth == Some(mds)))
        })
        .collect()
}

/// What `migrate_subtree(id, _)` is about to report: the inodes of the
/// region below `id` that stops at nested overrides, and those overrides'
/// directories in the order a depth-first walk meets them.
pub fn walk_migration(ns: &Namespace, id: NodeId) -> (u64, Vec<NodeId>) {
    let (mut inodes, mut holes, mut stack) = (0, Vec::new(), vec![id]);
    while let Some(cur) = stack.pop() {
        let dir = ns.dir(cur);
        inodes += 1 + dir.frags.iter().map(|f| f.files).sum::<u64>();
        for &c in &dir.children {
            if ns.dir(c).auth.is_some() {
                holes.push(c);
            } else {
                stack.push(c);
            }
        }
    }
    (inodes, holes)
}

/// What `mds_load_samples(num_mds, now)` should return, summed from every
/// fragment's own counters — peeked, so no decay state is written:
/// `auth[m]` over the fragments `m` serves, `replica[m]` over those whose
/// path prefix `m` knows without serving them.
pub fn walk_load_samples(
    ns: &Namespace,
    num_mds: usize,
    now: SimTime,
) -> (Vec<HeatSample>, Vec<HeatSample>) {
    let mut auth = vec![HeatSample::default(); num_mds];
    let mut replica = vec![HeatSample::default(); num_mds];
    let half_life = ns.config().decay_half_life;
    for d in ns.all_dirs() {
        let chain = walk_chain(ns, d);
        for f in &ns.dir(d).frags {
            let heat = f.heat.peek(now, half_life);
            let serving = f.auth.unwrap_or(chain[0]);
            if serving < num_mds {
                auth[serving] = auth[serving].add(&heat);
            }
            for &m in chain.iter().filter(|&&m| m != serving && m < num_mds) {
                replica[m] = replica[m].add(&heat);
            }
        }
    }
    (auth, replica)
}

/// The read-only check: tree structure, resolution and ownership of `ns`
/// are what a walk says they are. `num_mds` must cover every override.
pub fn assert_indexes_match_walk(ns: &Namespace, num_mds: usize) {
    for d in ns.all_dirs() {
        let dir = ns.dir(d);
        assert_eq!(dir.id, d);
        // Structure: children point back, one level down.
        for &c in &dir.children {
            let child = ns.dir(c);
            assert_eq!(child.parent, Some(d), "{c:?} under {d:?}");
            assert_eq!(child.depth, dir.depth + 1, "{c:?} under {d:?}");
        }
        match dir.parent {
            Some(p) => assert_eq!(ns.dir(p).children.iter().filter(|&&c| c == d).count(), 1),
            None => assert!(
                d == ns.root() && dir.auth.is_some(),
                "{d:?} is a second root"
            ),
        }
        // Resolution.
        let chain = walk_chain(ns, d);
        let resolved = chain[0];
        assert_eq!(ns.resolve_auth(d), resolved, "resolve_auth({d:?})");
        assert_eq!(ns.ancestor_auth_chain(d), chain, "chain of {d:?}");
        let mut owners = Vec::new();
        for (i, f) in dir.frags.iter().enumerate() {
            let serving = f.auth.unwrap_or(resolved);
            assert!(serving < num_mds, "{d:?}/{i} served by MDS {serving}");
            assert_eq!(ns.frag_auth(d, i), serving, "frag_auth({d:?}, {i})");
            if !owners.contains(&serving) {
                owners.push(serving);
            }
        }
        // The fragment summary: owners and the entry total.
        assert_eq!(ns.frag_span(d), owners.len(), "frag_span({d:?})");
        let files: u64 = dir.frags.iter().map(|f| f.files).sum();
        let nfrags = dir.frags.len() as u64;
        assert_eq!(ns.peek_frag(d) as u64, files % nfrags, "peek_frag({d:?})");
    }
    // Ownership.
    for m in 0..num_mds {
        assert_eq!(ns.auth_frags(m), walk_auth_frags(ns, m), "auth_frags({m})");
        assert_eq!(
            ns.export_candidate_dirs(m),
            walk_export_candidates(ns, m),
            "export_candidate_dirs({m})"
        );
    }
}

/// After the split loop has run: no fragment holds more entries than
/// the threshold. A directory whose count of such fragments undercounts
/// skips its split and fails here.
pub fn assert_no_frag_over_threshold(ns: &Namespace) {
    let threshold = ns.config().frag_split_threshold;
    for d in ns.all_dirs() {
        for (i, f) in ns.dir(d).frags.iter().enumerate() {
            assert!(f.files <= threshold, "{d:?}/{i} holds {} entries", f.files);
        }
    }
}

/// One fenced code block of a Markdown document.
#[derive(Debug)]
pub struct Fence {
    /// The fence info string, e.g. `lua metaload`.
    pub tag: String,
    /// Snippet source.
    pub body: String,
    /// 1-based line of the opening fence, for failure messages.
    pub line: usize,
}

/// Extract every fenced code block, failing on unterminated fences.
pub fn fences_in(doc: &str, md: &str) -> Vec<Fence> {
    let mut out = Vec::new();
    let mut open: Option<(String, usize, Vec<&str>)> = None;
    for (idx, raw) in md.lines().enumerate() {
        let line = raw.trim_end();
        match &mut open {
            None => {
                if let Some(tag) = line.strip_prefix("```") {
                    open = Some((tag.trim().to_string(), idx + 1, Vec::new()));
                }
            }
            Some((tag, start, body)) => {
                if line == "```" {
                    out.push(Fence {
                        tag: std::mem::take(tag),
                        body: body.join("\n"),
                        line: *start,
                    });
                    open = None;
                } else {
                    body.push(raw);
                }
            }
        }
    }
    assert!(open.is_none(), "unterminated fence in {doc}");
    out
}
