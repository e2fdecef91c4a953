//! Allocation and memory budgets of building the namespace and of
//! migrating a subtree, counted by a global allocator that counts per
//! thread (so the harness running other tests in parallel adds nothing).
//!
//! * `ZipfMix::setup` over 20 000 directories: the parents' child lists
//!   growing and one interned name per group, ≈ 0.25 allocations per
//!   directory. A fresh name `String` per leaf adds one per directory.
//! * `migrate_subtree` of a 17-directory group (a group and its 16
//!   leaves): the `SubtreeMigration::dirs` list growing, ≈ 4. Walk
//!   buffers made afresh on every call add about six.
//! * The heap a namespace of those 20 000 directories keeps: its rows,
//!   child index, child lists, names and warm bits, 240 bytes per
//!   directory, 208 of them its row. Rows of 280 bytes, with the child
//!   lists in them, kept 309.7.
//! * The most heap a small `ZipfMix` run holds at once — namespace,
//!   clients' latency logs and learned routes, queue and balancer —
//!   8.95 bytes per op. With 4-byte latency samples and a byte per
//!   (directory, client) for every learned directory it held 10.70.
//!
//! Each bound is the measured value plus a little headroom.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mantle::core::build_cluster;
use mantle::prelude::*;
use mantle_mds::Workload;
use mantle_namespace::{MdsId, Namespace, NodeId};
use mantle_workloads::ZipfMix;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation of the calling thread, the
/// bytes it holds, and the most it has held since [`peak_heap`] last
/// reset that mark.
struct Counting;

/// One allocation or reallocation that changed the live bytes by `bytes`.
fn count(bytes: i64) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + bytes);
        let _ = PEAK.try_with(|p| p.set(p.get().max(n.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only thread-local `Cell`s, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most live bytes `f` held on this thread above what the thread held
/// before it, and what it returns.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}

const DIRS: usize = 20_000;

/// A namespace holding `ZipfMix`'s `/zipf/g<k>/d<i>` tree of `DIRS`
/// leaves, and the allocations its set-up made.
fn zipf_namespace() -> (u64, Namespace) {
    let mut ns = Namespace::default();
    let mut w = ZipfMix::new(1, DIRS, 0, 1.0, 0.5, 1);
    let (n, ()) = allocations(|| w.setup(&mut ns));
    (n, ns)
}

#[test]
fn namespace_setup_allocates_a_quarter_per_directory() {
    let (n, ns) = zipf_namespace();
    let created = ns.dir_count() - 1;
    assert_eq!(created, DIRS + DIRS / 16 + 1);
    let per_dir = n as f64 / created as f64;
    assert!(
        per_dir <= 0.26,
        "{per_dir:.3} allocations per directory ({n} for {created})"
    );
}

#[test]
fn a_namespace_keeps_240_bytes_of_heap_per_directory() {
    let before = LIVE.with(Cell::get);
    let ns = {
        let mut ns = Namespace::default();
        ZipfMix::new(1, DIRS, 0, 1.0, 0.5, 1).setup(&mut ns);
        ns
    };
    let live = LIVE.with(Cell::get) - before;
    let created = ns.dir_count() - 1;
    let per_dir = live as f64 / created as f64;
    assert!(
        per_dir <= 248.0,
        "{per_dir:.1} live bytes per directory ({live} for {created})"
    );
}

#[test]
fn a_group_migration_allocates_only_its_region_list() {
    let (_, mut ns) = zipf_namespace();
    let top = ns.lookup_child(ns.root(), "zipf").unwrap();
    let groups: Vec<NodeId> = ns.children(top).to_vec();
    // Every group twice, over 8 MDSs: each migration but the first to an
    // MDS finds its chain already interned, as in a long run.
    let (mut n, mut moved) = (0, 0);
    for round in 0..2 {
        for (g, &group) in groups.iter().enumerate() {
            let to = (g + round) % 8 + 1;
            let (a, m) = allocations(|| ns.migrate_subtree(group, to as MdsId));
            assert_eq!(m.dirs.len(), 17);
            (n, moved) = (n + a, moved + 1);
        }
    }
    let per_migration = n as f64 / moved as f64;
    assert!(
        per_migration <= 4.4,
        "{per_migration:.2} allocations per migration ({n} for {moved})"
    );
}

/// Building and running a `ZipfMix` cluster the shape of `batch-steady`
/// (10 MDSs, 64 clients, greedy spill), at 2 000 directories and 2 000
/// ops a client: the most heap it holds at once, per op.
#[test]
fn a_zipf_run_peaks_at_9_bytes_of_heap_per_op() {
    let (clients, ops_per_client) = (64, 2_000);
    let config = ClusterConfig {
        num_mds: 10,
        heartbeat_interval: SimTime::from_secs(2),
        frag_split_threshold: 1_000,
        ..Default::default()
    };
    let workload = WorkloadSpec::ZipfMix {
        clients,
        dirs: 2_000,
        ops_per_client,
        exponent: 1.1,
        write_fraction: 0.5,
    };
    let policy = policies::greedy_spill_even().expect("preset policy parses");
    let balancer = BalancerSpec::mantle("greedy-spill-even", policy);
    let exp = Experiment::new(config, workload, balancer);
    let (peak, report) = peak_heap(|| build_cluster(&exp).run());
    let ops = (clients as u64 * ops_per_client) as f64;
    assert_eq!(report.total_ops(), ops);
    let per_op = peak as f64 / ops;
    assert!(
        per_op <= 9.3,
        "{per_op:.2} peak live bytes per op ({peak} for {ops})"
    );
}
