//! The window barrier: everything a window could not do to shared state
//! while it read it, applied once the window has ended.
//!
//! The data plane defers namespace mutations (`NsOp`) during a window.
//! The barrier has two effects: it applies the mutations in the order
//! their events ran in (phase A), and runs fragment splits — the paper's
//! *fragment* stage — for every directory charged (phase B). A window
//! that deferred nothing costs one length check.

use std::collections::HashSet;

use mantle_namespace::NodeId;
use mantle_sim::SimTime;

use crate::config::SPLIT_US;
use crate::driver::Exclusive;
use crate::shard::NsOp;
use crate::trace::TraceEvent;
use crate::tracer::Tracer;

/// Barrier state, owned by the coordinator: reused buffers and the count
/// of what coherence invalidation dropped.
#[derive(Default)]
pub(crate) struct Barrier {
    /// Split-check worklist: directories charged this window, once each.
    touched: Vec<NodeId>,
    seen: HashSet<NodeId>,
    /// Proxy-cache entries dropped because a mutating op rewrote their
    /// directory.
    pub(crate) cache_invalidations: u64,
}

impl Barrier {
    /// Close the window that ended at `window_end`.
    pub(crate) fn apply(&mut self, x: &mut Exclusive, trace: &mut Tracer, window_end: SimTime) {
        let (sh, plane) = x.parts();
        if plane.deferred.is_empty() {
            debug_assert!(self.touched.is_empty());
            return;
        }
        // Phase A — heat/size charges and hash pins, in the order their
        // events ran. Splits are deliberately excluded (phase B) so every
        // charge in this window lands on the fragment layout the window
        // routed against.
        self.seen.clear();
        for d in plane.deferred.drain(..) {
            match d.op {
                NsOp::Record { dir, frag, kind } => {
                    sh.ns.record_op_no_split(dir, frag, kind, d.at);
                    if self.seen.insert(dir) {
                        self.touched.push(dir);
                    }
                }
                NsOp::Pin { dir, mds } => {
                    // First arrival (in key order) wins; later deferred
                    // pins for the same dir are no-ops.
                    if sh.ns.dir(dir).auth.is_none() {
                        sh.ns.set_auth(dir, Some(mds));
                        trace.emit(window_end, || TraceEvent::HashPin { dir, mds });
                    }
                }
                NsOp::CacheTouch { group, dir } => {
                    sh.caches[group].touch(dir);
                }
                NsOp::CacheFill { group, dir, mds } => {
                    sh.caches[group].fill(dir, mds);
                    // Stamped at the barrier: that is when the fill takes
                    // effect, and it keeps the trace order-sound (no hit
                    // in a later window can precede its fill in the
                    // stream).
                    trace.emit_data(window_end, || TraceEvent::CacheFill { group, dir, mds });
                }
                NsOp::CacheInvalidate { dir } => {
                    let mut entries = 0u64;
                    for cache in &mut sh.caches {
                        entries += u64::from(cache.invalidate(dir));
                    }
                    if entries > 0 {
                        self.cache_invalidations += entries;
                        trace
                            .emit_data(window_end, || TraceEvent::CacheInvalidate { dir, entries });
                    }
                }
            }
        }
        // Phase B — fragment splits for every directory charged this
        // window. The split work is billed to the fragment's authority,
        // which is the MDS that was serving those ops.
        for dir in self.touched.drain(..) {
            while let Some(se) = x.sim().ns.check_split(dir, window_end) {
                trace.emit(window_end, || TraceEvent::FragSplit {
                    dir,
                    frag: se.frag,
                    ways: se.ways,
                    resulting_frags: se.resulting_frags,
                });
                let auth = x.sim().ns.frag_auth(dir, se.resulting_frags - 1);
                let plane = x.plane();
                let c = &mut plane.counters[auth];
                c.report.splits += 1;
                c.busy_window_us += SPLIT_US;
                plane.next_free[auth] =
                    plane.next_free[auth].max(window_end) + SimTime::from_micros_f64(SPLIT_US);
            }
        }
    }
}
