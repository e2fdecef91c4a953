//! The run's one trace buffer. The `Tracer` lives in the simulation state
//! ([`crate::world`]); the coordinator's stages and the data-plane
//! handlers both emit through it, and it stamps each record with the
//! heartbeat epoch and appends it to the sink ([`TraceBuffer`]) as it is
//! emitted. The engine runs on one thread, so emission order *is* the
//! stream's order: nothing is keyed, and nothing is re-sorted. Records
//! are stamped with their event's instant; what is emitted between
//! events — the `RunEnd` trailer, the live-service pump's directory
//! announcements — is stamped with the time frontier
//! (the event queue's own clock), the instant of the last event run, so no
//! record is stamped before one already emitted.
//!
//! Every emission site hands over a closure, built into a payload only
//! when a sink is attached — with tracing off an emission is one branch,
//! and untraced fixed-seed runs stay byte-identical.

use mantle_namespace::{Namespace, NodeId};
use mantle_sim::SimTime;

use crate::balancer::FALLBACK_AFTER;
use crate::config::ClusterConfig;
use crate::trace::{TraceBuffer, TraceEvent, TraceLevel, TraceRecord};

/// Run-wide trace state. The sink lives here for the whole run and is
/// handed back by [`Tracer::into_buffer`]; nothing else holds it.
pub(crate) struct Tracer {
    /// The sink; `None` means tracing is off.
    buffer: Option<TraceBuffer>,
    /// The sink's level is Full: the data plane's request-level records
    /// are wanted.
    full: bool,
    /// Heartbeat epoch: balancer ticks completed so far. Stamps every
    /// record, and only changes in a tick.
    pub(crate) epoch: u64,
    /// Directories already announced (`DirAdded` watermark).
    traced_dirs: u32,
}

impl Tracer {
    /// A tracer with a sink at `level`, or an inert one.
    pub(crate) fn new(level: Option<TraceLevel>) -> Self {
        Tracer {
            buffer: level.map(TraceBuffer::new),
            full: level == Some(TraceLevel::Full),
            epoch: 0,
            traced_dirs: 0,
        }
    }

    /// Whether a sink is attached.
    pub(crate) fn on(&self) -> bool {
        self.buffer.is_some()
    }

    /// Emit a control-plane event (recorded at every trace level). The
    /// payload closure only runs when a sink is attached.
    pub(crate) fn emit(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.buffer.is_some() {
            self.push(at, make());
        }
    }

    /// Emit a data-plane record (recorded only at `TraceLevel::Full`):
    /// the per-request events, cache traffic included.
    pub(crate) fn emit_data(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.full {
            self.push(at, make());
        }
    }

    /// Append one record. Kept out of line so that an emission site on
    /// the per-request path inlines only the level check: inlining the
    /// append at every data-plane site cost ≈ 3 % of `batch-steady`
    /// throughput with tracing off (2-core x86-64 host).
    #[inline(never)]
    fn push(&mut self, at: SimTime, event: TraceEvent) {
        let Some(buffer) = &mut self.buffer else {
            return;
        };
        buffer.push(TraceRecord {
            at,
            epoch: self.epoch,
            event,
        });
    }

    /// Announce directories created since the last sync (workload setup,
    /// admin repartitions, live ops) so the checker's tree model stays
    /// complete.
    pub(crate) fn sync_dirs(&mut self, ns: &Namespace, at: SimTime) {
        if self.buffer.is_none() {
            return;
        }
        let total = ns.dir_count() as u32;
        while self.traced_dirs < total {
            let id = NodeId(self.traced_dirs);
            let d = ns.dir(id);
            let (parent, files) = (d.parent(), d.frags.iter().map(|f| f.files).collect());
            self.emit(at, || TraceEvent::DirAdded {
                dir: id,
                parent,
                files,
            });
            self.traced_dirs += 1;
        }
    }

    /// Emit the complete explicit-authority state. Used at the preamble
    /// and after admin actions, which mutate authority outside the traced
    /// event flow.
    pub(crate) fn emit_auth_snapshot(&mut self, ns: &Namespace, at: SimTime) {
        if self.buffer.is_none() {
            return;
        }
        let mut dirs = Vec::new();
        let mut frags = Vec::new();
        for d in ns.all_dirs() {
            let dir = ns.dir(d);
            if let Some(m) = dir.auth.get() {
                dirs.push((d, m));
            }
            for (f, frag) in dir.frags.iter().enumerate() {
                if let Some(m) = frag.auth.get() {
                    frags.push((d, f, m));
                }
            }
        }
        self.emit(at, || TraceEvent::AuthSnapshot { dirs, frags });
    }

    /// The stream preamble: header, the setup-time tree, and the explicit
    /// authority state (static partitions applied before the run).
    pub(crate) fn preamble(&mut self, cfg: &ClusterConfig, ns: &Namespace) {
        let Some(level) = self.buffer.as_ref().map(|b| b.level) else {
            return;
        };
        self.emit(SimTime::ZERO, || TraceEvent::RunStart {
            num_mds: cfg.num_mds,
            fallback_after: FALLBACK_AFTER,
            level,
            heartbeat_us: cfg.heartbeat_interval.as_micros(),
        });
        self.sync_dirs(ns, SimTime::ZERO);
        self.emit_auth_snapshot(ns, SimTime::ZERO);
    }

    /// The stream trailer, stamped `at` the time frontier, the last
    /// event's instant: every record is stamped with its own event's, so
    /// none is later.
    pub(crate) fn run_end(&mut self, at: SimTime, inflight: usize) {
        self.emit(at, || TraceEvent::RunEnd { inflight });
    }

    /// Everything emitted since the last drain, in emission order. The
    /// live service streams each loop step's records this way,
    /// so concatenating its batches gives the batch-mode stream.
    pub(crate) fn drain(&mut self) -> Vec<TraceRecord> {
        self.buffer
            .as_mut()
            .map(|b| std::mem::take(b.records_mut()))
            .unwrap_or_default()
    }

    /// Hand the sink back, holding every record not drained (a batch
    /// run's whole stream).
    pub(crate) fn into_buffer(self) -> Option<TraceBuffer> {
        self.buffer
    }
}
