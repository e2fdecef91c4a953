//! The coordinator's side of tracing: it owns the sink
//! ([`TraceBuffer`]), stamps and keys the control-plane records, and
//! merges them with the data plane's records into the one ordered
//! stream.
//!
//! Every emission site hands over a closure, built into a payload only
//! when a sink is attached — with tracing off an emission is one branch,
//! and untraced fixed-seed runs stay byte-identical.

use mantle_namespace::{Namespace, NodeId};
use mantle_sim::SimTime;

use crate::config::ClusterConfig;
use crate::shard::{Shard, TraceKey};
use crate::trace::{Timeline, TraceBuffer, TraceEvent, TraceLevel, TraceRecord};

/// Coordinator-side trace state. The sink lives here for the whole run
/// and is handed back by [`Tracer::into_buffer`]; nothing else holds it.
pub(crate) struct Tracer {
    /// The sink; `None` means tracing is off.
    buffer: Option<TraceBuffer>,
    /// The sink's level is Full (mirrors the shard's `trace_full`, and
    /// gates the coordinator's own data-plane emissions — barrier-time
    /// cache fills/invalidations).
    full: bool,
    /// Records emitted since the last merge, with their merge keys.
    /// Coordinator emissions carry origin rank 0, so at equal timestamps
    /// they sort before every data-plane emission — matching the
    /// exclusive-step / barrier ordering that produced them.
    pending: Vec<(TraceKey, TraceRecord)>,
    /// Monotonic rank-0 key counter.
    ctr: u64,
    /// Latest timestamp emitted at (barrier emissions can postdate the
    /// last processed event; `RunEnd` must not precede them).
    last_emit_at: SimTime,
    /// Heartbeat epoch: balancer ticks completed so far (stamps records;
    /// mirrors [`crate::shard::SharedSim::hb_epoch`]).
    pub(crate) epoch: u64,
    /// Directories already announced (`DirAdded` watermark).
    traced_dirs: u32,
}

impl Tracer {
    /// A tracer with a sink at `level`, or an inert one.
    pub(crate) fn new(level: Option<TraceLevel>, cfg: &ClusterConfig) -> Self {
        Tracer {
            buffer: level.map(|l| TraceBuffer::new(l, cfg.num_mds, cfg.heartbeat_interval)),
            full: level == Some(TraceLevel::Full),
            pending: Vec::new(),
            ctr: 0,
            last_emit_at: SimTime::ZERO,
            epoch: 0,
            traced_dirs: 0,
        }
    }

    /// Whether a sink is attached.
    pub(crate) fn on(&self) -> bool {
        self.buffer.is_some()
    }

    /// Whether request-level records are wanted (level Full).
    pub(crate) fn full(&self) -> bool {
        self.full
    }

    /// The per-tick gauges, when tracing.
    pub(crate) fn timeline(&mut self) -> Option<&mut Timeline> {
        self.buffer.as_mut().map(|b| &mut b.timeline)
    }

    /// Emit a control-plane event (recorded at every trace level). The
    /// payload closure only runs when a sink is attached.
    pub(crate) fn emit(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.buffer.is_none() {
            return;
        }
        let record = TraceRecord {
            at,
            epoch: self.epoch,
            event: make(),
        };
        self.pending.push(((at, self.ctr, 0), record));
        self.ctr += 1;
        self.last_emit_at = self.last_emit_at.max(at);
    }

    /// Emit a data-plane record from the coordinator (recorded only at
    /// `TraceLevel::Full`): barrier-applied cache fills/invalidations.
    pub(crate) fn emit_data(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.full {
            self.emit(at, make);
        }
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
            let (parent, files) = (d.parent, d.frags.iter().map(|f| f.files).collect());
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
            if let Some(m) = dir.auth {
                dirs.push((d, m));
            }
            for (f, frag) in dir.frags.iter().enumerate() {
                if let Some(m) = frag.auth {
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
            fallback_after: cfg.faults.fallback_after,
            level,
            heartbeat_us: cfg.heartbeat_interval.as_micros(),
        });
        self.sync_dirs(ns, SimTime::ZERO);
        self.emit_auth_snapshot(ns, SimTime::ZERO);
    }

    /// The stream trailer. It must sort after everything, including
    /// barrier emissions stamped past the last event.
    pub(crate) fn run_end(&mut self, last_now: SimTime, inflight: usize) {
        if self.buffer.is_none() {
            return;
        }
        let at = last_now.max(self.last_emit_at);
        self.pending.push((
            (at, u64::MAX, 0),
            TraceRecord {
                at,
                epoch: self.epoch,
                event: TraceEvent::RunEnd { inflight },
            },
        ));
    }

    /// Everything emitted since the last merge — here and on the data
    /// plane — as one sequence. Keys are unique, so the sort is a total
    /// order. Successive merges are time-ordered because the scheduler
    /// frontier only moves forward, so concatenating them reproduces the
    /// single merge of a batch run.
    pub(crate) fn merge(&mut self, plane: &mut Shard) -> Vec<TraceRecord> {
        let mut all = std::mem::take(&mut self.pending);
        all.append(&mut plane.trace);
        all.sort_unstable_by_key(|(k, _)| *k);
        all.into_iter().map(|(_, r)| r).collect()
    }

    /// Hand the sink back, holding `records` (a batch run's whole stream).
    pub(crate) fn into_buffer(self, records: Vec<TraceRecord>) -> Option<TraceBuffer> {
        let mut buffer = self.buffer?;
        for r in records {
            buffer.push(r);
        }
        Some(buffer)
    }
}
