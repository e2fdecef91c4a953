//! Structured event tracing for the cluster simulation.
//!
//! A [`TraceBuffer`] is an optional, zero-cost-when-disabled sink the
//! cluster threads through every decision point: balancer ticks (hook
//! outcomes), migration phases (freeze → journal → commit → unfreeze),
//! forwards, session flushes, client timeouts/retries, crashes/failovers,
//! and balancer fallbacks. Every record is stamped with sim time, the
//! heartbeat epoch it happened in, and enough payload that
//! [`crate::invariants::check_trace`] can *replay* the stream and verify
//! cluster-wide safety properties without access to the live cluster.
//!
//! Two verbosity levels keep traces manageable: [`TraceLevel::Decisions`]
//! records only control-plane events (ticks, migrations, faults, splits),
//! while [`TraceLevel::Full`] adds the per-request data plane (issue,
//! serve, forward, complete), which the conservation and freeze-discipline
//! invariants need.
//!
//! [`TraceEvent`] is the JSONL schema. Each variant is declared once, as
//! `Variant = "tag" { fields }` in the `trace_events!` invocation below,
//! and that declaration also generates [`TraceEvent::name`] and the field
//! writer: a record is `at`, `epoch` and `ev`, then every field under its
//! own name in declaration order, each value written by its type.
//! Adding an event is one edit to that declaration plus its rule in
//! [`crate::invariants`].
//!
//! Both the event stream and the per-tick [`Timeline`] (per-MDS load,
//! queue depth, throughput on [`mantle_sim::TimeSeries`] buckets)
//! serialize to JSONL with no external dependencies; the encoding is
//! deterministic for fixed-seed runs, so traces can be snapshot-tested
//! byte-for-byte.

use mantle_namespace::{FragId, MdsId, NodeId, OpKind};
use mantle_sim::{json, SimTime, TimeSeries};
use std::fmt::Write as _;

/// How much the sink records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Control-plane only: ticks, migrations, faults, splits, snapshots.
    Decisions,
    /// Everything, including per-request issue/serve/forward/complete —
    /// required by the conservation and freeze-discipline invariants.
    Full,
}

impl TraceLevel {
    /// Canonical lowercase name (as accepted by the `trace` bin).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Decisions => "decisions",
            TraceLevel::Full => "full",
        }
    }

    /// Parse a level name.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "decisions" => Some(TraceLevel::Decisions),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// One traced event with its timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Heartbeat epoch: the number of balancer ticks that have run when
    /// the event fired (0 before the first tick). Strictly increasing
    /// tick-over-tick — one of the checked invariants.
    pub epoch: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// Declares [`TraceEvent`] from one list of `Variant = "tag" { fields }`
/// and derives its JSONL schema from that list: [`TraceEvent::name`]
/// returns the tag, and `write_fields` writes every field under its own
/// name, in declaration order. Docs and derives pass through.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $tag:literal {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty,
                    )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$variant_meta])*
                $variant {
                    $(
                        $(#[$field_meta])*
                        $field: $ty,
                    )*
                },
            )*
        }

        impl TraceEvent {
            /// The event's `ev` tag in the JSONL encoding.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $tag,)*
                }
            }

            /// Append `,"field":value` for each payload field.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            Field::write($field, out);
                        )*
                    })*
                }
            }
        }
    };
}

trace_events! {
    /// The typed event taxonomy, and the JSONL schema: a variant's tag is
    /// its `ev` name, and each field is written under its own name.
    ///
    /// Payloads carry *pre-transition* state where the invariant checker
    /// verifies before applying (e.g. [`TraceEvent::MigrationCommit`] is
    /// checked against the checker's ownership model as of the instant
    /// before the migration, then applied to it).
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// Stream header: cluster shape and checker configuration.
        RunStart = "run_start" {
            /// Number of MDSs.
            num_mds: usize,
            /// Consecutive-error threshold for the balancer fallback.
            fallback_after: u32,
            /// The sink's verbosity.
            level: TraceLevel,
            /// Heartbeat interval in µs.
            heartbeat_us: u64,
        },
        /// A directory became visible to the trace (at the preamble for
        /// workload-setup dirs, mid-run for dirs the workload creates).
        DirAdded = "dir_added" {
            /// The new directory.
            dir: NodeId,
            /// Its parent (None only for the root).
            parent: Option<NodeId>,
            /// Per-fragment file counts at emission.
            files: Vec<u64>,
        },
        /// Wholesale authority state: every explicit subtree and fragment
        /// override. Emitted at the preamble and after admin repartitions
        /// (which mutate the namespace outside the traced event flow).
        AuthSnapshot = "auth_snapshot" {
            /// `(dir, mds)` subtree authority overrides.
            dirs: Vec<(NodeId, MdsId)>,
            /// `(dir, frag, mds)` fragment authority overrides.
            frags: Vec<(NodeId, FragId, MdsId)>,
        },
        /// A cluster-wide heartbeat + balancer tick began.
        HeartbeatTick = "heartbeat_tick" {
            /// Per-MDS authority metaload as the balancers will see it
            /// (frozen/delayed under heartbeat faults).
            loads: Vec<f64>,
        },
        /// A balancer ran and chose not to migrate.
        BalancerTick = "balancer_tick" {
            /// The deciding MDS.
            mds: MdsId,
        },
        /// A balancer produced a migration plan that partitioned successfully.
        BalancerPlan = "balancer_plan" {
            /// The deciding MDS.
            mds: MdsId,
            /// Load targeted at each MDS (the `where` hook's output).
            targets: Vec<f64>,
            /// Configured `howmuch` selector names.
            selectors: Vec<String>,
            /// Number of exports the partitioner produced.
            exports: usize,
        },
        /// A balancer hook errored this tick.
        PolicyError = "policy_error" {
            /// The erroring MDS.
            mds: MdsId,
            /// Its consecutive-error count after this error.
            consecutive: u32,
        },
        /// `fallback_after` consecutive errors: the MDS swapped in the
        /// built-in CephFS balancer.
        BalancerFallback = "balancer_fallback" {
            /// The falling-back MDS.
            mds: MdsId,
        },
        /// A hot policy reload installed a new balancer on every MDS (the
        /// daemon's admin swap, or a scheduled sim-mode install). Runs as one
        /// of the coordinator's global steps, so decisions in earlier ticks
        /// finished entirely on the previous policy.
        PolicyInstalled = "policy_installed" {
            /// Install epoch (monotonic; 0 is the boot policy).
            install_epoch: u64,
            /// The new policy's name.
            name: String,
        },
        /// Migration phase 1: the moved region froze for two-phase commit.
        MigrationFreeze = "migration_freeze" {
            /// Migration id (unique per run, shared by all phases).
            mig: u64,
            /// Exporter.
            from: MdsId,
            /// Importer.
            to: MdsId,
            /// Subtree root (or the fragmented dir for a frag export).
            root: NodeId,
            /// For a fragment export, the moved fragment; None = whole subtree.
            frag: Option<FragId>,
            /// Nested authority bounds excluded from the moved region.
            holes: Vec<NodeId>,
            /// `dir_count` at capture; later dirs are outside the region.
            watermark: u32,
            /// When the freeze thaws.
            until: SimTime,
        },
        /// Migration phase 2: one side journals the moved metadata.
        MigrationJournal = "migration_journal" {
            /// Migration id.
            mig: u64,
            /// The journaling MDS (exporter first, then importer).
            mds: MdsId,
            /// Busy time charged, µs.
            micros: f64,
        },
        /// Migration phase 3: authority switched to the importer.
        MigrationCommit = "migration_commit" {
            /// Migration id.
            mig: u64,
            /// Exporter.
            from: MdsId,
            /// Importer.
            to: MdsId,
            /// Subtree root (or the fragmented dir).
            root: NodeId,
            /// For a fragment export, the moved fragment.
            frag: Option<FragId>,
            /// Inodes moved (dirs + files) — checked for conservation.
            inodes: u64,
        },
        /// Migration phase 4: the freeze window ends (stamped at commit time;
        /// `thaw` is when requests resume).
        MigrationUnfreeze = "migration_unfreeze" {
            /// Migration id.
            mig: u64,
            /// Subtree root.
            root: NodeId,
            /// The thaw instant.
            thaw: SimTime,
        },
        /// Client sessions flushed by a migration (§4.1).
        SessionFlush = "session_flush" {
            /// The exporting MDS.
            mds: MdsId,
            /// How many active clients flushed.
            clients: u64,
        },
        /// A directory fragmented (charged to the serving MDS).
        FragSplit = "frag_split" {
            /// The directory.
            dir: NodeId,
            /// The fragment that split (pre-split index).
            frag: FragId,
            /// Split arity.
            ways: usize,
            /// Fragments after the split.
            resulting_frags: usize,
        },
        /// Hash placement pinned a fresh directory to an MDS.
        HashPin = "hash_pin" {
            /// The directory.
            dir: NodeId,
            /// Its pinned authority.
            mds: MdsId,
        },
        /// An MDS crashed; its subtrees/frags fail over to MDS 0.
        MdsCrash = "mds_crash" {
            /// The crashed MDS.
            mds: MdsId,
        },
        /// A crashed MDS came back (empty-handed).
        MdsRestart = "mds_restart" {
            /// The restarted MDS.
            mds: MdsId,
        },
        /// Elastic membership: a spare MDS began joining the member set. The
        /// re-homing migrations toward it follow in the same tick.
        MdsJoinStart = "mds_join_start" {
            /// The joining MDS.
            mds: MdsId,
            /// Membership epoch of this transition (bumped once per
            /// join/leave; strictly increasing across transitions).
            membership_epoch: u64,
        },
        /// Elastic membership: the joining MDS is a full member.
        MdsJoinComplete = "mds_join_complete" {
            /// The joined MDS.
            mds: MdsId,
            /// Membership epoch of this transition.
            membership_epoch: u64,
            /// Export units re-homed onto the new member.
            rehomed: usize,
        },
        /// Elastic membership: drain of a departing member began.
        MdsDrainStart = "mds_drain_start" {
            /// The draining MDS.
            mds: MdsId,
            /// Membership epoch of this transition.
            membership_epoch: u64,
        },
        /// Elastic membership: the departing MDS exported its last authority.
        /// From here until a later rejoin it must own nothing.
        MdsDrainComplete = "mds_drain_complete" {
            /// The drained MDS.
            mds: MdsId,
            /// Membership epoch of this transition.
            membership_epoch: u64,
            /// Export units drained off the member.
            drained: usize,
        },
        /// Elastic membership: the drained MDS left the member set
        /// (deregistered; stragglers forward to the new authorities).
        MdsDeparted = "mds_departed" {
            /// The departed MDS.
            mds: MdsId,
            /// Membership epoch of this transition.
            membership_epoch: u64,
        },
        /// A non-crash fault was injected.
        FaultInjected = "fault_injected" {
            /// The target MDS.
            mds: MdsId,
            /// `slowdown`, `drop-heartbeats`, `delay-heartbeats`, or
            /// `poison-balancer`.
            kind: &'static str,
        },
        /// A client put a request on the wire (Full level).
        RequestIssued = "request_issued" {
            /// The issuing client.
            client: usize,
            /// Target directory.
            dir: NodeId,
            /// The MDS it routed to.
            mds: MdsId,
            /// The client's attempt sequence number.
            seq: u64,
        },
        /// A client's request timeout fired while the attempt was still
        /// outstanding (Full level).
        RequestTimeout = "request_timeout" {
            /// The client.
            client: usize,
            /// The timed-out attempt.
            seq: u64,
        },
        /// A client re-issued its pending op after backoff (Full level).
        RequestRetry = "request_retry" {
            /// The client.
            client: usize,
            /// Attempt count so far (1 = first retry).
            attempt: u32,
        },
        /// A request reached a crashed MDS and was lost (Full level).
        Dropped = "dropped" {
            /// The dead MDS.
            mds: MdsId,
            /// The issuing client.
            client: usize,
        },
        /// A request hit a frozen region and deferred to the thaw (Full
        /// level).
        Deferred = "deferred" {
            /// The receiving MDS.
            mds: MdsId,
            /// Target directory.
            dir: NodeId,
            /// When it will be re-delivered.
            until: SimTime,
        },
        /// A request landed on a non-authority MDS and was forwarded (Full
        /// level).
        Forwarded = "forwarded" {
            /// The wrong MDS.
            from: MdsId,
            /// The authority it forwarded to.
            to: MdsId,
            /// Target directory.
            dir: NodeId,
            /// The routed fragment (clamped to the current layout).
            frag: FragId,
            /// The issuing client.
            client: usize,
        },
        /// An MDS accepted a request for service (Full level). The anchor for
        /// the authority and freeze-discipline invariants.
        Served = "served" {
            /// The serving MDS.
            mds: MdsId,
            /// The issuing client.
            client: usize,
            /// Target directory.
            dir: NodeId,
            /// The served fragment (clamped to the current layout).
            frag: FragId,
            /// Operation kind.
            kind: OpKind,
            /// The client's attempt sequence number.
            seq: u64,
        },
        /// A completion from a pre-crash incarnation was discarded (Full
        /// level).
        GhostReply = "ghost_reply" {
            /// The restarted MDS.
            mds: MdsId,
        },
        /// The server finished an op whose client had already timed out and
        /// retried — server-side work happened, the reply was wasted (Full
        /// level).
        StaleReply = "stale_reply" {
            /// The serving MDS.
            mds: MdsId,
            /// The original client.
            client: usize,
            /// Target directory.
            dir: NodeId,
            /// The fragment the op was recorded on (pre-split layout).
            frag: FragId,
            /// Operation kind.
            kind: OpKind,
        },
        /// The proxy tier absorbed a cacheable op: the client group's cache
        /// held the directory, so the op completed in cache-service time
        /// without touching any MDS (Full level). Replaces the
        /// [`TraceEvent::RequestIssued`]/[`TraceEvent::Served`]/
        /// [`TraceEvent::Completed`] triple a miss would have produced.
        CacheHit = "cache_hit" {
            /// The client's proxy group.
            group: usize,
            /// The issuing client.
            client: usize,
            /// Target directory.
            dir: NodeId,
            /// The MDS the cached entry names (attribution only — it was
            /// not contacted).
            mds: MdsId,
        },
        /// A completed cacheable op's reply filled a group cache (Full
        /// level; stamped at the completion, which is when the fill takes
        /// effect).
        CacheFill = "cache_fill" {
            /// The filled proxy group.
            group: usize,
            /// The cached directory.
            dir: NodeId,
            /// The authority the entry names.
            mds: MdsId,
        },
        /// A mutating op's completion dropped a directory's proxy-cache
        /// entries (Full level; emitted only when at
        /// least one entry actually dropped).
        CacheInvalidate = "cache_invalidate" {
            /// The invalidated directory.
            dir: NodeId,
            /// Entries dropped across all groups.
            entries: u64,
        },
        /// A request completed and its reply reached the client (Full level).
        Completed = "completed" {
            /// The serving MDS.
            mds: MdsId,
            /// The client.
            client: usize,
            /// Target directory.
            dir: NodeId,
            /// The fragment the op was recorded on (pre-split layout).
            frag: FragId,
            /// Operation kind.
            kind: OpKind,
        },
        /// Stream trailer: emitted when the event loop ends.
        RunEnd = "run_end" {
            /// Requests still in flight (non-zero only for truncated runs).
            inflight: usize,
        },
    }
}

// ---------------------------------------------------------------------------
// JSONL encoding: each field value writes itself, scalars through the
// workspace's one codec ([`mantle_sim::json`]). Writing into a `String`
// cannot fail.
// ---------------------------------------------------------------------------

/// A value as it appears in a JSONL field.
trait Field {
    fn write(&self, out: &mut String);
}

macro_rules! display_fields {
    ($($ty:ty),*) => {
        $(impl Field for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })*
    };
}

display_fields!(u32, u64, usize);

impl Field for f64 {
    fn write(&self, out: &mut String) {
        let _ = json::write_f64(out, *self);
    }
}

impl Field for str {
    fn write(&self, out: &mut String) {
        let _ = json::write_str(out, self);
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        self.as_str().write(out);
    }
}

impl<T: Field + ?Sized> Field for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

impl Field for NodeId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }
}

/// Virtual time, as µs.
impl Field for SimTime {
    fn write(&self, out: &mut String) {
        self.as_micros().write(out);
    }
}

impl Field for OpKind {
    fn write(&self, out: &mut String) {
        self.name().write(out);
    }
}

impl Field for TraceLevel {
    fn write(&self, out: &mut String) {
        self.name().write(out);
    }
}

impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Field> Field for [T] {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write(out);
        }
        out.push(']');
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        self.as_slice().write(out);
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(',');
        self.2.write(out);
        out.push(']');
    }
}

impl TraceRecord {
    /// Append this record's one-line JSON encoding (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"at\":{},\"epoch\":{},\"ev\":\"{}\"",
            self.at.as_micros(),
            self.epoch,
            self.event.name()
        );
        self.event.write_fields(out);
        out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Timeline: per-tick gauges on TimeSeries buckets.
// ---------------------------------------------------------------------------

/// One MDS's per-tick gauge series.
#[derive(Debug, Clone)]
pub struct MdsSeries {
    /// Authority metaload as published in the heartbeat view.
    pub load: TimeSeries,
    /// Queue depth at tick time.
    pub queue: TimeSeries,
    /// Ops completed in the elapsed heartbeat window.
    pub throughput: TimeSeries,
}

/// Per-MDS load / queue-depth / throughput gauges sampled once per
/// heartbeat tick (bucket width = the heartbeat interval, so each tick
/// lands in its own bucket).
#[derive(Debug, Clone)]
pub struct Timeline {
    bucket: SimTime,
    /// One series triple per MDS.
    pub per_mds: Vec<MdsSeries>,
}

impl Timeline {
    /// New timeline for `num_mds` servers with `bucket`-wide samples
    /// (clamped to ≥ 1 ms, the [`TimeSeries`] floor).
    pub fn new(num_mds: usize, bucket: SimTime) -> Self {
        let bucket = if bucket.as_millis() == 0 {
            SimTime::from_millis(1)
        } else {
            bucket
        };
        Timeline {
            bucket,
            per_mds: (0..num_mds)
                .map(|_| MdsSeries {
                    load: TimeSeries::new(bucket),
                    queue: TimeSeries::new(bucket),
                    throughput: TimeSeries::new(bucket),
                })
                .collect(),
        }
    }

    /// Record one tick's gauges for `mds`.
    pub fn sample(&mut self, at: SimTime, mds: MdsId, load: f64, queue: f64, throughput: f64) {
        let s = &mut self.per_mds[mds];
        s.load.add(at, load);
        s.queue.add(at, queue);
        s.throughput.add(at, throughput);
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimTime {
        self.bucket
    }

    /// JSONL: one line per MDS with the three series.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (m, s) in self.per_mds.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"mds\":{m},\"bucket_ms\":{},\"load\":",
                self.bucket.as_millis()
            );
            s.load.values().write(&mut out);
            out.push_str(",\"queue\":");
            s.queue.values().write(&mut out);
            out.push_str(",\"throughput\":");
            s.throughput.values().write(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The buffer.
// ---------------------------------------------------------------------------

/// The trace sink: an in-memory record buffer plus the [`Timeline`].
///
/// The coordinator's tracer owns it for the run and hands it back at the
/// end. Without one, an emission costs one branch and builds no payload
/// (emission sites pass closures).
#[derive(Debug)]
pub struct TraceBuffer {
    /// The sink's verbosity.
    pub level: TraceLevel,
    records: Vec<TraceRecord>,
    /// Per-tick gauges.
    pub timeline: Timeline,
}

impl TraceBuffer {
    /// New empty buffer.
    pub fn new(level: TraceLevel, num_mds: usize, bucket: SimTime) -> Self {
        TraceBuffer {
            level,
            records: Vec::new(),
            timeline: Timeline::new(num_mds, bucket),
        }
    }

    /// Append one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// The recorded stream, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Mutable access (tests corrupt records to prove the checker bites).
    pub fn records_mut(&mut self) -> &mut Vec<TraceRecord> {
        &mut self.records
    }

    /// The event stream as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            r.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for l in [TraceLevel::Decisions, TraceLevel::Full] {
            assert_eq!(TraceLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TraceLevel::parse("chatty"), None);
    }

    #[test]
    fn jsonl_encodes_one_line_per_record() {
        let mut buf = TraceBuffer::new(TraceLevel::Full, 2, SimTime::from_millis(400));
        buf.push(TraceRecord {
            at: SimTime::ZERO,
            epoch: 0,
            event: TraceEvent::RunStart {
                num_mds: 2,
                fallback_after: 3,
                level: TraceLevel::Full,
                heartbeat_us: 400_000,
            },
        });
        buf.push(TraceRecord {
            at: SimTime::from_millis(1),
            epoch: 0,
            event: TraceEvent::HeartbeatTick {
                loads: vec![1.5, 0.0],
            },
        });
        let jsonl = buf.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"at\":0,\"epoch\":0,\"ev\":\"run_start\""));
        assert!(lines[0].contains("\"heartbeat_us\":400000"));
        assert!(lines[1].contains("\"loads\":[1.5,0]"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn a_record_is_one_json_document() {
        let rec = TraceRecord {
            at: SimTime::from_millis(1500),
            epoch: 2,
            event: TraceEvent::PolicyInstalled {
                install_epoch: 1,
                name: "greedy \"v2\"".into(),
            },
        };
        let mut line = String::new();
        rec.write_json(&mut line);
        let v = json::parse(&line).expect("trace line parses");
        assert_eq!(v.get_str("ev"), Some("policy_installed"));
        assert_eq!(v.get_u64("install_epoch"), Some(1));
        assert_eq!(v.get_str("name"), Some("greedy \"v2\""));
    }

    #[test]
    fn timeline_buckets_one_sample_per_tick() {
        let mut t = Timeline::new(2, SimTime::from_millis(400));
        t.sample(SimTime::from_millis(400), 0, 10.0, 2.0, 55.0);
        t.sample(SimTime::from_millis(800), 0, 12.0, 1.0, 60.0);
        t.sample(SimTime::from_millis(400), 1, 0.5, 0.0, 5.0);
        assert_eq!(t.per_mds[0].load.values(), &[0.0, 10.0, 12.0]);
        assert_eq!(t.per_mds[1].queue.values(), &[0.0, 0.0]);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"bucket_ms\":400"));
    }

    #[test]
    fn zero_bucket_is_clamped() {
        let t = Timeline::new(1, SimTime::ZERO);
        assert_eq!(t.bucket(), SimTime::from_millis(1));
    }
}
