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
//! Both the event stream and the per-tick [`Timeline`] (per-MDS load,
//! queue depth, throughput on [`mantle_sim::TimeSeries`] buckets)
//! serialize to JSONL with no external dependencies; the encoding is
//! deterministic for fixed-seed runs, so traces can be snapshot-tested
//! byte-for-byte.

use mantle_namespace::{FragId, MdsId, NodeId, OpKind};
use mantle_sim::{json, SimTime, TimeSeries};

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

/// The typed event taxonomy.
///
/// Payloads carry *pre-transition* state where the invariant checker
/// verifies before applying (e.g. [`TraceEvent::MigrationCommit`] is
/// checked against the checker's ownership model as of the instant before
/// the migration, then applied to it).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Stream header: cluster shape and checker configuration.
    RunStart {
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
    DirAdded {
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
    AuthSnapshot {
        /// `(dir, mds)` subtree authority overrides.
        dirs: Vec<(NodeId, MdsId)>,
        /// `(dir, frag, mds)` fragment authority overrides.
        frags: Vec<(NodeId, FragId, MdsId)>,
    },
    /// A cluster-wide heartbeat + balancer tick began.
    HeartbeatTick {
        /// Per-MDS authority metaload as the balancers will see it
        /// (frozen/delayed under heartbeat faults).
        loads: Vec<f64>,
    },
    /// A balancer ran and chose not to migrate.
    BalancerTick {
        /// The deciding MDS.
        mds: MdsId,
    },
    /// A balancer produced a migration plan that partitioned successfully.
    BalancerPlan {
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
    PolicyError {
        /// The erroring MDS.
        mds: MdsId,
        /// Its consecutive-error count after this error.
        consecutive: u32,
    },
    /// `fallback_after` consecutive errors: the MDS swapped in the
    /// built-in CephFS balancer.
    BalancerFallback {
        /// The falling-back MDS.
        mds: MdsId,
    },
    /// A hot policy reload installed a new balancer on every MDS (the
    /// daemon's admin swap, or a scheduled sim-mode install). Runs in the
    /// coordinator's exclusive step, so decisions in earlier ticks
    /// finished entirely on the previous policy.
    PolicyInstalled {
        /// Install epoch (monotonic; 0 is the boot policy).
        epoch: u64,
        /// The new policy's name.
        name: String,
    },
    /// Migration phase 1: the moved region froze for two-phase commit.
    MigrationFreeze {
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
    MigrationJournal {
        /// Migration id.
        mig: u64,
        /// The journaling MDS (exporter first, then importer).
        mds: MdsId,
        /// Busy time charged, µs.
        micros: f64,
    },
    /// Migration phase 3: authority switched to the importer.
    MigrationCommit {
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
    MigrationUnfreeze {
        /// Migration id.
        mig: u64,
        /// Subtree root.
        root: NodeId,
        /// The thaw instant.
        thaw: SimTime,
    },
    /// Client sessions flushed by a migration (§4.1).
    SessionFlush {
        /// The exporting MDS.
        mds: MdsId,
        /// How many active clients flushed.
        clients: u64,
    },
    /// A directory fragmented (charged to the serving MDS).
    FragSplit {
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
    HashPin {
        /// The directory.
        dir: NodeId,
        /// Its pinned authority.
        mds: MdsId,
    },
    /// An MDS crashed; its subtrees/frags fail over to MDS 0.
    MdsCrash {
        /// The crashed MDS.
        mds: MdsId,
    },
    /// A crashed MDS came back (empty-handed).
    MdsRestart {
        /// The restarted MDS.
        mds: MdsId,
    },
    /// Elastic membership: a spare MDS began joining the member set. The
    /// re-homing migrations toward it follow in the same tick.
    MdsJoinStart {
        /// The joining MDS.
        mds: MdsId,
        /// Membership epoch of this transition (bumped once per
        /// join/leave; strictly increasing across transitions).
        membership_epoch: u64,
    },
    /// Elastic membership: the joining MDS is a full member.
    MdsJoinComplete {
        /// The joined MDS.
        mds: MdsId,
        /// Membership epoch of this transition.
        membership_epoch: u64,
        /// Export units re-homed onto the new member.
        rehomed: usize,
    },
    /// Elastic membership: drain of a departing member began.
    MdsDrainStart {
        /// The draining MDS.
        mds: MdsId,
        /// Membership epoch of this transition.
        membership_epoch: u64,
    },
    /// Elastic membership: the departing MDS exported its last authority.
    /// From here until a later rejoin it must own nothing.
    MdsDrainComplete {
        /// The drained MDS.
        mds: MdsId,
        /// Membership epoch of this transition.
        membership_epoch: u64,
        /// Export units drained off the member.
        drained: usize,
    },
    /// Elastic membership: the drained MDS left the member set
    /// (deregistered; stragglers forward to the new authorities).
    MdsDeparted {
        /// The departed MDS.
        mds: MdsId,
        /// Membership epoch of this transition.
        membership_epoch: u64,
    },
    /// A non-crash fault was injected.
    FaultInjected {
        /// The target MDS.
        mds: MdsId,
        /// `slowdown`, `drop-heartbeats`, `delay-heartbeats`, or
        /// `poison-balancer`.
        kind: &'static str,
    },
    /// A client put a request on the wire (Full level).
    RequestIssued {
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
    RequestTimeout {
        /// The client.
        client: usize,
        /// The timed-out attempt.
        seq: u64,
    },
    /// A client re-issued its pending op after backoff (Full level).
    RequestRetry {
        /// The client.
        client: usize,
        /// Attempt count so far (1 = first retry).
        attempt: u32,
    },
    /// A request reached a crashed MDS and was lost (Full level).
    Dropped {
        /// The dead MDS.
        mds: MdsId,
        /// The issuing client.
        client: usize,
    },
    /// A request hit a frozen region and deferred to the thaw (Full
    /// level).
    Deferred {
        /// The receiving MDS.
        mds: MdsId,
        /// Target directory.
        dir: NodeId,
        /// When it will be re-delivered.
        until: SimTime,
    },
    /// A request landed on a non-authority MDS and was forwarded (Full
    /// level).
    Forwarded {
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
    Served {
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
    GhostReply {
        /// The restarted MDS.
        mds: MdsId,
    },
    /// The server finished an op whose client had already timed out and
    /// retried — server-side work happened, the reply was wasted (Full
    /// level).
    StaleReply {
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
    CacheHit {
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
    /// A completed cacheable op's reply filled a group cache at the
    /// window barrier (Full level; stamped at the barrier instant, which
    /// is when the fill takes effect).
    CacheFill {
        /// The filled proxy group.
        group: usize,
        /// The cached directory.
        dir: NodeId,
        /// The authority the entry names.
        mds: MdsId,
    },
    /// A mutating op's barrier-applied invalidation dropped a
    /// directory's proxy-cache entries (Full level; emitted only when at
    /// least one entry actually dropped).
    CacheInvalidate {
        /// The invalidated directory.
        dir: NodeId,
        /// Entries dropped across all groups.
        entries: u64,
    },
    /// A request completed and its reply reached the client (Full level).
    Completed {
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
    RunEnd {
        /// Requests still in flight (non-zero only for truncated runs).
        inflight: usize,
    },
}

impl TraceEvent {
    /// The event's `ev` tag in the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::DirAdded { .. } => "dir_added",
            TraceEvent::AuthSnapshot { .. } => "auth_snapshot",
            TraceEvent::HeartbeatTick { .. } => "heartbeat_tick",
            TraceEvent::BalancerTick { .. } => "balancer_tick",
            TraceEvent::BalancerPlan { .. } => "balancer_plan",
            TraceEvent::PolicyError { .. } => "policy_error",
            TraceEvent::BalancerFallback { .. } => "balancer_fallback",
            TraceEvent::PolicyInstalled { .. } => "policy_installed",
            TraceEvent::MigrationFreeze { .. } => "migration_freeze",
            TraceEvent::MigrationJournal { .. } => "migration_journal",
            TraceEvent::MigrationCommit { .. } => "migration_commit",
            TraceEvent::MigrationUnfreeze { .. } => "migration_unfreeze",
            TraceEvent::SessionFlush { .. } => "session_flush",
            TraceEvent::FragSplit { .. } => "frag_split",
            TraceEvent::HashPin { .. } => "hash_pin",
            TraceEvent::MdsCrash { .. } => "mds_crash",
            TraceEvent::MdsRestart { .. } => "mds_restart",
            TraceEvent::MdsJoinStart { .. } => "mds_join_start",
            TraceEvent::MdsJoinComplete { .. } => "mds_join_complete",
            TraceEvent::MdsDrainStart { .. } => "mds_drain_start",
            TraceEvent::MdsDrainComplete { .. } => "mds_drain_complete",
            TraceEvent::MdsDeparted { .. } => "mds_departed",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RequestIssued { .. } => "request_issued",
            TraceEvent::RequestTimeout { .. } => "request_timeout",
            TraceEvent::RequestRetry { .. } => "request_retry",
            TraceEvent::Dropped { .. } => "dropped",
            TraceEvent::Deferred { .. } => "deferred",
            TraceEvent::Forwarded { .. } => "forwarded",
            TraceEvent::Served { .. } => "served",
            TraceEvent::GhostReply { .. } => "ghost_reply",
            TraceEvent::StaleReply { .. } => "stale_reply",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheFill { .. } => "cache_fill",
            TraceEvent::CacheInvalidate { .. } => "cache_invalidate",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL encoding: streamed field by field, scalars through the workspace's
// one codec ([`mantle_sim::json`]). Writing into a `String` cannot fail.
// ---------------------------------------------------------------------------

fn put_str(out: &mut String, s: &str) {
    let _ = json::write_str(out, s);
}

fn put_f64(out: &mut String, v: f64) {
    let _ = json::write_f64(out, v);
}

fn push_list<T>(out: &mut String, items: &[T], mut f: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        f(out, it);
    }
    out.push(']');
}

impl TraceRecord {
    /// Append this record's one-line JSON encoding (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"at\":{},\"epoch\":{},\"ev\":\"{}\"",
            self.at.as_micros(),
            self.epoch,
            self.event.name()
        );
        match &self.event {
            TraceEvent::RunStart {
                num_mds,
                fallback_after,
                level,
                heartbeat_us,
            } => {
                let _ = write!(
                    out,
                    ",\"num_mds\":{num_mds},\"fallback_after\":{fallback_after},\
                     \"level\":\"{}\",\"heartbeat_us\":{heartbeat_us}",
                    level.name()
                );
            }
            TraceEvent::DirAdded { dir, parent, files } => {
                let _ = write!(out, ",\"dir\":{}", dir.0);
                match parent {
                    Some(p) => {
                        let _ = write!(out, ",\"parent\":{}", p.0);
                    }
                    None => out.push_str(",\"parent\":null"),
                }
                out.push_str(",\"files\":");
                push_list(out, files, |o, f| {
                    let _ = write!(o, "{f}");
                });
            }
            TraceEvent::AuthSnapshot { dirs, frags } => {
                out.push_str(",\"dirs\":");
                push_list(out, dirs, |o, (d, m)| {
                    let _ = write!(o, "[{},{}]", d.0, m);
                });
                out.push_str(",\"frags\":");
                push_list(out, frags, |o, (d, f, m)| {
                    let _ = write!(o, "[{},{},{}]", d.0, f, m);
                });
            }
            TraceEvent::HeartbeatTick { loads } => {
                out.push_str(",\"loads\":");
                push_list(out, loads, |o, l| put_f64(o, *l));
            }
            TraceEvent::BalancerTick { mds } => {
                let _ = write!(out, ",\"mds\":{mds}");
            }
            TraceEvent::BalancerPlan {
                mds,
                targets,
                selectors,
                exports,
            } => {
                let _ = write!(out, ",\"mds\":{mds},\"targets\":");
                push_list(out, targets, |o, t| put_f64(o, *t));
                out.push_str(",\"selectors\":");
                push_list(out, selectors, |o, s| put_str(o, s));
                let _ = write!(out, ",\"exports\":{exports}");
            }
            TraceEvent::PolicyError { mds, consecutive } => {
                let _ = write!(out, ",\"mds\":{mds},\"consecutive\":{consecutive}");
            }
            TraceEvent::BalancerFallback { mds } => {
                let _ = write!(out, ",\"mds\":{mds}");
            }
            TraceEvent::PolicyInstalled { epoch, name } => {
                let _ = write!(out, ",\"install_epoch\":{epoch},\"name\":");
                put_str(out, name);
            }
            TraceEvent::MigrationFreeze {
                mig,
                from,
                to,
                root,
                frag,
                holes,
                watermark,
                until,
            } => {
                let _ = write!(
                    out,
                    ",\"mig\":{mig},\"from\":{from},\"to\":{to},\"root\":{}",
                    root.0
                );
                match frag {
                    Some(f) => {
                        let _ = write!(out, ",\"frag\":{f}");
                    }
                    None => out.push_str(",\"frag\":null"),
                }
                out.push_str(",\"holes\":");
                push_list(out, holes, |o, h| {
                    let _ = write!(o, "{}", h.0);
                });
                let _ = write!(
                    out,
                    ",\"watermark\":{watermark},\"until\":{}",
                    until.as_micros()
                );
            }
            TraceEvent::MigrationJournal { mig, mds, micros } => {
                let _ = write!(out, ",\"mig\":{mig},\"mds\":{mds},\"micros\":");
                put_f64(out, *micros);
            }
            TraceEvent::MigrationCommit {
                mig,
                from,
                to,
                root,
                frag,
                inodes,
            } => {
                let _ = write!(
                    out,
                    ",\"mig\":{mig},\"from\":{from},\"to\":{to},\"root\":{}",
                    root.0
                );
                match frag {
                    Some(f) => {
                        let _ = write!(out, ",\"frag\":{f}");
                    }
                    None => out.push_str(",\"frag\":null"),
                }
                let _ = write!(out, ",\"inodes\":{inodes}");
            }
            TraceEvent::MigrationUnfreeze { mig, root, thaw } => {
                let _ = write!(
                    out,
                    ",\"mig\":{mig},\"root\":{},\"thaw\":{}",
                    root.0,
                    thaw.as_micros()
                );
            }
            TraceEvent::SessionFlush { mds, clients } => {
                let _ = write!(out, ",\"mds\":{mds},\"clients\":{clients}");
            }
            TraceEvent::FragSplit {
                dir,
                frag,
                ways,
                resulting_frags,
            } => {
                let _ = write!(
                    out,
                    ",\"dir\":{},\"frag\":{frag},\"ways\":{ways},\
                     \"resulting_frags\":{resulting_frags}",
                    dir.0
                );
            }
            TraceEvent::HashPin { dir, mds } => {
                let _ = write!(out, ",\"dir\":{},\"mds\":{mds}", dir.0);
            }
            TraceEvent::MdsCrash { mds } | TraceEvent::MdsRestart { mds } => {
                let _ = write!(out, ",\"mds\":{mds}");
            }
            TraceEvent::MdsJoinStart {
                mds,
                membership_epoch,
            }
            | TraceEvent::MdsDrainStart {
                mds,
                membership_epoch,
            }
            | TraceEvent::MdsDeparted {
                mds,
                membership_epoch,
            } => {
                let _ = write!(
                    out,
                    ",\"mds\":{mds},\"membership_epoch\":{membership_epoch}"
                );
            }
            TraceEvent::MdsJoinComplete {
                mds,
                membership_epoch,
                rehomed,
            } => {
                let _ = write!(
                    out,
                    ",\"mds\":{mds},\"membership_epoch\":{membership_epoch},\"rehomed\":{rehomed}"
                );
            }
            TraceEvent::MdsDrainComplete {
                mds,
                membership_epoch,
                drained,
            } => {
                let _ = write!(
                    out,
                    ",\"mds\":{mds},\"membership_epoch\":{membership_epoch},\"drained\":{drained}"
                );
            }
            TraceEvent::FaultInjected { mds, kind } => {
                let _ = write!(out, ",\"mds\":{mds},\"kind\":\"{kind}\"");
            }
            TraceEvent::RequestIssued {
                client,
                dir,
                mds,
                seq,
            } => {
                let _ = write!(
                    out,
                    ",\"client\":{client},\"dir\":{},\"mds\":{mds},\"seq\":{seq}",
                    dir.0
                );
            }
            TraceEvent::RequestTimeout { client, seq } => {
                let _ = write!(out, ",\"client\":{client},\"seq\":{seq}");
            }
            TraceEvent::RequestRetry { client, attempt } => {
                let _ = write!(out, ",\"client\":{client},\"attempt\":{attempt}");
            }
            TraceEvent::Dropped { mds, client } => {
                let _ = write!(out, ",\"mds\":{mds},\"client\":{client}");
            }
            TraceEvent::Deferred { mds, dir, until } => {
                let _ = write!(
                    out,
                    ",\"mds\":{mds},\"dir\":{},\"until\":{}",
                    dir.0,
                    until.as_micros()
                );
            }
            TraceEvent::Forwarded {
                from,
                to,
                dir,
                frag,
                client,
            } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"to\":{to},\"dir\":{},\"frag\":{frag},\
                     \"client\":{client}",
                    dir.0
                );
            }
            TraceEvent::Served {
                mds,
                client,
                dir,
                frag,
                kind,
                seq,
            } => {
                let _ = write!(
                    out,
                    ",\"mds\":{mds},\"client\":{client},\"dir\":{},\"frag\":{frag},\
                     \"kind\":\"{}\",\"seq\":{seq}",
                    dir.0,
                    kind.name()
                );
            }
            TraceEvent::GhostReply { mds } => {
                let _ = write!(out, ",\"mds\":{mds}");
            }
            TraceEvent::StaleReply {
                mds,
                client,
                dir,
                frag,
                kind,
            }
            | TraceEvent::Completed {
                mds,
                client,
                dir,
                frag,
                kind,
            } => {
                let _ = write!(
                    out,
                    ",\"mds\":{mds},\"client\":{client},\"dir\":{},\"frag\":{frag},\
                     \"kind\":\"{}\"",
                    dir.0,
                    kind.name()
                );
            }
            TraceEvent::CacheHit {
                group,
                client,
                dir,
                mds,
            } => {
                let _ = write!(
                    out,
                    ",\"group\":{group},\"client\":{client},\"dir\":{},\"mds\":{mds}",
                    dir.0
                );
            }
            TraceEvent::CacheFill { group, dir, mds } => {
                let _ = write!(out, ",\"group\":{group},\"dir\":{},\"mds\":{mds}", dir.0);
            }
            TraceEvent::CacheInvalidate { dir, entries } => {
                let _ = write!(out, ",\"dir\":{},\"entries\":{entries}", dir.0);
            }
            TraceEvent::RunEnd { inflight } => {
                let _ = write!(out, ",\"inflight\":{inflight}");
            }
        }
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
        use std::fmt::Write as _;
        let mut out = String::new();
        for (m, s) in self.per_mds.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"mds\":{m},\"bucket_ms\":{},\"load\":",
                self.bucket.as_millis()
            );
            push_list(&mut out, s.load.values(), |o, v| put_f64(o, *v));
            out.push_str(",\"queue\":");
            push_list(&mut out, s.queue.values(), |o, v| put_f64(o, *v));
            out.push_str(",\"throughput\":");
            push_list(&mut out, s.throughput.values(), |o, v| put_f64(o, *v));
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
                epoch: 1,
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
