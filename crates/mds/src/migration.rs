//! The migrate stage: one export, start to finish (§4.1).
//!
//! An export moves a subtree or a dirfrag to its importer under a
//! two-phase commit: the moved region freezes while both sides journal,
//! the importer's prefix replicas start cold, every stale route — client
//! maps and proxy-tier caches alike — is dropped, and every active
//! client's session is flushed. Balancer plans, elastic re-homing and
//! drains all come through `Migrator::apply_export`; the rest of the
//! engine never moves authority except by failover.
//!
//! All the per-directory work is done here, once per export, so that the
//! request path does none of it. One list drives it all: the directories
//! the bounded migration walk covered. Each gets the thaw and warm-up
//! instants stamped on it (`world::DirStamps`), its entry dropped from
//! every proxy-tier cache, and every client's route to it dropped with
//! one scan of its row in the table they share
//! ([`crate::cache::RouteTable`]), not one lookup per client.

use mantle_namespace::{MdsId, SubtreeMigration};
use mantle_sim::SimTime;

use crate::partition::{Export, ExportUnit};
use crate::trace::TraceEvent;
use crate::world::World;

/// Export bookkeeping, owned by the coordinator.
#[derive(Default)]
pub(crate) struct Migrator {
    /// Migration counter: ids shared by the freeze→…→unfreeze records.
    seq: u64,
    /// Cache entries (client routes and proxy-tier) dropped by exports.
    pub(crate) cache_invalidations: u64,
}

impl Migrator {
    /// Export `export.unit` from `from` to `export.to`, if the target can
    /// import.
    pub(crate) fn apply_export(
        &mut self,
        w: &mut World,
        from: MdsId,
        export: Export,
        now: SimTime,
    ) {
        let to = export.to;
        // Non-members (spares and departed MDSs) never import: a drained
        // MDS must not regain dirfrag authority until it rejoins.
        if to >= w.cfg.num_mds || to == from || !w.up[to] || !w.member[to] {
            return;
        }
        // The checker replays migrations against its namespace model; make
        // sure every directory the walk can touch is already in the trace.
        w.trace.sync_dirs(&w.ns, now);
        let watermark = w.ns.dir_count() as u32;
        let frag_unit = match export.unit {
            ExportUnit::Frag(_, f) => Some(f),
            ExportUnit::Subtree(_) => None,
        };
        // The moved region: the whole (bounded) subtree for a subtree
        // export, just the fragmented dir otherwise. The migration walk
        // lists its directories and reports the inode count and the
        // authority holes in one pass.
        let (root, migration) = match export.unit {
            ExportUnit::Subtree(d) => (d, w.ns.migrate_subtree(d, to)),
            ExportUnit::Frag(d, f) => {
                let migration = SubtreeMigration {
                    inodes: w.ns.migrate_frag(d, f, to),
                    holes: Vec::new(),
                    dirs: vec![d],
                };
                (d, migration)
            }
        };
        let moved = migration.inodes;
        let region = &migration.dirs;
        // Two-phase commit: the subtree freezes while the importer
        // journals the metadata. Requests to *any* directory inside the
        // moving subtree — not only its root — defer to the thaw.
        let freeze_us = w.cfg.costs.migrate_freeze_us(moved);
        let thaw = now + SimTime::from_micros_f64(freeze_us);
        w.frozen_until.raise(region, watermark as usize, thaw);
        // The importer's ancestor-prefix replicas need to warm up; the
        // exported subtree's own directories are cold too.
        let warm = now + SimTime::from_micros_f64(w.cfg.costs.prefix_warmup_us);
        w.cold_until.raise(region, watermark as usize, warm);
        // Importer and exporter both journal (busy time on each).
        let journal_us = freeze_us / 4.0;
        if w.trace.on() {
            self.seq += 1;
            let mig = self.seq;
            let holes = migration.holes.clone();
            w.trace.emit(now, || TraceEvent::MigrationFreeze {
                mig,
                from,
                to,
                root,
                frag: frag_unit,
                holes,
                watermark,
                until: thaw,
            });
            for mds in [from, to] {
                w.trace.emit(now, || TraceEvent::MigrationJournal {
                    mig,
                    mds,
                    micros: journal_us,
                });
            }
            w.trace.emit(now, || TraceEvent::MigrationCommit {
                mig,
                from,
                to,
                root,
                frag: frag_unit,
                inodes: moved,
            });
            w.trace
                .emit(now, || TraceEvent::MigrationUnfreeze { mig, root, thaw });
        }
        for m in [from, to] {
            w.next_free[m] = w.next_free[m].max(now) + SimTime::from_micros_f64(journal_us);
            w.counters[m].busy_window_us += journal_us;
        }
        let exported = &mut w.counters[from].report;
        exported.migrations_out += 1;
        exported.inodes_exported += moved;
        // Session flushes: every active client halts updates on the moved
        // directories and re-syncs (§4.1). The whole migrated subtree is
        // forgotten — a cache entry for a child dir is as stale as one for
        // the root.
        let flush = SimTime::from_micros_f64(w.cfg.costs.session_flush_us);
        let mut flushed = 0;
        for cache in &mut w.caches {
            for &d in region {
                self.cache_invalidations += u64::from(cache.invalidate(d));
            }
        }
        self.cache_invalidations += w.routes.invalidate_dirs(&w.clients, region);
        for c in &mut w.clients {
            if !c.done {
                c.stall_until = c.stall_until.max(now + flush);
                flushed += 1;
            }
        }
        w.counters[from].report.sessions_flushed += flushed;
        w.trace.emit(now, || TraceEvent::SessionFlush {
            mds: from,
            clients: flushed,
        });
    }
}
