//! Elastic membership: the controller that grows and shrinks the member
//! set, the MDS-time it bills, and the rendezvous hashing that decides
//! what moves.
//!
//! # The controller
//!
//! Once per heartbeat tick, `step` asks MDS 0's `howmany` hook for a
//! target member count and takes at most one transition toward it: a
//! *join* activates the lowest-id live spare and re-homes onto it exactly
//! the subtrees rendezvous hashing assigns it; a *leave* drains the
//! highest-id member (never MDS 0) to the rendezvous owners among the
//! rest and flips it out. Both run inside the heartbeat step, so no
//! other event can split a transition. `Membership` counts
//! the transitions and integrates the member count over virtual time —
//! the provisioned MDS-seconds every ops-per-MDS-hour figure divides by.
//!
//! # Placement
//!
//! Join re-homing needs an owner-of-record function with the *minimal
//! movement* property: when a member is added, the only directories whose
//! owner changes are those now owned by the new member — nothing shuffles
//! between surviving members. Rendezvous (highest-random-weight) hashing
//! gives exactly that: each `(dir, mds)` pair gets a deterministic weight
//! and the owner is the member with the highest weight, so adding a member
//! can only ever *win* pairs, never reorder the rest. The same function
//! drives drain-on-leave (exports go to the rendezvous owner among the
//! remaining members), keeping placement stable across a leave/join cycle.
//!
//! Everything here is pure integer hashing — no RNG streams, no floats.

use mantle_sim::SimTime;

use crate::balancer::BalanceContext;
use crate::cluster::Coordinator;
use crate::metrics::Heartbeat;
use crate::partition::{Export, ExportUnit};
use crate::trace::TraceEvent;
use crate::world::World;
use mantle_namespace::{MdsId, NodeId};

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous weight of placing `dir` on `mds`.
fn weight(dir: NodeId, mds: MdsId) -> u64 {
    mix64((dir.0 as u64) << 32 | (mds as u64 + 1))
}

/// The owner-of-record of `dir` among `members` under rendezvous hashing:
/// the member with the highest `(dir, mds)` weight (ties — probability
/// ~2⁻⁶⁴ — break toward the lower id for determinism).
///
/// # Panics
/// Panics if `members` is empty.
pub fn rendezvous_owner(dir: NodeId, members: &[MdsId]) -> MdsId {
    assert!(!members.is_empty(), "rendezvous over an empty member set");
    let mut best = members[0];
    let mut best_w = weight(dir, best);
    for &m in &members[1..] {
        let w = weight(dir, m);
        if w > best_w {
            best = m;
            best_w = w;
        }
    }
    best
}

/// Membership accounting, owned by the coordinator. The member set itself
/// is the world's `member` flags ([`crate::world`]); the epoch is the number of
/// transitions taken, `joins + leaves`.
#[derive(Default)]
pub(crate) struct Membership {
    /// MDS-join transitions taken.
    pub(crate) joins: u64,
    /// MDS-leave (drain) transitions taken.
    pub(crate) leaves: u64,
    /// Provisioned MDS-time accrued so far: the integral of the member
    /// count over virtual time, in seconds. With elasticity off this is
    /// `num_mds × makespan`.
    mds_seconds: f64,
    /// Instant up to which `mds_seconds` has been accrued.
    last_accrual: SimTime,
}

impl Membership {
    /// The membership epoch: one bump per join or leave.
    pub(crate) fn epoch(&self) -> u64 {
        self.joins + self.leaves
    }

    /// Bill `members` MDSs up to `now`; transitions taken after this only
    /// bill from here on.
    pub(crate) fn accrue(&mut self, now: SimTime, members: usize) {
        self.mds_seconds += members as f64 * (now.as_secs_f64() - self.last_accrual.as_secs_f64());
        self.last_accrual = now;
    }

    /// The run's total with `members` MDSs since the last accrual: the
    /// integral closed at the later of the last accrual point and
    /// `makespan` (heartbeats can outlast the final op).
    pub(crate) fn total_mds_seconds(&self, makespan: SimTime, members: usize) -> f64 {
        let end = makespan.max(self.last_accrual);
        self.mds_seconds + members as f64 * (end.as_secs_f64() - self.last_accrual.as_secs_f64())
    }
}

/// One elastic-controller tick: ask the `howmany` hook for a target MDS
/// count and take at most one membership transition toward it. A cluster
/// of fixed size has no controller.
pub(crate) fn step(co: &mut Coordinator, w: &mut World, heartbeats: &[Heartbeat], now: SimTime) {
    // MDS 0 hosts the controller (it is the mount authority, never
    // crashes, and never leaves); a poisoned balancer there suspends
    // scaling — the decide loop already records the error.
    if !w.cfg.elastic.enabled || co.policy.is_poisoned(0) {
        return;
    }
    // The hook sees the pre-transition member view: the same dense
    // cluster the `where`/`howmuch` hooks get this tick.
    let (members, view) = w.member_view(heartbeats);
    let active = members.len();
    // Anywhere from MDS 0 alone to the whole pool.
    let (min_mds, max_mds) = (1, w.cfg.num_mds);
    let ctx = BalanceContext {
        whoami: 0,
        heartbeats: view,
    };
    let target = match co
        .policy
        .balancer(0)
        .howmany(&ctx, active, min_mds, max_mds)
    {
        Ok(Some(t)) if t.is_finite() => t,
        Ok(_) => return, // no hook (or nothing to decide): fixed size
        Err(_) => {
            co.policy.note_error(0, now, &mut w.trace);
            return;
        }
    };
    let want = (target.round() as i64).clamp(min_mds as i64, max_mds as i64) as usize;
    if want > active {
        join_one(co, w, &members, now);
    } else if want < active {
        leave_one(co, w, &members, now);
    }
}

/// Export `unit` from `from` to `to` because placement says so, not load.
fn rehome(
    co: &mut Coordinator,
    w: &mut World,
    from: MdsId,
    unit: ExportUnit,
    to: MdsId,
    now: SimTime,
) {
    let load = 0.0;
    co.migrator
        .apply_export(w, from, Export { unit, to, load }, now);
}

/// Activate the lowest-id live spare and re-home onto it the subtrees
/// rendezvous hashing assigns it. The whole join — epoch bump, member
/// flip, re-home migrations — happens inside this one loop step, so
/// the `MdsJoinStart` → `MdsJoinComplete` chain can never be split by
/// another event.
fn join_one(co: &mut Coordinator, w: &mut World, members: &[MdsId], now: SimTime) {
    let n = w.cfg.num_mds;
    let Some(j) = (0..n).find(|&m| !w.member[m] && w.up[m]) else {
        return; // no live spare in the pool
    };
    co.membership.joins += 1;
    let epoch = co.membership.epoch();
    w.trace.emit(now, || TraceEvent::MdsJoinStart {
        mds: j,
        membership_epoch: epoch,
    });
    w.member[j] = true;
    let mut rehomed = 0usize;
    // Rendezvous re-home: move exactly the subtrees whose owner-of-record
    // under the *new* member set is the joiner — the minimal set, nothing
    // shuffles between survivors.
    let owners: Vec<MdsId> = (0..n).filter(|&m| w.member[m] && w.up[m]).collect();
    for &src in members {
        if !w.up[src] {
            continue;
        }
        for d in w.ns.export_candidate_dirs(src) {
            if w.ns.dir(d).auth.get() != Some(src) {
                continue; // frag-only ownership stays put on join
            }
            if rendezvous_owner(d, &owners) == j {
                rehome(co, w, src, ExportUnit::Subtree(d), j, now);
                rehomed += 1;
            }
        }
    }
    w.trace.emit(now, || TraceEvent::MdsJoinComplete {
        mds: j,
        membership_epoch: epoch,
        rehomed,
    });
}

/// Drain and deregister the highest-id member (never MDS 0): freeze and
/// export every subtree and dirfrag it owns to the rendezvous owner
/// among the remaining members, then flip it out of the member set. The
/// departed MDS stays `up` — straggler requests routed by stale client
/// caches are served by the normal forward path until the caches relearn.
fn leave_one(co: &mut Coordinator, w: &mut World, members: &[MdsId], now: SimTime) {
    let Some(&victim) = members.iter().rev().find(|&&m| m != 0) else {
        return; // only the mount authority is left
    };
    co.membership.leaves += 1;
    let epoch = co.membership.epoch();
    w.trace.emit(now, || TraceEvent::MdsDrainStart {
        mds: victim,
        membership_epoch: epoch,
    });
    // Drain targets: live surviving members. MDS 0 never crashes and
    // never leaves, so this is never empty.
    let remaining: Vec<MdsId> = members
        .iter()
        .copied()
        .filter(|&m| m != victim && w.up[m])
        .collect();
    let mut drained = 0usize;
    if w.up[victim] && !remaining.is_empty() {
        // A crashed victim owns nothing (its subtrees already failed
        // over); draining it is pure deregistration.
        for dir in w.ns.export_candidate_dirs(victim) {
            let to = rendezvous_owner(dir, &remaining);
            if w.ns.dir(dir).auth.get() == Some(victim) {
                rehome(co, w, victim, ExportUnit::Subtree(dir), to, now);
                drained += 1;
            } else {
                // Frag-only ownership: ship the victim's fragments.
                let nfrags = w.ns.dir(dir).frags.len();
                for f in 0..nfrags {
                    if w.ns.frag_auth(dir, f) == victim {
                        rehome(co, w, victim, ExportUnit::Frag(dir, f), to, now);
                        drained += 1;
                    }
                }
            }
        }
    }
    w.trace.emit(now, || TraceEvent::MdsDrainComplete {
        mds: victim,
        membership_epoch: epoch,
        drained,
    });
    w.member[victim] = false;
    w.trace.emit(now, || TraceEvent::MdsDeparted {
        mds: victim,
        membership_epoch: epoch,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_a_member() {
        for d in 0..200u32 {
            let owner = rendezvous_owner(NodeId(d), &[0, 2, 5]);
            assert!([0, 2, 5].contains(&owner));
        }
    }

    #[test]
    fn adding_a_member_moves_only_to_the_newcomer() {
        // The minimal-movement property at the hash level: growing the
        // member set never reshuffles dirs between surviving members.
        let before: Vec<MdsId> = vec![0, 1, 2];
        let after: Vec<MdsId> = vec![0, 1, 2, 3];
        let mut moved = 0;
        for d in 0..2_000u32 {
            let a = rendezvous_owner(NodeId(d), &before);
            let b = rendezvous_owner(NodeId(d), &after);
            if a != b {
                assert_eq!(b, 3, "dir {d} moved between survivors");
                moved += 1;
            }
        }
        // Roughly a quarter should land on the newcomer.
        assert!((300..700).contains(&moved), "moved {moved}/2000");
    }

    #[test]
    fn removing_a_member_strands_nothing_on_it() {
        let before: Vec<MdsId> = vec![0, 1, 2, 3];
        let after: Vec<MdsId> = vec![0, 1, 2];
        for d in 0..2_000u32 {
            let a = rendezvous_owner(NodeId(d), &before);
            let b = rendezvous_owner(NodeId(d), &after);
            if a != 3 {
                assert_eq!(a, b, "dir {d} moved although its owner stayed");
            } else {
                assert_ne!(b, 3);
            }
        }
    }

    #[test]
    fn deterministic() {
        for d in [0u32, 7, 999] {
            assert_eq!(
                rendezvous_owner(NodeId(d), &[1, 4]),
                rendezvous_owner(NodeId(d), &[1, 4])
            );
        }
    }
}
