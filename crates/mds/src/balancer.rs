//! The balancing framework: a [`Balancer`] trait with two implementations —
//! the hard-coded CephFS balancer (Table 1) and the programmable
//! [`MantleBalancer`] driving injected policy scripts.
//!
//! A balancer answers three questions each tick (the fourth, *which*
//! concrete dirfrags move, is the partitioner's job in
//! [`crate::partition`], parameterized by the balancer's selectors):
//!
//! * **load**: how much work is a dirfrag / an MDS doing?
//! * **when**: should this MDS migrate anything right now?
//! * **where**: how much load should go to which MDS (`targets[]`)?

use mantle_namespace::HeatSample;
use mantle_namespace::MdsId;
use mantle_policy::env::{FragMetrics, MantleRuntime, PolicySet};
use mantle_policy::{
    BalancerInputs, CompiledPolicy, HookEngine, MdsMetrics, PolicyError, PolicyResult,
    PolicyValidator,
};

use mantle_sim::SimTime;

use crate::metrics::Heartbeat;
use crate::selector::{DirfragSelector, SelectorKind};
use crate::trace::TraceEvent;
use crate::tracer::Tracer;
use std::rc::Rc;
use std::sync::Arc;

/// What a balancer sees when it runs: its identity and the (stale)
/// heartbeat snapshots of the whole cluster.
#[derive(Debug, Clone)]
pub struct BalanceContext {
    /// The MDS running this balancer.
    pub whoami: MdsId,
    /// Heartbeat snapshot per MDS (index = MDS id). These are the values
    /// from the *previous* exchange — stale by up to one interval, exactly
    /// like the real system (§2.2.2). Shared: every MDS's balancer reads
    /// the same snapshot, so the tick hands out references instead of
    /// cloning the vector per MDS.
    pub heartbeats: Arc<[Heartbeat]>,
}

/// The outcome of the when/where decision.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// Load to ship to each MDS (0 for self and for non-targets).
    pub targets: Vec<f64>,
    /// Dirfrag selectors to try when partitioning the namespace (built-in
    /// or policy-defined). Shared with the balancer that produced the
    /// plan — selectors are fixed per policy, so plans don't copy them.
    pub selectors: Rc<[SelectorKind]>,
}

/// A metadata load balancer living on one MDS.
///
/// Implement this to plug arbitrary balancing logic into the cluster —
/// the two shipped implementations are [`CephfsBalancer`] (Table 1,
/// hard-coded) and [`MantleBalancer`] (injected policy scripts). A toy
/// balancer that always sheds one unit of load to MDS 0:
///
/// ```
/// use std::rc::Rc;
/// use std::sync::Arc;
/// use mantle_mds::balancer::{BalanceContext, Balancer, MigrationPlan};
/// use mantle_mds::metrics::Heartbeat;
/// use mantle_mds::selector::{DirfragSelector, SelectorKind};
/// use mantle_namespace::HeatSample;
/// use mantle_policy::PolicyResult;
///
/// struct ShedToZero;
///
/// impl Balancer for ShedToZero {
///     fn name(&self) -> &str {
///         "shed-to-zero"
///     }
///     fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64> {
///         Ok(heat.cephfs_metaload())
///     }
///     fn decide(&mut self, ctx: &BalanceContext) -> PolicyResult<Option<MigrationPlan>> {
///         if ctx.whoami == 0 {
///             return Ok(None);
///         }
///         let mut targets = vec![0.0; ctx.heartbeats.len()];
///         targets[0] = 1.0;
///         Ok(Some(MigrationPlan {
///             targets,
///             selectors: Rc::from([SelectorKind::Builtin(DirfragSelector::Half)].as_slice()),
///         }))
///     }
/// }
///
/// let mut b = ShedToZero;
/// let ctx = BalanceContext {
///     whoami: 1,
///     heartbeats: Arc::from([Heartbeat::default(), Heartbeat::default()].as_slice()),
/// };
/// let plan = b.decide(&ctx)?.expect("MDS 1 always sheds");
/// assert_eq!(plan.targets, vec![1.0, 0.0]);
/// # Ok::<(), mantle_policy::PolicyError>(())
/// ```
pub trait Balancer {
    /// Human-readable name (for reports).
    fn name(&self) -> &str;

    /// The `metaload` hook: scalar load of one dirfrag from its decayed
    /// counters.
    fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64>;

    /// True when [`Balancer::metaload`] is linear with no constant term,
    /// i.e. `metaload(a + b) == metaload(a) + metaload(b)`. The cluster
    /// then computes heartbeat loads from per-MDS heat aggregates (O(MDSs)
    /// per tick) instead of evaluating the hook once per dirfrag.
    fn metaload_is_additive(&self) -> bool {
        false
    }

    /// The when/where decision. `Ok(None)` = no migration this tick.
    fn decide(&mut self, ctx: &BalanceContext) -> PolicyResult<Option<MigrationPlan>>;

    /// The `howmany` auto-scaling hook: the target member count for an
    /// elastic cluster, given the member heartbeats in `ctx`, the current
    /// member count `active`, and the configured `[min_mds, max_mds]`
    /// bounds. `Ok(None)` (the default — balancers without an auto-scaling
    /// policy) leaves the cluster size alone. The raw value is rounded and
    /// clamped by the coordinator.
    fn howmany(
        &mut self,
        ctx: &BalanceContext,
        active: usize,
        min_mds: usize,
        max_mds: usize,
    ) -> PolicyResult<Option<f64>> {
        let (_, _, _, _) = (ctx, active, min_mds, max_mds);
        Ok(None)
    }

    /// The compiled Mantle policy this balancer runs, if it runs one. Every
    /// MDS of a cluster holds the same compilation (`Rc::ptr_eq`): a policy
    /// is compiled once per boot and once per hot install, never per MDS.
    fn compiled_policy(&self) -> Option<&Rc<CompiledPolicy>> {
        None
    }
}

// ---------------------------------------------------------------------------
// The original CephFS balancer (Table 1), hard-coded.
// ---------------------------------------------------------------------------

/// The CephFS balancer with its policies compiled in, as the shipping
/// system does (§2.2.3 / Table 1).
#[derive(Debug, Clone)]
pub struct CephfsBalancer;

/// The `mds_bal_need_min` tunable at its default: targets are scaled by
/// this factor to absorb measurement noise (the §2.2.3 example).
const NEED_MIN: f64 = 0.8;

impl CephfsBalancer {
    /// The Table 1 `MDSload` formula.
    fn mds_load(hb: &Heartbeat) -> f64 {
        0.8 * hb.auth_metaload + 0.2 * hb.all_metaload + hb.req_rate + 10.0 * hb.queue_len
    }
}

impl Balancer for CephfsBalancer {
    fn name(&self) -> &str {
        "cephfs-default"
    }

    fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64> {
        // metaload = IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE
        Ok(heat.cephfs_metaload())
    }

    fn metaload_is_additive(&self) -> bool {
        true
    }

    fn decide(&mut self, ctx: &BalanceContext) -> PolicyResult<Option<MigrationPlan>> {
        let n = ctx.heartbeats.len();
        if n < 2 {
            return Ok(None);
        }
        let loads: Vec<f64> = ctx.heartbeats.iter().map(Self::mds_load).collect();
        let total: f64 = loads.iter().sum();
        let avg = total / n as f64;
        // when: my load > cluster average.
        if loads[ctx.whoami] <= avg || total <= 0.0 {
            return Ok(None);
        }
        // where: fill every under-average MDS up to the average, scaled by
        // NEED_MIN to absorb noise.
        let mut targets = vec![0.0; n];
        for (i, &l) in loads.iter().enumerate() {
            if i != ctx.whoami && l < avg {
                targets[i] = (avg - l) * NEED_MIN;
            }
        }
        // Never plan to send more than we have above the average.
        let surplus = loads[ctx.whoami] - avg;
        let planned: f64 = targets.iter().sum();
        if planned > surplus && planned > 0.0 {
            let scale = surplus / planned;
            for t in &mut targets {
                *t *= scale;
            }
        }
        if targets.iter().all(|&t| t <= 0.0) {
            return Ok(None);
        }
        Ok(Some(MigrationPlan {
            targets,
            selectors: Rc::from([DirfragSelector::BigFirst.into()]),
        }))
    }
}

// ---------------------------------------------------------------------------
// The Mantle balancer: injected policy scripts.
// ---------------------------------------------------------------------------

/// A balancer whose policies are injected Lua-subset scripts executed by
/// [`mantle_policy`].
pub struct MantleBalancer {
    name: String,
    runtime: MantleRuntime,
    selectors: Rc<[SelectorKind]>,
}

impl std::fmt::Debug for MantleBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MantleBalancer")
            .field("name", &self.name)
            .field("selectors", &self.selectors)
            .finish_non_exhaustive()
    }
}

impl MantleBalancer {
    /// Wrap a compiled policy set. The policy is validated first — the
    /// §4.4 safety simulator runs before anything reaches the cluster.
    pub fn new(name: impl Into<String>, policy: PolicySet) -> PolicyResult<Self> {
        PolicyValidator::new().validate(&policy)?;
        Self::new_unvalidated(name, policy)
    }

    /// Compile a policy set without dry-run validation (tests of
    /// pathological policies use this; production callers want
    /// [`MantleBalancer::new`]). This is the compile step: build one
    /// balancer this way and [`MantleBalancer::fork`] it for the other MDSs.
    pub fn new_unvalidated(name: impl Into<String>, policy: PolicySet) -> PolicyResult<Self> {
        let runtime = MantleRuntime::new(policy);
        let compiled = runtime.compiled();
        let selectors = compiled
            .howmuch()
            .iter()
            .map(|name| {
                if let Some(builtin) = DirfragSelector::parse(name) {
                    return Ok(SelectorKind::Builtin(builtin));
                }
                compiled
                    .selector(name)
                    .map(|scripted| SelectorKind::Scripted(Rc::clone(scripted)))
                    .ok_or_else(|| PolicyError::Rejected {
                        reason: format!("unknown dirfrag selector '{name}'"),
                    })
            })
            .collect::<PolicyResult<Vec<_>>>()?;
        let selectors: Rc<[SelectorKind]> = if selectors.is_empty() {
            Rc::from([DirfragSelector::BigFirst.into()])
        } else {
            selectors.into()
        };
        Ok(MantleBalancer {
            name: name.into(),
            runtime,
            selectors,
        })
    }

    /// The same policy for one more MDS: shares the compilation and the
    /// resolved selectors, starts with fresh per-MDS state (registers,
    /// tables, nothing saved by `WRstate`). Compiles nothing.
    pub fn fork(&self) -> MantleBalancer {
        MantleBalancer {
            name: self.name.clone(),
            runtime: MantleRuntime::from_compiled(Rc::clone(self.runtime.compiled()))
                .with_engine(self.runtime.engine()),
            selectors: Rc::clone(&self.selectors),
        }
    }

    /// Select the policy evaluation engine explicitly (bytecode by
    /// default; the tree walker is kept as the reference the differential
    /// tests compare against — the engines are pinned byte-identical).
    pub fn with_engine(mut self, engine: HookEngine) -> Self {
        self.runtime = self.runtime.with_engine(engine);
        self
    }

    /// The engine policy hooks currently run on.
    pub fn engine(&self) -> HookEngine {
        self.runtime.engine()
    }

    fn inputs(ctx: &BalanceContext) -> BalancerInputs {
        let mds = ctx
            .heartbeats
            .iter()
            .map(|hb| MdsMetrics {
                auth: hb.auth_metaload,
                all: hb.all_metaload,
                cpu: hb.cpu,
                mem: hb.mem,
                q: hb.queue_len,
                req: hb.req_rate,
                cache_hits: hb.cache_hits,
                cache_misses: hb.cache_misses,
            })
            .collect();
        BalancerInputs {
            whoami: ctx.whoami,
            mds,
            auth_metaload: ctx.heartbeats[ctx.whoami].auth_metaload,
            all_metaload: ctx.heartbeats[ctx.whoami].all_metaload,
        }
    }
}

impl Balancer for MantleBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64> {
        // The runtime is this MDS's own, and so is the state `RDstate`
        // reads: the identity argument is not consulted.
        self.runtime.eval_metaload(
            0,
            &FragMetrics {
                ird: heat.ird,
                iwr: heat.iwr,
                readdir: heat.readdir,
                fetch: heat.fetch,
                store: heat.store,
            },
        )
    }

    fn metaload_is_additive(&self) -> bool {
        self.runtime.metaload_is_additive()
    }

    fn decide(&mut self, ctx: &BalanceContext) -> PolicyResult<Option<MigrationPlan>> {
        if ctx.heartbeats.is_empty() {
            return Ok(None);
        }
        let outcome = self.runtime.decide(&Self::inputs(ctx))?;
        if !outcome.migrate {
            return Ok(None);
        }
        Ok(Some(MigrationPlan {
            targets: outcome.targets,
            // Reference-count bump, not a per-decision vector copy.
            selectors: Rc::clone(&self.selectors),
        }))
    }

    fn howmany(
        &mut self,
        ctx: &BalanceContext,
        active: usize,
        min_mds: usize,
        max_mds: usize,
    ) -> PolicyResult<Option<f64>> {
        if ctx.heartbeats.is_empty() {
            return Ok(None);
        }
        self.runtime
            .eval_howmany(&Self::inputs(ctx), active, min_mds, max_mds)
    }

    fn compiled_policy(&self) -> Option<&Rc<CompiledPolicy>> {
        Some(self.runtime.compiled())
    }
}

// ---------------------------------------------------------------------------
// The cluster's balancers, and what happens when one misbehaves.
// ---------------------------------------------------------------------------

/// Consecutive failed balancer ticks after which an MDS swaps its
/// balancer for the built-in CephFS one (§3.4).
pub(crate) const FALLBACK_AFTER: u32 = 3;

/// One balancer per MDS plus the bookkeeping of their failures: hook
/// errors, fault-injected poisoning, and the §3.4 fallback to the CephFS
/// balancer after [`FALLBACK_AFTER`] consecutive bad ticks. Owned by the
/// coordinator; balancers only ever run inside exclusive steps.
pub(crate) struct BalancerSet {
    balancers: Vec<Box<dyn Balancer>>,
    /// Balancers whose hooks were poisoned mid-run (every decide errors).
    poisoned: Vec<bool>,
    /// Consecutive failed ticks per MDS.
    streak: Vec<u32>,
    /// Fallbacks taken.
    pub(crate) fallbacks: u64,
    /// The configured policy's name: pinned at construction and at each
    /// install, so a mid-run fallback doesn't relabel the report.
    pub(crate) name: String,
}

impl BalancerSet {
    pub(crate) fn new(balancers: Vec<Box<dyn Balancer>>) -> Self {
        let n = balancers.len();
        BalancerSet {
            name: balancers
                .first()
                .map(|b| b.name().to_string())
                .unwrap_or_default(),
            balancers,
            poisoned: vec![false; n],
            streak: vec![0; n],
            fallbacks: 0,
        }
    }

    /// MDS `m`'s balancer.
    pub(crate) fn balancer(&mut self, m: MdsId) -> &mut dyn Balancer {
        self.balancers[m].as_mut()
    }

    /// MDS `m`'s balancer, to look at.
    pub(crate) fn get(&self, m: MdsId) -> &dyn Balancer {
        self.balancers[m].as_ref()
    }

    /// Every `metaload` hook is additive (see
    /// [`Balancer::metaload_is_additive`]).
    pub(crate) fn all_additive(&self) -> bool {
        self.balancers.iter().all(|b| b.metaload_is_additive())
    }

    /// MDS `m`'s `metaload` of `heat`; a failing hook is answered with
    /// the CephFS formula, counted nowhere, and leaves the error streak
    /// alone.
    pub(crate) fn metaload(&self, m: MdsId, heat: &HeatSample) -> f64 {
        self.balancers[m]
            .metaload(heat)
            .unwrap_or_else(|_| heat.cephfs_metaload())
    }

    /// Make every future tick of `m`'s balancer fail (fault injection).
    pub(crate) fn poison(&mut self, m: MdsId) {
        self.poisoned[m] = true;
    }

    /// Whether `m`'s balancer is poisoned.
    pub(crate) fn is_poisoned(&self, m: MdsId) -> bool {
        self.poisoned[m]
    }

    /// `m` completed a tick without error.
    pub(crate) fn note_ok(&mut self, m: MdsId) {
        self.streak[m] = 0;
    }

    /// Record a failed balancer tick on `m`; after [`FALLBACK_AFTER`]
    /// consecutive failures the MDS swaps in the default CephFS balancer
    /// (§3.4's graceful degradation).
    pub(crate) fn note_error(&mut self, m: MdsId, now: SimTime, trace: &mut Tracer) {
        self.streak[m] += 1;
        let consecutive = self.streak[m];
        trace.emit(now, || TraceEvent::PolicyError {
            mds: m,
            consecutive,
        });
        if consecutive >= FALLBACK_AFTER {
            self.balancers[m] = Box::new(CephfsBalancer);
            self.poisoned[m] = false;
            self.streak[m] = 0;
            self.fallbacks += 1;
            trace.emit(now, || TraceEvent::BalancerFallback { mds: m });
        }
    }

    /// Hot install: replace every balancer with a fresh one running an
    /// already-validated policy, compiled here once and shared by all of
    /// them. Compiling happens on the engine thread because a compiled
    /// policy is deliberately not `Send`; the raw [`PolicySet`] is. On
    /// failure — exceptional, the policy was validated upstream — the old
    /// balancers keep running.
    pub(crate) fn install(&mut self, name: &str, set: &PolicySet) -> PolicyResult<()> {
        let first = MantleBalancer::new_unvalidated(name, set.clone())?;
        for b in &mut self.balancers {
            *b = Box::new(first.fork());
        }
        // A fresh policy gets a clean slate: prior poisoning and error
        // streaks belonged to the replaced one.
        self.poisoned.fill(false);
        self.streak.fill(0);
        self.name = name.to_string();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(auth: f64, q: f64, req: f64) -> Heartbeat {
        Heartbeat {
            auth_metaload: auth,
            all_metaload: auth,
            cpu: 0.0,
            mem: 0.0,
            queue_len: q,
            req_rate: req,
            cache_hits: 0.0,
            cache_misses: 0.0,
            taken_at: SimTime::ZERO,
        }
    }

    #[test]
    fn cephfs_mdsload_formula() {
        let h = hb(10.0, 2.0, 5.0);
        // 0.8*10 + 0.2*10 + 5 + 10*2 = 35
        assert!((CephfsBalancer::mds_load(&h) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn cephfs_when_only_fires_above_average() {
        let mut b = CephfsBalancer;
        let ctx = BalanceContext {
            whoami: 1,
            heartbeats: vec![hb(90.0, 0.0, 0.0), hb(5.0, 0.0, 0.0), hb(5.0, 0.0, 0.0)].into(),
        };
        assert!(b.decide(&ctx).unwrap().is_none(), "cold MDS stays put");
        let ctx_hot = BalanceContext { whoami: 0, ..ctx };
        let plan = b.decide(&ctx_hot).unwrap().expect("hot MDS exports");
        assert_eq!(plan.targets[0], 0.0);
        assert!(plan.targets[1] > 0.0 && plan.targets[2] > 0.0);
        assert_eq!(plan.selectors.as_ref(), [DirfragSelector::BigFirst.into()]);
    }

    #[test]
    fn cephfs_targets_scaled_by_need_min() {
        let mut b = CephfsBalancer;
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![hb(100.0, 0.0, 0.0), hb(0.0, 0.0, 0.0)].into(),
        };
        let plan = b.decide(&ctx).unwrap().unwrap();
        // avg = 50; raw target = 50; scaled = 40; surplus = 50 → stays 40.
        assert!((plan.targets[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn cephfs_never_ships_more_than_surplus() {
        let mut b = CephfsBalancer;
        // avg = 40; self surplus = 20; two cold MDSs "want" (35+25)×0.8=48.
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![
                hb(60.0, 0.0, 0.0),
                hb(5.0, 0.0, 0.0),
                hb(15.0, 0.0, 0.0),
                hb(80.0, 0.0, 0.0),
            ]
            .into(),
        };
        let plan = b.decide(&ctx).unwrap().unwrap();
        let planned: f64 = plan.targets.iter().sum();
        assert!(planned <= 20.0 + 1e-9, "planned {planned}");
        assert_eq!(plan.targets[3], 0.0, "hotter MDS gets nothing");
    }

    #[test]
    fn cephfs_when_is_quiet_at_the_zero_load_boundary() {
        // An entirely idle cluster: every load is 0, so the average is 0
        // and `loads[whoami] <= avg` holds on every rank — the `when`
        // predicate must not fire (and must not divide by the zero total).
        let mut b = CephfsBalancer;
        for whoami in 0..3 {
            let ctx = BalanceContext {
                whoami,
                heartbeats: vec![hb(0.0, 0.0, 0.0); 3].into(),
            };
            assert!(
                b.decide(&ctx).unwrap().is_none(),
                "idle MDS {whoami} must stay put"
            );
        }
    }

    #[test]
    fn cephfs_when_is_quiet_exactly_at_average() {
        // Perfectly balanced load: everyone sits exactly on the average,
        // and the strict `>` keeps every rank quiet — no migration storms
        // from rounding a flat cluster.
        let mut b = CephfsBalancer;
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![hb(40.0, 0.0, 0.0); 4].into(),
        };
        assert!(b.decide(&ctx).unwrap().is_none());
    }

    #[test]
    fn cephfs_barely_above_average_exports_a_sliver() {
        // Just past the boundary: an epsilon of surplus produces a plan
        // whose total never exceeds that surplus — even when a second hot
        // MDS leaves the cold ones wanting (0.1+0.1)×0.8 = 0.16.
        let mut b = CephfsBalancer;
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![
                hb(40.1, 0.0, 0.0),
                hb(40.1, 0.0, 0.0),
                hb(39.9, 0.0, 0.0),
                hb(39.9, 0.0, 0.0),
            ]
            .into(),
        };
        let plan = b.decide(&ctx).unwrap().expect("above average fires");
        let planned: f64 = plan.targets.iter().sum();
        let surplus = 0.1; // load 40.1 (×0.8 auth + 0.2 all) vs avg 40.0
        assert!(
            planned > 0.0 && planned <= surplus + 1e-9,
            "planned {planned}"
        );
    }

    #[test]
    fn cephfs_single_mds_never_migrates() {
        let mut b = CephfsBalancer;
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![hb(100.0, 5.0, 5.0)].into(),
        };
        assert!(b.decide(&ctx).unwrap().is_none());
    }

    #[test]
    fn mantle_balancer_from_greedy_spill() {
        let policy = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            r#"
if MDSs[whoami]["load"]>.01 and whoami < #MDSs and MDSs[whoami+1]["load"]<.01 then
  targets[whoami+1]=allmetaload/2
end
"#,
            &["half"],
        )
        .unwrap();
        let mut b = MantleBalancer::new("greedy-spill", policy).unwrap();
        assert_eq!(b.name(), "greedy-spill");
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![hb(50.0, 0.0, 0.0), hb(0.0, 0.0, 0.0)].into(),
        };
        let plan = b.decide(&ctx).unwrap().expect("spills");
        assert_eq!(plan.targets[1], 25.0);
        assert_eq!(plan.selectors.as_ref(), [DirfragSelector::Half.into()]);
        // Neighbour busy → idle.
        let ctx2 = BalanceContext {
            whoami: 0,
            heartbeats: vec![hb(50.0, 0.0, 0.0), hb(50.0, 0.0, 0.0)].into(),
        };
        assert!(b.decide(&ctx2).unwrap().is_none());
    }

    #[test]
    fn mantle_metaload_uses_script() {
        let policy =
            PolicySet::from_combined("IRD + 2*IWR", "MDSs[i][\"all\"]", "x = 1", &["big_first"])
                .unwrap();
        let b = MantleBalancer::new_unvalidated("m", policy).unwrap();
        let heat = HeatSample {
            ird: 3.0,
            iwr: 5.0,
            ..Default::default()
        };
        assert_eq!(b.metaload(&heat).unwrap(), 13.0);
    }

    #[test]
    fn bad_selector_name_rejected() {
        let policy = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "x = 1",
            &["biggest_first_totally_real"],
        )
        .unwrap();
        assert!(MantleBalancer::new_unvalidated("m", policy).is_err());
    }

    #[test]
    fn validation_runs_on_construction() {
        let policy =
            PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "while 1 do end", &["half"])
                .unwrap();
        assert!(MantleBalancer::new("evil", policy).is_err());
    }

    #[test]
    fn howmany_default_is_none_and_mantle_hook_scales() {
        let ctx = BalanceContext {
            whoami: 0,
            heartbeats: vec![hb(40.0, 0.0, 0.0), hb(20.0, 0.0, 0.0)].into(),
        };
        let mut cephfs = CephfsBalancer;
        assert_eq!(cephfs.howmany(&ctx, 2, 1, 4).unwrap(), None);

        let policy = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &["half"])
            .unwrap()
            .with_howmany("max(min_mds, min(max_mds, total / 20))")
            .unwrap();
        let mut b = MantleBalancer::new("scaler", policy).unwrap();
        // mdsload = all = {40, 20}; total 60; 60/20 = 3 within [1, 4].
        assert_eq!(b.howmany(&ctx, 2, 1, 4).unwrap(), Some(3.0));
    }

    #[test]
    fn state_is_one_cell_per_mds_from_every_hook() {
        // `when` saves, `metaload` reads back: both must address the cell
        // of the MDS whose balancer runs them, and nobody else's.
        let policy = PolicySet::from_hooks(
            "IWR + RDstate()",
            "MDSs[i][\"all\"]",
            "WRstate(7) return false",
            "x = 1",
            &["half"],
        )
        .unwrap();
        let first = MantleBalancer::new("stateful", policy).unwrap();
        let (mut mds0, mut mds2) = (first.fork(), first.fork());
        let cold = HeatSample::default();
        assert_eq!(mds2.metaload(&cold).unwrap(), 0.0);
        let ctx = BalanceContext {
            whoami: 2,
            heartbeats: vec![hb(10.0, 0.0, 0.0); 3].into(),
        };
        assert!(mds2.decide(&ctx).unwrap().is_none());
        assert_eq!(mds2.metaload(&cold).unwrap(), 7.0, "MDS 2 reads its own");
        assert_eq!(mds0.metaload(&cold).unwrap(), 0.0, "MDS 0 never wrote");
        assert_eq!(first.metaload(&cold).unwrap(), 0.0);
        let ctx0 = BalanceContext { whoami: 0, ..ctx };
        assert!(mds0.decide(&ctx0).unwrap().is_none());
        assert_eq!(mds0.metaload(&cold).unwrap(), 7.0);
    }

    /// Every balancer of `set` runs one and the same compilation.
    fn shared_compilation(set: &BalancerSet, n: usize) -> Rc<CompiledPolicy> {
        let first = set.get(0).compiled_policy().expect("a Mantle balancer");
        for m in 1..n {
            let other = set.get(m).compiled_policy().expect("a Mantle balancer");
            assert!(Rc::ptr_eq(first, other), "MDS {m} compiled its own copy");
        }
        Rc::clone(first)
    }

    #[test]
    fn install_compiles_once_for_the_whole_cluster() {
        const N: usize = 128;
        let hardcoded = (0..N)
            .map(|_| Box::new(CephfsBalancer) as Box<dyn Balancer>)
            .collect();
        let mut set = BalancerSet::new(hardcoded);
        assert!(set.get(0).compiled_policy().is_none());
        set.poison(5);

        let policy = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &["half"])
            .unwrap()
            .with_custom_selector("firstborn", "return {1}")
            .unwrap();
        set.install("v1", &policy).unwrap();
        assert_eq!(set.name, "v1");
        assert!(!set.is_poisoned(5), "a fresh policy gets a clean slate");
        let v1 = shared_compilation(&set, N);
        // N balancers and this handle — the balancer `install` compiled
        // and forked from is gone.
        assert_eq!(Rc::strong_count(&v1), N + 1);
        assert!(v1.selector("firstborn").is_some());

        // The next install is a different compilation, again a single one.
        set.install("v2", &policy).unwrap();
        let v2 = shared_compilation(&set, N);
        assert!(!Rc::ptr_eq(&v1, &v2));
        assert_eq!(Rc::strong_count(&v1), 1, "v1 is gone from every MDS");

        // A policy naming a selector nobody defines is refused whole.
        let bad = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &["nope"]).unwrap();
        assert!(set.install("v3", &bad).is_err());
        assert_eq!(set.name, "v2");
        assert!(Rc::ptr_eq(&v2, &shared_compilation(&set, N)));
    }

    #[test]
    fn broken_custom_selectors_never_reach_a_balancer() {
        let with = |src: &str| {
            PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &[])
                .unwrap()
                .with_custom_selector("mine", src)
                .unwrap()
        };
        assert!(MantleBalancer::new("ok", with("return {}")).is_ok());
        for src in ["while true do end", "return laods", "return {0}"] {
            let err = MantleBalancer::new("bad", with(src)).unwrap_err();
            assert!(matches!(err, PolicyError::Rejected { .. }), "{src}: {err}");
        }
    }
}
