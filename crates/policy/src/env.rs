//! The Mantle balancer environment (the paper's Table 2) and the runtime
//! that drives the five policy hooks against it.
//!
//! Per Table 2, an injected script sees:
//!
//! | global | meaning |
//! |---|---|
//! | `whoami` | current MDS (1-based, Lua style) |
//! | `authmetaload` | metadata load on this MDS's authority subtrees |
//! | `allmetaload` | metadata load on all subtrees it knows about |
//! | `IRD`, `IWR` | decayed inode reads/writes of the fragment under consideration |
//! | `READDIR`, `FETCH`, `STORE` | decayed readdirs / RADOS fetches / stores |
//! | `MDSs[i]["auth"/"all"/"cpu"/"mem"/"q"/"req"/"load"]` | per-MDS heartbeat metrics |
//! | `total` | sum of `MDSs[i]["load"]` |
//! | `targets[i]` | *output*: load to send to MDS `i` |
//! | `WRstate(s)` / `RDstate()` | persist one number across this MDS's balancer ticks |
//! | `max(a,b)` / `min(a,b)` | numeric helpers |
//!
//! The layer has three parts, each written once:
//!
//! * **Compile.** [`CompiledPolicy::compile`] turns a [`PolicySet`] into an
//!   immutable bundle — per hook the bytecode program and its base global
//!   frame, the [`LinearForm`]s of `metaload`/`mdsload`, the scripted
//!   selectors — that every MDS of a cluster shares behind one `Rc`.
//! * **Bind.** Each entry point ([`MantleRuntime::eval_metaload`],
//!   [`MantleRuntime::decide`], [`MantleRuntime::eval_howmany`]) lists the
//!   globals it binds as `(Bind, Value)` pairs; pass 1 (`mdsload` per MDS →
//!   `total` → `load` written back), pass 2 and the `targets` extraction
//!   are one function each.
//! * **Run.** `MantleRuntime::run_hook` is the one place a script meets its
//!   bindings, and the only thing [`HookEngine`] forks.
//!
//! A [`MantleRuntime`] is that shared bundle plus what belongs to one MDS:
//! the VM's registers, the reusable `targets` table, and the number
//! `WRstate` saved.
//!
//! The bundle also carries the one thing every MDS of a cluster *reads* the
//! same way each tick: the `MDSs` table. Every MDS decides against the same
//! heartbeat snapshot (§2.2.2), so the table and its rows are built once
//! per snapshot — an image held by the [`CompiledPolicy`] — instead of once
//! per MDS per snapshot; see `MdsImage` for what invalidates it and why
//! sharing it cannot couple two MDSs.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::ast::Script;
use crate::bytecode::{BytecodeProgram, BytecodeVm};
use crate::error::{PolicyError, PolicyResult};
use crate::interp::{Interpreter, StepBudget};
use crate::parser::{parse_expression_script, parse_script, parse_when};
use crate::scalar::{Leaf, LinearForm, MDS_FIELD_NAMES};
use crate::selector::ScriptedSelector;
use crate::stdlib;
use crate::value::{Key, Table, Value};

/// How one hook script runs against its bindings.
///
/// The two are bit-identical — same results (`f64::to_bits`-equal), same
/// step accounting, same errors on the same lines — pinned by the
/// differential suites in `crates/policy` and `tests/`. Everything around
/// the run (which hooks run when, what they are bound to, what is read
/// back) is shared; see `MantleRuntime::run_hook` for exactly what forks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HookEngine {
    /// The reference: a fresh tree-walking [`Interpreter`] per run, every
    /// binding made by name, fresh `MDSs`/`targets` tables per decision,
    /// no linear-form shortcut. Slow and readable; kept selectable so
    /// equivalence stays a runtime-checkable property rather than an
    /// assumption.
    Tree,
    /// The production engine: the flat register bytecode dispatch loop
    /// ([`BytecodeVm`]), bindings written to pre-resolved slots, the `MDSs`
    /// table shared by every MDS running the policy and rebuilt once per
    /// heartbeat snapshot, linear `metaload`/`mdsload` hooks evaluated as
    /// [`LinearForm`]s without running anything.
    #[default]
    Bytecode,
}

/// Decayed popularity counters for one dirfrag/subtree — the inputs to the
/// `metaload` hook.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FragMetrics {
    /// Inode reads (decayed).
    pub ird: f64,
    /// Inode writes (decayed).
    pub iwr: f64,
    /// Directory listings (decayed).
    pub readdir: f64,
    /// Fetches from the object store (decayed).
    pub fetch: f64,
    /// Stores to the object store (decayed).
    pub store: f64,
}

/// One MDS's heartbeat metrics — the inputs to the `mdsload` hook.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MdsMetrics {
    /// Metadata load on subtrees this MDS is the authority for.
    pub auth: f64,
    /// Metadata load on all subtrees it knows about (incl. replicas).
    pub all: f64,
    /// CPU utilization, percent.
    pub cpu: f64,
    /// Memory utilization, percent.
    pub mem: f64,
    /// Requests waiting in the queue.
    pub q: f64,
    /// Request rate, req/s.
    pub req: f64,
    /// Proxy-cache hits attributed to this MDS over the last heartbeat
    /// window (0 when the cache tier is disabled).
    pub cache_hits: f64,
    /// Proxy-cache misses routed to this MDS over the last heartbeat
    /// window (0 when the cache tier is disabled).
    pub cache_misses: f64,
}

impl MdsMetrics {
    /// The metrics as a vector, in [`MDS_FIELD_NAMES`] order: what an
    /// `MDSs` row holds and what an `mdsload` [`LinearForm`] is evaluated
    /// against.
    fn fields(&self) -> [f64; MDS_FIELD_NAMES.len()] {
        [
            self.auth,
            self.all,
            self.cpu,
            self.mem,
            self.q,
            self.req,
            self.cache_hits,
            self.cache_misses,
        ]
    }
}

/// Everything the balancer on one MDS knows when it runs: its identity and
/// the (possibly stale) heartbeat metrics for the whole cluster.
#[derive(Debug, Clone, Default)]
pub struct BalancerInputs {
    /// This MDS's index, 0-based (converted to Lua's 1-based inside).
    pub whoami: usize,
    /// Per-MDS metrics, indexed by MDS id.
    pub mds: Vec<MdsMetrics>,
    /// Metadata load on this MDS's authority subtrees.
    pub auth_metaload: f64,
    /// Metadata load on all subtrees this MDS knows about.
    pub all_metaload: f64,
}

/// The decision a balancer run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerOutcome {
    /// `mdsload` evaluated per MDS.
    pub mds_loads: Vec<f64>,
    /// Sum of the loads.
    pub total: f64,
    /// Whether the `when` hook fired.
    pub migrate: bool,
    /// `targets[i]`: load to export to MDS `i` (0-based; 0.0 when none).
    pub targets: Vec<f64>,
}

impl BalancerOutcome {
    /// A no-migration outcome.
    fn idle(n: usize) -> Self {
        BalancerOutcome {
            mds_loads: vec![0.0; n],
            total: 0.0,
            migrate: false,
            targets: vec![0.0; n],
        }
    }
}

/// How the `when`/`where` decisions are expressed.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Separate `when` (predicate) and `where` (fills `targets[]`) hooks —
    /// the paper's §3.2 API.
    Hooks {
        /// The `mds_bal_when` script; its result's truthiness decides.
        when: Script,
        /// The `mds_bal_where` script; runs only when `when` fired.
        where_: Script,
    },
    /// One combined script that conditionally fills `targets[]` — the form
    /// of Listings 1–3. Migration happens iff some target is positive.
    Combined(Script),
}

/// A full set of compiled balancer policies.
#[derive(Debug, Clone)]
pub struct PolicySet {
    /// `mds_bal_metaload`: load of one dirfrag from its counters.
    pub metaload: Script,
    /// `mds_bal_mdsload`: load of MDS `i` from `MDSs[i]` metrics.
    pub mdsload: Script,
    /// when/where.
    pub decision: Decision,
    /// `mds_bal_howmuch`: dirfrag selector names, tried in order.
    pub howmuch: Vec<String>,
    /// `mds_bal_howmany`: optional auto-scaling hook. Runs once per
    /// balancer tick (on the coordinator, not per MDS) over the same
    /// heartbeat environment as the decision hooks plus `active` (current
    /// member count), `min_mds`, and `max_mds`; returns the target MDS
    /// count. `None` means the cluster size is fixed — the pre-elastic
    /// behaviour.
    pub howmany: Option<Script>,
    /// Policy-defined dirfrag selectors: `(name, compiled script)`. The
    /// paper's §3.2 feeds the balancer "an external Lua file with a list
    /// of strategies"; this is that list, generalized so policies can ship
    /// strategies beyond the four built-ins. Referenced from `howmuch` by
    /// name.
    pub custom_selectors: Vec<(String, Script)>,
}

impl PolicySet {
    /// Compile a policy set from hook sources (the `ceph tell mds.N
    /// injectargs` form of §3.1).
    pub fn from_hooks(
        metaload: &str,
        mdsload: &str,
        when: &str,
        where_: &str,
        howmuch: &[&str],
    ) -> PolicyResult<PolicySet> {
        Ok(PolicySet {
            metaload: parse_expression_script(metaload)?,
            mdsload: parse_expression_script(mdsload)?,
            decision: Decision::Hooks {
                when: parse_when(when)?,
                where_: parse_script(where_)?,
            },
            howmuch: howmuch.iter().map(|s| s.to_string()).collect(),
            howmany: None,
            custom_selectors: Vec::new(),
        })
    }

    /// Compile a policy set whose when/where is a single combined script
    /// (the form of the paper's listings).
    pub fn from_combined(
        metaload: &str,
        mdsload: &str,
        whenwhere: &str,
        howmuch: &[&str],
    ) -> PolicyResult<PolicySet> {
        Ok(PolicySet {
            metaload: parse_expression_script(metaload)?,
            mdsload: parse_expression_script(mdsload)?,
            decision: Decision::Combined(parse_script(whenwhere)?),
            howmuch: howmuch.iter().map(|s| s.to_string()).collect(),
            howmany: None,
            custom_selectors: Vec::new(),
        })
    }

    /// Attach a `mds_bal_howmany` auto-scaling hook. The script sees the
    /// pass-2 decision environment (`whoami`, `MDSs` with `load` filled
    /// in, `total`, `authmetaload`, `allmetaload`) plus `active`,
    /// `min_mds`, and `max_mds`, and returns the target MDS count (a bare
    /// expression or a full script ending in `return`).
    pub fn with_howmany(mut self, src: &str) -> PolicyResult<Self> {
        self.howmany = Some(parse_expression_script(src)?);
        Ok(self)
    }

    /// Attach a policy-defined dirfrag selector (referenced from the
    /// `howmuch` list by `name`). The script sees `loads` (1-based array)
    /// and `target`, and returns a table of 1-based indices to ship.
    pub fn with_custom_selector(mut self, name: &str, src: &str) -> PolicyResult<Self> {
        let script = parse_script(src)?;
        self.custom_selectors.push((name.to_string(), script));
        if !self.howmuch.iter().any(|n| n == name) {
            self.howmuch.push(name.to_string());
        }
        Ok(self)
    }
}

/// Every global the host binds for a script, by name: the Table-2
/// environment of the five hooks plus the selector environment. An entry
/// point lists what it binds as `(Bind, Value)` pairs; how a pair reaches
/// the script — a slot write or a `set_global` by name — is the engine's
/// business.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bind {
    Whoami,
    I,
    Mdss,
    Total,
    Targets,
    AuthMetaload,
    AllMetaload,
    Ird,
    Iwr,
    Readdir,
    Fetch,
    Store,
    Active,
    MinMds,
    MaxMds,
    // From here on: the selector environment only.
    Loads,
    Target,
    Chosen,
}

impl Bind {
    /// The globals' names as scripts spell them, in declaration order.
    const NAMES: [&'static str; Bind::Chosen as usize + 1] = [
        "whoami",
        "i",
        "MDSs",
        "total",
        "targets",
        "authmetaload",
        "allmetaload",
        "IRD",
        "IWR",
        "READDIR",
        "FETCH",
        "STORE",
        "active",
        "min_mds",
        "max_mds",
        "loads",
        "target",
        "chosen",
    ];

    /// The global's name as scripts spell it.
    pub(crate) fn name(self) -> &'static str {
        Bind::NAMES[self as usize]
    }

    /// Names some hook binds (the validator lets any hook name any of
    /// these; one the hook at hand does not bind reads `nil`, which the dry
    /// run then trips over).
    pub(crate) fn hook_env() -> &'static [&'static str] {
        &Bind::NAMES[..Bind::Loads as usize]
    }

    /// Names a selector run binds (`chosen` is its output, not an input).
    pub(crate) fn selector_env() -> [&'static str; 3] {
        [Bind::Loads, Bind::Target, Bind::Total].map(Bind::name)
    }
}

/// One script, compiled once and immutable afterwards: the AST (what the
/// tree reference walks), the bytecode, the base global frame (host
/// functions at their slots, `Nil` everywhere else) and the slot of every
/// [`Bind`] the script mentions (`None` for the rest, whose writes are
/// skipped).
pub(crate) struct CompiledHook {
    script: Script,
    bc: BytecodeProgram,
    base: Vec<Value>,
    slots: [Option<usize>; Bind::NAMES.len()],
}

impl CompiledHook {
    pub(crate) fn compile(script: Script, host: &[(&'static str, Value)]) -> CompiledHook {
        let bc = BytecodeProgram::compile(&script);
        CompiledHook {
            base: bc.base_frame(host),
            slots: Bind::NAMES.map(|name| bc.global_slot(name)),
            bc,
            script,
        }
    }

    /// The source AST.
    pub(crate) fn script(&self) -> &Script {
        &self.script
    }

    /// The globals the script reads and never assigns, sorted by name.
    pub(crate) fn unassigned_reads(&self) -> Vec<&str> {
        self.bc.unassigned_reads()
    }

    /// Whether the host put something behind `name` in the base frame (a
    /// stdlib function, `math`, `WRstate`/`RDstate`).
    pub(crate) fn host_binds(&self, name: &str) -> bool {
        self.bc
            .global_slot(name)
            .is_some_and(|slot| !matches!(self.base[slot], Value::Nil))
    }

    /// A VM fit to run this hook.
    pub(crate) fn vm(&self, budget: StepBudget) -> BytecodeVm {
        BytecodeVm::new(&self.bc, budget)
    }

    /// Run on `vm`: re-image the globals from the base frame, write `env`
    /// into the slots the script mentions, execute. Resetting is a clone of
    /// the base frame plus a handful of slot writes — no interpreter
    /// construction, no name hashing, no `String` allocation.
    pub(crate) fn run(&self, vm: &mut BytecodeVm, env: &[(Bind, Value)]) -> PolicyResult<Value> {
        vm.reset_globals(&self.base);
        for (bind, value) in env {
            if let Some(slot) = self.slots[*bind as usize] {
                vm.set_global(slot, value.clone());
            }
        }
        vm.run(&self.bc)
    }

    /// The global `bind` names, as the last [`Self::run`] on `vm` left it.
    pub(crate) fn global(&self, vm: &BytecodeVm, bind: Bind) -> Value {
        self.slots[bind as usize].map_or(Value::Nil, |slot| vm.get_global(slot).clone())
    }
}

/// `WRstate`/`RDstate` — Table 2's persistence pair — over the running
/// MDS's [`HostState`](crate::value::HostState).
fn state_functions() -> [(&'static str, Value); 2] {
    [
        (
            "WRstate",
            Value::Native(
                "WRstate",
                Rc::new(|host, args| {
                    host.saved = args
                        .first()
                        .ok_or_else(|| PolicyError::runtime(0, "WRstate expects a value"))?
                        .as_number(0)?;
                    Ok(Value::Nil)
                }),
            ),
        ),
        (
            "RDstate",
            Value::Native("RDstate", Rc::new(|host, _| Ok(Value::Number(host.saved)))),
        ),
    ]
}

/// A [`PolicySet`] compiled once and shared behind one `Rc` by every MDS
/// that runs the policy: per hook the bytecode program and base frame, the
/// [`LinearForm`]s of the two load hooks, the scripted selectors, the
/// interned row keys. All of that is immutable after
/// [`CompiledPolicy::compile`] returns — host functions take their state as
/// an argument and the stdlib's `math` table is read-only to scripts.
///
/// The one part that is rewritten is the `MdsImage`: the `MDSs` table the
/// bytecode engine binds, a function of the heartbeat snapshot alone and so
/// the same for every MDS that decides against that snapshot. It is
/// rebuilt whenever it might differ from a freshly built table, so sharing
/// the compilation still cannot couple two MDSs.
pub struct CompiledPolicy {
    /// What every hook's globals start from: the stdlib plus
    /// `WRstate`/`RDstate`. The base frames are cut from this list; the
    /// tree reference binds it by name.
    host: Vec<(&'static str, Value)>,
    metaload: CompiledHook,
    mdsload: CompiledHook,
    /// The `when` predicate of the two-hook form; `None` for a combined
    /// script, which decides by filling `targets`.
    when: Option<CompiledHook>,
    /// `where`, or the combined when/where script.
    where_: CompiledHook,
    howmany: Option<CompiledHook>,
    metaload_linear: Option<LinearForm>,
    mdsload_linear: Option<LinearForm>,
    howmuch: Vec<String>,
    selectors: Vec<Rc<ScriptedSelector>>,
    /// Keys of the metric fields of an `MDSs` row, in
    /// [`MDS_FIELD_NAMES`] order, and of its `load` field — cloned
    /// (refcount bump, no allocation) into every table refill.
    field_keys: [Key; MDS_FIELD_NAMES.len()],
    load_key: Key,
    image: RefCell<MdsImage>,
}

impl CompiledPolicy {
    /// Compile every script of `policy` — each exactly once.
    pub fn compile(policy: PolicySet) -> Rc<CompiledPolicy> {
        let stdlib = stdlib::globals();
        let mut host = stdlib.clone();
        host.extend(state_functions());
        let hook = |script| CompiledHook::compile(script, &host);
        let (when, where_) = match policy.decision {
            Decision::Hooks { when, where_ } => (Some(hook(when)), hook(where_)),
            Decision::Combined(script) => (None, hook(script)),
        };
        let key = |name: &str| Key::Str(Rc::from(name));
        Rc::new(CompiledPolicy {
            metaload_linear: LinearForm::extract(&policy.metaload, Leaf::Counter),
            mdsload_linear: LinearForm::extract(&policy.mdsload, Leaf::MdsField),
            metaload: hook(policy.metaload),
            mdsload: hook(policy.mdsload),
            when,
            where_,
            howmany: policy.howmany.map(hook),
            howmuch: policy.howmuch,
            selectors: policy
                .custom_selectors
                .into_iter()
                .map(|(name, script)| Rc::new(ScriptedSelector::from_script(name, script, &stdlib)))
                .collect(),
            field_keys: MDS_FIELD_NAMES.map(key),
            load_key: key("load"),
            image: RefCell::default(),
            host,
        })
    }

    /// How many times the shared `MDSs` image has been built: once per
    /// distinct heartbeat snapshot the policy's MDSs decided against, plus
    /// once after every hook run that wrote to it — not once per decision.
    pub fn image_fills(&self) -> u64 {
        self.image.borrow().fills
    }

    /// The `howmuch` list: dirfrag selector names, tried in order.
    pub fn howmuch(&self) -> &[String] {
        &self.howmuch
    }

    /// The policy-defined selector called `name`, if the policy ships one.
    pub fn selector(&self, name: &str) -> Option<&Rc<ScriptedSelector>> {
        self.selectors.iter().find(|s| s.name() == name)
    }

    /// Every policy-defined selector.
    pub fn selectors(&self) -> &[Rc<ScriptedSelector>] {
        &self.selectors
    }

    /// Every hook the policy has, for static checks.
    pub(crate) fn hooks(&self) -> impl Iterator<Item = &CompiledHook> {
        [
            Some(&self.metaload),
            Some(&self.mdsload),
            self.when.as_ref(),
            Some(&self.where_),
            self.howmany.as_ref(),
        ]
        .into_iter()
        .flatten()
    }
}

/// The `MDSs` table and its rows, as pass 1 leaves them: metric fields from
/// the heartbeat snapshot, `"load"` written back.
///
/// The bytecode engine keeps **one image per [`CompiledPolicy`]**, shared
/// by every MDS running it. All of them decide against the same snapshot
/// each tick, so the image is built by the first and found current by the
/// rest: a tick costs one fill (nine key inserts per row), not one per MDS.
/// The tree reference builds a fresh image per decision — being independent
/// of this machinery is its job.
///
/// The image is rebuilt ([`MdsImage::fill`]) when it may differ from a
/// fresh build:
///
/// * the incoming metrics differ **by content** (`f64::to_bits`, length
///   included) from those it was filled from — a new snapshot, an elastic
///   member view of another size, a validator scenario;
/// * any of its tables carries [`Table::script_written`] — some hook run
///   assigned into `MDSs` or a row. Every script write goes through
///   [`Table::assign`] on both engines, so none is missed; the host's own
///   writes (the fill, the `"load"` write-back) do not raise the flag.
///
/// Scripts cannot tell the shared image from private tables because no
/// reference to it outlives a hook run: globals are re-imaged from the base
/// frame before every run, VM registers are written before they are read,
/// `WRstate` keeps a number, `targets` is per MDS and cleared per decision,
/// and the only other table that survives a run — the stdlib's `math` —
/// refuses script writes. So all a run can leave behind is what it wrote
/// *into* the image, and that is flagged.
/// `decide_env_reuse_is_invisible_across_calls`,
/// `shared_image_cannot_couple_mdss` and `tests/bytecode_equivalence.rs` pin
/// the shared image against the tree reference's fresh tables.
#[derive(Default)]
struct MdsImage {
    mdss: Rc<RefCell<Table>>,
    /// `rows[i]` is the table [`MdsImage::fill`] put behind `MDSs[i+1]`.
    rows: Vec<Rc<RefCell<Table>>>,
    /// The metrics the image was last filled from.
    filled_from: Vec<MdsMetrics>,
    /// `(loads, total)` of the `mdsload` pass whose results the rows'
    /// `"load"` fields currently hold; `None` while the rows have no
    /// `"load"`. For a linear `mdsload` — a function of the row alone —
    /// this is the memo every later MDS of the tick reads instead of
    /// re-evaluating and re-writing 128 rows.
    loads: Option<(Vec<f64>, f64)>,
    /// Times [`MdsImage::fill`] ran.
    fills: u64,
}

impl MdsImage {
    /// Whether the image is still what [`MdsImage::fill`] would build from
    /// `mds` (give or take `"load"`, which `loads` accounts for).
    fn is_current(&self, mds: &[MdsMetrics]) -> bool {
        let bits = |m: &MdsMetrics| m.fields().map(f64::to_bits);
        self.filled_from.len() == mds.len()
            && self
                .filled_from
                .iter()
                .zip(mds)
                .all(|(a, b)| bits(a) == bits(b))
            && !self.mdss.borrow().script_written()
            && !self.rows.iter().any(|row| row.borrow().script_written())
    }

    /// Clear every table and refill from `mds`, restoring exactly the state
    /// a fresh build would produce (a previous hook run may have written
    /// arbitrary keys anywhere).
    fn fill(&mut self, mds: &[MdsMetrics], keys: &[Key; MDS_FIELD_NAMES.len()]) {
        // Rows of a larger cluster than this one are dropped, not parked:
        // nothing may stay reachable that a fresh build would not have.
        self.rows.resize_with(mds.len(), Rc::default);
        let mut outer = self.mdss.borrow_mut();
        outer.clear();
        for (i, (row, m)) in self.rows.iter().zip(mds).enumerate() {
            outer.set_int(i as i64 + 1, Value::Table(Rc::clone(row)));
            let mut row = row.borrow_mut();
            row.clear();
            for (key, v) in keys.iter().zip(m.fields()) {
                row.set(key.clone(), Value::Number(v));
            }
        }
        self.filled_from.clear();
        self.filled_from.extend_from_slice(mds);
        self.loads = None;
        self.fills += 1;
    }
}

/// `targets[1..=n]` as the decision script left them: a negative load counts
/// as 0, a string is coerced as arithmetic would coerce it, and anything
/// that is not a number then — untouched slots above all — counts as 0.
fn read_targets(targets: &Table, n: usize) -> Vec<f64> {
    (1..=n as i64)
        .map(|i| match targets.get_int(i) {
            Value::Number(v) => v.max(0.0),
            v @ Value::Str(_) => v.as_number(0).map_or(0.0, |v| v.max(0.0)),
            _ => 0.0,
        })
        .collect()
}

/// What one MDS owns of a running policy.
struct PerMds {
    /// Registers for whichever hook runs next, and — in its
    /// [`HostState`](crate::value::HostState) — the number `WRstate` saved.
    vm: BytecodeVm,
    /// The `targets` table, cleared and reused by every decision.
    targets: Rc<RefCell<Table>>,
}

/// Executes a policy against [`BalancerInputs`] — the bridge between the
/// MDS (which collects metrics and performs migrations) and the policy
/// scripts (which decide).
///
/// One runtime serves one MDS: it is an `Rc<`[`CompiledPolicy`]`>` plus
/// that MDS's registers, `targets` table and saved state, so building
/// another for the same policy ([`MantleRuntime::from_compiled`]) compiles
/// nothing.
pub struct MantleRuntime {
    policy: Rc<CompiledPolicy>,
    engine: HookEngine,
    per_mds: RefCell<PerMds>,
}

impl fmt::Debug for MantleRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MantleRuntime")
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl MantleRuntime {
    /// Compile `policy` and build a runtime for it.
    pub fn new(policy: PolicySet) -> Self {
        Self::from_compiled(CompiledPolicy::compile(policy))
    }

    /// A runtime for one more MDS running an already-compiled policy: fresh
    /// registers, a fresh `targets` table, nothing saved.
    pub fn from_compiled(policy: Rc<CompiledPolicy>) -> Self {
        MantleRuntime {
            per_mds: RefCell::new(PerMds {
                vm: policy.metaload.vm(StepBudget::default()),
                targets: Rc::default(),
            }),
            policy,
            engine: HookEngine::default(),
        }
    }

    /// Override the step budget applied to every hook invocation.
    pub fn with_budget(mut self, budget: StepBudget) -> Self {
        self.per_mds.get_mut().vm = self.policy.metaload.vm(budget);
        self
    }

    /// Select the evaluation engine (bytecode by default). The engines are
    /// bit-identical; the tree walker is the reference the differential
    /// suites select.
    pub fn with_engine(mut self, engine: HookEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine hooks currently run on.
    pub fn engine(&self) -> HookEngine {
        self.engine
    }

    /// The compiled policy this runtime shares with its siblings.
    pub fn compiled(&self) -> &Rc<CompiledPolicy> {
        &self.policy
    }

    /// The configured dirfrag selectors.
    pub fn selectors(&self) -> &[String] {
        self.policy.howmuch()
    }

    /// The linear form of `metaload`, when the hook is a single linear
    /// combination of the five counters (true for Table 1 and every
    /// shipped policy).
    fn metaload_scalar(&self) -> Option<&LinearForm> {
        self.policy.metaload_linear.as_ref()
    }

    /// The linear form of `mdsload`, when the hook is a single linear
    /// combination of the current row's metric fields (true for Table 1
    /// and every shipped policy).
    pub fn mdsload_scalar(&self) -> Option<&LinearForm> {
        self.policy.mdsload_linear.as_ref()
    }

    /// True when `metaload` distributes over sums of counter vectors
    /// (linear with no constant term), which lets callers evaluate it once
    /// per MDS on aggregated heat instead of once per dirfrag.
    ///
    /// Deliberately independent of [`Self::with_engine`]: the switch
    /// changes how a script runs, never the aggregation structure, so
    /// reports stay identical between the two engines.
    pub fn metaload_is_additive(&self) -> bool {
        self.metaload_scalar().is_some_and(|s| s.is_homogeneous())
    }

    /// Run one hook script against its bindings — the only code
    /// [`HookEngine`] forks. The bytecode engine re-images `vm`'s globals
    /// and writes `env` into pre-resolved slots; the tree reference builds
    /// an interpreter, binds the host functions and `env` by name, and
    /// walks the AST. Either way the run is held to `vm`'s step budget and
    /// natives see this MDS's host state, which lives in `vm`.
    fn run_hook(
        &self,
        hook: &CompiledHook,
        vm: &mut BytecodeVm,
        env: &[(Bind, Value)],
    ) -> PolicyResult<Value> {
        match self.engine {
            HookEngine::Bytecode => hook.run(vm, env),
            HookEngine::Tree => {
                let mut interp = Interpreter::new().with_budget(vm.budget());
                for (name, value) in &self.policy.host {
                    interp.set_global(name, value.clone());
                }
                for (bind, value) in env {
                    interp.set_global(bind.name(), value.clone());
                }
                *interp.host_mut() = *vm.host_mut();
                let result = interp.run(hook.script());
                *vm.host_mut() = *interp.host_mut();
                result
            }
        }
    }

    /// The linear form to evaluate in place of a hook run: the bytecode
    /// engine's shortcut. The tree reference always runs the script.
    fn shortcut<'a>(&self, form: &'a Option<LinearForm>) -> Option<&'a LinearForm> {
        form.as_ref()
            .filter(|_| self.engine == HookEngine::Bytecode)
    }

    /// Evaluate `mds_bal_metaload` for one fragment's counters.
    ///
    /// This is the hottest hook (once per dirfrag per balancer tick): a
    /// linear hook is a few multiply-adds, anything else one run of the
    /// compiled program. `whoami` is not consulted — state is the
    /// runtime's own, one runtime per MDS — and stays in the signature for
    /// `benchmark/`, which calls it (DESIGN.md §14).
    pub fn eval_metaload(&self, _whoami: usize, frag: &FragMetrics) -> PolicyResult<f64> {
        if let Some(form) = self.shortcut(&self.policy.metaload_linear) {
            return Ok(form.eval(&[frag.ird, frag.iwr, frag.readdir, frag.fetch, frag.store]));
        }
        let env = [
            (Bind::Ird, Value::Number(frag.ird)),
            (Bind::Iwr, Value::Number(frag.iwr)),
            (Bind::Readdir, Value::Number(frag.readdir)),
            (Bind::Fetch, Value::Number(frag.fetch)),
            (Bind::Store, Value::Number(frag.store)),
        ];
        let vm = &mut self.per_mds.borrow_mut().vm;
        self.run_hook(&self.policy.metaload, vm, &env)?.as_number(0)
    }

    /// What `mdsload`, the decision hooks and `howmany` all see of the
    /// cluster.
    fn cluster_env(inputs: &BalancerInputs, image: &MdsImage) -> [(Bind, Value); 4] {
        [
            (Bind::Whoami, Value::Number(inputs.whoami as f64 + 1.0)),
            (Bind::Mdss, Value::Table(Rc::clone(&image.mdss))),
            (Bind::AuthMetaload, Value::Number(inputs.auth_metaload)),
            (Bind::AllMetaload, Value::Number(inputs.all_metaload)),
        ]
    }

    /// Run `f` over the `MDSs` image this engine decides against: the
    /// compiled policy's shared one, or — the tree reference — a fresh one
    /// of its own.
    fn with_image<R>(&self, f: impl FnOnce(&mut MdsImage) -> R) -> R {
        match self.engine {
            HookEngine::Bytecode => f(&mut self.policy.image.borrow_mut()),
            HookEngine::Tree => f(&mut MdsImage::default()),
        }
    }

    /// Pass 1 of every decision: bring the `MDSs` image up to date with
    /// `inputs`, evaluate `mdsload` for each row, sum `total`, and write
    /// each load back as `MDSs[i]["load"]`. Returns `(loads, total)`.
    fn pass1(
        &self,
        inputs: &BalancerInputs,
        vm: &mut BytecodeVm,
        image: &mut MdsImage,
    ) -> PolicyResult<(Vec<f64>, f64)> {
        if !image.is_current(&inputs.mds) {
            image.fill(&inputs.mds, &self.policy.field_keys);
        }
        if let Some(form) = self.shortcut(&self.policy.mdsload_linear) {
            // A function of the rows alone: whichever MDS gets here first
            // after a fill does the work for all of them. No script ran
            // since the fill, so `rows[i]` still *is* `MDSs[i+1]`.
            let memo = image.loads.get_or_insert_with(|| {
                let loads: Vec<f64> = inputs.mds.iter().map(|m| form.eval(&m.fields())).collect();
                for (row, l) in image.rows.iter().zip(&loads) {
                    row.borrow_mut()
                        .set(self.policy.load_key.clone(), Value::Number(*l));
                }
                let total = loads.iter().sum();
                (loads, total)
            });
            return Ok(memo.clone());
        }
        // A scripted `mdsload` may read `whoami` or `RDstate()`, so it runs
        // for every MDS — over the shared rows, which it must find as a
        // fill leaves them: without the `"load"` an earlier MDS's pass
        // wrote back.
        if image.loads.take().is_some() {
            for row in &image.rows {
                row.borrow_mut()
                    .set(self.policy.load_key.clone(), Value::Nil);
            }
        }
        let [whoami, mdss, auth, all] = Self::cluster_env(inputs, image);
        let mut env = [(Bind::I, Value::Nil), whoami, mdss, auth, all];
        let loads: Vec<f64> = (1..=inputs.mds.len())
            .map(|i| {
                env[0].1 = Value::Number(i as f64);
                self.run_hook(&self.policy.mdsload, vm, &env)?.as_number(0)
            })
            .collect::<PolicyResult<_>>()?;
        let total = loads.iter().sum();
        // Rows are found through the outer table: an exotic hook could have
        // rearranged `MDSs`, and the write-back must land on exactly what
        // it left behind — which may be `MDSs` itself, so the outer borrow
        // ends before the row's begins.
        for (i, l) in loads.iter().enumerate() {
            let row = image.mdss.borrow().get_int(i as i64 + 1);
            if let Value::Table(row) = row {
                row.borrow_mut()
                    .set(self.policy.load_key.clone(), Value::Number(*l));
            }
        }
        image.loads = Some((loads.clone(), total));
        Ok((loads, total))
    }

    /// Run the full decision pipeline: `mdsload` per MDS, then
    /// `when`/`where` (or the combined script).
    pub fn decide(&self, inputs: &BalancerInputs) -> PolicyResult<BalancerOutcome> {
        let n = inputs.mds.len();
        if n == 0 {
            return Ok(BalancerOutcome::idle(0));
        }
        let PerMds { vm, targets } = &mut *self.per_mds.borrow_mut();
        match self.engine {
            HookEngine::Bytecode => targets.borrow_mut().clear(),
            HookEngine::Tree => *targets = Rc::default(),
        }
        self.with_image(|image| {
            let (mds_loads, total) = self.pass1(inputs, vm, image)?;

            // Pass 2. A combined script has no predicate: it "fires" by
            // filling `targets`, which the extraction below already decides.
            let [whoami, mdss, auth, all] = Self::cluster_env(inputs, image);
            let env = [
                whoami,
                mdss,
                auth,
                all,
                (Bind::Total, Value::Number(total)),
                (Bind::Targets, Value::Table(Rc::clone(targets))),
            ];
            let fired = match &self.policy.when {
                Some(when) => self.run_hook(when, vm, &env)?.truthy(),
                None => true,
            };
            if fired {
                self.run_hook(&self.policy.where_, vm, &env)?;
            }
            let targets = read_targets(&targets.borrow(), n);
            Ok(BalancerOutcome {
                mds_loads,
                total,
                // Migration that targets nobody is a no-op.
                migrate: fired && targets.iter().any(|&t| t > 0.0),
                targets,
            })
        })
    }

    /// Run the `mds_bal_howmany` auto-scaling hook: pass 1 exactly as
    /// [`Self::decide`] runs it, then the hook over the pass-2 environment
    /// with `active` (current member count), `min_mds` and `max_mds` in
    /// place of `targets`. Returns the raw target count (callers round and
    /// clamp), or `None` when the policy has no hook.
    pub fn eval_howmany(
        &self,
        inputs: &BalancerInputs,
        active: usize,
        min_mds: usize,
        max_mds: usize,
    ) -> PolicyResult<Option<f64>> {
        let Some(hook) = &self.policy.howmany else {
            return Ok(None);
        };
        if inputs.mds.is_empty() {
            return Ok(None);
        }
        let vm = &mut self.per_mds.borrow_mut().vm;
        self.with_image(|image| {
            let (_, total) = self.pass1(inputs, vm, image)?;
            let [whoami, mdss, auth, all] = Self::cluster_env(inputs, image);
            let env = [
                whoami,
                mdss,
                auth,
                all,
                (Bind::Total, Value::Number(total)),
                (Bind::Active, Value::Number(active as f64)),
                (Bind::MinMds, Value::Number(min_mds as f64)),
                (Bind::MaxMds, Value::Number(max_mds as f64)),
            ];
            let target = self.run_hook(hook, vm, &env)?.as_number(0)?;
            Ok(Some(target))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(loads: &[f64]) -> Vec<MdsMetrics> {
        loads
            .iter()
            .map(|&l| MdsMetrics {
                auth: l,
                all: l,
                ..Default::default()
            })
            .collect()
    }

    /// The original CephFS balancer policies from Table 1, expressed in
    /// the Mantle API (§3.2).
    fn cephfs_policy() -> PolicySet {
        PolicySet::from_hooks(
            "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE",
            "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]",
            "if MDSs[whoami][\"load\"] > total/#MDSs then",
            r#"
targetLoad = total/#MDSs
for i=1,#MDSs do
  if MDSs[i]["load"] < targetLoad then
    targets[i] = targetLoad - MDSs[i]["load"]
  end
end
"#,
            &["big_first"],
        )
        .unwrap()
    }

    #[test]
    fn bind_names_follow_the_enum() {
        assert_eq!(Bind::Whoami.name(), "whoami");
        assert_eq!(Bind::Mdss.name(), "MDSs");
        assert_eq!(Bind::Store.name(), "STORE");
        assert_eq!(Bind::MaxMds.name(), "max_mds");
        assert_eq!(Bind::Chosen.name(), "chosen");
        assert_eq!(Bind::hook_env().last(), Some(&"max_mds"));
        assert_eq!(Bind::selector_env(), ["loads", "target", "total"]);
    }

    #[test]
    fn table1_metaload_weights() {
        let rt = MantleRuntime::new(cephfs_policy());
        let frag = FragMetrics {
            ird: 1.0,
            iwr: 2.0,
            readdir: 3.0,
            fetch: 4.0,
            store: 5.0,
        };
        // 1 + 2*2 + 3 + 2*4 + 4*5 = 36
        assert_eq!(rt.eval_metaload(0, &frag).unwrap(), 36.0);
    }

    #[test]
    fn table1_when_fires_only_above_average() {
        let rt = MantleRuntime::new(cephfs_policy());
        let hot = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 5.0]),
            ..Default::default()
        };
        let out = rt.decide(&hot).unwrap();
        assert!(out.migrate);
        // targets for the two cold MDSs, none for self.
        assert_eq!(out.targets[0], 0.0);
        assert!(out.targets[1] > 0.0 && out.targets[2] > 0.0);

        let cold = BalancerInputs {
            whoami: 1,
            mds: metrics(&[90.0, 5.0, 5.0]),
            ..Default::default()
        };
        let out = rt.decide(&cold).unwrap();
        assert!(!out.migrate, "an underloaded MDS must not export");
    }

    #[test]
    fn mdsload_weighted_sum() {
        let rt = MantleRuntime::new(cephfs_policy());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: vec![MdsMetrics {
                auth: 10.0,
                all: 20.0,
                req: 5.0,
                q: 2.0,
                ..Default::default()
            }],
            ..Default::default()
        };
        let out = rt.decide(&inputs).unwrap();
        // 0.8*10 + 0.2*20 + 5 + 10*2 = 37
        assert!((out.mds_loads[0] - 37.0).abs() < 1e-9);
    }

    #[test]
    fn listing_1_greedy_spill_runs_verbatim() {
        // Listing 1, with `end` completing the truncated `if`.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            r#"
if MDSs[whoami]["load"]>.01 and MDSs[whoami+1]["load"]<.01 then
  targets[whoami+1]=allmetaload/2
end
"#,
            &["half"],
        )
        .unwrap();
        let rt = MantleRuntime::new(p);
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[50.0, 0.0, 0.0, 0.0]),
            all_metaload: 50.0,
            ..Default::default()
        };
        let out = rt.decide(&inputs).unwrap();
        assert!(out.migrate);
        assert_eq!(out.targets[1], 25.0);
        assert_eq!(out.targets[2], 0.0);

        // Neighbour already loaded → no spill.
        let inputs2 = BalancerInputs {
            whoami: 0,
            mds: metrics(&[50.0, 50.0, 0.0, 0.0]),
            all_metaload: 50.0,
            ..Default::default()
        };
        assert!(!rt.decide(&inputs2).unwrap().migrate);
    }

    #[test]
    fn listing_3_fill_and_spill_state_machine() {
        // Fill & Spill: spill 25% only after CPU > 48 for 3 straight ticks.
        let p = PolicySet::from_combined(
            "IWR + IRD",
            "MDSs[i][\"auth\"]",
            r#"
wait=RDstate()
go = 0
if MDSs[whoami]["cpu"]>48 then
  if wait>0 then WRstate(wait-1)
  else WRstate(2) go=1 end
else WRstate(2) end
if go==1 then
  targets[whoami+1] = MDSs[whoami]["load"]/4
end
"#,
            &["small_first"],
        )
        .unwrap();
        let rt = MantleRuntime::new(p);
        let busy = BalancerInputs {
            whoami: 0,
            mds: vec![
                MdsMetrics {
                    auth: 100.0,
                    cpu: 90.0,
                    ..Default::default()
                },
                MdsMetrics::default(),
            ],
            ..Default::default()
        };
        // Tick 1: cold start, wait==0 → go (the listing's semantics: an MDS
        // already past threshold with no armed counter fires and re-arms).
        assert!(rt.decide(&busy).unwrap().migrate);
        // Ticks 2-3: armed counter counts down, no migration.
        assert!(!rt.decide(&busy).unwrap().migrate);
        assert!(!rt.decide(&busy).unwrap().migrate);
        // Tick 4: counter exhausted → fires again.
        assert!(rt.decide(&busy).unwrap().migrate);
        // Idle CPU always re-arms and never fires.
        let idle = BalancerInputs {
            whoami: 0,
            mds: vec![
                MdsMetrics {
                    auth: 100.0,
                    cpu: 10.0,
                    ..Default::default()
                },
                MdsMetrics::default(),
            ],
            ..Default::default()
        };
        assert!(!rt.decide(&idle).unwrap().migrate);
    }

    #[test]
    fn combined_decision_with_no_targets_is_idle() {
        let p = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &["half"]).unwrap();
        let rt = MantleRuntime::new(p);
        let out = rt
            .decide(&BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 0.0]),
                ..Default::default()
            })
            .unwrap();
        assert!(!out.migrate);
        assert_eq!(out.targets, vec![0.0, 0.0]);
    }

    #[test]
    fn when_true_but_empty_targets_is_idle() {
        let p =
            PolicySet::from_hooks("IWR", "MDSs[i][\"all\"]", "true", "x = 1", &["half"]).unwrap();
        let rt = MantleRuntime::new(p);
        let out = rt
            .decide(&BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 0.0]),
                ..Default::default()
            })
            .unwrap();
        assert!(!out.migrate, "no targets → nothing to do");
    }

    #[test]
    fn targets_are_read_back_by_value_kind() {
        // One decision, every kind of thing a script can leave in a slot.
        let cases: [(&str, f64); 8] = [
            ("targets[1] = \"5\"", 5.0),
            ("targets[2] = -3", 0.0),
            ("targets[3] = true", 0.0),
            ("targets[4] = {}", 0.0),
            ("x = 1", 0.0), // slot 5: untouched
            ("targets[6] = \" 2.5 \"", 2.5),
            ("targets[7] = \"five\"", 0.0),
            ("targets[8] = \"-1\"", 0.0),
        ];
        let where_: Vec<&str> = cases.iter().map(|(stmt, _)| *stmt).collect();
        let want: Vec<f64> = cases.iter().map(|(_, v)| *v).collect();
        let p = PolicySet::from_hooks(
            "IWR",
            "MDSs[i][\"all\"]",
            "true",
            &where_.join("\n"),
            &["half"],
        )
        .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            let out = rt
                .decide(&BalancerInputs {
                    whoami: 0,
                    mds: metrics(&[10.0; 8]),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(out.targets, want, "{e:?}");
            assert!(out.migrate);
        }
    }

    #[test]
    fn negative_targets_are_clamped() {
        let p = PolicySet::from_hooks(
            "IWR",
            "MDSs[i][\"all\"]",
            "true",
            "targets[2] = -5",
            &["half"],
        )
        .unwrap();
        let rt = MantleRuntime::new(p);
        let out = rt
            .decide(&BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 5.0]),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.targets[1], 0.0);
        assert!(!out.migrate);
    }

    #[test]
    fn empty_cluster_is_idle() {
        let rt = MantleRuntime::new(cephfs_policy());
        let out = rt.decide(&BalancerInputs::default()).unwrap();
        assert!(!out.migrate);
        assert!(out.targets.is_empty());
    }

    #[test]
    fn table1_policy_is_scalar_and_additive() {
        let rt = MantleRuntime::new(cephfs_policy());
        assert!(rt.metaload_scalar().is_some());
        assert!(rt.metaload_is_additive());
        // The engine switch changes the engine, never the aggregation
        // structure.
        let slow = MantleRuntime::new(cephfs_policy()).with_engine(HookEngine::Tree);
        assert!(slow.metaload_is_additive());
    }

    #[test]
    fn fast_and_slow_paths_agree_bit_for_bit() {
        let fast = MantleRuntime::new(cephfs_policy());
        let slow = MantleRuntime::new(cephfs_policy()).with_engine(HookEngine::Tree);
        let frag = FragMetrics {
            ird: 0.137,
            iwr: 12.75,
            readdir: 1.0 / 3.0,
            fetch: 9e3,
            store: 0.001,
        };
        assert_eq!(
            fast.eval_metaload(2, &frag).unwrap().to_bits(),
            slow.eval_metaload(2, &frag).unwrap().to_bits()
        );
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let a = fast.decide(&inputs).unwrap();
        let b = slow.decide(&inputs).unwrap();
        assert_eq!(a, b);
        for (x, y) in a.targets.iter().zip(&b.targets) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn both_engines_agree_on_decide() {
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let frag = FragMetrics {
            ird: 0.137,
            iwr: 12.75,
            readdir: 1.0 / 3.0,
            fetch: 9e3,
            store: 0.001,
        };
        let engines = [HookEngine::Tree, HookEngine::Bytecode];
        let runs: Vec<_> = engines
            .iter()
            .map(|&e| {
                let rt = MantleRuntime::new(cephfs_policy()).with_engine(e);
                assert_eq!(rt.engine(), e);
                (
                    rt.eval_metaload(2, &frag).unwrap(),
                    rt.decide(&inputs).unwrap(),
                )
            })
            .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0].0.to_bits(), w[1].0.to_bits());
            assert_eq!(w[0].1, w[1].1);
            for (x, y) in w[0].1.targets.iter().zip(&w[1].1.targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn decide_env_reuse_is_invisible_across_calls() {
        // The bytecode engine reuses its decide tables; a decision script
        // that scribbles junk keys into MDSs rows, the outer table, and
        // targets must not be able to observe (or leak) anything across
        // calls. Every repeat call must match the tree engine bit for bit.
        let p = PolicySet::from_combined(
            "IWR + IRD",
            "MDSs[i][\"all\"]",
            r#"
MDSs[1]["junk"] = 99
MDSs[4] = 7
targets["stray"] = 5
if MDSs[1]["polluted"] == nil then
  targets[2] = MDSs[1]["all"] / 2
end
MDSs[1]["polluted"] = 1
"#,
            &["half"],
        )
        .unwrap();
        let fast = MantleRuntime::new(p.clone());
        assert_eq!(fast.engine(), HookEngine::Bytecode);
        let oracle = MantleRuntime::new(p).with_engine(HookEngine::Tree);
        let inputs = |hot: f64| BalancerInputs {
            whoami: 0,
            mds: metrics(&[hot, 5.0, 35.0]),
            auth_metaload: hot,
            all_metaload: 95.0,
        };
        // Vary the cluster size mid-stream so stale rows from a larger
        // call can't bleed into a smaller one.
        for inp in [inputs(90.0), inputs(64.0), inputs(90.0)] {
            let a = fast.decide(&inp).unwrap();
            let b = oracle.decide(&inp).unwrap();
            assert_eq!(a, b);
            for (x, y) in a.targets.iter().zip(&b.targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let mut small = inputs(90.0);
        small.mds.truncate(2);
        let a = fast.decide(&small).unwrap();
        let b = oracle.decide(&small).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_scalar_mdsload_agrees_across_engines() {
        // An mdsload the scalar extractor refuses (function call) drives
        // the bytecode path through the compiled hook against the cached
        // MDSs table — which must still match the tree engine exactly.
        let p = PolicySet::from_hooks(
            "IWR",
            "max(MDSs[i][\"all\"], 10*MDSs[i][\"q\"])",
            "if MDSs[whoami][\"load\"] > total/#MDSs then",
            "targets[2] = MDSs[whoami][\"load\"]/4",
            &["half"],
        )
        .unwrap();
        assert!(MantleRuntime::new(p.clone()).mdsload_scalar().is_none());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let runs: Vec<_> = [HookEngine::Tree, HookEngine::Bytecode]
            .iter()
            .map(|&e| {
                MantleRuntime::new(p.clone())
                    .with_engine(e)
                    .decide(&inputs)
                    .unwrap()
            })
            .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0], w[1]);
            for (x, y) in w[0].targets.iter().zip(&w[1].targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cache_fields_reach_scripts_on_every_engine() {
        // A cache-aware mdsload: absorbed hits are nearly free, misses
        // carry full service cost. Linear, so bytecode takes the scalar
        // path; Tree reads the same values out of the MDSs table.
        let p = PolicySet::from_hooks(
            "IWR",
            "MDSs[i][\"all\"] + 0.1*MDSs[i][\"cache_hits\"] + MDSs[i][\"cache_misses\"]",
            "if MDSs[whoami][\"load\"] > total/#MDSs then",
            "targets[2] = MDSs[whoami][\"load\"]/4",
            &["half"],
        )
        .unwrap();
        assert!(MantleRuntime::new(p.clone()).mdsload_scalar().is_some());
        let mut mds = metrics(&[80.0, 10.0]);
        mds[0].cache_hits = 400.0;
        mds[0].cache_misses = 30.0;
        mds[1].cache_hits = 20.0;
        mds[1].cache_misses = 5.0;
        let inputs = BalancerInputs {
            whoami: 0,
            mds,
            auth_metaload: 80.0,
            all_metaload: 80.0,
        };
        let runs: Vec<_> = [HookEngine::Tree, HookEngine::Bytecode]
            .iter()
            .map(|&e| {
                MantleRuntime::new(p.clone())
                    .with_engine(e)
                    .decide(&inputs)
                    .unwrap()
            })
            .collect();
        // 80 + 0.1*400 + 30 = 150; 10 + 0.1*20 + 5 = 17.
        assert_eq!(runs[0].mds_loads, vec![150.0, 17.0]);
        for w in runs.windows(2) {
            assert_eq!(w[0], w[1]);
            for (x, y) in w[0].targets.iter().zip(&w[1].targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn shipped_mdsload_hooks_take_the_scalar_path() {
        let rt = MantleRuntime::new(cephfs_policy());
        assert!(rt.mdsload_scalar().is_some(), "Table 1 mdsload is linear");
    }

    #[test]
    fn nan_in_policy_surfaces_as_error_on_every_engine() {
        // The NaN-strict stdlib lives in shared natives, so every engine
        // raises the same error for a policy that feeds 0/0 into max().
        let p = PolicySet::from_hooks(
            "max(IWR / (IRD - IRD), 1)",
            "MDSs[i][\"all\"]",
            "true",
            "targets[2] = 1",
            &["half"],
        )
        .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            let err = rt.eval_metaload(0, &FragMetrics::default()).unwrap_err();
            assert!(err.to_string().contains("NaN argument"), "{e:?}: {err}");
        }
    }

    #[test]
    fn howmany_absent_yields_none() {
        let rt = MantleRuntime::new(cephfs_policy());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[50.0, 5.0]),
            ..Default::default()
        };
        assert_eq!(rt.eval_howmany(&inputs, 2, 1, 2).unwrap(), None);
    }

    #[test]
    fn howmany_agrees_across_engines() {
        // A hook using the full environment: scale so per-member load sits
        // near 25, clamped by the runtime's callers.
        let p = cephfs_policy()
            .with_howmany("max(min_mds, min(max_mds, total / 25))")
            .unwrap();
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let runs: Vec<f64> = [HookEngine::Tree, HookEngine::Bytecode]
            .iter()
            .map(|&e| {
                MantleRuntime::new(p.clone())
                    .with_engine(e)
                    .eval_howmany(&inputs, 2, 1, 3)
                    .unwrap()
                    .expect("hook present")
            })
            .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0].to_bits(), w[1].to_bits());
        }
        // Table-1 mdsload of metrics(&[l..]): 0.8l + 0.2l = l, so total is
        // 130 and the hook asks for 130/25 = 5.2 pre-clamp.
        assert!(
            (runs[0] - 3.0).abs() < 1e-12,
            "clamped to max_mds: {}",
            runs[0]
        );
    }

    #[test]
    fn howmany_sees_active_and_bounds() {
        let p = cephfs_policy()
            .with_howmany("active + min_mds + max_mds")
            .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            let inputs = BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 10.0]),
                ..Default::default()
            };
            assert_eq!(rt.eval_howmany(&inputs, 2, 1, 4).unwrap(), Some(7.0));
        }
    }

    #[test]
    fn stateful_howmany_evolves_identically_across_engines() {
        // Hysteresis via WRstate/RDstate: grow only after two consecutive
        // over-threshold ticks.
        let p = cephfs_policy()
            .with_howmany(
                r#"
hot = 0
if total / active > 40 then hot = RDstate() + 1 end
WRstate(hot)
if hot >= 2 then return min(active + 1, max_mds) end
return active
"#,
            )
            .unwrap();
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 60.0]),
            ..Default::default()
        };
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            assert_eq!(rt.eval_howmany(&inputs, 2, 1, 4).unwrap(), Some(2.0));
            assert_eq!(rt.eval_howmany(&inputs, 2, 1, 4).unwrap(), Some(3.0));
        }
    }

    const FILL_AND_SPILL: &str = r#"
wait=RDstate()
go = 0
if MDSs[whoami]["cpu"]>48 then
  if wait>0 then WRstate(wait-1)
  else WRstate(2) go=1 end
else WRstate(2) end
if go==1 then
  targets[whoami+1] = MDSs[whoami]["load"]/4
end
"#;

    fn busy(whoami: usize) -> BalancerInputs {
        BalancerInputs {
            whoami,
            mds: vec![
                MdsMetrics {
                    auth: 100.0,
                    cpu: 90.0,
                    ..Default::default()
                };
                3
            ],
            ..Default::default()
        }
    }

    #[test]
    fn stateful_policy_agrees_across_engines_and_stays_per_mds() {
        // Fill & Spill exercises WRstate/RDstate. One runtime per MDS and
        // per engine, all four off a single compilation: the state machine
        // must evolve identically on both engines, and each MDS's counter
        // independently of the other's.
        let compiled = CompiledPolicy::compile(
            PolicySet::from_combined(
                "IWR + IRD",
                "MDSs[i][\"auth\"]",
                FILL_AND_SPILL,
                &["small_first"],
            )
            .unwrap(),
        );
        let mk = |engine| MantleRuntime::from_compiled(Rc::clone(&compiled)).with_engine(engine);
        let fast = [mk(HookEngine::Bytecode), mk(HookEngine::Bytecode)];
        let slow = [mk(HookEngine::Tree), mk(HookEngine::Tree)];
        for tick in 0..8 {
            // MDS 1 starts one tick late, so the two counters are never in
            // phase: sharing a cell would show at once.
            for whoami in 0..2 {
                if tick < whoami {
                    continue;
                }
                let a = fast[whoami].decide(&busy(whoami)).unwrap();
                let b = slow[whoami].decide(&busy(whoami)).unwrap();
                assert_eq!(a, b, "tick {tick} whoami {whoami}");
                assert_eq!(
                    a.migrate,
                    (tick - whoami) % 3 == 0,
                    "tick {tick} whoami {whoami}"
                );
            }
        }
    }

    #[test]
    fn runtimes_off_one_compilation_share_nothing_mutable() {
        // A decision script that saves state and scribbles on everything
        // it can reach. Run it on one runtime; a sibling off the same
        // `Rc<CompiledPolicy>` must then behave exactly like a runtime
        // compiled from scratch — on its first decision and on its second.
        let p = PolicySet::from_combined(
            "IWR + RDstate()",
            "MDSs[i][\"all\"]",
            r#"
seen = RDstate()
WRstate(seen + 1)
MDSs[1]["junk"] = 99
MDSs[#MDSs + 1] = 7
targets["stray"] = 5
leaked = 1
if MDSs[1]["junk2"] == nil and seen == 0 then
  targets[2] = MDSs[1]["all"] / 2
end
MDSs[1]["junk2"] = 1
"#,
            &["half"],
        )
        .unwrap();
        let compiled = CompiledPolicy::compile(p.clone());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let frag = FragMetrics::default();
        let noisy = MantleRuntime::from_compiled(Rc::clone(&compiled));
        for _ in 0..3 {
            noisy.decide(&inputs).unwrap();
        }
        assert_eq!(noisy.eval_metaload(0, &frag).unwrap(), 3.0, "own state");

        let sibling = MantleRuntime::from_compiled(Rc::clone(&compiled));
        let fresh = MantleRuntime::new(p);
        assert!(Rc::ptr_eq(sibling.compiled(), noisy.compiled()));
        assert!(!Rc::ptr_eq(fresh.compiled(), noisy.compiled()));
        assert_eq!(
            sibling.eval_metaload(0, &frag).unwrap(),
            0.0,
            "no WRstate seen"
        );
        for tick in 0..2 {
            let a = sibling.decide(&inputs).unwrap();
            let b = fresh.decide(&inputs).unwrap();
            assert_eq!(a, b, "tick {tick}");
            assert_eq!(a.migrate, tick == 0, "tick {tick}");
            for (x, y) in a.targets.iter().zip(&b.targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            // ... while the noisy one keeps going its own way.
            assert!(!noisy.decide(&inputs).unwrap().migrate);
        }
        assert_eq!(sibling.eval_metaload(0, &frag).unwrap(), 2.0);
        assert_eq!(noisy.eval_metaload(0, &frag).unwrap(), 5.0);
    }

    #[test]
    fn state_written_by_one_hook_is_read_by_the_others() {
        // One cell per runtime, whichever hook touches it and whatever
        // `whoami` the caller passes.
        let p = PolicySet::from_hooks(
            "IWR + RDstate()",
            "MDSs[i][\"all\"]",
            "WRstate(7) return false",
            "x = 1",
            &["half"],
        )
        .unwrap()
        .with_howmany("RDstate() + active")
        .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            let frag = FragMetrics::default();
            assert_eq!(rt.eval_metaload(2, &frag).unwrap(), 0.0, "{e:?}: cold");
            let inputs = BalancerInputs {
                whoami: 2,
                mds: metrics(&[10.0, 10.0, 10.0]),
                ..Default::default()
            };
            assert!(!rt.decide(&inputs).unwrap().migrate);
            assert_eq!(rt.eval_metaload(2, &frag).unwrap(), 7.0, "{e:?}");
            assert_eq!(rt.eval_metaload(0, &frag).unwrap(), 7.0, "{e:?}");
            assert_eq!(rt.eval_howmany(&inputs, 3, 1, 4).unwrap(), Some(10.0));
        }
    }

    #[test]
    fn stdlib_tables_are_read_only_on_both_engines_across_ticks() {
        // `math` is one shared instance; a hook that tries to keep a
        // counter in it fails the same way, on the same line, on both
        // engines and on every tick — nothing sticks.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "x = 1\nmath.k = (math.k or 0) + 1\ntargets[2] = math.k",
            &["half"],
        )
        .unwrap();
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[10.0, 0.0]),
            ..Default::default()
        };
        let runs: Vec<_> = [HookEngine::Tree, HookEngine::Bytecode]
            .map(|e| {
                let rt = MantleRuntime::new(p.clone()).with_engine(e);
                [rt.decide(&inputs), rt.decide(&inputs)]
            })
            .into_iter()
            .collect();
        assert_eq!(runs[0], runs[1], "engines diverge");
        let err = runs[0][1].clone().unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.to_string().contains("read-only table"), "{err}");

        // Reading through it, aliasing it and rebinding the name all work,
        // and the rebinding lasts one run.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            r#"
m = math
first = (m.answer == nil)
math = {answer = m.floor(42.5)}
if first then targets[2] = math.answer end
"#,
            &["half"],
        )
        .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            for tick in 0..2 {
                let out = rt.decide(&inputs).unwrap();
                assert_eq!(out.targets, vec![0.0, 42.0], "{e:?} tick {tick}");
            }
        }
    }

    /// MDS 1 scribbles over everything it can reach of the `MDSs` table;
    /// every MDS then reports what it sees of it through `targets`.
    const SCRIBBLE_THEN_LOOK: &str = r#"
if whoami == 1 then
  MDSs[2]["load"] = 1e9
  MDSs[3] = nil
  MDSs[1].x = {}
  t = MDSs[1]
  t.auth = 0
end
n = #MDSs
targets[1] = n
for i = 1, n do
  if MDSs[i].x ~= nil then targets[2] = 1000 end
end
targets[3] = MDSs[2]["load"] + MDSs[1]["auth"] + total
if MDSs[n + 1] ~= nil then targets[4] = 7 end
"#;

    fn assert_same_bits(a: &BalancerOutcome, b: &BalancerOutcome, ctx: &str) {
        assert_eq!(a, b, "{ctx}");
        for (x, y) in a.targets.iter().zip(&b.targets) {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}");
        }
        for (x, y) in a.mds_loads.iter().zip(&b.mds_loads) {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}");
        }
    }

    #[test]
    fn shared_image_cannot_couple_mdss() {
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"] + 10*MDSs[i][\"q\"]",
            SCRIBBLE_THEN_LOOK,
            &["half"],
        )
        .unwrap()
        .with_howmany("#MDSs + total + MDSs[1][\"auth\"] + MDSs[2][\"load\"]")
        .unwrap();
        let inputs = |whoami: usize, n: usize| BalancerInputs {
            whoami,
            mds: metrics(&[90.0, 5.0, 35.0, 1.0, 2.0, 3.0, 4.0, 5.5][..n]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let compiled = CompiledPolicy::compile(p.clone());
            let mk = || MantleRuntime::from_compiled(Rc::clone(&compiled)).with_engine(e);
            let fresh = || MantleRuntime::new(p.clone()).with_engine(e);
            let (scribbler, sibling) = (mk(), mk());

            // What the scribbler itself sees: its own damage.
            let own = scribbler.decide(&inputs(0, 8)).unwrap();
            assert_eq!(own.targets[..4], [2.0, 1000.0, 1e9 + 145.5, 0.0], "{e:?}");

            // The sibling's next decision, and its `howmany`, on the same
            // snapshot: as if nobody had been there before.
            let seen = sibling.decide(&inputs(1, 8)).unwrap();
            assert_same_bits(
                &seen,
                &fresh().decide(&inputs(1, 8)).unwrap(),
                "same snapshot",
            );
            assert_eq!(
                seen.targets[..4],
                [8.0, 0.0, 5.0 + 90.0 + 145.5, 0.0],
                "{e:?}"
            );
            scribbler.decide(&inputs(0, 8)).unwrap();
            assert_eq!(
                sibling.eval_howmany(&inputs(1, 8), 8, 1, 8).unwrap(),
                fresh().eval_howmany(&inputs(1, 8), 8, 1, 8).unwrap(),
                "{e:?}: howmany"
            );

            // The member view shrinks 8 → 5 between the two: no row of the
            // larger cluster is reachable, scribbled on or not.
            scribbler.decide(&inputs(0, 8)).unwrap();
            let seen = sibling.decide(&inputs(1, 5)).unwrap();
            assert_same_bits(
                &seen,
                &fresh().decide(&inputs(1, 5)).unwrap(),
                "shrunk view",
            );
            assert_eq!(
                seen.targets,
                [5.0, 0.0, 5.0 + 90.0 + 133.0, 0.0, 0.0],
                "{e:?}"
            );
            // ... and growing back finds eight clean rows.
            scribbler.decide(&inputs(0, 5)).unwrap();
            let seen = sibling.decide(&inputs(1, 8)).unwrap();
            assert_same_bits(
                &seen,
                &fresh().decide(&inputs(1, 8)).unwrap(),
                "regrown view",
            );
        }
    }

    #[test]
    fn scripted_mdsload_runs_per_mds_over_the_shared_image() {
        // An mdsload no linear form covers, reading what only a per-MDS run
        // can know (`whoami`, `RDstate()`) and what a shared row must not
        // show it: the `"load"` an earlier MDS's pass wrote back.
        let p = PolicySet::from_combined(
            "IWR",
            "max(MDSs[i][\"all\"], 0) + whoami + RDstate() + (MDSs[i][\"load\"] or 0)",
            "WRstate(RDstate() + whoami)\ntargets[1] = total",
            &["half"],
        )
        .unwrap();
        let inputs = |whoami| BalancerInputs {
            whoami,
            mds: metrics(&[90.0, 5.0, 35.0]),
            ..Default::default()
        };
        let compiled = CompiledPolicy::compile(p.clone());
        assert!(compiled.mdsload_linear.is_none());
        let shared: Vec<_> = (0..3)
            .map(|_| MantleRuntime::from_compiled(Rc::clone(&compiled)))
            .collect();
        let oracle: Vec<_> = (0..3)
            .map(|_| MantleRuntime::new(p.clone()).with_engine(HookEngine::Tree))
            .collect();
        for tick in 0..3 {
            for m in 0..3 {
                let a = shared[m].decide(&inputs(m)).unwrap();
                let b = oracle[m].decide(&inputs(m)).unwrap();
                assert_same_bits(&a, &b, &format!("tick {tick} mds {m}"));
            }
        }
        assert_eq!(
            compiled.image_fills(),
            1,
            "read-only scripts share one fill"
        );
    }

    #[test]
    fn mdsload_that_aliases_mdss_into_itself_is_written_back_not_a_panic() {
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i] = MDSs\nreturn i",
            "targets[2] = MDSs[1][\"load\"] + total",
            &["half"],
        )
        .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            for _ in 0..2 {
                let out = rt
                    .decide(&BalancerInputs {
                        whoami: 0,
                        mds: metrics(&[1.0, 2.0]),
                        ..Default::default()
                    })
                    .unwrap();
                // `MDSs[1]` is `MDSs`, whose `"load"` the write-back set
                // twice: last to 2.
                assert_eq!(out.targets, vec![0.0, 5.0], "{e:?}");
            }
        }
    }

    #[test]
    fn image_is_filled_once_per_snapshot() {
        let n = 128;
        let inputs = |whoami: usize, q7: f64| {
            let mut mds = metrics(&(0..n).map(|m| m as f64).collect::<Vec<_>>());
            mds[7].q = q7;
            BalancerInputs {
                whoami,
                mds,
                ..Default::default()
            }
        };
        let cluster = |compiled: &Rc<CompiledPolicy>| -> Vec<MantleRuntime> {
            (0..n)
                .map(|_| MantleRuntime::from_compiled(Rc::clone(compiled)))
                .collect()
        };
        let tick = |rts: &[MantleRuntime], q7: f64| {
            for (m, rt) in rts.iter().enumerate() {
                rt.decide(&inputs(m, q7)).unwrap();
            }
        };

        let compiled = CompiledPolicy::compile(cephfs_policy());
        let rts = cluster(&compiled);
        assert_eq!(compiled.image_fills(), 0);
        tick(&rts, 0.0);
        assert_eq!(compiled.image_fills(), 1, "128 decisions, one snapshot");
        tick(&rts, 0.0);
        assert_eq!(compiled.image_fills(), 1, "equal by content is enough");
        tick(&rts, 1.0);
        assert_eq!(compiled.image_fills(), 2, "one metric of one MDS changed");
        tick(&rts, -0.0);
        tick(&rts, 0.0);
        assert_eq!(compiled.image_fills(), 4, "equal means bit-equal");
        // The tree reference never touches the shared image.
        let oracle =
            MantleRuntime::from_compiled(Rc::clone(&compiled)).with_engine(HookEngine::Tree);
        oracle.decide(&inputs(0, 5.0)).unwrap();
        assert_eq!(compiled.image_fills(), 4);

        // One MDS of the 128 writes to a row: the next one refills, and
        // that is all.
        let scribbler = CompiledPolicy::compile(
            PolicySet::from_combined(
                "IWR",
                "MDSs[i][\"all\"]",
                "if whoami == 3 then MDSs[1].junk = 1 end",
                &["half"],
            )
            .unwrap(),
        );
        let rts = cluster(&scribbler);
        tick(&rts, 0.0);
        assert_eq!(scribbler.image_fills(), 2);
        tick(&rts, 0.0);
        assert_eq!(
            scribbler.image_fills(),
            3,
            "clean at the tick's start, so one more"
        );
    }

    #[test]
    fn a_runtime_for_one_more_mds_compiles_nothing() {
        let compiled = CompiledPolicy::compile(cephfs_policy());
        let runtimes: Vec<_> = (0..128)
            .map(|_| MantleRuntime::from_compiled(Rc::clone(&compiled)))
            .collect();
        assert_eq!(Rc::strong_count(&compiled), 129);
        // A budget or engine change rebuilds per-MDS parts only.
        let rt = MantleRuntime::from_compiled(Rc::clone(&compiled))
            .with_budget(StepBudget(10))
            .with_engine(HookEngine::Tree);
        assert!(Rc::ptr_eq(rt.compiled(), runtimes[0].compiled()));
        let err = rt.decide(&busy(0)).unwrap_err();
        assert_eq!(err, PolicyError::BudgetExhausted { budget: 10 });
    }
}
