//! Grouped re-execution with SIMD-on-demand (Figs. 18–19).
//!
//! The verifier re-executes each control-flow group as a batch: one
//! interpreter pass over the group's shared statement sequence, with
//! [`MultiValue`] locals. Uniform values are computed once for the
//! whole group; divergence (a branch whose truthiness differs across
//! the group, mismatched emit activations, …) rejects the audit.
//!
//! Within a group, handlers are drawn from an `active` queue seeded
//! with the request handlers; emits and database completions enqueue
//! children. Re-execution thus respects the activation order `A` and
//! per-handler program order but nothing else — which is exactly the
//! freedom the R-order formalizes.
//!
//! The interpreter runs the program's *resolved* form
//! ([`kem::Resolved`], built once at program build time): locals are
//! frame **slot indices** over a `Vec`, shared-variable and function
//! mentions carry their ids, and event names are interned symbols that
//! resolve to `&str` borrows. Together with [`MultiValue::collect`]
//! (which stays collapsed until values actually diverge) this makes
//! replaying a uniform-group operation allocation-free: the per-request
//! loop touches only pre-sized tables and `Arc`-backed values.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use kem::{
    HandlerId, OpRef, Program, RExpr, RFunction, RStmt, RequestId, Trace, Value, VarId,
    INIT_FUNCTION,
};

use obs::{CounterId, HistogramId, Obs, ObsShard};

use crate::advice::{KTxId, TxOpType};
use crate::advice_ref::{AdviceRef, TxContentsRef, TxEntryRef};
use crate::config::Limits;
use crate::multivalue::MultiValue;
use crate::verifier::preprocess::{OpMapEntry, Preprocessed};
use crate::verifier::reject::{RejectReason, ResourceKind};
use crate::verifier::vars::VarStates;
use crate::wire::HandlerOpView;

/// Iteration guard for `While` loops driven by (possibly forged) advice.
/// Per-loop only — nested loops multiply, which is why the fuel meter
/// (a budget on *total* steps) is the real denial-of-audit defense and
/// this stays a coarse backstop.
const LOOP_LIMIT: u32 = 1_000_000;

/// Fuel units between wall-clock polls of the group deadline: frequent
/// enough that an over-deadline group is caught within microseconds of
/// real work, rare enough that `Instant::now` stays off the hot path.
const DEADLINE_POLL_INTERVAL: u64 = 4096;

/// Group index the next replay worker should panic in (test-only,
/// armed by [`inject_group_panic_for_tests`]); `-1` means disarmed.
static INJECT_PANIC: AtomicI64 = AtomicI64::new(-1);

/// Interned keys for transaction continuation payloads, in the field
/// order the payload builder pushes them. Cloning an `Arc<str>` is a
/// refcount bump, not an allocation, so every payload shares these.
struct TxPayloadKeys {
    ctx: Arc<str>,
    tx: Arc<str>,
    ok: Arc<str>,
    found: Arc<str>,
    value: Arc<str>,
}

fn tx_payload_keys() -> &'static TxPayloadKeys {
    static KEYS: OnceLock<TxPayloadKeys> = OnceLock::new();
    KEYS.get_or_init(|| TxPayloadKeys {
        ctx: Arc::from("ctx"),
        tx: Arc::from("tx"),
        ok: Arc::from("ok"),
        found: Arc::from("found"),
        value: Arc::from("value"),
    })
}

/// Arms a one-shot injected panic in the worker that replays group `g`
/// (`-1` disarms). Exercises the replay supervisor from integration
/// tests: the panic must become a quarantined
/// [`RejectReason::VerifierInternal`] verdict without deadlocking any
/// merge path or killing the process.
#[doc(hidden)]
pub fn inject_group_panic_for_tests(g: i64) {
    INJECT_PANIC.store(g, Ordering::SeqCst);
}

/// The order in which a group's `active` queue is drained.
///
/// Appendix C's Lemma 1 ("equivalence of well-formed op schedules")
/// states that any replay order respecting activation order and
/// program order produces the same audit outcome; this enum lets tests
/// drive the re-executor with different orders and check exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplaySchedule {
    /// Breadth-first: oldest activation first (the default).
    #[default]
    Fifo,
    /// Depth-first: newest activation first.
    Lifo,
    /// Seeded random draws from the queue.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Re-execution statistics, reported in the audit report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReexecStats {
    /// Number of re-execution groups.
    pub groups: usize,
    /// Handler bodies interpreted (once per group — the dedup win).
    pub handlers_executed: u64,
    /// Handler activations covered (summed over group members).
    pub activations_covered: u64,
    /// Operations whose operands stayed collapsed (computed once).
    pub uniform_ops: u64,
    /// Operations that expanded to per-request evaluation.
    pub expanded_ops: u64,
    /// Replay fuel spent (one unit per statement executed and per
    /// expression node evaluated). Counted inside the single-threaded
    /// per-group interpreter, so the total is bit-identical at every
    /// worker count.
    pub fuel_spent: u64,
    /// The hungriest single group's fuel spend — the number the
    /// `fuel_headroom` gauge is measured against.
    pub max_group_fuel: u64,
}

impl ReexecStats {
    /// Accumulates another group's counters (the `groups` field is set
    /// once for the whole run, not summed).
    fn absorb(&mut self, other: &ReexecStats) {
        self.handlers_executed += other.handlers_executed;
        self.activations_covered += other.activations_covered;
        self.uniform_ops += other.uniform_ops;
        self.expanded_ops += other.expanded_ops;
        self.fuel_spent += other.fuel_spent;
        self.max_group_fuel = self.max_group_fuel.max(other.max_group_fuel);
    }
}

/// Wall-clock breakdown of [`ReExecutor::run_pipelined`]. The two parts
/// sum to the run's wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReexecTiming {
    /// Everything but the merge: interpreting every group (in parallel
    /// when `threads > 1`), the side job, and waiting for workers.
    pub group_replay: Duration,
    /// State merge: the coordinator's time re-applying each group's
    /// recorded variable accesses to the global dictionaries, plus the
    /// whole-audit final checks.
    pub state_merge: Duration,
}

/// One recorded shared-variable access from a group's replay.
///
/// Workers apply accesses to a group-local [`VarStates`] (seeded with
/// the trusted initialization writes only); the merge phase then
/// re-applies the streams to the *global* state in ascending group
/// order. Cross-group checks — a dictating write's logged value versus
/// what its group's re-execution produced, chain overwrite conflicts —
/// fire during that replay at exactly the event position the
/// sequential audit hits them, so verdict and reason are independent of
/// worker scheduling.
#[derive(Debug, Clone)]
enum VarEvent {
    /// A re-executed read of `var` at `op`.
    Read { var: VarId, op: OpRef },
    /// A re-executed write of `value` to `var` at `op`.
    Write { var: VarId, op: OpRef, value: Value },
}

/// Where a re-executor sends its shared-variable accesses.
enum VarBackend<'a> {
    /// Operate directly on the global state (the out-of-order path and
    /// unit tests).
    Global(&'a mut VarStates),
    /// Grouped worker: apply to a group-local copy and record the event
    /// stream for the merge replay.
    Recording {
        /// Group-local state, cloned from the post-initialization
        /// global state. A group's unlogged reads only ever consult
        /// writes by their own request's ancestors or the trusted
        /// initialization — both present here — so the values fed to
        /// the interpreter match the sequential audit's exactly.
        local: VarStates,
        /// Accesses in group program order.
        events: Vec<VarEvent>,
    },
}

impl VarBackend<'_> {
    fn on_read(
        &mut self,
        var: VarId,
        op: OpRef,
        log: Option<&crate::advice_ref::VarLogRef>,
    ) -> Result<Value, RejectReason> {
        match self {
            VarBackend::Global(vars) => vars.on_read(var, op, log),
            VarBackend::Recording { local, events } => {
                events.push(VarEvent::Read {
                    var,
                    op: op.clone(),
                });
                local.on_read(var, op, log)
            }
        }
    }

    fn on_write(
        &mut self,
        var: VarId,
        op: OpRef,
        value: Value,
        log: Option<&crate::advice_ref::VarLogRef>,
    ) -> Result<(), RejectReason> {
        match self {
            VarBackend::Global(vars) => vars.on_write(var, op, value, log),
            VarBackend::Recording { local, events } => {
                events.push(VarEvent::Write {
                    var,
                    op: op.clone(),
                    value: value.clone(),
                });
                local.on_write(var, op, value, log)
            }
        }
    }
}

/// What one group's replay produced, before the merge phase.
struct GroupRun {
    /// Shared-variable accesses in group program order (recorded up to
    /// and including the erroring access, if any).
    events: Vec<VarEvent>,
    /// The group-local error, if replay failed. Ordered *after* the
    /// group's recorded events during the merge: every error a worker
    /// can detect locally, the sequential audit detects at the same
    /// point, so a cross-group error in an earlier event still wins.
    error: Option<RejectReason>,
    executed: HashSet<(RequestId, HandlerId)>,
    consumed: HashSet<OpRef>,
    outputs: HashMap<RequestId, Value>,
    stats: ReexecStats,
    /// The worker's telemetry shard (disabled — and heap-free — unless
    /// the audit was handed an enabled [`Obs`]).
    obs: ObsShard,
    /// Whether this unit was synthesized by the supervisor because the
    /// worker panicked mid-group (feeds the `panics_caught` counter).
    panicked: bool,
}

/// Quarantine bookkeeping for the merge (DESIGN.md §10).
///
/// A *quarantining* error ([`RejectReason::quarantines`]: resource
/// exhaustion or a caught worker panic) poisons only its own group:
/// the merge skips that group's semantic contribution, keeps replaying
/// and merging the remaining groups, and reports the first quarantine
/// verdict at the end. A *hard* (semantic) error still stops the audit
/// at that group, exactly as before — except that if a quarantine came
/// first in group order, the quarantine verdict wins, because the hard
/// error was derived from artifacts downstream of the poisoned group.
#[derive(Default)]
struct Quarantine {
    /// First quarantining verdict in ascending group order.
    first: Option<RejectReason>,
    /// Number of quarantined groups (feeds `groups_quarantined`).
    groups: u64,
    /// Number of those that were caught panics (feeds `panics_caught`).
    panics: u64,
}

impl Quarantine {
    /// Resolve a hard error against any earlier quarantine: the
    /// quarantine verdict wins because later groups' artifacts are
    /// untrustworthy once an earlier group was poisoned.
    fn resolve(&self, hard: RejectReason) -> RejectReason {
        self.first.clone().unwrap_or(hard)
    }

    /// Flush quarantine telemetry and return the pending verdict, if
    /// any. Call once after the merge loop finishes.
    fn finish(&mut self, obs_handle: &Obs) -> Result<(), RejectReason> {
        if self.groups > 0 {
            obs_handle.count(CounterId::GroupsQuarantined, self.groups);
        }
        if self.panics > 0 {
            obs_handle.count(CounterId::PanicsCaught, self.panics);
        }
        match self.first.take() {
            Some(q) => Err(q),
            None => Ok(()),
        }
    }
}

/// The re-executed operation a handler-log entry must match, borrowing
/// the interned event name. The advice-side [`HandlerOpView`] borrows
/// its strings from the advice bytes; comparing field-wise keeps the
/// per-request check loop allocation-free.
enum ExpectedOp<'e> {
    /// `register(event, function)`.
    Register {
        /// Event name, borrowed from the interner.
        event: &'e str,
        /// The registered function.
        function: kem::FunctionId,
    },
    /// `unregister(event, function)`.
    Unregister {
        /// Event name, borrowed from the interner.
        event: &'e str,
        /// The unregistered function.
        function: kem::FunctionId,
    },
    /// `emit(event)`.
    Emit {
        /// Event name, borrowed from the interner.
        event: &'e str,
    },
    /// A listener-count check of `event`.
    Check {
        /// Event name, borrowed from the interner.
        event: &'e str,
    },
}

impl ExpectedOp<'_> {
    /// Structural equality against an advice-side handler op view.
    fn matches(&self, entry: &HandlerOpView<'_>) -> bool {
        match (self, entry) {
            (
                ExpectedOp::Register { event, function },
                HandlerOpView::Register {
                    event: e,
                    function: f,
                },
            )
            | (
                ExpectedOp::Unregister { event, function },
                HandlerOpView::Unregister {
                    event: e,
                    function: f,
                },
            ) => event == e && function == f,
            (ExpectedOp::Emit { event }, HandlerOpView::Emit { event: e })
            | (ExpectedOp::Check { event }, HandlerOpView::Check { event: e }) => event == e,
            _ => false,
        }
    }
}

/// The grouped re-executor.
pub struct ReExecutor<'a> {
    program: &'a Program,
    trace: &'a Trace,
    advice: &'a AdviceRef<'a>,
    pre: &'a Preprocessed,
    vars: VarBackend<'a>,
    schedule: ReplaySchedule,
    rng: rand::rngs::SmallRng,
    /// Per-request copies of non-loggable shared variables (assumed
    /// R-ordered, §5 — effectively request-local or init-constant).
    nonlog: HashMap<(VarId, RequestId), Value>,
    /// Transaction-token table: token integer → transaction id.
    tx_table: Vec<KTxId>,
    tx_counters: HashMap<KTxId, u32>,
    executed: HashSet<(RequestId, HandlerId)>,
    /// Every OpMap coordinate a re-executed operation consumed; at the
    /// end of re-execution this must cover the whole OpMap (§4.4:
    /// "all operations in the transaction logs are produced during
    /// re-execution" — and likewise for handler logs).
    consumed: HashSet<OpRef>,
    outputs: HashMap<RequestId, Value>,
    stats: ReexecStats,
    /// Telemetry handle; [`Obs::noop`] (zero-cost) unless installed
    /// via [`ReExecutor::with_obs`].
    obs: Obs,
    /// Resource budgets; per-group meters are armed from this
    /// (installed via [`ReExecutor::with_limits`], unlimited by
    /// default).
    limits: Limits,
    /// Fuel spent by this executor's replay so far.
    fuel_spent: u64,
    /// Armed fuel ceiling (from `limits.replay_fuel`, scaled for the
    /// single-pass ungrouped replay).
    fuel_limit: u64,
    /// Armed group-width ceiling.
    max_group_width: u64,
    /// Armed wall-clock deadline, if any.
    deadline: Option<Instant>,
    /// The armed deadline's span in milliseconds (forensics).
    deadline_ms: u64,
    /// Fuel level at which the wall clock is next polled.
    next_deadline_poll: u64,
    /// The group this executor replays (`None` for ungrouped).
    group: Option<u64>,
    /// Dispatch handler bodies over the program's compiled bytecode
    /// (DESIGN.md §11) instead of tree-walking the resolved AST. The
    /// two paths are observably identical; bytecode is the hot-path
    /// default (`KAROUSOS_BYTECODE`).
    bytecode: bool,
    /// Bytecode ops dispatched by this executor (fed to
    /// [`CounterId::BytecodeOps`] once per group, in merge order).
    vm_ops: u64,
    // Reusable bytecode scratch. Handlers run to completion (never
    // reentrantly), so one operand stack, loop-counter stack, iterator
    // stack, and frame-slot/opcount pools serve every activation of
    // the group — uniform-group replay then allocates per *distinct*
    // value, not per op, approaching the microbench profile.
    vm_stack: Vec<MultiValue>,
    vm_loops: Vec<u32>,
    vm_iters: Vec<(MultiValue, usize, usize)>,
    vm_locals: Vec<Option<MultiValue>>,
    vm_counts: Vec<Option<u32>>,
}

/// Pops an operand, failing closed (the compiler balances the stack,
/// so underflow is a verifier bug, not bad advice).
fn vm_pop(stack: &mut Vec<MultiValue>) -> Result<MultiValue, RejectReason> {
    stack.pop().ok_or_else(|| RejectReason::VerifierInternal {
        what: "bytecode operand stack underflow".into(),
    })
}

/// Per-handler interpreter frame: slot-indexed locals over the
/// slot-compiled body, plus each group member's reported opcount
/// (fetched once per activation instead of once per bump).
struct Frame<'p> {
    hid: HandlerId,
    idx: u32,
    /// Locals by resolved slot; `None` until first bound, so
    /// read-before-bind still errors with the source-level name.
    locals: Vec<Option<MultiValue>>,
    /// The slot-compiled function this frame executes.
    func: &'p RFunction,
    /// `advice.opcounts[(rid, hid)]` per group member, in group order.
    /// `None` (missing from the advice) fails the first bump or the
    /// handler-exit check, exactly as a per-bump lookup would.
    counts: Vec<Option<u32>>,
}

/// One group's context: its requests, in trace order.
struct Group {
    rids: Vec<RequestId>,
}

impl Group {
    fn n(&self) -> usize {
        self.rids.len()
    }
}

impl<'a> ReExecutor<'a> {
    /// Creates a re-executor over prepared state.
    pub fn new(
        program: &'a Program,
        trace: &'a Trace,
        advice: &'a AdviceRef<'a>,
        pre: &'a Preprocessed,
        vars: &'a mut VarStates,
    ) -> Self {
        ReExecutor {
            program,
            trace,
            advice,
            pre,
            vars: VarBackend::Global(vars),
            schedule: ReplaySchedule::Fifo,
            rng: rand::SeedableRng::seed_from_u64(0),
            nonlog: HashMap::new(),
            tx_table: Vec::new(),
            tx_counters: HashMap::new(),
            // Pre-size the coverage tables to their known final bounds
            // so per-operation inserts never rehash mid-replay.
            executed: HashSet::with_capacity(advice.opcounts.len()),
            consumed: HashSet::with_capacity(pre.op_map.len()),
            outputs: HashMap::with_capacity(advice.tags.len()),
            stats: ReexecStats::default(),
            obs: Obs::noop(),
            limits: Limits::unlimited(),
            fuel_spent: 0,
            fuel_limit: u64::MAX,
            max_group_width: u64::MAX,
            deadline: None,
            deadline_ms: u64::MAX,
            next_deadline_poll: DEADLINE_POLL_INTERVAL,
            group: None,
            bytecode: crate::config::bytecode_from_env(),
            vm_ops: 0,
            vm_stack: Vec::new(),
            vm_loops: Vec::new(),
            vm_iters: Vec::new(),
            vm_locals: Vec::new(),
            vm_counts: Vec::new(),
        }
    }

    /// A per-group worker executor: group-local variable state (cloned
    /// from the post-initialization global state), group-local
    /// transaction-token table, and — for `Random` schedules — an RNG
    /// derived from the seed and the group index, so draw sequences
    /// never depend on how groups are distributed over workers.
    fn for_group(
        program: &'a Program,
        trace: &'a Trace,
        advice: &'a AdviceRef<'a>,
        pre: &'a Preprocessed,
        init_vars: VarStates,
        schedule: ReplaySchedule,
        gidx: usize,
    ) -> Self {
        let seed = match schedule {
            ReplaySchedule::Random { seed } => {
                seed ^ (gidx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
            _ => 0,
        };
        ReExecutor {
            program,
            trace,
            advice,
            pre,
            vars: VarBackend::Recording {
                local: init_vars,
                events: Vec::new(),
            },
            schedule,
            rng: rand::SeedableRng::seed_from_u64(seed),
            nonlog: HashMap::new(),
            tx_table: Vec::new(),
            tx_counters: HashMap::new(),
            executed: HashSet::with_capacity(advice.opcounts.len()),
            consumed: HashSet::with_capacity(pre.op_map.len()),
            outputs: HashMap::with_capacity(advice.tags.len()),
            stats: ReexecStats::default(),
            obs: Obs::noop(),
            limits: Limits::unlimited(),
            fuel_spent: 0,
            fuel_limit: u64::MAX,
            max_group_width: u64::MAX,
            deadline: None,
            deadline_ms: u64::MAX,
            next_deadline_poll: DEADLINE_POLL_INTERVAL,
            group: None,
            // Group workers inherit the coordinator's choice in
            // `run_impl`; this default only covers direct use.
            bytecode: true,
            vm_ops: 0,
            vm_stack: Vec::new(),
            vm_loops: Vec::new(),
            vm_iters: Vec::new(),
            vm_locals: Vec::new(),
            vm_counts: Vec::new(),
        }
    }

    /// Sets the replay schedule (Lemma-1 experiments; the default FIFO
    /// is what deployments use).
    pub fn with_schedule(mut self, schedule: ReplaySchedule) -> Self {
        if let ReplaySchedule::Random { seed } = schedule {
            self.rng = rand::SeedableRng::seed_from_u64(seed);
        }
        self.schedule = schedule;
        self
    }

    /// Installs a telemetry handle. Workers record group-replay spans
    /// and histograms into per-lane shards that the merge phase
    /// absorbs in ascending group order, so exported metrics are
    /// deterministic across thread counts.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Installs resource budgets (DESIGN.md §10). Grouped runs arm a
    /// fresh per-group fuel/deadline meter from these for every group;
    /// the ungrouped single-pass replay arms one meter scaled by the
    /// request count (its one pass does every request's work).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects bytecode dispatch (the default) or the tree-walking
    /// fallback for handler bodies. Verdicts, stats, digests, and fuel
    /// bills are bit-identical either way; the gate exists for
    /// differential testing and as a transition escape hatch
    /// (`KAROUSOS_BYTECODE=0`).
    pub fn with_bytecode(mut self, bytecode: bool) -> Self {
        self.bytecode = bytecode;
        self
    }

    /// Arms the fuel/deadline meter. `scale` is `1` for a group worker
    /// and the request count for the ungrouped replay.
    fn arm_meter(&mut self, limits: &Limits, group: Option<u64>, scale: u64) {
        let scale = scale.max(1);
        self.fuel_spent = 0;
        self.fuel_limit = limits.replay_fuel.saturating_mul(scale);
        self.max_group_width = limits.max_group_width;
        self.next_deadline_poll = DEADLINE_POLL_INTERVAL;
        self.deadline_ms = limits.group_deadline_ms;
        self.group = group;
        // `u64::MAX` (or an Instant overflow) disables the deadline.
        self.deadline = if limits.group_deadline_ms == u64::MAX {
            None
        } else {
            Instant::now().checked_add(Duration::from_millis(
                limits.group_deadline_ms.saturating_mul(scale),
            ))
        };
    }

    /// Charges `n` fuel units. One unit per statement executed and per
    /// expression node evaluated makes the spend a pure function of
    /// the program and the advice — never of the worker layout — so a
    /// [`ResourceKind::ReplayFuel`] verdict is deterministic. Every
    /// [`DEADLINE_POLL_INTERVAL`] units the wall clock is polled
    /// against the group deadline (that verdict is machine-dependent
    /// by nature; see DESIGN.md §10).
    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), RejectReason> {
        self.fuel_spent = self.fuel_spent.saturating_add(n);
        if self.fuel_spent > self.fuel_limit {
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::ReplayFuel,
                group: self.group,
                spent: self.fuel_spent,
                limit: self.fuel_limit,
            });
        }
        if self.fuel_spent >= self.next_deadline_poll {
            self.next_deadline_poll = self.fuel_spent.saturating_add(DEADLINE_POLL_INTERVAL);
            if let Some(deadline) = self.deadline {
                let now = Instant::now();
                if now > deadline {
                    let over = now.duration_since(deadline).as_millis() as u64;
                    return Err(RejectReason::ResourceExhausted {
                        resource: ResourceKind::GroupDeadline,
                        group: self.group,
                        spent: self.deadline_ms.saturating_add(over),
                        limit: self.deadline_ms,
                    });
                }
            }
        }
        Ok(())
    }

    /// Charges `n` units with exactly the observable effect of `n`
    /// consecutive [`Self::charge`]`(1)` calls — which is how the
    /// tree-walk spends the entry charges the compiler folds onto one
    /// op. The tree-walk performs no fallible action between those unit
    /// charges, so only the exhaustion report is sensitive to the
    /// batching: it must carry `spent == limit + 1`, the value the
    /// first over-budget unit produces.
    #[inline]
    fn charge_units(&mut self, n: u64) -> Result<(), RejectReason> {
        let new = self.fuel_spent.saturating_add(n);
        if new > self.fuel_limit {
            self.fuel_spent = self.fuel_limit.saturating_add(1);
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::ReplayFuel,
                group: self.group,
                spent: self.fuel_spent,
                limit: self.fuel_limit,
            });
        }
        self.fuel_spent = new;
        if new >= self.next_deadline_poll {
            // Delegate the (cold) deadline poll to the unit path.
            self.next_deadline_poll = new;
            return self.charge(0);
        }
        Ok(())
    }

    /// Draws the next handler from the active queue per the schedule.
    fn next_active(
        &mut self,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
    ) -> Option<(HandlerId, MultiValue)> {
        match self.schedule {
            ReplaySchedule::Fifo => active.pop_front(),
            ReplaySchedule::Lifo => active.pop_back(),
            ReplaySchedule::Random { .. } => {
                if active.is_empty() {
                    None
                } else {
                    let i = rand::Rng::gen_range(&mut self.rng, 0..active.len());
                    active.remove(i)
                }
            }
        }
    }

    /// Runs re-execution over all groups (Fig. 18), performing the
    /// final whole-audit checks (lines 62–64).
    pub fn run(self) -> Result<ReexecStats, RejectReason> {
        self.run_pipelined(1, || {}).map(|(stats, _)| stats)
    }

    /// [`ReExecutor::run`] with group replay spread over `threads`
    /// workers and a side job run on the coordinator before the merge.
    /// The audit uses the side job to merge `G`'s deferred preprocess
    /// edges while workers replay; it touches no replay state.
    ///
    /// This is the one audit scheduler (DESIGN.md §9). Groups are
    /// independent by construction — same handler tree, disjoint
    /// requests — so each group replays with its own local state and
    /// records its shared-variable accesses as a unit. The coordinator
    /// merges units into the global state in ascending group order
    /// through [`merge_unit`] as soon as each exists: with `threads ≤ 1`
    /// (or a single group) it replays every group inline and merges it
    /// at once; otherwise workers publish units on a board and the merge
    /// overlaps their replay. The same units pass the same checks in the
    /// same order either way, so verdicts, [`RejectReason`]s and
    /// statistics are bit-identical at every worker count.
    pub fn run_pipelined<F: FnOnce()>(
        self,
        threads: usize,
        side: F,
    ) -> Result<(ReexecStats, ReexecTiming), RejectReason> {
        let t_run = Instant::now();
        let order = self.trace.request_ids();
        for rid in &order {
            if !self.advice.tags.contains_key(rid) {
                return Err(RejectReason::MissingTag { rid: *rid });
            }
        }
        let groups = self.advice.groups(&order);
        let ngroups = groups.len();
        let obs_handle = self.obs.clone();
        obs_handle.progress_replay_total(ngroups as u64);
        obs_handle.progress_phase(obs::Phase::Replay);
        let (program, trace, advice, pre, schedule, limits, bytecode) = (
            self.program,
            self.trace,
            self.advice,
            self.pre,
            self.schedule,
            self.limits,
            self.bytecode,
        );
        let VarBackend::Global(global) = self.vars else {
            return Err(RejectReason::VerifierInternal {
                what: "grouped run started on a recording backend".into(),
            });
        };
        // Post-initialization snapshot each group's local state starts
        // from (the trusted initialization writes only).
        let init_vars: VarStates = global.clone();

        let run_unit = |gidx: usize, rids: &[RequestId], lane: u32| -> GroupRun {
            // Supervisor boundary: a panicking group must not take a
            // worker thread (or the whole audit) down — it becomes a
            // quarantined [`RejectReason::VerifierInternal`] unit and
            // the remaining groups keep replaying.
            let supervised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if INJECT_PANIC.load(Ordering::SeqCst) == gidx as i64
                    && INJECT_PANIC
                        .compare_exchange(gidx as i64, -1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    // Test-only hook (armed by
                    // `inject_group_panic_for_tests`) that exercises
                    // this supervisor.
                    #[allow(clippy::panic)]
                    {
                        panic!("injected test panic in group {gidx}")
                    };
                }
                let mut shard = obs_handle.shard(lane);
                // Charge this group's allocations (thread-local probe;
                // reads 0 unless a counting allocator feeds it).
                let alloc_before = if shard.is_enabled() {
                    obs::allocprobe::reading()
                } else {
                    0
                };
                let t_group = shard.span_start();
                let mut ex = ReExecutor::for_group(
                    program,
                    trace,
                    advice,
                    pre,
                    init_vars.clone(),
                    schedule,
                    gidx,
                );
                ex.bytecode = bytecode;
                ex.arm_meter(&limits, Some(gidx as u64), 1);
                let mut error = ex
                    .run_group(Group {
                        rids: rids.to_vec(),
                    })
                    .err();
                ex.stats.fuel_spent = ex.fuel_spent;
                ex.stats.max_group_fuel = ex.fuel_spent;
                // The group's handler-tree digest is its control-flow
                // tag (equal across members by construction).
                let digest = rids
                    .first()
                    .and_then(|r| advice.tags.get(r))
                    .copied()
                    .unwrap_or(0);
                let mut dur = 0u64;
                if shard.is_enabled() {
                    let size = rids.len() as u64;
                    shard.observe(HistogramId::GroupSize, size);
                    shard.count(CounterId::ReplayFuelSpent, ex.fuel_spent);
                    shard.count(CounterId::BytecodeOps, ex.vm_ops);
                    shard.observe(HistogramId::GroupFuelSpent, ex.fuel_spent);
                    dur = shard.record_span(
                        "group-replay",
                        t_group,
                        &[("group", gidx as u64), ("size", size), ("digest", digest)],
                    );
                    shard.observe(HistogramId::GroupReplayUs, dur);
                }
                // Group-local dictionary-feed counts, read before the
                // event stream is moved out of the backend.
                let feeds = match &ex.vars {
                    VarBackend::Recording { local, .. } => local.feeds(),
                    VarBackend::Global(_) => Default::default(),
                };
                let events = match ex.vars {
                    VarBackend::Recording { events, .. } => events,
                    // Statically impossible; losing the event stream would
                    // silently weaken the merge checks, so fail closed.
                    VarBackend::Global(_) => {
                        error = Some(RejectReason::VerifierInternal {
                            what: "group worker lost its event stream".into(),
                        });
                        Vec::new()
                    }
                };
                if shard.is_enabled() {
                    let (mut var_reads, mut var_writes) = (0u64, 0u64);
                    for ev in &events {
                        match ev {
                            VarEvent::Read { .. } => var_reads += 1,
                            VarEvent::Write { .. } => var_writes += 1,
                        }
                    }
                    shard.record_group_cost(obs::GroupCost {
                        group: gidx as u64,
                        requests: rids.len() as u64,
                        first_rid: rids.first().map(|r| r.0).unwrap_or(0),
                        digest,
                        fuel: ex.fuel_spent,
                        uniform_ops: ex.stats.uniform_ops,
                        expanded_ops: ex.stats.expanded_ops,
                        bytecode_ops: ex.vm_ops,
                        dict_feeds: feeds.dict_feeds,
                        logged_reads: feeds.logged_reads,
                        var_reads,
                        var_writes,
                        wall_us: dur,
                        alloc_events: obs::allocprobe::reading().saturating_sub(alloc_before),
                    });
                }
                // Heartbeat: live even before the merge absorbs the
                // shard (a noop handle makes this an early return).
                obs_handle.progress_group_replayed(ex.fuel_spent);
                GroupRun {
                    events,
                    error,
                    executed: ex.executed,
                    consumed: ex.consumed,
                    outputs: ex.outputs,
                    stats: ex.stats,
                    obs: shard,
                    panicked: false,
                }
            }));
            supervised.unwrap_or_else(|payload| GroupRun {
                events: Vec::new(),
                error: Some(RejectReason::VerifierInternal {
                    what: format!(
                        "group {gidx} replay worker panicked: {}",
                        super::panic_message(payload.as_ref())
                    ),
                }),
                executed: HashSet::new(),
                consumed: HashSet::new(),
                outputs: HashMap::new(),
                stats: ReexecStats::default(),
                obs: obs_handle.shard(lane),
                panicked: true,
            })
        };

        // Merge state: every unit goes through [`merge_unit`] in
        // ascending group order, which is what makes the outcome
        // independent of where and when the unit was replayed.
        let mut stats = ReexecStats {
            groups: ngroups,
            ..Default::default()
        };
        let mut executed: HashSet<(RequestId, HandlerId)> =
            HashSet::with_capacity(advice.opcounts.len());
        let mut consumed: HashSet<OpRef> = HashSet::with_capacity(pre.op_map.len());
        let mut outputs: HashMap<RequestId, Value> = HashMap::with_capacity(order.len());
        let mut quarantine = Quarantine::default();
        // Coordinator time inside the merge and the final checks; the
        // rest of the run's wall clock is group replay (and the side
        // job), so the two parts sum to the whole.
        let mut merge_time = Duration::ZERO;

        // No workers (and no board) when there is nothing to overlap:
        // the coordinator replays each group itself.
        let workers = if threads <= 1 || ngroups <= 1 {
            0
        } else {
            threads.min(ngroups)
        };
        let next = AtomicUsize::new(0);
        // Smallest group index known to have failed: workers skip
        // groups strictly beyond it (the merge stops there), but never
        // groups before it, which the merge still needs.
        let failed_floor = AtomicUsize::new(usize::MAX);
        let workers_alive = AtomicUsize::new(workers);
        let board: Mutex<Vec<Option<GroupRun>>> = Mutex::new({
            let mut v: Vec<Option<GroupRun>> = Vec::new();
            v.resize_with(if workers == 0 { 0 } else { ngroups }, || None);
            v
        });
        let ready = Condvar::new();
        let (groups_ref, run_unit_ref, obs_ref) = (&groups, &run_unit, &obs_handle);
        // The unit for group `gidx`: replayed inline, or waited for on
        // the board.
        let take_unit = |gidx: usize| -> Result<GroupRun, RejectReason> {
            if workers == 0 {
                return Ok(run_unit_ref(gidx, &groups_ref[gidx], 0));
            }
            let poisoned = || RejectReason::VerifierInternal {
                what: "group result board poisoned".into(),
            };
            let mut slots = board.lock().map_err(|_| poisoned())?;
            loop {
                if let Some(u) = slots[gidx].take() {
                    return Ok(u);
                }
                if workers_alive.load(Ordering::Relaxed) == 0 {
                    // Every worker exited without filling this slot:
                    // fail closed instead of waiting forever.
                    return Err(RejectReason::VerifierInternal {
                        what: "group worker exited without reporting".into(),
                    });
                }
                slots = ready
                    .wait_timeout(slots, Duration::from_millis(20))
                    .map_err(|_| poisoned())?
                    .0;
            }
        };

        let merged: Result<(), RejectReason> = std::thread::scope(|s| {
            for w in 0..workers {
                // Lane 0 is the coordinator; workers get 1..=n.
                let lane = w as u32 + 1;
                let (next, failed_floor, workers_alive) = (&next, &failed_floor, &workers_alive);
                let (board, ready) = (&board, &ready);
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= ngroups {
                            break;
                        }
                        if i > failed_floor.load(Ordering::Relaxed) {
                            continue;
                        }
                        // run_unit is supervised: a panicking group
                        // reports a quarantined unit instead of stalling
                        // the merge on an empty slot. Only hard
                        // (semantic) errors lower the floor —
                        // quarantined groups don't stop the groups
                        // behind them.
                        let unit = run_unit_ref(i, &groups_ref[i], lane);
                        if unit.error.as_ref().is_some_and(|e| !e.quarantines()) {
                            failed_floor.fetch_min(i, Ordering::Relaxed);
                            obs_ref.progress_floor(i as u64);
                        }
                        if let Ok(mut slots) = board.lock() {
                            slots[i] = Some(unit);
                        }
                        ready.notify_all();
                    }
                    workers_alive.fetch_sub(1, Ordering::Relaxed);
                    ready.notify_all();
                });
            }

            side();
            let t_merge_span = obs_handle.span_start();
            let mut out: Result<(), RejectReason> = Ok(());
            for gidx in 0..ngroups {
                let unit = match take_unit(gidx) {
                    Ok(unit) => unit,
                    Err(e) => {
                        out = Err(e);
                        break;
                    }
                };
                let t = Instant::now();
                let res = merge_unit(
                    global,
                    advice,
                    obs_ref,
                    &mut stats,
                    &mut executed,
                    &mut consumed,
                    &mut outputs,
                    &mut quarantine,
                    unit,
                );
                merge_time += t.elapsed();
                if let Err(e) = res {
                    // Nothing past this group will merge; let in-flight
                    // workers drain.
                    failed_floor.fetch_min(gidx, Ordering::Relaxed);
                    obs_ref.progress_floor(gidx as u64);
                    out = Err(e);
                    break;
                }
            }
            let t = Instant::now();
            let qres = quarantine.finish(obs_ref);
            if out.is_ok() {
                out = qres;
            }
            if out.is_ok() {
                out = final_checks(trace, advice, pre, &order, &executed, &consumed, &outputs);
            }
            merge_time += t.elapsed();
            if out.is_ok() {
                obs_handle.record_span(
                    "state-merge",
                    0,
                    t_merge_span,
                    &[("groups", ngroups as u64)],
                );
            }
            out
        });
        merged?;
        let timing = ReexecTiming {
            group_replay: t_run.elapsed().saturating_sub(merge_time),
            state_merge: merge_time,
        };
        Ok((stats, timing))
    }

    /// `OOOExec` (Fig. 22): out-of-order re-execution *without*
    /// grouping — every request is its own singleton group and all
    /// requests' handler activations share one global queue, drained in
    /// any well-formed order. This is the executor the paper's proofs
    /// reason about; [`ReExecutor::run`] is the batched production
    /// variant shown equivalent to it by Lemma 3.
    ///
    /// Control-flow tags are ignored (OOOAudit does not group), so this
    /// also audits advice from servers that decline to tag.
    pub fn run_ungrouped(mut self) -> Result<ReexecStats, RejectReason> {
        let order = self.trace.request_ids();
        // OOOAudit replays every request as a singleton group on one
        // thread, so the whole run shares a single meter scaled by the
        // request count (the grouped path budgets per group).
        let limits = self.limits;
        self.arm_meter(&limits, None, order.len() as u64);
        self.stats.groups = order.len();
        // One global queue of (singleton group, handler, payload).
        let mut active: VecDeque<(Group, HandlerId, MultiValue)> = VecDeque::new();
        for rid in &order {
            let g = Group { rids: vec![*rid] };
            let Some(input) = self.trace.input_of(*rid).cloned() else {
                return Err(RejectReason::UnbalancedTrace);
            };
            for &f in &self.program.request_handlers {
                let hid = HandlerId::root(kem::FunctionId(f));
                if !self.advice.opcounts.contains_key(&(*rid, hid.clone())) {
                    return Err(RejectReason::GroupSetupMismatch {
                        why: "request handler missing from opcounts",
                    });
                }
                active.push_back((
                    Group {
                        rids: g.rids.clone(),
                    },
                    hid,
                    MultiValue::uniform(input.clone()),
                ));
            }
        }
        // Drain with the configured schedule; children go back into the
        // same global queue, so requests' handlers interleave freely.
        while let Some((g, hid, payload)) = self.next_active_global(&mut active) {
            let mut children: VecDeque<(HandlerId, MultiValue)> = VecDeque::new();
            self.exec_handler(&g, &mut children, hid, payload)?;
            for (hid, payload) in children {
                active.push_back((
                    Group {
                        rids: g.rids.clone(),
                    },
                    hid,
                    payload,
                ));
            }
        }
        final_checks(
            self.trace,
            self.advice,
            self.pre,
            &order,
            &self.executed,
            &self.consumed,
            &self.outputs,
        )?;
        self.stats.fuel_spent = self.fuel_spent;
        self.stats.max_group_fuel = self.fuel_spent;
        Ok(self.stats)
    }

    fn next_active_global(
        &mut self,
        active: &mut VecDeque<(Group, HandlerId, MultiValue)>,
    ) -> Option<(Group, HandlerId, MultiValue)> {
        match self.schedule {
            ReplaySchedule::Fifo => active.pop_front(),
            ReplaySchedule::Lifo => active.pop_back(),
            ReplaySchedule::Random { .. } => {
                if active.is_empty() {
                    None
                } else {
                    let i = rand::Rng::gen_range(&mut self.rng, 0..active.len());
                    active.remove(i)
                }
            }
        }
    }

    fn run_group(&mut self, g: Group) -> Result<(), RejectReason> {
        // Width cap: a forged control-flow tag that collapses many
        // requests into one group multiplies every MultiValue by the
        // group width, so an oversized group is rejected up front
        // instead of amplifying allocations 2^20-fold.
        if (g.n() as u64) > self.max_group_width {
            return Err(RejectReason::ResourceExhausted {
                resource: ResourceKind::GroupWidth,
                group: self.group,
                spent: g.n() as u64,
                limit: self.max_group_width,
            });
        }
        // (1) Initialize: inputs and the request handlers. The common
        // case — every member sent the same input — collapses without
        // materializing a per-request vector.
        let mut first: Option<&Value> = None;
        let mut inputs_equal = true;
        for rid in &g.rids {
            let Some(input) = self.trace.input_of(*rid) else {
                return Err(RejectReason::UnbalancedTrace);
            };
            match first {
                None => first = Some(input),
                Some(f) => inputs_equal &= f == input,
            }
        }
        let payload = if inputs_equal {
            MultiValue::uniform(first.cloned().unwrap_or(Value::Null))
        } else {
            let mut inputs: Vec<Value> = Vec::with_capacity(g.n());
            for rid in &g.rids {
                inputs.push(self.trace.input_of(*rid).cloned().unwrap_or(Value::Null));
            }
            MultiValue::from_vec(inputs)
        };
        // Pre-size the per-request non-loggable table to its worst
        // case so writes during replay never rehash it.
        self.nonlog
            .reserve(g.n().saturating_mul(self.program.vars.len()));
        let mut active: VecDeque<(HandlerId, MultiValue)> = VecDeque::new();
        for &f in &self.program.request_handlers {
            let hid = HandlerId::root(kem::FunctionId(f));
            for rid in &g.rids {
                if !self.advice.opcounts.contains_key(&(*rid, hid.clone())) {
                    return Err(RejectReason::GroupSetupMismatch {
                        why: "request handler missing from opcounts",
                    });
                }
            }
            active.push_back((hid, payload.clone()));
        }
        // (2) Execute with SIMD-on-demand. The draw order is free:
        // anything respecting activation order (children enter the
        // queue only when activated) is a well-formed schedule.
        while let Some((hid, payload)) = self.next_active(&mut active) {
            self.exec_handler(&g, &mut active, hid, payload)?;
        }
        Ok(())
    }

    fn exec_handler(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        hid: HandlerId,
        payload: MultiValue,
    ) -> Result<(), RejectReason> {
        let fid = hid.function();
        if fid == INIT_FUNCTION || fid.0 as usize >= self.program.functions.len() {
            return Err(RejectReason::ReexecError {
                message: format!("handler references unknown function {fid}"),
            });
        }
        self.stats.handlers_executed += 1;
        self.stats.activations_covered += g.n() as u64;
        for rid in &g.rids {
            self.executed.insert((*rid, hid.clone()));
        }
        let program = self.program;
        let Some(func) = program.resolved().functions.get(fid.0 as usize) else {
            // Resolved functions parallel `program.functions`, so this
            // is unreachable after the bounds check above; fail closed.
            return Err(RejectReason::ReexecError {
                message: format!("handler references unknown function {fid}"),
            });
        };
        // On the VM path, frame slots and per-member opcounts come from
        // reusable pools: handlers never nest, so each activation clears
        // and refills the same buffers instead of allocating. (Error
        // paths drop the pooled buffers with the frame — the group is
        // finished then.) The tree-walk keeps its per-activation
        // allocations: it is the preserved baseline the VM is measured
        // against.
        let (mut locals, mut counts) = if self.bytecode {
            let mut locals = std::mem::take(&mut self.vm_locals);
            locals.clear();
            let mut counts = std::mem::take(&mut self.vm_counts);
            counts.clear();
            counts.reserve(g.n());
            (locals, counts)
        } else {
            (Vec::new(), Vec::with_capacity(g.n()))
        };
        locals.resize(func.n_slots as usize, None);
        for rid in &g.rids {
            counts.push(self.advice.opcounts.get(&(*rid, hid.clone())).copied());
        }
        let mut frame = Frame {
            hid,
            idx: 0,
            locals,
            func,
            counts,
        };
        if let Some(s0) = frame.locals.get_mut(0) {
            *s0 = Some(payload);
        }
        if self.bytecode {
            let code = &self.program.code().funcs[fid.0 as usize];
            self.exec_code(g, active, &mut frame, code)?;
        } else {
            self.exec_block(g, active, &mut frame, &func.body)?;
        }
        // (c) Handler exit: every request must have consumed exactly its
        // reported operation count.
        for (i, rid) in g.rids.iter().enumerate() {
            match frame.counts.get(i).copied().flatten() {
                Some(count) if count == frame.idx => {}
                _ => return Err(RejectReason::OpcountMismatch { rid: *rid }),
            }
        }
        if self.bytecode {
            frame.locals.clear();
            self.vm_locals = frame.locals;
            frame.counts.clear();
            self.vm_counts = frame.counts;
        }
        Ok(())
    }

    /// Bytecode dispatch over one handler body: observably identical to
    /// [`Self::exec_block`] over the same resolved function — the same
    /// advice checks in the same order, the same bumps, the same
    /// rejections with the same payloads and precedence, and the same
    /// fuel sequence (the compiler attaches every tree-walk entry
    /// charge to the first op of the charged node's subtree; see
    /// `kem::bytecode`).
    fn exec_code(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &mut Frame<'_>,
        code: &kem::bytecode::FuncCode,
    ) -> Result<(), RejectReason> {
        // Scratch is swapped out so dispatch can borrow `self` freely;
        // restored on every exit path, cleared (errors may leave
        // operands behind).
        let mut stack = std::mem::take(&mut self.vm_stack);
        let mut loops = std::mem::take(&mut self.vm_loops);
        let mut iters = std::mem::take(&mut self.vm_iters);
        stack.reserve(code.max_stack as usize);
        let result = self.dispatch(g, active, frame, code, &mut stack, &mut loops, &mut iters);
        stack.clear();
        loops.clear();
        iters.clear();
        self.vm_stack = stack;
        self.vm_loops = loops;
        self.vm_iters = iters;
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &mut Frame<'_>,
        code: &kem::bytecode::FuncCode,
        stack: &mut Vec<MultiValue>,
        loops: &mut Vec<u32>,
        iters: &mut Vec<(MultiValue, usize, usize)>,
    ) -> Result<(), RejectReason> {
        use kem::bytecode::Op;
        let wrap = |e: kem::RuntimeError| RejectReason::ReexecError { message: e.message };
        let underflow = |what: &'static str| RejectReason::VerifierInternal { what: what.into() };
        let n = g.n();
        let mut pc = 0usize;
        loop {
            // The tree-walk spends these units one at a time on the
            // descent to this op's action, but performs no fallible
            // action in between — so a single batched add is
            // observably identical (charge_units reports spent ==
            // limit + 1 on the trip, as the first over-budget unit
            // would).
            let units = code.charges[pc];
            if units > 0 {
                self.charge_units(u64::from(units))?;
            }
            self.vm_ops += 1;
            match code.ops[pc] {
                Op::Const(i) => stack.push(MultiValue::uniform(code.consts[i as usize].clone())),
                Op::Local(slot) => match frame.locals.get(slot as usize).and_then(Option::as_ref) {
                    Some(v) => stack.push(v.clone()),
                    None => {
                        return Err(RejectReason::ReexecError {
                            message: format!("unknown local {}", frame.func.slot_name(slot)),
                        })
                    }
                },
                Op::SharedRead { var, loggable } => {
                    if loggable {
                        let idx = self.bump(g, frame)?;
                        let advice = self.advice;
                        let log = advice.var_logs.get(&var);
                        let hid = frame.hid.clone();
                        let mv = MultiValue::collect(n, |i| {
                            self.vars
                                .on_read(var, OpRef::new(g.rids[i], hid.clone(), idx), log)
                        })?;
                        self.note_dedup(&mv);
                        stack.push(mv);
                    } else {
                        let program = self.program;
                        let init = &program.var(var).init;
                        let mv = MultiValue::collect(n, |i| {
                            Ok::<_, RejectReason>(
                                self.nonlog
                                    .get(&(var, g.rids[i]))
                                    .cloned()
                                    .unwrap_or_else(|| init.clone()),
                            )
                        })?;
                        stack.push(mv);
                    }
                }
                Op::Bin(op) => {
                    let b = vm_pop(stack)?;
                    let a = vm_pop(stack)?;
                    stack.push(
                        a.zip(&b, n, |x, y| kem::eval_binop(op, x, y))
                            .map_err(wrap)?,
                    );
                }
                Op::Not => {
                    let a = vm_pop(stack)?;
                    stack.push(
                        a.map(|v| Ok::<_, kem::RuntimeError>(Value::Bool(!v.truthy())))
                            .map_err(wrap)?,
                    );
                }
                Op::Field(i) => {
                    let a = vm_pop(stack)?;
                    let name = code.strings[i as usize].as_ref();
                    stack.push(
                        a.map(|v| {
                            Ok::<_, kem::RuntimeError>(
                                v.field(name).cloned().unwrap_or(Value::Null),
                            )
                        })
                        .map_err(wrap)?,
                    );
                }
                Op::Index => {
                    let i = vm_pop(stack)?;
                    let a = vm_pop(stack)?;
                    stack.push(a.zip(&i, n, kem::eval_index).map_err(wrap)?);
                }
                Op::Len => {
                    let a = vm_pop(stack)?;
                    stack.push(a.map(kem::eval_len).map_err(wrap)?);
                }
                Op::Contains => {
                    let b = vm_pop(stack)?;
                    let a = vm_pop(stack)?;
                    stack.push(a.zip(&b, n, kem::eval_contains).map_err(wrap)?);
                }
                Op::MakeList(count) => {
                    let items = stack.split_off(stack.len() - count as usize);
                    let mv = if items.iter().all(MultiValue::is_uniform) {
                        MultiValue::uniform(Value::from_vec(
                            items.iter().map(|m| m.get(0).clone()).collect(),
                        ))
                    } else {
                        MultiValue::from_vec(
                            (0..n)
                                .map(|i| {
                                    Value::from_vec(
                                        items.iter().map(|m| m.get(i).clone()).collect(),
                                    )
                                })
                                .collect(),
                        )
                    };
                    stack.push(mv);
                }
                Op::MakeMap { keys, n: count } => {
                    let vals = stack.split_off(stack.len() - count as usize);
                    let key_strs = &code.strings[keys as usize..(keys + count) as usize];
                    let mv = if vals.iter().all(MultiValue::is_uniform) {
                        MultiValue::uniform(Value::from_pairs(
                            key_strs
                                .iter()
                                .cloned()
                                .zip(vals.iter().map(|m| m.get(0).clone())),
                        ))
                    } else {
                        MultiValue::from_vec(
                            (0..n)
                                .map(|i| {
                                    Value::from_pairs(
                                        key_strs
                                            .iter()
                                            .cloned()
                                            .zip(vals.iter().map(|m| m.get(i).clone())),
                                    )
                                })
                                .collect(),
                        )
                    };
                    stack.push(mv);
                }
                Op::MapInsert => {
                    let v = vm_pop(stack)?;
                    let k = vm_pop(stack)?;
                    let m = vm_pop(stack)?;
                    let mv = if m.is_uniform() && k.is_uniform() && v.is_uniform() {
                        MultiValue::uniform(
                            kem::eval_map_insert(m.get(0), k.get(0), v.get(0)).map_err(wrap)?,
                        )
                    } else {
                        MultiValue::from_vec(
                            (0..n)
                                .map(|i| kem::eval_map_insert(m.get(i), k.get(i), v.get(i)))
                                .collect::<Result<_, _>>()
                                .map_err(wrap)?,
                        )
                    };
                    stack.push(mv);
                }
                Op::MapRemove => {
                    let k = vm_pop(stack)?;
                    let m = vm_pop(stack)?;
                    stack.push(m.zip(&k, n, kem::eval_map_remove).map_err(wrap)?);
                }
                Op::ListPush => {
                    let v = vm_pop(stack)?;
                    let l = vm_pop(stack)?;
                    stack.push(l.zip(&v, n, kem::eval_list_push).map_err(wrap)?);
                }
                Op::Keys => {
                    let m = vm_pop(stack)?;
                    stack.push(m.map(kem::eval_keys).map_err(wrap)?);
                }
                Op::Digest => {
                    let v = vm_pop(stack)?;
                    stack.push(
                        v.map(|x| Ok::<_, kem::RuntimeError>(kem::eval_digest(x)))
                            .map_err(wrap)?,
                    );
                }
                Op::ToStr => {
                    let v = vm_pop(stack)?;
                    stack.push(
                        v.map(|x| Ok::<_, kem::RuntimeError>(kem::eval_to_str(x)))
                            .map_err(wrap)?,
                    );
                }
                Op::StoreLocal(slot) => {
                    let v = vm_pop(stack)?;
                    if let Some(s) = frame.locals.get_mut(slot as usize) {
                        *s = Some(v);
                    }
                }
                Op::SharedWrite { var, loggable } => {
                    let v = vm_pop(stack)?;
                    if loggable {
                        let idx = self.bump(g, frame)?;
                        self.note_dedup(&v);
                        let log = self.advice.var_logs.get(&var);
                        for (rid, val) in g.rids.iter().zip(v.iter(n)) {
                            self.vars.on_write(
                                var,
                                OpRef::new(*rid, frame.hid.clone(), idx),
                                val.clone(),
                                log,
                            )?;
                        }
                    } else {
                        for (rid, val) in g.rids.iter().zip(v.iter(n)) {
                            self.nonlog.insert((var, *rid), val.clone());
                        }
                    }
                }
                Op::Branch { else_target } => {
                    let c = vm_pop(stack)?;
                    let Some(taken) = c.truthiness(n) else {
                        return Err(RejectReason::Divergence {
                            context: "if condition".into(),
                        });
                    };
                    if !taken {
                        pc = else_target as usize;
                        continue;
                    }
                }
                Op::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Op::LoopEnter => loops.push(0),
                Op::LoopBranch { end } => {
                    let c = vm_pop(stack)?;
                    let Some(taken) = c.truthiness(n) else {
                        return Err(RejectReason::Divergence {
                            context: "while condition".into(),
                        });
                    };
                    if taken {
                        let Some(iters_count) = loops.last_mut() else {
                            return Err(underflow("bytecode loop-counter underflow"));
                        };
                        *iters_count += 1;
                        if *iters_count > LOOP_LIMIT {
                            return Err(RejectReason::ReexecError {
                                message: "while loop exceeded iteration limit".into(),
                            });
                        }
                    } else {
                        loops.pop();
                        pc = end as usize;
                        continue;
                    }
                }
                Op::ForEnter => {
                    let l = vm_pop(stack)?;
                    // All members must iterate the same number of
                    // times; non-list members reject before the
                    // length-divergence verdict (tree-walk error
                    // order).
                    let len = match &l {
                        MultiValue::Uniform(v) => {
                            let Some(items) = v.as_list() else {
                                return Err(RejectReason::ReexecError {
                                    message: "for-each over non-list".into(),
                                });
                            };
                            items.len()
                        }
                        MultiValue::Per(vs) => {
                            let mut lens = Vec::with_capacity(vs.len());
                            for v in vs {
                                let Some(items) = v.as_list() else {
                                    return Err(RejectReason::ReexecError {
                                        message: "for-each over non-list".into(),
                                    });
                                };
                                lens.push(items.len());
                            }
                            if lens.windows(2).any(|w| w[0] != w[1]) {
                                return Err(RejectReason::Divergence {
                                    context: "for-each length".into(),
                                });
                            }
                            lens.first().copied().unwrap_or(0)
                        }
                    };
                    iters.push((l, 0, len));
                }
                Op::ForNext { slot, end } => {
                    let Some((l, idx, len)) = iters.last_mut() else {
                        return Err(underflow("bytecode iterator underflow"));
                    };
                    if *idx < *len {
                        let nth = |v: &Value, i: usize| -> Result<Value, RejectReason> {
                            v.as_list()
                                .and_then(|items| items.get(i).cloned())
                                .ok_or_else(|| RejectReason::ReexecError {
                                    message: "for-each item out of range".into(),
                                })
                        };
                        let item = match &*l {
                            MultiValue::Uniform(v) => MultiValue::uniform(nth(v, *idx)?),
                            MultiValue::Per(vs) => MultiValue::from_vec(
                                vs.iter().map(|v| nth(v, *idx)).collect::<Result<_, _>>()?,
                            ),
                        };
                        *idx += 1;
                        if let Some(s) = frame.locals.get_mut(slot as usize) {
                            *s = Some(item);
                        }
                    } else {
                        iters.pop();
                        pc = end as usize;
                        continue;
                    }
                }
                Op::Emit { event } => {
                    let payload = vm_pop(stack)?;
                    let idx = self.bump(g, frame)?;
                    let program = self.program;
                    let event = program.resolved().interner.resolve(event);
                    for rid in &g.rids {
                        self.check_handler_op(*rid, &frame.hid, idx, &ExpectedOp::Emit { event })?;
                        self.consumed
                            .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                    }
                    self.activate_handlers(g, active, frame, idx, payload)?;
                }
                Op::Register { event, function } => {
                    let idx = self.bump(g, frame)?;
                    let program = self.program;
                    let event = program.resolved().interner.resolve(event);
                    for rid in &g.rids {
                        self.check_handler_op(
                            *rid,
                            &frame.hid,
                            idx,
                            &ExpectedOp::Register { event, function },
                        )?;
                        self.consumed
                            .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                    }
                }
                Op::Unregister { event, function } => {
                    let idx = self.bump(g, frame)?;
                    let program = self.program;
                    let event = program.resolved().interner.resolve(event);
                    for rid in &g.rids {
                        self.check_handler_op(
                            *rid,
                            &frame.hid,
                            idx,
                            &ExpectedOp::Unregister { event, function },
                        )?;
                        self.consumed
                            .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                    }
                }
                Op::Respond => {
                    let v = vm_pop(stack)?;
                    for (rid, val) in g.rids.iter().zip(v.iter(n)) {
                        match self.advice.response_emitted_by.get(rid) {
                            Some((h, i)) if *h == frame.hid && *i == frame.idx => {}
                            _ => return Err(RejectReason::ResponseEmitterMismatch { rid: *rid }),
                        }
                        self.outputs.insert(*rid, val.clone());
                    }
                }
                // The token/key screening ops exist for the live
                // runtime, which validates between operand evaluations;
                // re-execution validates per member at the terminal op.
                Op::TxToken | Op::RowKey => {}
                Op::TxStart { on_done } => {
                    let ctx = vm_pop(stack)?;
                    let idx = self.bump(g, frame)?;
                    let mut payloads = Vec::with_capacity(n);
                    for (i, rid) in g.rids.iter().enumerate() {
                        let ktx = KTxId {
                            rid: *rid,
                            hid: frame.hid.clone(),
                            opnum: idx,
                        };
                        let token = self.tx_table.len() as i64;
                        self.tx_table.push(ktx.clone());
                        self.tx_counters.insert(ktx.clone(), 0);
                        let entry = self.check_state_op(*rid, &frame.hid, idx, &ktx, 0)?;
                        self.consumed
                            .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                        if entry.optype != TxOpType::Start {
                            return Err(RejectReason::StateOpMismatch {
                                at: OpRef::new(*rid, frame.hid.clone(), idx),
                                why: "expected tx_start",
                            });
                        }
                        let keys = tx_payload_keys();
                        payloads.push(Value::from_pairs([
                            (Arc::clone(&keys.ctx), ctx.get(i).clone()),
                            (Arc::clone(&keys.ok), Value::Bool(true)),
                            (Arc::clone(&keys.tx), Value::Int(token)),
                        ]));
                    }
                    self.enqueue_continuation(g, active, frame, idx, on_done, payloads)?;
                }
                Op::TxGet { on_done } => {
                    let ctx = vm_pop(stack)?;
                    let key = vm_pop(stack)?;
                    let tx = vm_pop(stack)?;
                    self.exec_tx_vals(
                        g,
                        active,
                        frame,
                        TxOpType::Get,
                        tx,
                        Some(key),
                        None,
                        ctx,
                        on_done,
                    )?;
                }
                Op::TxPut { on_done } => {
                    let ctx = vm_pop(stack)?;
                    let value = vm_pop(stack)?;
                    let key = vm_pop(stack)?;
                    let tx = vm_pop(stack)?;
                    self.exec_tx_vals(
                        g,
                        active,
                        frame,
                        TxOpType::Put,
                        tx,
                        Some(key),
                        Some(value),
                        ctx,
                        on_done,
                    )?;
                }
                Op::TxCommit { on_done } => {
                    let ctx = vm_pop(stack)?;
                    let tx = vm_pop(stack)?;
                    self.exec_tx_vals(
                        g,
                        active,
                        frame,
                        TxOpType::Commit,
                        tx,
                        None,
                        None,
                        ctx,
                        on_done,
                    )?;
                }
                Op::TxAbort { on_done } => {
                    let ctx = vm_pop(stack)?;
                    let tx = vm_pop(stack)?;
                    self.exec_tx_vals(
                        g,
                        active,
                        frame,
                        TxOpType::Abort,
                        tx,
                        None,
                        None,
                        ctx,
                        on_done,
                    )?;
                }
                Op::ListenerCount { slot, event } => {
                    let idx = self.bump(g, frame)?;
                    let program = self.program;
                    let event = program.resolved().interner.resolve(event);
                    let hid = frame.hid.clone();
                    let mv = MultiValue::collect(n, |i| {
                        let rid = g.rids[i];
                        self.check_handler_op(rid, &hid, idx, &ExpectedOp::Check { event })?;
                        let op = OpRef::new(rid, hid.clone(), idx);
                        self.consumed.insert(op.clone());
                        let Some(count) = self.pre.check_counts.get(&op) else {
                            return Err(RejectReason::HandlerOpMismatch {
                                at: op,
                                why: "check op has no recomputed count",
                            });
                        };
                        Ok(Value::Int(*count))
                    })?;
                    if let Some(s) = frame.locals.get_mut(slot as usize) {
                        *s = Some(mv);
                    }
                }
                Op::Nondet { slot, kind } => {
                    let idx = self.bump(g, frame)?;
                    let hid = frame.hid.clone();
                    let mv = MultiValue::collect(n, |i| {
                        let op = OpRef::new(g.rids[i], hid.clone(), idx);
                        let Some(v) = self.advice.nondet.get(&op) else {
                            return Err(RejectReason::MissingNondet { at: op });
                        };
                        let plausible = match kind {
                            kem::NondetKind::Counter => v.as_int().is_some_and(|i| i >= 1),
                            kem::NondetKind::Random { bound } => {
                                v.as_int().is_some_and(|i| (0..bound.max(1)).contains(&i))
                            }
                        };
                        if !plausible {
                            return Err(RejectReason::ImplausibleNondet { at: op });
                        }
                        Ok(v.clone())
                    })?;
                    if let Some(s) = frame.locals.get_mut(slot as usize) {
                        *s = Some(mv);
                    }
                }
                Op::Ret => return Ok(()),
            }
            pc += 1;
        }
    }

    /// Advances the operation counter, checking it stays within every
    /// group member's reported opcount (Fig. 18 line 43).
    fn bump(&self, g: &Group, frame: &mut Frame<'_>) -> Result<u32, RejectReason> {
        frame.idx += 1;
        for (i, rid) in g.rids.iter().enumerate() {
            match frame.counts.get(i).copied().flatten() {
                Some(count) if frame.idx <= count => {}
                _ => return Err(RejectReason::OpcountMismatch { rid: *rid }),
            }
        }
        Ok(frame.idx)
    }

    fn exec_block<'f>(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &mut Frame<'f>,
        stmts: &'f [RStmt],
    ) -> Result<(), RejectReason> {
        for stmt in stmts {
            self.exec_stmt(g, active, frame, stmt)?;
        }
        Ok(())
    }

    fn exec_stmt<'f>(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &mut Frame<'f>,
        stmt: &'f RStmt,
    ) -> Result<(), RejectReason> {
        // One fuel unit per statement: advice-driven control flow
        // (loops, recursion) burns fuel and hits the budget instead of
        // spinning the verifier forever.
        self.charge(1)?;
        match stmt {
            RStmt::Let(slot, e) => {
                let v = self.eval(g, frame, e)?;
                if let Some(s) = frame.locals.get_mut(*slot as usize) {
                    *s = Some(v);
                }
            }
            RStmt::SharedWrite {
                var,
                loggable,
                value,
            } => {
                let v = self.eval(g, frame, value)?;
                let var = *var;
                if *loggable {
                    let idx = self.bump(g, frame)?;
                    self.note_dedup(&v);
                    let log = self.advice.var_logs.get(&var);
                    for (rid, val) in g.rids.iter().zip(v.iter(g.n())) {
                        self.vars.on_write(
                            var,
                            OpRef::new(*rid, frame.hid.clone(), idx),
                            val.clone(),
                            log,
                        )?;
                    }
                } else {
                    for (rid, val) in g.rids.iter().zip(v.iter(g.n())) {
                        self.nonlog.insert((var, *rid), val.clone());
                    }
                }
            }
            RStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(g, frame, cond)?;
                let Some(taken) = c.truthiness(g.n()) else {
                    return Err(RejectReason::Divergence {
                        context: "if condition".into(),
                    });
                };
                let branch = if taken { then_branch } else { else_branch };
                self.exec_block(g, active, frame, branch)?;
            }
            RStmt::While { cond, body } => {
                let mut iters = 0u32;
                loop {
                    let c = self.eval(g, frame, cond)?;
                    let Some(taken) = c.truthiness(g.n()) else {
                        return Err(RejectReason::Divergence {
                            context: "while condition".into(),
                        });
                    };
                    if !taken {
                        break;
                    }
                    iters += 1;
                    if iters > LOOP_LIMIT {
                        return Err(RejectReason::ReexecError {
                            message: "while loop exceeded iteration limit".into(),
                        });
                    }
                    self.exec_block(g, active, frame, body)?;
                }
            }
            RStmt::ForEach { slot, list, body } => {
                let l = self.eval(g, frame, list)?;
                // All members must iterate the same number of times.
                // Non-list members are rejected for the whole group
                // before the length-divergence verdict, preserving the
                // name-based interpreter's error order.
                let len = match &l {
                    MultiValue::Uniform(v) => {
                        let Some(items) = v.as_list() else {
                            return Err(RejectReason::ReexecError {
                                message: "for-each over non-list".into(),
                            });
                        };
                        items.len()
                    }
                    MultiValue::Per(vs) => {
                        let mut lens = Vec::with_capacity(vs.len());
                        for v in vs {
                            let Some(items) = v.as_list() else {
                                return Err(RejectReason::ReexecError {
                                    message: "for-each over non-list".into(),
                                });
                            };
                            lens.push(items.len());
                        }
                        if lens.windows(2).any(|w| w[0] != w[1]) {
                            return Err(RejectReason::Divergence {
                                context: "for-each length".into(),
                            });
                        }
                        lens.first().copied().unwrap_or(0)
                    }
                };
                let nth = |v: &Value, i: usize| -> Result<Value, RejectReason> {
                    v.as_list()
                        .and_then(|items| items.get(i).cloned())
                        .ok_or_else(|| RejectReason::ReexecError {
                            message: "for-each item out of range".into(),
                        })
                };
                for item_idx in 0..len {
                    let item = match &l {
                        MultiValue::Uniform(v) => MultiValue::uniform(nth(v, item_idx)?),
                        MultiValue::Per(vs) => MultiValue::from_vec(
                            vs.iter()
                                .map(|v| nth(v, item_idx))
                                .collect::<Result<_, _>>()?,
                        ),
                    };
                    if let Some(s) = frame.locals.get_mut(*slot as usize) {
                        *s = Some(item);
                    }
                    self.exec_block(g, active, frame, body)?;
                }
            }
            RStmt::Emit { event, payload } => {
                let payload = self.eval(g, frame, payload)?;
                let idx = self.bump(g, frame)?;
                let program = self.program;
                let event = program.resolved().interner.resolve(*event);
                for rid in &g.rids {
                    self.check_handler_op(*rid, &frame.hid, idx, &ExpectedOp::Emit { event })?;
                    self.consumed
                        .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                }
                self.activate_handlers(g, active, frame, idx, payload)?;
            }
            RStmt::Register { event, function } => {
                let idx = self.bump(g, frame)?;
                let program = self.program;
                let event = program.resolved().interner.resolve(*event);
                for rid in &g.rids {
                    self.check_handler_op(
                        *rid,
                        &frame.hid,
                        idx,
                        &ExpectedOp::Register {
                            event,
                            function: *function,
                        },
                    )?;
                    self.consumed
                        .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                }
            }
            RStmt::Unregister { event, function } => {
                let idx = self.bump(g, frame)?;
                let program = self.program;
                let event = program.resolved().interner.resolve(*event);
                for rid in &g.rids {
                    self.check_handler_op(
                        *rid,
                        &frame.hid,
                        idx,
                        &ExpectedOp::Unregister {
                            event,
                            function: *function,
                        },
                    )?;
                    self.consumed
                        .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                }
            }
            RStmt::Respond(e) => {
                let v = self.eval(g, frame, e)?;
                for (rid, val) in g.rids.iter().zip(v.iter(g.n())) {
                    match self.advice.response_emitted_by.get(rid) {
                        Some((h, i)) if *h == frame.hid && *i == frame.idx => {}
                        _ => return Err(RejectReason::ResponseEmitterMismatch { rid: *rid }),
                    }
                    self.outputs.insert(*rid, val.clone());
                }
            }
            RStmt::TxStart { ctx, on_done } => {
                let ctx = self.eval(g, frame, ctx)?;
                let idx = self.bump(g, frame)?;
                let mut payloads = Vec::with_capacity(g.n());
                for (i, rid) in g.rids.iter().enumerate() {
                    let ktx = KTxId {
                        rid: *rid,
                        hid: frame.hid.clone(),
                        opnum: idx,
                    };
                    let token = self.tx_table.len() as i64;
                    self.tx_table.push(ktx.clone());
                    self.tx_counters.insert(ktx.clone(), 0);
                    let entry = self.check_state_op(*rid, &frame.hid, idx, &ktx, 0)?;
                    self.consumed
                        .insert(OpRef::new(*rid, frame.hid.clone(), idx));
                    if entry.optype != TxOpType::Start {
                        return Err(RejectReason::StateOpMismatch {
                            at: OpRef::new(*rid, frame.hid.clone(), idx),
                            why: "expected tx_start",
                        });
                    }
                    let keys = tx_payload_keys();
                    payloads.push(Value::from_pairs([
                        (Arc::clone(&keys.ctx), ctx.get(i).clone()),
                        (Arc::clone(&keys.ok), Value::Bool(true)),
                        (Arc::clone(&keys.tx), Value::Int(token)),
                    ]));
                }
                self.enqueue_continuation(g, active, frame, idx, *on_done, payloads)?;
            }
            RStmt::TxGet {
                tx,
                key,
                ctx,
                on_done,
            } => {
                self.exec_tx_op(
                    g,
                    active,
                    frame,
                    TxOpType::Get,
                    tx,
                    Some(key),
                    None,
                    ctx,
                    *on_done,
                )?;
            }
            RStmt::TxPut {
                tx,
                key,
                value,
                ctx,
                on_done,
            } => {
                self.exec_tx_op(
                    g,
                    active,
                    frame,
                    TxOpType::Put,
                    tx,
                    Some(key),
                    Some(value),
                    ctx,
                    *on_done,
                )?;
            }
            RStmt::TxCommit { tx, ctx, on_done } => {
                self.exec_tx_op(
                    g,
                    active,
                    frame,
                    TxOpType::Commit,
                    tx,
                    None,
                    None,
                    ctx,
                    *on_done,
                )?;
            }
            RStmt::TxAbort { tx, ctx, on_done } => {
                self.exec_tx_op(
                    g,
                    active,
                    frame,
                    TxOpType::Abort,
                    tx,
                    None,
                    None,
                    ctx,
                    *on_done,
                )?;
            }
            RStmt::ListenerCount { slot, event } => {
                let idx = self.bump(g, frame)?;
                let program = self.program;
                let event = program.resolved().interner.resolve(*event);
                let hid = frame.hid.clone();
                let mv = MultiValue::collect(g.n(), |i| {
                    let rid = g.rids[i];
                    self.check_handler_op(rid, &hid, idx, &ExpectedOp::Check { event })?;
                    let op = OpRef::new(rid, hid.clone(), idx);
                    self.consumed.insert(op.clone());
                    // The observed count is recomputed by preprocessing
                    // from the handler log's registration history.
                    let Some(count) = self.pre.check_counts.get(&op) else {
                        return Err(RejectReason::HandlerOpMismatch {
                            at: op,
                            why: "check op has no recomputed count",
                        });
                    };
                    Ok(Value::Int(*count))
                })?;
                if let Some(s) = frame.locals.get_mut(*slot as usize) {
                    *s = Some(mv);
                }
            }
            RStmt::Nondet { slot, kind } => {
                let idx = self.bump(g, frame)?;
                let hid = frame.hid.clone();
                let mv = MultiValue::collect(g.n(), |i| {
                    let op = OpRef::new(g.rids[i], hid.clone(), idx);
                    let Some(v) = self.advice.nondet.get(&op) else {
                        return Err(RejectReason::MissingNondet { at: op });
                    };
                    // Basic well-formedness of recorded nondeterminism
                    // (§5): the value must be type- and range-plausible
                    // for its source. Karousos gives no stronger
                    // guarantee about nondeterministic values.
                    let plausible = match kind {
                        kem::NondetKind::Counter => v.as_int().is_some_and(|i| i >= 1),
                        kem::NondetKind::Random { bound } => {
                            v.as_int().is_some_and(|i| (0..*bound.max(&1)).contains(&i))
                        }
                    };
                    if !plausible {
                        return Err(RejectReason::ImplausibleNondet { at: op });
                    }
                    Ok(v.clone())
                })?;
                if let Some(s) = frame.locals.get_mut(*slot as usize) {
                    *s = Some(mv);
                }
            }
        }
        Ok(())
    }

    /// `ActivateHandlers` (Fig. 19 lines 29–34): the emit must activate
    /// identical handler sets across the group; activations are
    /// enqueued in canonical (sorted) order — siblings are R-concurrent,
    /// so any order is faithful.
    fn activate_handlers(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &Frame<'_>,
        idx: u32,
        payload: MultiValue,
    ) -> Result<(), RejectReason> {
        let mut canonical: Option<Vec<HandlerId>> = None;
        // Scratch for sorting later members' activation lists; reused
        // across the whole group so the comparison loop allocates at
        // most once, not once per request.
        let mut scratch: Vec<HandlerId> = Vec::new();
        for rid in &g.rids {
            let op = OpRef::new(*rid, frame.hid.clone(), idx);
            let hids = self
                .pre
                .activated
                .get(&op)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            match &canonical {
                None => {
                    let mut c = hids.to_vec();
                    c.sort();
                    canonical = Some(c);
                }
                // Fast path: already element-wise equal to the sorted
                // canonical list.
                Some(c) if c.as_slice() == hids => {}
                Some(c) => {
                    scratch.clear();
                    scratch.extend_from_slice(hids);
                    scratch.sort();
                    if scratch != *c {
                        return Err(RejectReason::EmitActivationMismatch {
                            at: OpRef::new(
                                g.rids.first().copied().unwrap_or(*rid),
                                frame.hid.clone(),
                                idx,
                            ),
                        });
                    }
                }
            }
        }
        for hid in canonical.unwrap_or_default() {
            active.push_back((hid, payload.clone()));
        }
        Ok(())
    }

    /// `CheckStateOp` coordinate checks (Fig. 19 lines 5–7): the
    /// re-executed operation must map to the `txnum`-th entry of the
    /// verifier-computed transaction id. Returns the log entry.
    fn check_state_op(
        &self,
        rid: RequestId,
        hid: &HandlerId,
        idx: u32,
        ktx: &KTxId,
        txnum: u32,
    ) -> Result<&'a TxEntryRef<'a>, RejectReason> {
        let op = OpRef::new(rid, hid.clone(), idx);
        match self.pre.op_map.get(&op) {
            Some(OpMapEntry::TxLog { tx, index }) if tx == ktx && *index == txnum as usize => self
                .advice
                .tx_logs
                .get(ktx)
                .and_then(|log| log.get(txnum as usize))
                .ok_or(RejectReason::MalformedAdviceAt {
                    at: op,
                    what: "transaction log position out of range",
                }),
            _ => Err(RejectReason::StateOpMismatch {
                at: op,
                why: "operation not logged at this transaction position",
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_tx_op<'f>(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &mut Frame<'f>,
        requested: TxOpType,
        tx: &'f RExpr,
        key: Option<&'f RExpr>,
        value: Option<&'f RExpr>,
        ctx: &'f RExpr,
        on_done: kem::FunctionId,
    ) -> Result<(), RejectReason> {
        let tx_v = self.eval(g, frame, tx)?;
        let key_v = key.map(|k| self.eval(g, frame, k)).transpose()?;
        let value_v = value.map(|v| self.eval(g, frame, v)).transpose()?;
        let ctx_v = self.eval(g, frame, ctx)?;
        self.exec_tx_vals(
            g, active, frame, requested, tx_v, key_v, value_v, ctx_v, on_done,
        )
    }

    /// The operand-independent tail of an asynchronous state operation:
    /// token resolution, per-transaction sequencing, advice checks, and
    /// continuation payload construction. Shared by the tree-walk
    /// ([`Self::exec_tx_op`]) and the bytecode dispatch loop, which
    /// evaluates the operands from its operand stack.
    #[allow(clippy::too_many_arguments)]
    fn exec_tx_vals(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &mut Frame<'_>,
        requested: TxOpType,
        tx_v: MultiValue,
        key_v: Option<MultiValue>,
        value_v: Option<MultiValue>,
        ctx_v: MultiValue,
        on_done: kem::FunctionId,
    ) -> Result<(), RejectReason> {
        let idx = self.bump(g, frame)?;
        if let Some(k) = &key_v {
            self.note_dedup(k);
        }
        let mut payloads = Vec::with_capacity(g.n());
        for (i, rid) in g.rids.iter().enumerate() {
            let at = OpRef::new(*rid, frame.hid.clone(), idx);
            let ktx = tx_v
                .get(i)
                .as_int()
                .and_then(|t| self.tx_table.get(t as usize))
                .cloned()
                .ok_or_else(|| RejectReason::ReexecError {
                    message: "invalid transaction token".into(),
                })?;
            if ktx.rid != *rid {
                return Err(RejectReason::StateOpMismatch {
                    at,
                    why: "transaction belongs to a different request",
                });
            }
            let txnum = {
                let c = self.tx_counters.entry(ktx.clone()).or_insert(0);
                *c += 1;
                *c
            };
            let entry = self.check_state_op(*rid, &frame.hid, idx, &ktx, txnum)?;
            self.consumed
                .insert(OpRef::new(*rid, frame.hid.clone(), idx));
            let keys = tx_payload_keys();
            let mut payload: Vec<(Arc<str>, Value)> = Vec::with_capacity(5);
            payload.push((Arc::clone(&keys.ctx), ctx_v.get(i).clone()));
            payload.push((Arc::clone(&keys.tx), tx_v.get(i).clone()));
            if entry.optype == TxOpType::Abort && requested != TxOpType::Abort {
                // The operation allegedly conflicted and aborted the
                // transaction (the paper's retry-error path); feed the
                // failure result. If the log recorded the contested key
                // it must match.
                if let (Some(logged), Some(kv)) = (entry.key, &key_v) {
                    if kv.get(i).as_str() != Some(logged) {
                        return Err(RejectReason::StateOpMismatch {
                            at,
                            why: "conflict record key mismatch",
                        });
                    }
                }
                payload.push((Arc::clone(&keys.ok), Value::Bool(false)));
                payloads.push(Value::from_pairs(payload));
                continue;
            }
            if entry.optype != requested {
                return Err(RejectReason::StateOpMismatch {
                    at,
                    why: "logged operation type differs",
                });
            }
            let internal = |what: &str| RejectReason::VerifierInternal { what: what.into() };
            match requested {
                TxOpType::Get => {
                    let kv = key_v
                        .as_ref()
                        .ok_or_else(|| internal("GET re-executed without a key expression"))?;
                    if entry.key != kv.get(i).as_str() {
                        return Err(RejectReason::StateOpMismatch {
                            at,
                            why: "key mismatch",
                        });
                    }
                    let TxContentsRef::Get { from } = &entry.contents else {
                        return Err(RejectReason::MalformedAdviceAt {
                            at,
                            what: "GET with non-GET contents",
                        });
                    };
                    match from {
                        None => {
                            payload.push((Arc::clone(&keys.ok), Value::Bool(true)));
                            payload.push((Arc::clone(&keys.found), Value::Bool(false)));
                            payload.push((Arc::clone(&keys.value), Value::Null));
                        }
                        Some(pos) => {
                            let Some(w) = self.advice.tx_entry(pos) else {
                                return Err(RejectReason::MalformedAdviceAt {
                                    at,
                                    what: "dictating write outside any transaction log",
                                });
                            };
                            let TxContentsRef::Put { value } = &w.contents else {
                                return Err(RejectReason::MalformedAdviceAt {
                                    at,
                                    what: "dictating write is not a PUT",
                                });
                            };
                            payload.push((Arc::clone(&keys.ok), Value::Bool(true)));
                            payload.push((Arc::clone(&keys.found), Value::Bool(true)));
                            payload.push((Arc::clone(&keys.value), value.clone()));
                        }
                    }
                }
                TxOpType::Put => {
                    let kv = key_v
                        .as_ref()
                        .ok_or_else(|| internal("PUT re-executed without a key expression"))?;
                    if entry.key != kv.get(i).as_str() {
                        return Err(RejectReason::StateOpMismatch {
                            at,
                            why: "key mismatch",
                        });
                    }
                    let TxContentsRef::Put { value: logged } = &entry.contents else {
                        return Err(RejectReason::MalformedAdviceAt {
                            at,
                            what: "PUT with non-PUT contents",
                        });
                    };
                    // Simulate-and-check for external state: the
                    // re-executed PUT must produce the logged value.
                    let vv = value_v
                        .as_ref()
                        .ok_or_else(|| internal("PUT re-executed without a value expression"))?;
                    if logged != vv.get(i) {
                        return Err(RejectReason::StateOpMismatch {
                            at,
                            why: "logged PUT value differs from re-execution",
                        });
                    }
                    payload.push((Arc::clone(&keys.ok), Value::Bool(true)));
                }
                TxOpType::Commit | TxOpType::Abort => {
                    payload.push((Arc::clone(&keys.ok), Value::Bool(true)));
                }
                TxOpType::Start => {
                    return Err(internal("TxStart routed through exec_tx_op"));
                }
            }
            payloads.push(Value::from_pairs(payload));
        }
        self.enqueue_continuation(g, active, frame, idx, on_done, payloads)
    }

    /// Enqueues the continuation handler of an asynchronous operation.
    fn enqueue_continuation(
        &mut self,
        g: &Group,
        active: &mut VecDeque<(HandlerId, MultiValue)>,
        frame: &Frame<'_>,
        idx: u32,
        on_done: kem::FunctionId,
        payloads: Vec<Value>,
    ) -> Result<(), RejectReason> {
        let hid = HandlerId::child(&frame.hid, on_done, idx);
        for rid in &g.rids {
            if !self.advice.opcounts.contains_key(&(*rid, hid.clone())) {
                return Err(RejectReason::StateOpMismatch {
                    at: OpRef::new(*rid, frame.hid.clone(), idx),
                    why: "continuation handler missing from opcounts",
                });
            }
        }
        active.push_back((hid, MultiValue::from_vec(payloads)));
        Ok(())
    }

    /// `CheckHandlerOp` (Fig. 19 lines 17–23).
    fn check_handler_op(
        &self,
        rid: RequestId,
        hid: &HandlerId,
        idx: u32,
        expected: &ExpectedOp<'_>,
    ) -> Result<(), RejectReason> {
        let op = OpRef::new(rid, hid.clone(), idx);
        match self.pre.op_map.get(&op) {
            Some(OpMapEntry::HandlerLog { index }) => {
                let Some(entry) = self
                    .advice
                    .handler_logs
                    .get(&rid)
                    .and_then(|log| log.get(*index))
                else {
                    return Err(RejectReason::MalformedAdviceAt {
                        at: op,
                        what: "handler log position out of range",
                    });
                };
                if expected.matches(&entry.op) {
                    Ok(())
                } else {
                    Err(RejectReason::HandlerOpMismatch {
                        at: op,
                        why: "logged handler op differs",
                    })
                }
            }
            _ => Err(RejectReason::HandlerOpMismatch {
                at: op,
                why: "not in handler log",
            }),
        }
    }

    fn note_dedup(&mut self, mv: &MultiValue) {
        if mv.is_uniform() {
            self.stats.uniform_ops += 1;
        } else {
            self.stats.expanded_ops += 1;
        }
    }

    fn eval(
        &mut self,
        g: &Group,
        frame: &mut Frame<'_>,
        expr: &RExpr,
    ) -> Result<MultiValue, RejectReason> {
        // One fuel unit per expression node, matching the statement
        // charge in `exec_stmt`: together they meter every step the
        // resolved interpreter takes, independent of thread count.
        self.charge(1)?;
        let wrap = |e: kem::RuntimeError| RejectReason::ReexecError { message: e.message };
        Ok(match expr {
            RExpr::Const(v) => MultiValue::uniform(v.clone()),
            RExpr::Local(slot) => match frame.locals.get(*slot as usize).and_then(Option::as_ref) {
                Some(v) => v.clone(),
                None => {
                    return Err(RejectReason::ReexecError {
                        message: format!("unknown local {}", frame.func.slot_name(*slot)),
                    })
                }
            },
            RExpr::SharedRead { var, loggable } => {
                let var = *var;
                if *loggable {
                    let idx = self.bump(g, frame)?;
                    let advice = self.advice;
                    let log = advice.var_logs.get(&var);
                    let hid = frame.hid.clone();
                    let mv = MultiValue::collect(g.n(), |i| {
                        self.vars
                            .on_read(var, OpRef::new(g.rids[i], hid.clone(), idx), log)
                    })?;
                    self.note_dedup(&mv);
                    mv
                } else {
                    let program = self.program;
                    let init = &program.var(var).init;
                    MultiValue::collect(g.n(), |i| {
                        Ok::<_, RejectReason>(
                            self.nonlog
                                .get(&(var, g.rids[i]))
                                .cloned()
                                .unwrap_or_else(|| init.clone()),
                        )
                    })?
                }
            }
            RExpr::Bin(op, a, b) => {
                // And/Or in the live interpreter are eager, so eager
                // here too keeps operation counts aligned.
                let a = self.eval(g, frame, a)?;
                let b = self.eval(g, frame, b)?;
                let op = *op;
                a.zip(&b, g.n(), |x, y| kem::eval_binop(op, x, y))
                    .map_err(wrap)?
            }
            RExpr::Not(a) => {
                let a = self.eval(g, frame, a)?;
                a.map(|v| Ok::<_, kem::RuntimeError>(Value::Bool(!v.truthy())))
                    .map_err(wrap)?
            }
            RExpr::Field(a, name) => {
                let a = self.eval(g, frame, a)?;
                a.map(|v| Ok::<_, kem::RuntimeError>(v.field(name).cloned().unwrap_or(Value::Null)))
                    .map_err(wrap)?
            }
            RExpr::Index(a, i) => {
                let a = self.eval(g, frame, a)?;
                let i = self.eval(g, frame, i)?;
                a.zip(&i, g.n(), kem::eval_index).map_err(wrap)?
            }
            RExpr::Len(a) => {
                let a = self.eval(g, frame, a)?;
                a.map(kem::eval_len).map_err(wrap)?
            }
            RExpr::Contains(a, b) => {
                let a = self.eval(g, frame, a)?;
                let b = self.eval(g, frame, b)?;
                a.zip(&b, g.n(), kem::eval_contains).map_err(wrap)?
            }
            RExpr::ListLit(items) => {
                let evaluated: Vec<MultiValue> = items
                    .iter()
                    .map(|e| self.eval(g, frame, e))
                    .collect::<Result<_, _>>()?;
                if evaluated.iter().all(MultiValue::is_uniform) {
                    MultiValue::uniform(Value::from_vec(
                        evaluated.iter().map(|m| m.get(0).clone()).collect(),
                    ))
                } else {
                    MultiValue::from_vec(
                        (0..g.n())
                            .map(|i| {
                                Value::from_vec(
                                    evaluated.iter().map(|m| m.get(i).clone()).collect(),
                                )
                            })
                            .collect(),
                    )
                }
            }
            RExpr::MapLit(pairs) => {
                let mut evaluated = Vec::with_capacity(pairs.len());
                for (k, e) in pairs {
                    evaluated.push((k.clone(), self.eval(g, frame, e)?));
                }
                if evaluated.iter().all(|(_, m)| m.is_uniform()) {
                    MultiValue::uniform(kem::Value::from_pairs(
                        evaluated.iter().map(|(k, m)| (k.clone(), m.get(0).clone())),
                    ))
                } else {
                    MultiValue::from_vec(
                        (0..g.n())
                            .map(|i| {
                                kem::Value::from_pairs(
                                    evaluated.iter().map(|(k, m)| (k.clone(), m.get(i).clone())),
                                )
                            })
                            .collect(),
                    )
                }
            }
            RExpr::MapInsert(m, k, v) => {
                let m = self.eval(g, frame, m)?;
                let k = self.eval(g, frame, k)?;
                let v = self.eval(g, frame, v)?;
                if m.is_uniform() && k.is_uniform() && v.is_uniform() {
                    MultiValue::uniform(
                        kem::eval_map_insert(m.get(0), k.get(0), v.get(0)).map_err(wrap)?,
                    )
                } else {
                    MultiValue::from_vec(
                        (0..g.n())
                            .map(|i| kem::eval_map_insert(m.get(i), k.get(i), v.get(i)))
                            .collect::<Result<_, _>>()
                            .map_err(wrap)?,
                    )
                }
            }
            RExpr::MapRemove(m, k) => {
                let m = self.eval(g, frame, m)?;
                let k = self.eval(g, frame, k)?;
                m.zip(&k, g.n(), kem::eval_map_remove).map_err(wrap)?
            }
            RExpr::ListPush(l, v) => {
                let l = self.eval(g, frame, l)?;
                let v = self.eval(g, frame, v)?;
                l.zip(&v, g.n(), kem::eval_list_push).map_err(wrap)?
            }
            RExpr::Keys(m) => {
                let m = self.eval(g, frame, m)?;
                m.map(kem::eval_keys).map_err(wrap)?
            }
            RExpr::Digest(e) => {
                let v = self.eval(g, frame, e)?;
                v.map(|x| Ok::<_, kem::RuntimeError>(kem::eval_digest(x)))
                    .map_err(wrap)?
            }
            RExpr::ToStr(e) => {
                let v = self.eval(g, frame, e)?;
                v.map(|x| Ok::<_, kem::RuntimeError>(kem::eval_to_str(x)))
                    .map_err(wrap)?
            }
        })
    }
}

/// Applies one group's recorded unit to the global merge state, in the
/// shared serial order: replay the event stream through the global
/// variable states (running the cross-group checks at the same event
/// position the sequential audit would), absorb the worker's telemetry
/// shard, surface the group's own error, then fold its statistics and
/// coverage sets. Inline and worker-replayed units alike pass through
/// this one function in ascending group order, so the outcome cannot
/// depend on the worker count.
#[allow(clippy::too_many_arguments)]
fn merge_unit(
    global: &mut VarStates,
    advice: &AdviceRef<'_>,
    obs_handle: &Obs,
    stats: &mut ReexecStats,
    executed: &mut HashSet<(RequestId, HandlerId)>,
    consumed: &mut HashSet<OpRef>,
    outputs: &mut HashMap<RequestId, Value>,
    quarantine: &mut Quarantine,
    unit: GroupRun,
) -> Result<(), RejectReason> {
    // A quarantined group contributes telemetry only: its events,
    // stats, and coverage are discarded (they describe an aborted
    // replay), and the merge moves on so the remaining groups still
    // produce verdicts. The recorded verdict surfaces from
    // `Quarantine::finish` after the merge loop.
    if unit.error.as_ref().is_some_and(RejectReason::quarantines) {
        obs_handle.absorb(unit.obs);
        quarantine.groups += 1;
        if unit.panicked {
            quarantine.panics += 1;
        }
        if quarantine.first.is_none() {
            quarantine.first = unit.error;
        }
        return Ok(());
    }
    for ev in &unit.events {
        match ev {
            VarEvent::Read { var, op } => {
                if let Err(e) = global.on_read(*var, op.clone(), advice.var_logs.get(var)) {
                    return Err(quarantine.resolve(e));
                }
            }
            VarEvent::Write { var, op, value } => {
                if let Err(e) =
                    global.on_write(*var, op.clone(), value.clone(), advice.var_logs.get(var))
                {
                    return Err(quarantine.resolve(e));
                }
            }
        }
    }
    // Absorbed before the error check so a failing group's replay span
    // still appears in the exported trace.
    obs_handle.absorb(unit.obs);
    if let Some(e) = unit.error {
        return Err(quarantine.resolve(e));
    }
    stats.absorb(&unit.stats);
    executed.extend(unit.executed);
    consumed.extend(unit.consumed);
    outputs.extend(unit.outputs);
    Ok(())
}

/// The whole-audit checks after every group replayed (Fig. 18 lines
/// 62–64).
fn final_checks(
    trace: &Trace,
    advice: &AdviceRef<'_>,
    pre: &Preprocessed,
    order: &[RequestId],
    executed: &HashSet<(RequestId, HandlerId)>,
    consumed: &HashSet<OpRef>,
    outputs: &HashMap<RequestId, Value>,
) -> Result<(), RejectReason> {
    // (3): outputs must match the trace exactly.
    for rid in order {
        let Some(expected) = trace.output_of(*rid) else {
            return Err(RejectReason::UnbalancedTrace);
        };
        match outputs.get(rid) {
            Some(got) if got == expected => {}
            _ => return Err(RejectReason::OutputMismatch { rid: *rid }),
        }
    }
    // Line 64: no advice handlers that we did not execute.
    for (rid, hid) in advice.opcounts.keys() {
        if !executed.contains(&(*rid, hid.clone())) {
            return Err(RejectReason::HandlerNotExecuted { rid: *rid });
        }
    }
    // Every logged handler/state operation must have been produced
    // (and consumed) by re-execution — otherwise fabricated
    // transactions or handler ops could squat on coordinates that
    // re-execution occupies with variable accesses, which never
    // consult the OpMap. The OpMap iterates in hash order, so report
    // the smallest uncovered coordinate to keep the rejection
    // deterministic.
    let mut uncovered: Option<&OpRef> = None;
    for op in pre.op_map.keys() {
        if !consumed.contains(op) && uncovered.is_none_or(|m| op < m) {
            uncovered = Some(op);
        }
    }
    if let Some(op) = uncovered {
        return Err(RejectReason::UnexecutedLogEntry { at: op.clone() });
    }
    Ok(())
}
