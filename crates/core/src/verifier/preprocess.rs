//! The verifier's `Preprocess` phase (Fig. 14 lines 18–27).
//!
//! Builds the execution graph `G` with time-precedence, program,
//! boundary, activation, handler-log, and external-state edges; builds
//! the `OpMap` and `activatedHandlers` structures consumed by
//! re-execution; classifies committed transactions; and runs isolation
//! verification on the alleged transactional history.
//!
//! # Sharded execution
//!
//! Every section after the trace scan is *per-request decomposable*:
//! each advice map is keyed by (or contains) the request id, and every
//! `OpRef` a request's logs insert into the `OpMap` carries that same
//! request id, so no two requests can collide there. [`preprocess_staged`]
//! exploits this: requests are sharded over a scoped worker pool, each
//! shard runs the six advice-driven sections for its request in serial
//! section order, and the coordinator merges deterministically —
//!
//! * **errors** by the lexicographic minimum of `(section, position)`,
//!   where position is the request's rank in the section's serial
//!   iteration order (ascending request id, except the
//!   boundary-response section which follows trace order), so the
//!   winning [`RejectReason`] is exactly the serial first error;
//! * **edges** as per-shard fragments concatenated section-major in
//!   those same orders, so nodes intern into `G` in the exact sequence
//!   a serial walk produces (the cycle-check visit count is
//!   insertion-order dependent and must stay bit-identical).
//!
//! The edge fragments are returned as [`DeferredEdges`] rather than
//! merged eagerly, which lets the audit overlap the merge with group
//! replay; [`preprocess`] is the merge-immediately wrapper.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use kem::{HandlerId, OpRef, Program, RequestId, Trace, TraceEvent};

use crate::advice::{KTxId, TxOpType, TxPos};
use crate::advice_ref::{AdviceRef, TxContentsRef, TxEntryRef};
use crate::verifier::graph::{EdgeKind, GNode, Graph, HPos};
use crate::verifier::isolation::verify_isolation;
use crate::verifier::reject::RejectReason;
use crate::wire::{HandlerLogEntryView, HandlerOpView};

/// Where a re-executed operation's log entry lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpMapEntry {
    /// In the request's handler log, at `index`.
    HandlerLog {
        /// Position in the handler log.
        index: usize,
    },
    /// In a transaction log, at `index`.
    TxLog {
        /// The transaction.
        tx: KTxId,
        /// Position in the transaction log (= `txnum`).
        index: usize,
    },
}

/// Everything `Preprocess` hands to re-execution and postprocessing.
#[derive(Debug)]
pub struct Preprocessed {
    /// The execution graph `G` (so far).
    pub graph: Graph,
    /// Coordinate → log-entry location.
    pub op_map: HashMap<OpRef, OpMapEntry>,
    /// Emit coordinate → handlers it allegedly activates.
    pub activated: HashMap<OpRef, Vec<HandlerId>>,
    /// Check-operation coordinate → listener count implied by the
    /// handler log's registration history at that point.
    pub check_counts: HashMap<OpRef, i64>,
    /// Allegedly committed transactions.
    pub committed: HashSet<KTxId>,
}

/// One edge awaiting insertion into `G`.
type PendingEdge = (GNode, GNode, EdgeKind);

/// Preprocess edge fragments not yet merged into `G`, stored in the
/// exact order a serial [`preprocess`] would have inserted them.
/// [`DeferredEdges::merge_into`] replays them; deferring the replay is
/// what lets the audit overlap it with group replay (the
/// re-executor reads `op_map`/`activated`/`check_counts`, never the
/// graph, so the merge is safe to run concurrently with replay).
#[derive(Debug, Default)]
pub struct DeferredEdges {
    batches: Vec<Vec<PendingEdge>>,
}

impl DeferredEdges {
    /// Total deferred edges.
    pub fn edge_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Inserts every deferred edge into `g`, in serial preprocess
    /// order, with capacity reserved up front (each edge introduces at
    /// most two new nodes). Idempotent: batches are drained.
    pub fn merge_into(&mut self, g: &mut Graph) {
        let total = self.edge_count();
        g.reserve(total.saturating_mul(2), total);
        for batch in self.batches.drain(..) {
            for (from, to, kind) in batch {
                g.add_edge(from, to, kind);
            }
        }
    }
}

/// Output of [`preprocess_staged`]: the preprocessed structures (with
/// `G` holding only the trace's time-precedence edges) plus the
/// deferred advice-driven edge fragments.
#[derive(Debug)]
pub struct PreStaged {
    /// The preprocessed structures.
    pub pre: Preprocessed,
    /// Edge fragments to merge into `pre.graph` (eagerly, or overlapped
    /// with group replay by the audit).
    pub deferred: DeferredEdges,
}

/// Runs `Preprocess`. `isolation` is the level the store is deployed at
/// (known to the principal).
pub fn preprocess<'a>(
    program: &Program,
    trace: &Trace,
    advice: &'a AdviceRef<'a>,
    isolation: kvstore::IsolationLevel,
) -> Result<Preprocessed, RejectReason> {
    let mut staged = preprocess_staged(program, trace, advice, isolation, 1)?;
    staged.deferred.merge_into(&mut staged.pre.graph);
    Ok(staged.pre)
}

/// Advice-driven sections, in serial execution order. The
/// boundary-response section is the only one whose serial iteration
/// follows trace order instead of ascending request id.
const SEC_PROGRAM: usize = 0;
const SEC_BOUNDARY_ROOT: usize = 1;
const SEC_BOUNDARY_RESPONSE: usize = 2;
const SEC_ACTIVATION: usize = 3;
const SEC_HANDLER: usize = 4;
const SEC_EXTERNAL: usize = 5;
const SECTIONS: usize = 6;

/// Everything one request's shard reads: borrowed slices of the advice
/// maps, grouped by request id on the coordinator (cheap ascending
/// walks over the sorted maps, no per-entry checks). `'x` is the advice
/// storage — ultimately the wire bytes on the borrowed path.
struct RidWork<'x> {
    rid: RequestId,
    in_trace: bool,
    /// Rank in trace order, for the boundary-response section.
    trace_pos: Option<usize>,
    /// This request's `(hid, count)` entries, ascending `hid`.
    opcounts: Vec<(&'x HandlerId, u32)>,
    handler_log: Option<&'x [HandlerLogEntryView<'x>]>,
    /// This request's transactions, ascending `KTxId`.
    tx_logs: Vec<(&'x KTxId, &'x [TxEntryRef<'x>])>,
}

/// One request's preprocess output: per-section edge fragments, local
/// map fragments, and the first error (tagged with its section).
#[derive(Default)]
struct RidShard<'x> {
    edges: [Vec<PendingEdge>; SECTIONS],
    op_map: HashMap<OpRef, OpMapEntry>,
    activated: Vec<(OpRef, Vec<HandlerId>)>,
    check_counts: Vec<(OpRef, i64)>,
    committed: Vec<KTxId>,
    /// Keys borrow the advice bytes: no per-PUT `String` copies.
    last_modification: Vec<((KTxId, &'x str), u32)>,
    err: Option<(usize, RejectReason)>,
}

/// [`preprocess`] with the advice-driven sections sharded per request
/// over `threads` workers and the edge merge deferred (see the module
/// docs for the determinism argument).
pub fn preprocess_staged<'a>(
    program: &Program,
    trace: &Trace,
    advice: &'a AdviceRef<'a>,
    isolation: kvstore::IsolationLevel,
    threads: usize,
) -> Result<PreStaged, RejectReason> {
    if !trace.is_balanced() {
        return Err(RejectReason::UnbalancedTrace);
    }
    let trace_order = trace.request_ids();
    let trace_rids: HashSet<RequestId> = trace_order.iter().copied().collect();

    // Time precedence stays on the coordinator: it is a single cheap
    // chronological chain over the trusted trace.
    let mut graph = Graph::new();
    add_time_precedence_edges(&mut graph, trace);

    // Shard universe: every request the advice mentions plus every
    // request the trace contains, ascending.
    let mut rid_set: BTreeSet<RequestId> = BTreeSet::new();
    rid_set.extend(advice.opcounts.keys().map(|(r, _)| *r));
    rid_set.extend(advice.handler_logs.keys().copied());
    rid_set.extend(advice.tx_logs.keys().map(|t| t.rid));
    rid_set.extend(trace_order.iter().copied());

    let trace_pos: HashMap<RequestId, usize> = trace_order
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, i))
        .collect();

    let mut work: Vec<RidWork<'_>> = rid_set
        .iter()
        .map(|&rid| RidWork {
            rid,
            in_trace: trace_rids.contains(&rid),
            trace_pos: trace_pos.get(&rid).copied(),
            opcounts: Vec::new(),
            handler_log: None,
            tx_logs: Vec::new(),
        })
        .collect();
    let index: HashMap<RequestId, usize> =
        work.iter().enumerate().map(|(i, w)| (w.rid, i)).collect();
    for ((rid, hid), count) in &advice.opcounts {
        if let Some(&i) = index.get(rid) {
            work[i].opcounts.push((hid, *count));
        }
    }
    for (rid, log) in &advice.handler_logs {
        if let Some(&i) = index.get(rid) {
            work[i].handler_log = Some(log.as_ref());
        }
    }
    for (tx, log) in &advice.tx_logs {
        if let Some(&i) = index.get(&tx.rid) {
            work[i].tx_logs.push((tx, log.as_slice()));
        }
    }

    // Global registrations never change during a run; index them by
    // event once, shared read-only by every shard.
    let mut global_by_event: HashMap<&str, Vec<kem::FunctionId>> = HashMap::new();
    for (e, f) in &program.global_registrations {
        global_by_event
            .entry(e.as_str())
            .or_default()
            .push(kem::FunctionId(*f));
    }

    let nshards = work.len();
    let mut shards: Vec<RidShard<'a>> = if threads <= 1 || nshards <= 1 {
        work.iter()
            .map(|w| run_rid_shard(&global_by_event, advice, w))
            .collect()
    } else {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let next = AtomicUsize::new(0);
        let work_ref = &work;
        let global_ref = &global_by_event;
        let mut slots: Vec<Option<RidShard<'a>>> = Vec::new();
        slots.resize_with(nshards, || None);
        let workers = threads.min(nshards);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut done: Vec<(usize, RidShard)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= nshards {
                                break;
                            }
                            done.push((i, run_rid_shard(global_ref, advice, &work_ref[i])));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(done) => {
                        for (i, shard) in done {
                            slots[i] = Some(shard);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        let mut out = Vec::with_capacity(nshards);
        for slot in slots {
            match slot {
                Some(shard) => out.push(shard),
                None => {
                    return Err(RejectReason::VerifierInternal {
                        what: "preprocess shard missing after sharded run".into(),
                    })
                }
            }
        }
        out
    };

    // First error in serial order: lexicographic minimum of
    // (section, position). Position is the shard's rank in ascending
    // request order for every section except boundary-response, whose
    // serial iteration is trace order.
    let mut best: Option<((usize, usize), RejectReason)> = None;
    for (i, shard) in shards.iter().enumerate() {
        if let Some((section, reason)) = &shard.err {
            let pos = if *section == SEC_BOUNDARY_RESPONSE {
                work[i].trace_pos.unwrap_or(i)
            } else {
                i
            };
            let key = (*section, pos);
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, reason.clone()));
            }
        }
    }
    if let Some((_, reason)) = best {
        return Err(reason);
    }

    // Map merges: per-request key spaces are disjoint (every key
    // carries its request id), so plain extends reproduce the serial
    // maps exactly.
    let mut op_map: HashMap<OpRef, OpMapEntry> =
        HashMap::with_capacity(shards.iter().map(|s| s.op_map.len()).sum());
    let mut activated: HashMap<OpRef, Vec<HandlerId>> = HashMap::new();
    let mut check_counts: HashMap<OpRef, i64> = HashMap::new();
    let mut committed: HashSet<KTxId> = HashSet::new();
    let mut last_modification: HashMap<(KTxId, &'a str), u32> = HashMap::new();
    for shard in &mut shards {
        op_map.extend(shard.op_map.drain());
        activated.extend(shard.activated.drain(..));
        check_counts.extend(shard.check_counts.drain(..));
        committed.extend(shard.committed.drain(..));
        last_modification.extend(shard.last_modification.drain(..));
    }

    // Edge fragments, section-major in each section's serial order.
    let mut batches: Vec<Vec<PendingEdge>> = Vec::with_capacity(SECTIONS * nshards);
    for sec in 0..SECTIONS {
        if sec == SEC_BOUNDARY_RESPONSE {
            for rid in &trace_order {
                if let Some(&i) = index.get(rid) {
                    batches.push(std::mem::take(&mut shards[i].edges[sec]));
                }
            }
        } else {
            for shard in &mut shards {
                batches.push(std::mem::take(&mut shard.edges[sec]));
            }
        }
    }

    verify_isolation(advice, &committed, &last_modification, isolation)?;

    Ok(PreStaged {
        pre: Preprocessed {
            graph,
            op_map,
            activated,
            check_counts,
            committed,
        },
        deferred: DeferredEdges { batches },
    })
}

/// Runs every advice-driven section for one request, in serial section
/// order, stopping at the first error. Within a shard the first error
/// found is its `(section, position)` minimum, because sections run in
/// ascending order and the position (this request's rank) is fixed.
fn run_rid_shard<'a>(
    global_by_event: &HashMap<&str, Vec<kem::FunctionId>>,
    advice: &AdviceRef<'a>,
    work: &RidWork<'a>,
) -> RidShard<'a> {
    let mut shard = RidShard::default();
    // Pre-size the hot fragments from the work item — the op counts
    // fix every section's edge count up front, so each container does
    // one exact allocation instead of doubling its way up. The
    // remaining containers see at most a handful of pushes per
    // request; their lazy first allocation is already the minimum.
    let total_ops: usize = work.opcounts.iter().map(|(_, c)| *c as usize).sum();
    let log_len = work.handler_log.map_or(0, <[_]>::len);
    let tx_entries: usize = work.tx_logs.iter().map(|(_, log)| log.len()).sum();
    shard.edges[SEC_PROGRAM].reserve_exact(total_ops + work.opcounts.len());
    if log_len > 1 {
        shard.edges[SEC_HANDLER].reserve_exact(log_len - 1);
    }
    shard.edges[SEC_EXTERNAL].reserve_exact(tx_entries);
    shard.op_map.reserve(log_len + tx_entries);
    let result = (|| -> Result<(), (usize, RejectReason)> {
        section_program(&mut shard, work).map_err(|e| (SEC_PROGRAM, e))?;
        section_boundary_roots(&mut shard, work);
        section_boundary_response(&mut shard, advice, work)
            .map_err(|e| (SEC_BOUNDARY_RESPONSE, e))?;
        section_activation(&mut shard, advice, work).map_err(|e| (SEC_ACTIVATION, e))?;
        section_handler(&mut shard, global_by_event, advice, work).map_err(|e| (SEC_HANDLER, e))?;
        section_external(&mut shard, advice, work).map_err(|e| (SEC_EXTERNAL, e))?;
        Ok(())
    })();
    if let Err(e) = result {
        shard.err = Some(e);
    }
    shard
}

/// Time precedence: the trusted trace is a chronological record of the
/// boundary events, so chain them in order. This subsumes the
/// `CreateTimePrecedenceGraph`/`SplitNodes` edges of Orochi (every
/// "response before request" pair is connected transitively).
fn add_time_precedence_edges(graph: &mut Graph, trace: &Trace) {
    let mut prev: Option<GNode> = None;
    for ev in trace.events() {
        let node = match ev {
            TraceEvent::Request { rid, .. } => GNode::ReqStart(*rid),
            TraceEvent::Response { rid, .. } => GNode::ReqEnd(*rid),
        };
        graph.add_node(node.clone());
        if let Some(p) = prev {
            graph.add_edge(p, node.clone(), EdgeKind::Time);
        }
        prev = Some(node);
    }
}

/// `AddProgramEdges` (Fig. 14 lines 33–44), for one request.
fn section_program(shard: &mut RidShard<'_>, work: &RidWork<'_>) -> Result<(), RejectReason> {
    let rid = work.rid;
    for (hid, count) in &work.opcounts {
        if !work.in_trace {
            return Err(RejectReason::UnknownRequest { rid });
        }
        let mut prev = GNode::Handler {
            rid,
            hid: (*hid).clone(),
            pos: HPos::Start,
        };
        for i in 1..=*count {
            let node = GNode::Handler {
                rid,
                hid: (*hid).clone(),
                pos: HPos::Op(i),
            };
            shard.edges[SEC_PROGRAM].push((prev, node.clone(), EdgeKind::Program));
            prev = node;
        }
        shard.edges[SEC_PROGRAM].push((
            prev,
            GNode::Handler {
                rid,
                hid: (*hid).clone(),
                pos: HPos::End,
            },
            EdgeKind::Program,
        ));
    }
    Ok(())
}

/// `AddBoundaryEdges` (Fig. 15), arrival half: request arrival precedes
/// every root handler's start. No errors.
fn section_boundary_roots(shard: &mut RidShard<'_>, work: &RidWork<'_>) {
    let rid = work.rid;
    for (hid, _) in &work.opcounts {
        if hid.parent().is_none() {
            shard.edges[SEC_BOUNDARY_ROOT].push((
                GNode::ReqStart(rid),
                GNode::Handler {
                    rid,
                    hid: (*hid).clone(),
                    pos: HPos::Start,
                },
                EdgeKind::Boundary,
            ));
        }
    }
}

/// `AddBoundaryEdges` (Fig. 15), response half: the alleged emitting
/// operation precedes response delivery, which precedes the rest of the
/// emitter. Serial iteration is trace order, which the coordinator's
/// merge reproduces via `trace_pos`.
fn section_boundary_response(
    shard: &mut RidShard<'_>,
    advice: &AdviceRef<'_>,
    work: &RidWork<'_>,
) -> Result<(), RejectReason> {
    if work.trace_pos.is_none() {
        return Ok(());
    }
    let rid = work.rid;
    let Some((hid_r, opnum_r)) = advice.response_emitted_by.get(&rid) else {
        return Err(RejectReason::BadResponseEmitter {
            rid,
            why: "missing",
        });
    };
    let Some(count) = advice.opcounts.get(&(rid, hid_r.clone())) else {
        return Err(RejectReason::BadResponseEmitter {
            rid,
            why: "emitter not in opcounts",
        });
    };
    if *opnum_r > *count {
        return Err(RejectReason::BadResponseEmitter {
            rid,
            why: "opnum out of range",
        });
    }
    shard.edges[SEC_BOUNDARY_RESPONSE].push((
        GNode::op(rid, hid_r.clone(), *opnum_r),
        GNode::ReqEnd(rid),
        EdgeKind::Boundary,
    ));
    let after = if *opnum_r == *count {
        GNode::Handler {
            rid,
            hid: hid_r.clone(),
            pos: HPos::End,
        }
    } else {
        GNode::op(rid, hid_r.clone(), *opnum_r + 1)
    };
    shard.edges[SEC_BOUNDARY_RESPONSE].push((GNode::ReqEnd(rid), after, EdgeKind::Boundary));
    Ok(())
}

/// Activation edges for every reported handler: the handler id encodes
/// its activator structurally (function, parent, activating opnum), so
/// the edge `(rid, parent, opnum) → (rid, hid, 0)` can be added for all
/// handlers uniformly — emits get their extra registration discipline
/// checks in [`section_handler`], and database-completion activations
/// are validated by re-execution itself.
fn section_activation(
    shard: &mut RidShard<'_>,
    advice: &AdviceRef<'_>,
    work: &RidWork<'_>,
) -> Result<(), RejectReason> {
    let rid = work.rid;
    for (hid, _) in &work.opcounts {
        let Some(parent) = hid.parent() else { continue };
        let Some(parent_count) = advice.opcounts.get(&(rid, parent.clone())) else {
            return Err(RejectReason::BadActivationParent { rid });
        };
        if hid.opnum() == 0 || hid.opnum() > *parent_count {
            return Err(RejectReason::BadActivationParent { rid });
        }
        shard.edges[SEC_ACTIVATION].push((
            GNode::op(rid, parent.clone(), hid.opnum()),
            GNode::Handler {
                rid,
                hid: (*hid).clone(),
                pos: HPos::Start,
            },
            EdgeKind::Activation,
        ));
    }
    Ok(())
}

/// `CheckOpIsValid` (Fig. 16 lines 58–61). The duplicate check runs
/// against the shard's local `OpMap` fragment — equivalent to the
/// serial global check because every `OpRef` a request's logs insert
/// carries that request's id, and within a request the shard preserves
/// the serial handler-log-before-tx-log insertion order.
fn check_op_is_valid(
    advice: &AdviceRef<'_>,
    op_map: &HashMap<OpRef, OpMapEntry>,
    op: &OpRef,
) -> Result<(), RejectReason> {
    let Some(count) = advice.opcounts.get(&(op.rid, op.hid.clone())) else {
        return Err(RejectReason::InvalidLogOp {
            at: op.clone(),
            why: "handler not in opcounts",
        });
    };
    if op.opnum < 1 || op.opnum > *count {
        return Err(RejectReason::InvalidLogOp {
            at: op.clone(),
            why: "opnum out of range",
        });
    }
    if op_map.contains_key(op) {
        return Err(RejectReason::InvalidLogOp {
            at: op.clone(),
            why: "duplicate log entry",
        });
    }
    Ok(())
}

/// Range-only validity for *referenced* operations (dictating writes):
/// they must exist within a reported handler but have already been (or
/// will be) mapped by their own log.
fn check_op_in_range(advice: &AdviceRef<'_>, op: &OpRef) -> Result<(), RejectReason> {
    let Some(count) = advice.opcounts.get(&(op.rid, op.hid.clone())) else {
        return Err(RejectReason::InvalidLogOp {
            at: op.clone(),
            why: "handler not in opcounts",
        });
    };
    if op.opnum < 1 || op.opnum > *count {
        return Err(RejectReason::InvalidLogOp {
            at: op.clone(),
            why: "opnum out of range",
        });
    }
    Ok(())
}

/// `AddHandlerRelatedEdges` (Fig. 16 lines 3–28), for one request.
fn section_handler(
    shard: &mut RidShard<'_>,
    global_by_event: &HashMap<&str, Vec<kem::FunctionId>>,
    advice: &AdviceRef<'_>,
    work: &RidWork<'_>,
) -> Result<(), RejectReason> {
    let Some(log) = work.handler_log else {
        return Ok(());
    };
    let rid = work.rid;
    if !work.in_trace {
        return Err(RejectReason::UnknownRequest { rid });
    }
    // Event names stay borrowed from the advice bytes: the registration
    // scan allocates nothing per entry.
    let mut registered: Vec<(&str, kem::FunctionId)> = Vec::new();
    let mut prev: Option<OpRef> = None;
    for (i, entry) in log.iter().enumerate() {
        let op = OpRef::new(rid, entry.hid.clone(), entry.opnum);
        check_op_is_valid(advice, &shard.op_map, &op)?;
        shard
            .op_map
            .insert(op.clone(), OpMapEntry::HandlerLog { index: i });
        if let Some(p) = prev {
            shard.edges[SEC_HANDLER].push((
                GNode::op(p.rid, p.hid, p.opnum),
                GNode::op(op.rid, op.hid.clone(), op.opnum),
                EdgeKind::HandlerLog,
            ));
        }
        prev = Some(op.clone());
        match entry.op {
            HandlerOpView::Register { event, function } => {
                registered.push((event, function));
            }
            HandlerOpView::Unregister { event, function } => {
                registered.retain(|(e, f)| !(*e == event && *f == function));
            }
            HandlerOpView::Emit { event } => {
                // All functions registered for the event at this
                // point: global registrations first, then the
                // request's own, in registration order.
                let globals = global_by_event.get(event).map(Vec::as_slice).unwrap_or(&[]);
                let mut fns: Vec<kem::FunctionId> = globals.to_vec();
                fns.extend(
                    registered
                        .iter()
                        .filter(|(e, _)| *e == event)
                        .map(|(_, f)| *f),
                );
                let mut hids = Vec::with_capacity(fns.len());
                for f in fns {
                    let hid = HandlerId::child(&entry.hid, f, entry.opnum);
                    if !advice.opcounts.contains_key(&(rid, hid.clone())) {
                        return Err(RejectReason::MissingActivatedHandler { rid });
                    }
                    hids.push(hid);
                }
                shard.activated.push((op, hids));
            }
            HandlerOpView::Check { event } => {
                // The count a check op observes: global
                // registrations plus this request's live ones for
                // the event, at this point in the handler log.
                let count = global_by_event.get(event).map_or(0, Vec::len)
                    + registered.iter().filter(|(e, _)| *e == event).count();
                shard.check_counts.push((op, count as i64));
            }
        }
    }
    Ok(())
}

/// `AddExternalStateEdges` (Fig. 16 lines 30–56), for one request's
/// transactions (ascending `KTxId`), recording the committed set and
/// `lastModification` entries.
fn section_external<'a>(
    shard: &mut RidShard<'a>,
    advice: &AdviceRef<'a>,
    work: &RidWork<'a>,
) -> Result<(), RejectReason> {
    for (tx, log) in &work.tx_logs {
        let tx = *tx;
        if !work.in_trace {
            return Err(RejectReason::UnknownRequest { rid: tx.rid });
        }
        let Some(first) = log.first() else {
            return Err(RejectReason::TxLogMalformed {
                tx: tx.clone(),
                why: "empty log",
            });
        };
        if first.optype != TxOpType::Start || first.hid != tx.hid || first.opnum != tx.opnum {
            return Err(RejectReason::TxLogMalformed {
                tx: tx.clone(),
                why: "first entry is not the tx_start",
            });
        }
        let is_committed = log.last().is_some_and(|e| e.optype == TxOpType::Commit);
        if is_committed {
            shard.committed.push(tx.clone());
        }

        let mut my_writes: BTreeMap<&str, u32> = BTreeMap::new();
        for (i, entry) in log.iter().enumerate() {
            if i > 0 && entry.optype == TxOpType::Start {
                return Err(RejectReason::TxLogMalformed {
                    tx: tx.clone(),
                    why: "tx_start after the first entry",
                });
            }
            if i + 1 < log.len() && matches!(entry.optype, TxOpType::Commit | TxOpType::Abort) {
                return Err(RejectReason::TxLogMalformed {
                    tx: tx.clone(),
                    why: "operations after commit/abort",
                });
            }
            let op = OpRef::new(tx.rid, entry.hid.clone(), entry.opnum);
            check_op_is_valid(advice, &shard.op_map, &op)?;
            shard.op_map.insert(
                op.clone(),
                OpMapEntry::TxLog {
                    tx: tx.clone(),
                    index: i,
                },
            );

            match entry.optype {
                TxOpType::Get => {
                    let Some(key) = entry.key else {
                        return Err(RejectReason::TxLogMalformed {
                            tx: tx.clone(),
                            why: "GET without key",
                        });
                    };
                    let TxContentsRef::Get { from } = &entry.contents else {
                        return Err(RejectReason::TxLogMalformed {
                            tx: tx.clone(),
                            why: "GET with non-GET contents",
                        });
                    };
                    if let Some(pos) = from {
                        let Some(opw) = advice.tx_entry(pos) else {
                            return Err(RejectReason::BadDictatingWrite { at: op });
                        };
                        if opw.optype != TxOpType::Put || opw.key != Some(key) {
                            return Err(RejectReason::BadDictatingWrite { at: op });
                        }
                        let w_op = OpRef::new(pos.tx.rid, opw.hid.clone(), opw.opnum);
                        check_op_in_range(advice, &w_op)?;
                        // Write-read edge: PUT → GET (§4.4; only WR, not
                        // WW/RW, for external state — see footnote 3).
                        shard.edges[SEC_EXTERNAL].push((
                            GNode::op(w_op.rid, w_op.hid, w_op.opnum),
                            GNode::op(op.rid, op.hid.clone(), op.opnum),
                            EdgeKind::ExternalWr,
                        ));
                    }
                    // Transactions observe their own writes.
                    if let Some(&w_idx) = my_writes.get(key) {
                        let expected = Some(TxPos {
                            tx: tx.clone(),
                            index: w_idx,
                        });
                        if *from != expected {
                            return Err(RejectReason::SelfReadNotLastModification { at: op });
                        }
                    } else if let Some(pos) = from {
                        if pos.tx == *tx {
                            return Err(RejectReason::SelfReadNotLastModification { at: op });
                        }
                    }
                }
                TxOpType::Put => {
                    let Some(key) = entry.key else {
                        return Err(RejectReason::TxLogMalformed {
                            tx: tx.clone(),
                            why: "PUT without key",
                        });
                    };
                    if !matches!(entry.contents, TxContentsRef::Put { .. }) {
                        return Err(RejectReason::TxLogMalformed {
                            tx: tx.clone(),
                            why: "PUT with non-PUT contents",
                        });
                    }
                    my_writes.insert(key, i as u32);
                    if is_committed {
                        shard.last_modification.push(((tx.clone(), key), i as u32));
                    }
                }
                TxOpType::Start | TxOpType::Commit | TxOpType::Abort => {
                    if !matches!(entry.contents, TxContentsRef::None) {
                        return Err(RejectReason::TxLogMalformed {
                            tx: tx.clone(),
                            why: "control entry with contents",
                        });
                    }
                }
            }
        }
    }
    Ok(())
}
