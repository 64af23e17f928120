//! The traced pass: the audit and the serve split into their layers.
//!
//! Each layer's public function is called here, from outside the
//! crates, in the order the verifier's own audit calls them, and timed
//! as one span. Spans stay in memory and are written out when the run
//! ends. End-to-end metrics never come from this pass.

use std::io::Write;
use std::time::Instant;

use karousos::verifier::{
    init_vars, preprocess_staged, FeedCounters, PreStaged, ReExecutor, ReexecStats, VarStates,
};
use karousos::{
    advice_sizes, decode_advice_view_bounded, encode_advice, AdviceRef, AdviceSizes, AuditOptions,
    Collector, CollectorCounters, CollectorMode,
};
use kem::{NoopHooks, ValueInterner};

use crate::alloc::{self, Usage};
use crate::workloads::Setup;

/// One span: a layer call, with the span that enclosed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Timed iteration the span belongs to.
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds since the tracer's epoch; `Copy`, so a closure handed to
/// the code under test can read the clock without borrowing the tracer.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

pub struct Tracer {
    clock: Clock,
    pub iter: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            clock: Clock(Instant::now()),
            iter: 0,
            spans: Vec::new(),
        }
    }

    /// Makes room for one traced call's spans, so that recording them
    /// allocates nothing inside the measured regions.
    pub fn reserve(&mut self) {
        self.spans.reserve(16);
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            iter: self.iter,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as a top-level span and returns its result and its
    /// wall time in seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.clock.now();
        let out = f();
        let end = self.clock.now();
        self.record(name, None, start, end);
        (out, (end - start) as f64 / 1e9)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.clock.now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.clock.now();
    }

    pub fn span(&self, span: usize) -> &Span {
        &self.spans[span]
    }

    /// A span's self time: its duration minus its direct children's.
    pub fn self_ns(&self, span: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(Span::ns)
            .sum();
        self.spans[span].ns().saturating_sub(children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"iter\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.iter, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One layer call: its span, time and allocation figures.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub span: usize,
    pub ns: u64,
    pub usage: Usage,
}

fn layer<T>(
    tr: &mut Tracer,
    parent: usize,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Layer) {
    let span = tr.open(name, Some(parent));
    let (out, usage) = alloc::measure(f);
    tr.close(span);
    let ns = tr.span(span).ns();
    (out, Layer { span, ns, usage })
}

/// The counts of one traced audit: all must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditCounts {
    pub decode: Usage,
    pub from_view: Usage,
    pub preprocess: Usage,
    pub reexec: Usage,
    pub state_edges: Usage,
    pub allocs: u64,
    pub decode_bytes_copied: u64,
    pub interned_bytes: u64,
    pub deferred_edges: u64,
    pub stats: ReexecStats,
    pub feeds: FeedCounters,
    pub nodes: usize,
    pub edges: usize,
    pub cycle_visits: u64,
}

/// The times of one traced audit, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct AuditTimes {
    pub total: u64,
    pub decode: u64,
    pub from_view: u64,
    pub preprocess: u64,
    pub reexec: u64,
    pub group_replay: u64,
    pub state_merge: u64,
    pub state_edges: u64,
    pub cycle_check: u64,
    /// The total minus the layers above (`group_replay` and
    /// `state_merge` are parts of `reexec`).
    pub unattributed: u64,
}

/// Audits `s.advice` layer by layer with the options the untraced audit
/// uses. Any REJECT is an error.
pub fn audit(tr: &mut Tracer, s: &Setup) -> Result<(AuditTimes, AuditCounts), String> {
    let opts = AuditOptions::default();
    let threads = opts.threads;
    let clock = tr.clock();
    tr.reserve();
    let events_before = alloc::events();
    let root = tr.open("audit", None);

    if s.advice.len() as u64 > opts.limits.decode_max_bytes {
        return Err("advice exceeds the decode byte budget".into());
    }
    let (decoded, decode) = layer(tr, root, "wire.decode", || {
        decode_advice_view_bounded(&s.advice, opts.limits.decode_max_nodes)
    });
    let (view, decode_stats) = decoded.map_err(|e| format!("decode: {e:?}"))?;
    let mut interner = ValueInterner::new();
    let (advice, from_view) = layer(tr, root, "advice_ref.from_view", || {
        AdviceRef::from_view(&view, &mut interner)
    });
    let interner_bytes = interner.bytes_copied;
    volume_walk(&advice, &opts)?;

    let (staged, preprocess) = layer(tr, root, "preprocess", || {
        preprocess_staged(&s.program, &s.trace, &advice, s.isolation, threads)
    });
    let PreStaged {
        mut pre,
        mut deferred,
    } = staged.map_err(|r| format!("preprocess REJECT: {r}"))?;
    let deferred_edges = deferred.edge_count() as u64;

    let mut vars = VarStates::new();
    init_vars(&s.program, &mut vars);
    let mut graph = std::mem::take(&mut pre.graph);
    let executor = ReExecutor::new(&s.program, &s.trace, &advice, &pre, &mut vars)
        .with_schedule(opts.schedule)
        .with_limits(opts.limits)
        .with_bytecode(opts.bytecode);
    let mut merge_window = (0, 0);
    let (replayed, reexec) = layer(tr, root, "reexec", || {
        executor.run_pipelined(threads, || {
            let start = clock.now();
            deferred.merge_into(&mut graph);
            merge_window = (start, clock.now());
        })
    });
    let (stats, timing) = replayed.map_err(|r| format!("reexec REJECT: {r}"))?;
    tr.record(
        "reexec.edge_merge",
        Some(reexec.span),
        merge_window.0,
        merge_window.1,
    );
    let feeds = vars.feeds();

    let (merged, state_edges) = layer(tr, root, "vars.state_edges", || {
        vars.add_internal_state_edges_sharded(&mut graph, threads)
    });
    merged.map_err(|r| format!("state edges REJECT: {r}"))?;
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    if nodes as u64 > opts.limits.graph_max_nodes || edges as u64 > opts.limits.graph_max_edges {
        return Err("graph exceeds its budget".into());
    }
    let (probe, cycle) = layer(tr, root, "graph.cycle_check", || graph.probe_cycle());
    if probe.back_edge.is_some() {
        return Err("cycle check REJECT: CycleInG".into());
    }
    // The untraced audit frees these before it returns.
    drop((graph, pre, deferred, vars, advice, interner));
    drop(view);
    tr.close(root);

    let total = tr.span(root).ns();
    let times = AuditTimes {
        total,
        decode: decode.ns,
        from_view: from_view.ns,
        preprocess: preprocess.ns,
        reexec: reexec.ns,
        group_replay: timing.group_replay.as_nanos() as u64,
        state_merge: timing.state_merge.as_nanos() as u64,
        state_edges: state_edges.ns,
        cycle_check: cycle.ns,
        unattributed: tr.self_ns(root),
    };
    let counts = AuditCounts {
        decode: decode.usage,
        from_view: from_view.usage,
        preprocess: preprocess.usage,
        reexec: reexec.usage,
        state_edges: state_edges.usage,
        allocs: alloc::events() - events_before,
        decode_bytes_copied: decode_stats.bytes_copied,
        interned_bytes: interner_bytes,
        deferred_edges,
        stats,
        feeds,
        nodes,
        edges,
        cycle_visits: probe.visits,
    };
    Ok((times, counts))
}

/// The audit's pre-replay volume budgets (`check_advice_volume` in the
/// verifier is private): the same sums over the same advice, so the
/// traced timeline holds the same work. Its time is unattributed.
fn volume_walk(advice: &AdviceRef<'_>, opts: &AuditOptions) -> Result<(), String> {
    let dict_entries: u64 = advice.var_logs.values().map(|l| l.len() as u64).sum();
    let implied_nodes = advice
        .opcounts
        .values()
        .fold(0u64, |n, c| n.saturating_add(*c as u64 + 2));
    if dict_entries > opts.limits.dict_max_entries || implied_nodes > opts.limits.graph_max_nodes {
        return Err("advice exceeds its volume budget".into());
    }
    Ok(())
}

/// The counts of one traced serve: all must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounts {
    pub encode: Usage,
    pub counters: CollectorCounters,
    pub sizes: AdviceSizes,
}

/// The times of one traced serve, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ServeTimes {
    /// `kem::run_server` with no hooks.
    pub kem_serve: u64,
    /// The same run with the collector attached.
    pub instrumented: u64,
    pub finish: u64,
    pub encode: u64,
    /// Allocation events the collector adds: the instrumented run's
    /// and `finish`'s minus the unmodified run's. Not an exact count:
    /// `Collector::finish` inserts tags into an ordered map in the
    /// order of a randomly seeded hash map, and the ordered map's node
    /// allocations depend on insertion order, so it moves by a few
    /// events from call to call.
    pub collector_allocs: i64,
}

/// Serves `s.inputs` unmodified, then through the collector layer by
/// layer. The advice and both traces must equal the set-up's.
pub fn serve(tr: &mut Tracer, s: &Setup) -> Result<(ServeTimes, ServeCounts), String> {
    tr.reserve();
    let plain_root = tr.open("serve.unmodified", None);
    let (plain, kem_serve) = layer(tr, plain_root, "kem.serve", || {
        kem::run_server(&s.program, &s.inputs, &s.cfg, &mut NoopHooks)
    });
    let plain = plain.map_err(|e| format!("unmodified serve failed: {e}"))?;
    tr.close(plain_root);

    let root = tr.open("serve", None);
    let mut collector = Collector::new(CollectorMode::Karousos);
    let (out, run) = layer(tr, root, "collector.run", || {
        kem::run_server(&s.program, &s.inputs, &s.cfg, &mut collector)
    });
    let out = out.map_err(|e| format!("instrumented serve failed: {e}"))?;
    let counters = collector.counters();
    let (advice, finish) = layer(tr, root, "collector.finish", || {
        collector.finish(&out.binlog)
    });
    let (bytes, encode) = layer(tr, root, "wire.encode", || encode_advice(&advice));
    tr.close(root);

    if plain.trace != s.trace || out.trace != s.trace {
        return Err("traced serve produced a different trace".into());
    }
    if bytes != s.advice {
        return Err("traced serve produced different advice".into());
    }
    let times = ServeTimes {
        kem_serve: kem_serve.ns,
        instrumented: run.ns,
        finish: finish.ns,
        encode: encode.ns,
        collector_allocs: (run.usage.events + finish.usage.events) as i64
            - kem_serve.usage.events as i64,
    };
    let counts = ServeCounts {
        encode: encode.usage,
        counters,
        sizes: advice_sizes(&advice),
    };
    Ok((times, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_unattributed_sum_to_the_total() {
        let mut tr = Tracer::new();
        let root = tr.record("audit", None, 100, 1_100);
        let a = tr.record("wire.decode", Some(root), 110, 300);
        let b = tr.record("reexec", Some(root), 320, 900);
        // A grandchild is part of its parent's time, not the root's.
        tr.record("reexec.edge_merge", Some(b), 330, 400);
        tr.record("graph.cycle_check", Some(root), 950, 1_000);
        let layers = tr.span(a).ns() + tr.span(b).ns() + 50;
        assert_eq!(tr.self_ns(root), 1_000 - layers);
        assert_eq!(layers + tr.self_ns(root), tr.span(root).ns());
        assert_eq!(tr.self_ns(b), 580 - 70);
    }

    #[test]
    fn spans_write_one_json_object_per_line() {
        let mut tr = Tracer::new();
        tr.iter = 2;
        let root = tr.record("audit", None, 0, 10);
        tr.record("preprocess", Some(root), 1, 4);
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\": 1, \"iter\": 2, \"name\": \"preprocess\", \"start_ns\": 1, \"end_ns\": 4, \"parent\": 0}"
        );
    }
}
