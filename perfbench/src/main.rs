//! Audit benchmark: serves one workload through the real collector,
//! audits the advice through the real verifier, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced pass (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! `perfbench/run.py` builds this binary from source and runs it; see
//! `perfbench/NOTES.md` for the workloads and what each metric means.

mod alloc;
mod refkernel;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use karousos::{
    audit_encoded_with_options, encode_advice, run_instrumented_server, AuditOptions, AuditReport,
    CollectorMode,
};
use kem::NoopHooks;

use alloc::Usage;
use stats::{bracketed, corrected_median, median, raw_median, Call, Metrics, Timed};
use traced::{AuditCounts, AuditTimes, ServeCounts, ServeTimes, Tracer};
use workloads::{by_name, set_up, Setup, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest timed set-ups per run, after one discarded warm-up; more run
/// until `SETUP_SECONDS` have passed, up to `MAX_SETUPS`.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 3.0;
const MAX_SETUPS: usize = 40;
/// Timed iterations to discard at the start of the measured loop.
const WARMUP: usize = 1;
/// Fewest measured iterations, whatever `--seconds` says.
const MIN_ITERS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    workload = Some(by_name(&value).ok_or(format!(
                        "unknown workload {value}; one of {}",
                        names.join(", ")
                    ))?);
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: 0 or 1, not {value}")),
                    })
                }
                "--spans-out" => spans_out = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spans_out,
        })
    }
}

/// Operations attempted and failed, with the first failures' reasons.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            if self.failed < 10 {
                eprintln!("perfbench: FAILED: {why}");
            }
            self.failed += 1;
        }
    }
}

/// Requires every value to equal the first one seen.
fn same<T: PartialEq + std::fmt::Debug>(
    first: &mut Option<T>,
    now: T,
    what: &str,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(now);
            Ok(())
        }
        Some(f) if *f == now => Ok(()),
        Some(f) => Err(format!(
            "{what} changed between iterations: {f:?} then {now:?}"
        )),
    }
}

/// What the untraced audit is checked on across iterations.
type AuditFingerprint = (karousos::ReexecStats, usize, usize, Usage);

fn fingerprint(r: &AuditReport, u: Usage) -> AuditFingerprint {
    (r.reexec, r.graph_nodes, r.graph_edges, u)
}

#[derive(Default)]
struct Samples {
    /// Every `R` time of the run, in time order.
    refs: Vec<f64>,
    setup: Vec<Call>,
    audit: Vec<Call>,
    serve: Vec<Call>,
    overhead: Vec<f64>,
    audit_fp: Option<AuditFingerprint>,
    traced_audit: Vec<AuditTimes>,
    audit_counts: Option<AuditCounts>,
    traced_serve: Vec<ServeTimes>,
    serve_counts: Option<ServeCounts>,
}

impl Samples {
    /// Runs `R` and returns its index in `refs`.
    fn reference(&mut self, tr: &mut Tracer) -> usize {
        let (_, ref_s) = tr.timed("host.ref", refkernel::run);
        self.refs.push(ref_s);
        self.refs.len() - 1
    }

    fn timed(&self, calls: &[Call]) -> Vec<Timed> {
        bracketed(calls, &self.refs)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut tracer = Tracer::new();
    let (setup, s, ledger) = measure(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &mut tracer,
    )?;
    if let Some(path) = &args.spans_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        tracer
            .write_jsonl(file)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let metrics = if args.trace {
        per_layer(&s)
    } else {
        end_to_end(&setup, &s)
    }
    .ok_or("no successful sample of some metric")?;
    Ok(metrics.to_json(ledger.failed == 0, ledger.attempted, ledger.failed))
}

/// Sets the workload up, then alternates timed audits and serves (and,
/// with `trace`, traced ones) for `seconds`.
fn measure(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<(Setup, Samples, Ledger), String> {
    let mut ledger = Ledger::default();
    let mut s = Samples::default();

    // Set-up: build the program, generate the inputs, serve them once
    // through the collector; one warm-up, then the timed rounds.
    let mut setup: Option<Setup> = None;
    let setup_start = Instant::now();
    let mut round = 0;
    while round <= SETUPS
        || (setup_start.elapsed().as_secs_f64() < SETUP_SECONDS && round <= MAX_SETUPS)
    {
        tracer.iter = round as u32;
        let ref_before = s.reference(tracer);
        let (fresh, raw_s) = tracer.timed("setup", || set_up(w, seed));
        let fresh = fresh?;
        s.setup.push(Call { raw_s, ref_before });
        round += 1;
        ledger.check(match &setup {
            Some(prev) if prev.advice != fresh.advice || prev.trace != fresh.trace => {
                Err("set-up is not deterministic".into())
            }
            _ => Ok(()),
        });
        setup = Some(fresh);
    }
    let setup = setup.expect("at least one set-up ran");

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut iter = 0;
    while iter < WARMUP + MIN_ITERS || start.elapsed() < budget {
        tracer.iter = iter as u32;
        // The first call of a process also pays one-time lazy
        // initialisation, so its counts are not compared.
        let warm = iter >= WARMUP;
        measure_audit(tracer, &setup, &mut s, &mut ledger, warm);
        measure_serve(tracer, &setup, &mut s, &mut ledger);
        if trace {
            ledger.check(traced_audit(tracer, &setup, &mut s, warm));
            ledger.check(traced_serve(tracer, &setup, &mut s, warm));
        }
        iter += 1;
    }
    // The `R` after the last timed call.
    s.reference(tracer);
    Ok((setup, s, ledger))
}

/// One untraced audit from the advice bytes to the verdict, with `R`
/// just before it.
fn measure_audit(tr: &mut Tracer, setup: &Setup, s: &mut Samples, ledger: &mut Ledger, warm: bool) {
    let ref_before = s.reference(tr);
    let ((verdict, usage), raw_s) = tr.timed("e2e.audit", || {
        alloc::measure(|| {
            audit_encoded_with_options(
                &setup.program,
                &setup.trace,
                &setup.advice,
                setup.isolation,
                AuditOptions::default(),
            )
        })
    });
    ledger.check(match verdict {
        Ok(report) => {
            s.audit.push(Call { raw_s, ref_before });
            if warm {
                same(&mut s.audit_fp, fingerprint(&report, usage), "audit")
            } else {
                Ok(())
            }
        }
        Err(reason) => Err(format!("honest advice REJECTed: {reason}")),
    });
}

/// One instrumented serve plus advice encoding, with `R` just before
/// it, then the unmodified serve of the same inputs back to back.
fn measure_serve(tr: &mut Tracer, setup: &Setup, s: &mut Samples, ledger: &mut Ledger) {
    let ref_before = s.reference(tr);
    let (served, raw_s) = tr.timed("e2e.serve", || {
        run_instrumented_server(
            &setup.program,
            &setup.inputs,
            &setup.cfg,
            CollectorMode::Karousos,
        )
        .map(|(out, advice)| (out, encode_advice(&advice)))
    });
    let (plain, plain_s) = tr.timed("e2e.serve_unmodified", || {
        kem::run_server(&setup.program, &setup.inputs, &setup.cfg, &mut NoopHooks)
    });
    ledger.check(match (served, plain) {
        (Ok((out, bytes)), Ok(plain)) => {
            if out.trace != setup.trace || plain.trace != setup.trace {
                Err("serve produced a different trace".into())
            } else if bytes != setup.advice {
                Err("serve produced different advice".into())
            } else {
                s.serve.push(Call { raw_s, ref_before });
                s.overhead.push(raw_s / plain_s);
                Ok(())
            }
        }
        (Err(e), _) | (_, Err(e)) => Err(format!("serve failed: {e}")),
    });
}

fn traced_audit(tr: &mut Tracer, setup: &Setup, s: &mut Samples, warm: bool) -> Result<(), String> {
    let (times, counts) = traced::audit(tr, setup)?;
    s.traced_audit.push(times);
    if !warm {
        return Ok(());
    }
    let untraced = s.audit_fp.ok_or("no untraced audit to compare with")?;
    if (counts.stats, counts.nodes, counts.edges) != (untraced.0, untraced.1, untraced.2) {
        return Err(format!(
            "traced audit disagrees with the untraced one: {:?} vs {:?}",
            (counts.stats, counts.nodes, counts.edges),
            (untraced.0, untraced.1, untraced.2)
        ));
    }
    same(&mut s.audit_counts, counts, "traced audit counts")
}

fn traced_serve(tr: &mut Tracer, setup: &Setup, s: &mut Samples, warm: bool) -> Result<(), String> {
    let (times, counts) = traced::serve(tr, setup)?;
    s.traced_serve.push(times);
    if warm {
        same(&mut s.serve_counts, counts, "traced serve counts")
    } else {
        Ok(())
    }
}

const MB: f64 = 1e6;

fn end_to_end(setup: &Setup, s: &Samples) -> Option<Metrics> {
    let (.., audit_usage) = s.audit_fp?;
    let mut m = Metrics::default();
    m.push(
        "audit_s",
        corrected_median(&s.timed(&s.audit), WARMUP)?,
        "s",
    );
    m.push(
        "audit_peak_heap_mb",
        audit_usage.peak_bytes as f64 / MB,
        "MB",
    );
    m.push(
        "serve_s",
        corrected_median(&s.timed(&s.serve), WARMUP)?,
        "s",
    );
    m.push(
        "serve_overhead_x",
        median(s.overhead.iter().skip(WARMUP).copied())?,
        "ratio",
    );
    m.push("advice_bytes", setup.advice.len() as f64, "bytes");
    m.push("setup_s", corrected_median(&s.timed(&s.setup), 1)?, "s");
    Some(m)
}

fn per_layer(s: &Samples) -> Option<Metrics> {
    let a = s.audit_counts?;
    let v = s.serve_counts?;
    let ms = |f: &dyn Fn(&AuditTimes) -> u64| {
        median(
            s.traced_audit
                .iter()
                .skip(WARMUP)
                .map(|t| f(t) as f64 / 1e6),
        )
    };
    let serve = |f: &dyn Fn(&ServeTimes) -> f64| median(s.traced_serve.iter().skip(WARMUP).map(f));
    let serve_ms = |f: &dyn Fn(&ServeTimes) -> i64| serve(&|t| f(t) as f64 / 1e6);
    let mb = |u: Usage| u.peak_bytes as f64 / MB;
    let n = |x: u64| x as f64;
    let raw_audit = raw_median(&s.timed(&s.audit), WARMUP)?;
    let traced_total = ms(&|t| t.total)? / 1e3;

    let mut m = Metrics::default();
    m.push("kem.serve_ms", serve_ms(&|t| t.kem_serve as i64)?, "ms");
    m.push(
        "collector.hooks_ms",
        serve_ms(&|t| t.instrumented as i64 - t.kem_serve as i64)?,
        "ms",
    );
    m.push("collector.finish_ms", serve_ms(&|t| t.finish as i64)?, "ms");
    m.push(
        "collector.allocs",
        serve(&|t| t.collector_allocs as f64)?,
        "count",
    );
    m.push(
        "collector.logged_share",
        n(v.counters.r_concurrent_logged) / n(v.counters.var_accesses).max(1.0),
        "ratio",
    );
    let sz = v.sizes;
    let other = sz.total() - sz.var_logs - sz.handler_logs - sz.tx_logs;
    m.push("advice.var_logs_bytes", sz.var_logs as f64, "bytes");
    m.push("advice.handler_logs_bytes", sz.handler_logs as f64, "bytes");
    m.push("advice.tx_logs_bytes", sz.tx_logs as f64, "bytes");
    m.push("advice.other_bytes", other as f64, "bytes");
    m.push("wire.encode_ms", serve_ms(&|t| t.encode as i64)?, "ms");
    m.push("wire.encode_allocs", n(v.encode.events), "count");

    m.push("wire.decode_ms", ms(&|t| t.decode)?, "ms");
    m.push("wire.decode_allocs", n(a.decode.events), "count");
    m.push(
        "wire.decode_bytes_copied",
        n(a.decode_bytes_copied),
        "bytes",
    );
    m.push("wire.decode_peak_heap_mb", mb(a.decode), "MB");
    m.push("advice_ref.from_view_ms", ms(&|t| t.from_view)?, "ms");
    m.push("advice_ref.allocs", n(a.from_view.events), "count");
    m.push("advice_ref.interned_bytes", n(a.interned_bytes), "bytes");
    m.push("advice_ref.peak_heap_mb", mb(a.from_view), "MB");
    m.push("preprocess.ms", ms(&|t| t.preprocess)?, "ms");
    m.push("preprocess.allocs", n(a.preprocess.events), "count");
    m.push("preprocess.peak_heap_mb", mb(a.preprocess), "MB");
    m.push("preprocess.deferred_edges", n(a.deferred_edges), "count");
    m.push("reexec.ms", ms(&|t| t.reexec)?, "ms");
    m.push("reexec.group_replay_ms", ms(&|t| t.group_replay)?, "ms");
    m.push("reexec.state_merge_ms", ms(&|t| t.state_merge)?, "ms");
    m.push("reexec.groups", a.stats.groups as f64, "count");
    m.push(
        "reexec.uniform_share",
        n(a.stats.uniform_ops) / n(a.stats.uniform_ops + a.stats.expanded_ops).max(1.0),
        "ratio",
    );
    m.push(
        "reexec.activations_per_handler",
        n(a.stats.activations_covered) / n(a.stats.handlers_executed).max(1.0),
        "ratio",
    );
    m.push("reexec.fuel", n(a.stats.fuel_spent), "count");
    m.push("reexec.allocs", n(a.reexec.events), "count");
    m.push("reexec.peak_heap_mb", mb(a.reexec), "MB");
    m.push("vars.state_edges_ms", ms(&|t| t.state_edges)?, "ms");
    m.push("vars.allocs", n(a.state_edges.events), "count");
    m.push("vars.dict_feeds", n(a.feeds.dict_feeds), "count");
    m.push("vars.logged_reads", n(a.feeds.logged_reads), "count");
    m.push("graph.cycle_check_ms", ms(&|t| t.cycle_check)?, "ms");
    m.push("graph.nodes", a.nodes as f64, "count");
    m.push("graph.edges", a.edges as f64, "count");
    m.push("graph.cycle_visits", n(a.cycle_visits), "count");
    m.push("audit.unattributed_ms", ms(&|t| t.unattributed)?, "ms");
    m.push("audit.allocs", n(a.allocs), "count");
    m.push(
        "audit.trace_overhead_pct",
        (traced_total - raw_audit) / raw_audit * 100.0,
        "%",
    );
    m.push("host.ref_ms", median(s.refs.iter().copied())? * 1e3, "ms");
    m.push("host.audit_raw_s", raw_audit, "s");
    m.push(
        "host.serve_raw_s",
        raw_median(&s.timed(&s.serve), WARMUP)?,
        "s",
    );
    m.push(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::App;
    use workload::Mix;

    const TINY: Workload = Workload {
        name: "tiny-wiki",
        app: App::Wiki,
        mix: Mix::Wiki,
        requests: 40,
        concurrency: 4,
    };

    /// The `name`s of one `BENCHMARK.json` section, by plain text search
    /// (the file is small and written by hand).
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn a_short_run_passes_its_gates_and_emits_the_declared_metrics() {
        let mut tracer = Tracer::new();
        let (setup, s, ledger) = measure(&TINY, 7, 0, true, &mut tracer).expect("runs");
        assert_eq!(ledger.failed, 0);
        assert!(ledger.attempted > 0);

        let e2e: Vec<&str> = end_to_end(&setup, &s).expect("e2e").names().collect();
        let layers: Vec<&str> = per_layer(&s).expect("per-layer").names().collect();
        for name in e2e.iter().chain(&layers) {
            assert!(stats::valid_name(name), "{name}");
        }
        assert_eq!(e2e, declared("end_to_end"));
        assert_eq!(layers, declared("per_layer"));
    }

    #[test]
    fn traced_layers_sum_to_the_traced_total() {
        let setup = set_up(&TINY, 3).expect("set-up");
        let mut tracer = Tracer::new();
        let (t, counts) = traced::audit(&mut tracer, &setup).expect("accepts");
        let layers =
            t.decode + t.from_view + t.preprocess + t.reexec + t.state_edges + t.cycle_check;
        assert_eq!(layers + t.unattributed, t.total);
        let report = audit_encoded_with_options(
            &setup.program,
            &setup.trace,
            &setup.advice,
            setup.isolation,
            AuditOptions::default(),
        )
        .expect("accepts");
        assert_eq!(counts.stats, report.reexec);
        assert_eq!(
            (counts.nodes, counts.edges),
            (report.graph_nodes, report.graph_edges)
        );
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let ok = parse("--workload motd-writes --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("motd-writes", 3, 10, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload motd-writes --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload motd-writes --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload motd-writes --seconds 10 --trace 0").is_err());
    }
}
