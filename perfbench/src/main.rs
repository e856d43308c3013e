//! End-to-end and per-layer benchmark of the three hpcgrid user paths.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-year|fleet-day|contract-sweep> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run pins itself to one CPU, sets the workload up several times
//! (reporting the median), runs its correctness checks untimed, then
//! drives closed-loop ops from this one process in whole windows until
//! `--seconds` have passed. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The full result,
//! with its host block, is also written under `perfbench/results/`.
//! `perfbench/README.md` describes the workloads and metrics.

mod fleet;
mod pipeline;
mod support;
mod sweep;
mod trace;

use serde_json::{json, Value};
use support::{host_block, machine_cpus, median, peak_rss_mb, pin_to_one_cpu, quantile};
use trace::Tracer;

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One complete window of ops: a cycle of the traces, a simulated day, a
/// pass of submissions. Every window of a workload does the same kind and
/// amount of work, and a run measures whole windows only.
#[derive(Default)]
pub struct Window {
    /// Latency of each primary op.
    pub op_s: Vec<f64>,
    /// Work items completed, and the op time they took.
    pub items: f64,
    pub busy_s: f64,
}

/// What a workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    /// Named correctness checks; none of them is timed.
    pub checks: Vec<(String, bool)>,
    /// Order-insensitive digest of the checked outputs; repeats per seed.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The measured windows. `op_p50_s`, `op_tail_s` and `items_per_s` are
    /// medians over them of each window's figure, which a burst of host
    /// noise in a few windows does not move.
    pub windows: Vec<Window>,
    /// The op-latency percentile reported as `op_tail_s`.
    pub tail_q: f64,
    /// What one item is (`reports`, `meter_samples`, `scenarios`).
    pub item_name: &'static str,
    /// Workload-specific end-to-end figures for the human-readable result.
    pub extra: Vec<Metric>,
    /// Per-layer figures from public counters.
    pub counters: Vec<Metric>,
    /// `(untraced, traced)` latencies of comparable ops, for the tracing
    /// overhead.
    pub overhead_pairs: Vec<(f64, f64)>,
    /// The workload's shape parameters.
    pub shape: Vec<(&'static str, Value)>,
}

/// The end-to-end metrics `--trace 0` reports, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("items_per_s", "1/s"),
];

/// Per-layer metrics that are a span's per-op self time: (span, metric).
const LAYER_SPANS: [(&str, &str); 14] = [
    ("workload.build", "workload.build_s"),
    ("scheduler.try_run", "scheduler.try_run_s"),
    ("facility.load_series", "facility.load_series_s"),
    ("core.report.generate", "core.report.generate_s"),
    ("core.compiled.compile", "core.compiled.compile_s"),
    ("core.compiled.patch", "core.compiled.patch_s"),
    ("core.compiled.bill", "core.compiled.bill_s"),
    ("core.fleet.advance_tick", "core.fleet.advance_tick_s"),
    ("core.fleet.advance_window", "core.fleet.advance_window_s"),
    ("core.ledger.append", "core.ledger.append_s"),
    ("core.ledger.kernel_at", "core.ledger.kernel_at_s"),
    ("core.fleet.apply_event", "core.fleet.apply_event_s"),
    ("core.fleet.finalize_all", "core.fleet.finalize_all_s"),
    // run_fold wall time not covered by scenario spans.
    ("engine.run_fold", "engine.self_s"),
];

/// Per-layer metrics taken from counters; a workload that bypasses the
/// layer reports 0.
const LAYER_COUNTERS: [(&str, &str); 15] = [
    ("scheduler.jobs_per_s", "1/s"),
    ("core.compiled.ns_per_sample", "ns"),
    ("engine.worker_busy_frac", "frac"),
    ("engine.hit_ratio", "frac"),
    ("engine.executed", "count"),
    ("engine.retries", "count"),
    ("engine.failed", "count"),
    ("core.fleet.register_s", "s"),
    ("core.fleet.plan_builds", "count"),
    ("core.fleet.plan_hits", "count"),
    ("core.fleet.bytes_per_meter", "bytes"),
    ("core.fleet.kernel_reuse_rate", "frac"),
    ("core.fleet.applied", "count"),
    ("core.fleet.dropped", "count"),
    ("core.fleet.quarantined", "count"),
];

/// Largest share of a kind of traced op's wall time the benchmark's own
/// code, span recording included, may take; the layers' self times must
/// account for the rest. The densest kind, fleet-day's amendment batch
/// (3000 spans around microsecond calls per op), measures about 0.08.
const MAX_GLUE: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag '{}' needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{key} expects {what}, got '{value}'");
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{key}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let nproc = machine_cpus();
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: could not pin to one CPU: {e}");
        return std::process::ExitCode::FAILURE;
    }
    let tracer = Tracer::default();
    let run = match args.workload.as_str() {
        "pipeline-year" => pipeline::run(args.seed, args.seconds, args.trace, &tracer),
        "fleet-day" => fleet::run(args.seed, args.seconds, args.trace, &tracer),
        "contract-sweep" => sweep::run(args.seed, args.seconds, args.trace, &tracer),
        other => Err(format!(
            "unknown workload '{other}' (pipeline-year|fleet-day|contract-sweep)"
        )),
    };
    match run {
        Ok(outcome) => {
            report(&args, nproc, outcome, tracer);
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn report(args: &Args, nproc: usize, mut o: Outcome, tracer: Tracer) {
    let spans = tracer.into_spans();
    let host = host_block(args.seed, nproc);

    let ops: usize = o.windows.iter().map(|w| w.op_s.len()).sum();
    let over_windows =
        |f: &dyn Fn(&Window) -> f64| median(&o.windows.iter().map(f).collect::<Vec<_>>());
    let e2e = [
        median(&o.setup_s),
        peak_rss_mb(),
        over_windows(&|w| median(&w.op_s)),
        over_windows(&|w| quantile(&w.op_s, o.tail_q)),
        over_windows(&|w| w.items / w.busy_s),
    ];
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect();

    // Per-layer metrics: span self times, then counters; a layer the
    // workload never calls reads 0.
    let ops_traced = trace::breakdown(&spans);
    let mut layers: Vec<Metric> = LAYER_SPANS
        .iter()
        .map(|&(span, name)| metric(name, trace::layer_self_s(&ops_traced, span), "s"))
        .collect();
    layers.push(metric(
        "engine.run_fold_s",
        trace::layer_dur_s(&ops_traced, "engine.run_fold"),
        "s",
    ));
    layers.push(metric("bench.glue_s", trace::glue_s(&ops_traced), "s"));
    for (name, unit) in LAYER_COUNTERS {
        let v = o
            .counters
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        layers.push(metric(name, v, unit));
    }
    let ratios: Vec<f64> = o.overhead_pairs.iter().map(|(u, t)| t / u).collect();
    let diffs: Vec<f64> = o.overhead_pairs.iter().map(|(u, t)| t - u).collect();
    layers.push(metric(
        "trace.overhead_frac",
        if ratios.is_empty() {
            0.0
        } else {
            median(&ratios) - 1.0
        },
        "frac",
    ));
    layers.push(metric(
        "trace.overhead_s",
        if diffs.is_empty() {
            0.0
        } else {
            median(&diffs)
        },
        "s",
    ));

    if args.trace {
        o.checks.extend(trace::checks(&ops_traced, MAX_GLUE));
    }
    let correct = o.checks.iter().all(|(_, ok)| *ok);

    // Human-readable result.
    let render = |v: &Value| serde_json::to_string(v).expect("JSON values render");
    println!("== perfbench {} (seed {}) ==", args.workload, args.seed);
    println!("host: {}", render(&host));
    for (k, v) in &o.shape {
        println!("shape.{k}: {}", render(v));
    }
    for (name, ok) in &o.checks {
        println!("check [{}] {name}", if *ok { "ok" } else { "FAILED" });
    }
    println!("digest: {:016x}", o.digest);
    println!(
        "ops: attempted {} failed {} (failed_frac {}); {ops} timed ops in {} windows, {:.0} beyond op_tail_s (p{}) in all",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.windows.len(),
        ops as f64 * (1.0 - o.tail_q),
        o.tail_q * 100.0
    );
    for m in e2e.iter().chain(&o.extra) {
        let alias = if m.name == "items_per_s" {
            format!(" ({}_per_s)", o.item_name)
        } else {
            String::new()
        };
        println!("e2e {}{alias}: {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        for m in &layers {
            println!("layer {}: {} {}", m.name, m.value, m.unit);
        }
        println!("spans recorded: {}", spans.len());
        for (kind, share) in trace::glue_share_by_kind(&ops_traced) {
            println!("glue share of {kind} ops: {share}");
        }
    }

    // Full result file, and the spans of a traced run.
    let as_obj = |ms: &[Metric]| {
        Value::Map(
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect(),
        )
    };
    let checks: Vec<Value> = o
        .checks
        .iter()
        .map(|(check, ok)| json!({"check": check, "ok": ok}))
        .collect();
    let shape = Value::Map(
        o.shape
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let full = json!({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "shape": shape,
        "checks": checks,
        "digest": format!("{:016x}", o.digest),
        "attempted": o.attempted,
        "failed": o.failed,
        "window_op_latencies_s": o.windows.iter().map(|w| w.op_s.clone()).collect::<Vec<_>>(),
        "end_to_end": as_obj(&e2e),
        "workload_metrics": as_obj(&o.extra),
        "per_layer": as_obj(&layers),
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), render(&full) + "\n")?;
        if args.trace {
            std::fs::write(dir.join(format!("{stem}-spans.csv")), trace::to_csv(&spans))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write results under {}: {e}",
            dir.display()
        );
    }

    let metrics = if args.trace { &layers } else { &e2e };
    let last = json!({
        "correct": correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": as_obj(metrics),
    });
    println!("{}", render(&last));
}
