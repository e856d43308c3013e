//! `pipeline-year`: the CLI `report` path for one site-year.
//!
//! One op is `hpcgrid report --nodes 4096 --days 365 --policy easy` with
//! the CLI's default contract (fixed tariff plus monthly demand charge):
//! workload → schedule → facility load → bill → report. Ops cycle a fixed
//! set of 8 job traces in an order drawn from the workload seed; one cycle
//! is a measurement window. EASY scheduling cost varies about 3× between
//! traces, so a run that sampled its own traces would measure which traces
//! it drew; with one fixed set, every window does the same work and the
//! seed only orders it.

use crate::support::{bill_bits, bill_hash, mix, Rng};
use crate::trace::{Ctx, Tracer};
use crate::{metric, Outcome, Window};
use hpcgrid::core::report::{self, SiteReport};
use hpcgrid::facility::node::NodeSpec;
use hpcgrid::facility::site::Country;
use hpcgrid::prelude::*;
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 4096;
const DAYS: u64 = 365;
/// Job traces every run cycles through; one cycle is a window.
const TRACES: usize = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 9;
/// Days simulated by the set-up's warm-up report.
const WARMUP_DAYS: u64 = 120;

/// The CLI's site for `--nodes`.
pub fn cli_site(nodes: usize) -> Result<SiteSpec, String> {
    SiteSpec::new(
        "cli-site",
        Country::UnitedStates,
        nodes,
        NodeSpec::reference_hpc(),
        1.1,
        1.35,
        Power::from_kilowatts(nodes as f64 * 0.55 * 1.1 + 100.0),
        Power::from_kilowatts(20.0),
    )
    .map_err(|e| e.to_string())
}

/// The CLI's default contract: $0.07/kWh fixed plus $12/kW-month demand.
fn cli_contract() -> Result<Contract, String> {
    Contract::builder("cli-contract")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .build()
        .map_err(|e| e.to_string())
}

/// What one op produced, kept for the correctness checks.
struct Produced {
    jobs: usize,
    records: usize,
    load: PowerSeries,
    report: SiteReport,
}

/// One site-year report, with a span around each layer call.
fn site_year(tracer: &Tracer, ctx: Ctx, trace_seed: u64, days: u64) -> Result<Produced, String> {
    let site = cli_site(NODES)?;
    let contract = cli_contract()?;
    let trace = tracer.span(ctx, "workload.build", |_| {
        WorkloadBuilder::new(trace_seed)
            .nodes(NODES)
            .days(days)
            .build()
    });
    let outcome = tracer
        .span(ctx, "scheduler.try_run", |_| {
            ScheduleSimulator::new(NODES, Policy::EasyBackfill).try_run(&trace)
        })
        .map_err(|e| format!("try_run (trace seed {trace_seed}): {e}"))?;
    let load = tracer.span(ctx, "facility.load_series", |_| {
        outcome.to_load_series(&site)
    });
    let report = tracer
        .span(ctx, "core.report.generate", |_| {
            report::generate("cli-site", &contract, &load, &Calendar::default())
        })
        .map_err(|e| format!("report (trace seed {trace_seed}): {e}"))?;
    Ok(Produced {
        jobs: trace.len(),
        records: outcome.records().len(),
        load,
        report,
    })
}

/// The `k`-th trace of the fixed set.
fn trace_seed(k: usize) -> u64 {
    mix(0x7ace ^ mix(k as u64))
}

pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Result<Outcome, String> {
    let mut o = Outcome {
        tail_q: 0.9,
        item_name: "reports",
        ..Outcome::default()
    };
    o.shape = vec![
        ("nodes", json!(NODES)),
        ("days", json!(DAYS)),
        ("policy", json!("easy")),
        ("contract", json!("fixed $0.07/kWh + $12/kW-month demand")),
        ("traces", json!(TRACES)),
        ("window", json!("one cycle of the traces")),
        ("setups", json!(SETUPS)),
        ("warmup_days", json!(WARMUP_DAYS)),
    ];

    // Set-up: the CLI's site and contract plus a short warm-up report on a
    // fixed trace, so first-call costs land here and not in the first op.
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (warm, _) = tracer.op("bench.setup", false, |ctx| {
            site_year(tracer, ctx, 0, WARMUP_DAYS)
        });
        black_box(warm?);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }

    // Correctness, untimed, on every trace of the set: the report's bill
    // is bit-identical to a compiled bill of the same load, and every job
    // has a record.
    let cal = Calendar::default();
    let contract = cli_contract()?;
    let (mut bills_ok, mut records_ok) = (true, true);
    for k in 0..TRACES {
        let (p, _) = tracer.op("bench.check", false, |ctx| {
            site_year(tracer, ctx, trace_seed(k), DAYS)
        });
        let p = p?;
        let compiled = CompiledContract::compile(&cal, &contract, p.load.start(), p.load.end())
            .and_then(|c| c.bill(&p.load))
            .map_err(|e| e.to_string())?;
        bills_ok &= bill_bits(&p.report.bill) == bill_bits(&compiled);
        records_ok &= p.records == p.jobs;
        o.digest = o
            .digest
            .wrapping_add(mix(bill_hash(&p.report.bill) ^ p.records as u64));
    }
    o.checks.push((
        format!("{TRACES} report bills bit-identical to CompiledContract::bill"),
        bills_ok,
    ));
    o.checks.push((
        format!("{TRACES} job-record counts equal trace lengths"),
        records_ok,
    ));

    // Measure: closed loop, one site-year per op, whole cycles until
    // `seconds` have passed. A traced run reports each trace twice,
    // untraced and traced in alternating order, so the tracing overhead
    // compares identical work.
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..TRACES).collect();
    for i in (1..TRACES).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut traced_jobs = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut w = Window::default();
        for (i, &k) in order.iter().enumerate() {
            let twins: &[bool] = match (traced, i % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            let mut pair = [0.0; 2];
            for &on in twins {
                let (res, secs) = tracer.op("bench.op", on, |ctx| {
                    site_year(tracer, ctx, trace_seed(k), DAYS).map(|p| p.jobs)
                });
                o.attempted += 1;
                match res {
                    Ok(jobs) => {
                        w.op_s.push(secs);
                        w.items += 1.0;
                        w.busy_s += secs;
                        pair[usize::from(on)] = secs;
                        if on {
                            traced_jobs += jobs;
                        }
                    }
                    Err(e) => {
                        eprintln!("perfbench: op failed: {e}");
                        o.failed += 1;
                    }
                }
            }
            if traced && pair[0] > 0.0 && pair[1] > 0.0 {
                o.overhead_pairs.push((pair[0], pair[1]));
            }
        }
        o.windows.push(w);
    }

    if traced {
        // Jobs scheduled per second of try_run self time, over traced ops.
        let busy = tracer.total_secs("scheduler.try_run");
        if busy > 0.0 {
            o.counters.push(metric(
                "scheduler.jobs_per_s",
                traced_jobs as f64 / busy,
                "1/s",
            ));
        }
    }
    Ok(o)
}
