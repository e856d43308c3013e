//! `contract-sweep`: contract shopping through `SweepRunner::run_fold`.
//!
//! Four year-long facility loads are built at set-up from the pipeline
//! substrate (4096 nodes, 365 days, FCFS). One op is one submission of 512
//! scenario specs drawn across the typology — fixed, day/night, 3-window
//! utility TOU with month filters, a dynamic strip from `hpcgrid-grid`
//! dispatch, demand charge, powerband and fee. Half the specs compile their
//! contract with `CompiledContract::compile`; the other half `patch` a
//! shared base kernel. Each scenario bills one load.
//!
//! A pass is 16 submissions on one fresh runner, so its in-memory result
//! cache lives for one shopping session and memory does not grow with run
//! length; a pass is a measurement window. 25% of each submission repeats
//! specs of earlier submissions in the pass (the first submission repeats
//! its own), so cache hits sit beside executions. Every pass replays the
//! same submissions.

use crate::pipeline::cli_site;
use crate::support::{bill_bits, bill_hash, median, mix, Rng};
use crate::trace::{Ctx, Tracer};
use crate::{metric, Outcome, Window};
use hpcgrid::core::tariff::{DayFilter, TouTariff, TouWindow};
use hpcgrid::engine::{kernel_key, series_key, RunReport, ScenarioCtx, SharedInputs};
use hpcgrid::grid::demand::{demand_series, DemandParams};
use hpcgrid::grid::dispatch::MeritOrderMarket;
use hpcgrid::grid::generation::GeneratorFleet;
use hpcgrid::grid::renewables::{solar_series, wind_series, SolarParams, WindParams};
use hpcgrid::prelude::*;
use hpcgrid::units::{Month, MonthSet, TimeOfDay};
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 4096;
const DAYS: u64 = 365;
const LOADS: usize = 4;
const SPECS: usize = 512;
/// Specs per submission repeated from earlier submissions: 25%.
const REPEATS: usize = SPECS / 4;
const SUBMISSIONS_PER_PASS: usize = 16;
/// Scenarios of the first submission re-billed by the oracle.
const CHECK_SAMPLED: usize = 32;
const SETUPS: usize = 5;
const BASES: usize = 4;

fn kwh(x: f64) -> EnergyPrice {
    EnergyPrice::per_kilowatt_hour(x)
}

/// A utility TOU schedule: a summer weekday peak, a winter weekday peak,
/// and a night window, each with its own price.
fn utility_tou(summer: f64, winter: f64, night: f64) -> Tariff {
    Tariff::TimeOfUse(TouTariff {
        windows: vec![
            TouWindow {
                months: Some(MonthSet::summer()),
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(14, 0),
                to: TimeOfDay::new(20, 0),
                price: kwh(summer),
            },
            TouWindow {
                months: Some(MonthSet::of(&[
                    Month::December,
                    Month::January,
                    Month::February,
                ])),
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(7, 0),
                to: TimeOfDay::new(11, 0),
                price: kwh(winter),
            },
            TouWindow {
                months: None,
                days: DayFilter::All,
                from: TimeOfDay::new(22, 0),
                to: TimeOfDay::new(7, 0),
                price: kwh(night),
            },
        ],
        base: kwh(0.09),
    })
}

/// Hourly wholesale prices of a 3 GW region with renewables, cleared by
/// merit-order dispatch.
fn market_strip(seed: u64, hours: usize) -> Result<PriceSeries, String> {
    let cal = Calendar::default();
    let step = Duration::from_hours(1.0);
    let start = SimTime::EPOCH;
    let e = |e: hpcgrid::grid::GridError| e.to_string();
    let demand =
        demand_series(&DemandParams::default(), &cal, start, step, hours, seed).map_err(e)?;
    let solar = solar_series(
        &SolarParams {
            capacity: Power::from_megawatts(400.0),
            ..Default::default()
        },
        &cal,
        start,
        step,
        hours,
        seed,
    )
    .map_err(e)?;
    let wind = wind_series(
        &WindParams {
            capacity: Power::from_megawatts(500.0),
            ..Default::default()
        },
        start,
        step,
        hours,
        seed,
    )
    .map_err(e)?;
    let renewables = solar.add_series(&wind).map_err(|e| e.to_string())?;
    let fleet =
        GeneratorFleet::synthetic_regional(Power::from_megawatts(3_000.0), 0.10).map_err(e)?;
    Ok(MeritOrderMarket::new(fleet)
        .dispatch(&demand, Some(&renewables))
        .map_err(e)?
        .prices)
}

/// The patch path's shared bases: each tariff family with a $12/kW-month
/// demand charge.
fn base_contracts(strip: &PriceSeries) -> Result<Vec<Contract>, String> {
    let demand = DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0));
    [
        Tariff::fixed(kwh(0.07)),
        Tariff::day_night(kwh(0.11), kwh(0.05)),
        utility_tou(0.24, 0.15, 0.04),
        Tariff::dynamic(strip.clone(), kwh(0.01), kwh(0.08)),
    ]
    .into_iter()
    .map(|t| {
        Contract::builder("sweep-base")
            .tariff(t)
            .demand_charge(demand)
            .build()
            .map_err(|e| e.to_string())
    })
    .collect()
}

fn param(spec: &ScenarioSpec, key: &str) -> Result<f64, String> {
    spec.param_f64(key).map_err(|e| e.to_string())
}

fn index(spec: &ScenarioSpec, key: &str) -> Result<usize, String> {
    let i = spec.param_i64(key).map_err(|e| e.to_string())?;
    usize::try_from(i).map_err(|_| format!("param {key} = {i} is not an index"))
}

fn param_str<'a>(spec: &'a ScenarioSpec, key: &str) -> Result<&'a str, String> {
    spec.param_str(key).map_err(|e| e.to_string())
}

/// The contract a compile-mode spec describes.
fn contract_of(spec: &ScenarioSpec, strip: &PriceSeries) -> Result<Contract, String> {
    let rate = param(spec, "rate")?;
    let tariff = match param_str(spec, "tariff")? {
        "fixed" => Tariff::fixed(kwh(rate)),
        "day_night" => Tariff::day_night(kwh(rate), kwh(param(spec, "rate2")?)),
        "tou" => utility_tou(rate, param(spec, "rate2")?, param(spec, "rate3")?),
        "dynamic" => Tariff::dynamic(strip.clone(), kwh(rate), kwh(0.08)),
        other => return Err(format!("unknown tariff '{other}'")),
    };
    let mut b = Contract::builder("sweep").tariff(tariff);
    let demand = param(spec, "demand")?;
    if demand > 0.0 {
        b = b.demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(
            demand,
        )));
    }
    let band = param(spec, "band_mw")?;
    if band > 0.0 {
        b = b.powerband(Powerband::ceiling(
            Power::from_megawatts(band),
            kwh(param(spec, "band_penalty")?),
        ));
    }
    let fee = param(spec, "fee")?;
    if fee > 0.0 {
        b = b.monthly_fee(Money::from_dollars(fee));
    }
    b.build().map_err(|e| e.to_string())
}

/// The delta a patch-mode spec applies to its base.
fn delta_of(spec: &ScenarioSpec) -> Result<ContractDelta, String> {
    let v = param(spec, "value")?;
    Ok(match param_str(spec, "delta_kind")? {
        "demand" => ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
            DemandPrice::per_kilowatt_month(v),
        ))),
        "fee" => ContractDelta::SetMonthlyFee(Money::from_dollars(v)),
        "band" => ContractDelta::SetPowerband(Some(Powerband::ceiling(
            Power::from_megawatts(v),
            kwh(0.35),
        ))),
        other => return Err(format!("unknown delta '{other}'")),
    })
}

/// A fresh spec drawn across the typology.
fn new_spec(rng: &mut Rng, base_fps: &[String]) -> ScenarioSpec {
    let b = ScenarioSpec::builder("contract-sweep").param("load", rng.below(LOADS));
    if rng.below(2) == 0 {
        let (tariff, rates) = match rng.below(4) {
            0 => ("fixed", [rng.range(0.05, 0.12), 0.0, 0.0]),
            1 => (
                "day_night",
                [rng.range(0.08, 0.16), rng.range(0.03, 0.07), 0.0],
            ),
            2 => (
                "tou",
                [
                    rng.range(0.18, 0.30),
                    rng.range(0.10, 0.18),
                    rng.range(0.03, 0.06),
                ],
            ),
            _ => ("dynamic", [rng.range(0.005, 0.03), 0.0, 0.0]),
        };
        let on = |rng: &mut Rng, lo, hi| {
            if rng.below(2) == 0 {
                0.0
            } else {
                rng.range(lo, hi)
            }
        };
        let demand = on(rng, 8.0, 16.0);
        let band = on(rng, 2.0, 3.5);
        let fee = on(rng, 250.0, 2000.0);
        b.param("mode", "compile")
            .param("tariff", tariff)
            .param("rate", rates[0])
            .param("rate2", rates[1])
            .param("rate3", rates[2])
            .param("demand", demand)
            .param("band_mw", band)
            .param("band_penalty", rng.range(0.2, 0.5))
            .param("fee", fee)
            .build()
    } else {
        let base = rng.below(BASES);
        let (kind, value) = match rng.below(3) {
            0 => ("demand", rng.range(8.0, 16.0)),
            1 => ("fee", rng.range(250.0, 2000.0)),
            _ => ("band", rng.range(2.0, 3.5)),
        };
        b.param("mode", "patch")
            .param("base", base)
            .param("delta_kind", kind)
            .param("value", value)
            .base_contract(base_fps[base].clone())
            .delta(kind)
            .build()
    }
}

/// One pass of submissions: `SPECS - REPEATS` fresh specs each, plus
/// `REPEATS` copies of specs from earlier submissions, shuffled.
fn pass_submissions(seed: u64, base_fps: &[String]) -> Vec<Vec<ScenarioSpec>> {
    let mut rng = Rng::new(seed ^ 0x5eeb);
    let mut subs: Vec<Vec<ScenarioSpec>> = Vec::with_capacity(SUBMISSIONS_PER_PASS);
    for s in 0..SUBMISSIONS_PER_PASS {
        let mut specs: Vec<ScenarioSpec> = (0..SPECS - REPEATS)
            .map(|_| new_spec(&mut rng, base_fps))
            .collect();
        for _ in 0..REPEATS {
            let repeat = if s == 0 {
                specs[rng.below(SPECS - REPEATS)].clone()
            } else {
                let from = &subs[rng.below(s)];
                from[rng.below(from.len())].clone()
            };
            specs.push(repeat);
        }
        for i in (1..specs.len()).rev() {
            specs.swap(i, rng.below(i + 1));
        }
        subs.push(specs);
    }
    subs
}

/// Everything a pass needs, built at set-up.
struct Rig {
    shared: SharedInputs,
    strip: Arc<PriceSeries>,
    loads: Vec<Arc<PowerSeries>>,
    bases: Vec<Contract>,
    horizon: (SimTime, SimTime),
    submissions: Vec<Vec<ScenarioSpec>>,
}

impl Rig {
    fn new(seed: u64) -> Result<Rig, String> {
        let site = cli_site(NODES)?;
        let mut loads = Vec::with_capacity(LOADS);
        for i in 0..LOADS {
            let trace = WorkloadBuilder::new(mix(seed ^ (0x10ad + i as u64)))
                .nodes(NODES)
                .days(DAYS)
                .build();
            let outcome = ScheduleSimulator::new(NODES, Policy::Fcfs)
                .try_run(&trace)
                .map_err(|e| e.to_string())?;
            loads.push(Arc::new(outcome.to_load_series(&site)));
        }
        let start = loads.iter().map(|l| l.start()).min().expect("LOADS > 0");
        let end = loads.iter().map(|l| l.end()).max().expect("LOADS > 0");
        let hours = end.as_secs().div_ceil(3600) as usize;
        let strip = Arc::new(market_strip(seed, hours)?);
        let bases = base_contracts(&strip)?;
        let cal = Calendar::default();
        let mut shared = SharedInputs::new();
        let mut base_fps = Vec::with_capacity(BASES);
        for (b, contract) in bases.iter().enumerate() {
            let kernel =
                CompiledContract::compile(&cal, contract, start, end).map_err(|e| e.to_string())?;
            base_fps.push(kernel.fingerprint().to_hex());
            shared.insert_arc(kernel_key(&format!("base{b}")), Arc::new(kernel));
        }
        for (i, load) in loads.iter().enumerate() {
            shared.insert_arc(series_key(&format!("load{i}")), Arc::clone(load));
        }
        shared.insert_arc(series_key("strip"), Arc::clone(&strip));
        Ok(Rig {
            shared,
            strip,
            loads,
            bases,
            horizon: (start, end),
            submissions: pass_submissions(seed, &base_fps),
        })
    }

    fn runner(&self) -> SweepRunner<Bill> {
        SweepRunner::new().shared_inputs(self.shared.clone())
    }

    /// One scenario: compile or patch its contract, then bill its load.
    /// `billed` counts samples billed in traced scenarios.
    fn scenario(
        &self,
        tracer: &Tracer,
        ctx: Ctx,
        billed: &AtomicU64,
        sc: ScenarioCtx<'_>,
    ) -> Result<Bill, String> {
        tracer.span(ctx, "bench.scenario", |c| {
            let spec = sc.spec;
            let load: Arc<PowerSeries> = sc
                .shared
                .expect(&series_key(&format!("load{}", index(spec, "load")?)))?;
            let kernel = if param_str(spec, "mode")? == "compile" {
                let contract = contract_of(spec, &self.strip)?;
                let (start, end) = self.horizon;
                tracer
                    .span(c, "core.compiled.compile", |_| {
                        CompiledContract::compile(&Calendar::default(), &contract, start, end)
                    })
                    .map_err(|e| e.to_string())?
            } else {
                let base: Arc<CompiledContract> = sc
                    .shared
                    .expect(&kernel_key(&format!("base{}", index(spec, "base")?)))?;
                let delta = delta_of(spec)?;
                tracer
                    .span(c, "core.compiled.patch", |_| base.patch(&delta))
                    .map_err(|e| e.to_string())?
            };
            if c.traced() {
                billed.fetch_add(load.len() as u64, Ordering::Relaxed);
            }
            tracer
                .span(c, "core.compiled.bill", |_| kernel.bill(&load))
                .map_err(|e| e.to_string())
        })
    }

    /// The contract a spec bills under, built the slow way for the oracle.
    fn oracle_contract(&self, spec: &ScenarioSpec) -> Result<Contract, String> {
        if param_str(spec, "mode")? == "compile" {
            contract_of(spec, &self.strip)
        } else {
            let base = &self.bases[index(spec, "base")?];
            base.apply(&delta_of(spec)?).map_err(|e| e.to_string())
        }
    }
}

/// The fold's accumulator: scenarios folded and an order-insensitive
/// digest of their bills.
type Agg = (u64, u64);

fn fold(acc: Agg, bill: Bill) -> Agg {
    (acc.0 + 1, acc.1.wrapping_add(bill_hash(&bill)))
}

fn merge(a: Agg, b: Agg) -> Agg {
    (a.0 + b.0, a.1.wrapping_add(b.1))
}

fn accounted(r: &RunReport) -> bool {
    r.executed + r.memory_hits + r.artifact_hits == r.total
}

pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Result<Outcome, String> {
    let mut o = Outcome {
        tail_q: 0.9,
        item_name: "scenarios",
        ..Outcome::default()
    };
    o.shape = vec![
        ("loads", json!(LOADS)),
        ("load_nodes", json!(NODES)),
        ("load_days", json!(DAYS)),
        ("load_policy", json!("fcfs")),
        ("specs_per_submission", json!(SPECS)),
        ("repeated_specs_per_submission", json!(REPEATS)),
        ("submissions_per_pass", json!(SUBMISSIONS_PER_PASS)),
        ("patch_bases", json!(BASES)),
        ("threads", json!("default")),
        ("setups", json!(SETUPS)),
    ];

    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(Rig::new(seed)?);
        o.setup_s.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up ran");
    let billed = AtomicU64::new(0);

    // Correctness, untimed, on the first submission: `run` results against
    // the `BillingEngine` oracle, and `run_fold` against `run`.
    let first = &rig.submissions[0];
    let ((ran, folded), _) = tracer.op("bench.check", false, |ctx| {
        let ran = rig
            .runner()
            .run(first, |sc| rig.scenario(tracer, ctx, &billed, sc));
        let folded = rig.runner().run_fold(
            first,
            |sc| rig.scenario(tracer, ctx, &billed, sc),
            (0, 0),
            fold,
            merge,
        );
        (ran, folded)
    });
    let engine = BillingEngine::new(Calendar::default());
    let mut pick = Rng::new(seed ^ 0xc4ec);
    let mut oracle_ok = ran.errors().next().is_none();
    for _ in 0..CHECK_SAMPLED {
        let i = pick.below(first.len());
        let spec = &first[i];
        let load = &rig.loads[index(spec, "load")?];
        let want = engine
            .bill(&rig.oracle_contract(spec)?, load)
            .map_err(|e| e.to_string())?;
        oracle_ok &= ran.results[i]
            .as_ref()
            .is_ok_and(|got| bill_bits(got) == bill_bits(&want));
    }
    o.checks.push((
        format!("{CHECK_SAMPLED} sampled scenarios bit-identical to BillingEngine::bill"),
        oracle_ok,
    ));
    let run_digest = ran
        .successes()
        .fold(0u64, |d, b| d.wrapping_add(bill_hash(b)));
    o.checks.push((
        "run_fold digest equals run's over the same submission".into(),
        folded.errors.is_empty() && folded.value == (first.len() as u64, run_digest),
    ));
    o.checks.push((
        "executed + memory_hits == total (run and run_fold)".into(),
        accounted(&ran.report) && accounted(&folded.report),
    ));
    o.digest = folded.value.1;

    // Measure: whole passes of submissions until `seconds` have passed,
    // each pass on a fresh runner. A traced run traces every other pass,
    // so each traced submission has an untraced twin doing the same work.
    let (mut hit_ratio, mut executed, mut busy_frac) = (Vec::new(), Vec::new(), Vec::new());
    let (mut retries, mut failed_scenarios) = (0u64, 0u64);
    let mut accounting_ok = true;
    let mut last_untraced: Vec<f64> = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let on = traced && pass % 2 == 1;
        let mut runner = rig.runner();
        let mut w = Window::default();
        for (s, specs) in rig.submissions.iter().enumerate() {
            let (out, secs) = tracer.op("bench.submission", on, |ctx| {
                tracer.span(ctx, "engine.run_fold", |rf| {
                    runner.run_fold(
                        specs,
                        |sc| rig.scenario(tracer, rf, &billed, sc),
                        (0, 0),
                        fold,
                        merge,
                    )
                })
            });
            let r = &out.report;
            o.attempted += 1;
            let failed = r.failed > 0 || r.timed_out > 0 || !out.errors.is_empty();
            o.failed += u64::from(failed);
            accounting_ok &= (accounted(r) && out.value.0 == specs.len() as u64) || failed;
            retries += u64::from(r.retries);
            failed_scenarios += r.failed as u64;
            hit_ratio.push(r.hit_ratio());
            executed.push(r.executed as f64);
            busy_frac.push(r.worker_utilization());
            w.op_s.push(secs);
            w.items += out.value.0 as f64;
            w.busy_s += secs;
            if on {
                if let Some(&u) = last_untraced.get(s) {
                    o.overhead_pairs.push((u, secs));
                }
            } else {
                if s == 0 {
                    last_untraced.clear();
                }
                last_untraced.push(secs);
            }
        }
        o.windows.push(w);
    }
    o.checks.push((
        "every measured submission: executed + memory_hits == total, all folded".into(),
        accounting_ok,
    ));
    o.counters = vec![
        metric("engine.hit_ratio", median(&hit_ratio), "frac"),
        metric("engine.executed", median(&executed), "count"),
        metric("engine.worker_busy_frac", median(&busy_frac), "frac"),
        metric("engine.retries", retries as f64, "count"),
        metric("engine.failed", failed_scenarios as f64, "count"),
    ];
    let samples = billed.load(Ordering::Relaxed);
    if traced && samples > 0 {
        o.counters.push(metric(
            "core.compiled.ns_per_sample",
            tracer.total_secs("core.compiled.bill") * 1e9 / samples as f64,
            "ns",
        ));
    }
    Ok(o)
}
