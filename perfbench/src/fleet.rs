//! `fleet-day`: a streamed, metered fleet over simulated days.
//!
//! 200k meters over the four contract shapes of the fleet baseline, at
//! 15-minute ticks, starting on January 30 so the third day crosses into
//! February. Each simulated day is:
//!
//! 1. 40 live ticks through `MeterFleet::advance_tick` (one op each);
//! 2. amendments for 0.5% of the meters, each `ContractLedger::append` →
//!    `kernel_at` → `MeterFleet::apply_event` (one op per batch);
//! 3. 40 more live ticks — the first one meets the re-sharded population;
//! 4. a 16-tick catch-up window through `advance_window`, standing in for
//!    a collector outage (one op);
//! 5. a shadow bill-out through `finalize_all` (one op).
//!
//! A day is a measurement window; live ticks are its primary ops. No
//! scheduler or sweep-engine calls. `MeterFleet::apply_event` re-prices
//! a meter's whole stream under the amended contract (it ignores the
//! event's effective date), so the ledger events are effective at the
//! meters' stream start — the one dating under which the fleet's bill and
//! `ContractLedger::bill_as_of` describe the same contract history.

use crate::support::{bill_bits, bill_hash, median, mix, Rng};
use crate::trace::Tracer;
use crate::{metric, Outcome, Window};
use hpcgrid::core::fleet::{FleetTickReport, MeterFleet, MeterId, Sample, TickFrame};
use hpcgrid::core::ledger::{ContractId, ContractLedger};
use hpcgrid::core::tariff::{DayFilter, TouTariff, TouWindow};
use hpcgrid::prelude::*;
use hpcgrid::timeseries::series::Series;
use hpcgrid::units::{MonthSet, TimeOfDay};
use serde_json::json;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const METERS: usize = 200_000;
/// Meters in the untimed correctness fleet.
const CHECK_METERS: usize = 4_096;
/// Days the correctness fleet streams (the third crosses into February).
const CHECK_DAYS: u64 = 3;
/// Meters of the correctness fleet compared against the ledger, besides
/// every amended one.
const CHECK_SAMPLED: usize = 24;
const TICKS_PER_DAY: u64 = 96;
const LIVE_TICKS: u64 = 80;
const WINDOW_TICKS: u64 = 16;
/// Live ticks before the day's amendments.
const AMEND_AFTER: u64 = 40;
/// First streamed day: January 30 (day 0 is January 1).
const START_DAY: u64 = 29;
/// Compile horizon of the fleet and ledger kernels.
const HORIZON_DAYS: u64 = 366;
const PROFILES: usize = 8;
const SETUPS: usize = 3;
/// `op_tail_s` is the median over days of each day's p90 live tick.
const TAIL_Q: f64 = 0.9;

fn step() -> Duration {
    Duration::from_minutes(15.0)
}

fn stream_start() -> SimTime {
    SimTime::from_days(START_DAY)
}

/// Meters amended per day: 0.5% of the fleet.
fn amended_per_day(meters: usize) -> usize {
    meters / 200
}

/// Meters with a ledger stream, the amendment candidates: 1% of the fleet.
fn pool_size(meters: usize) -> usize {
    meters / 100
}

fn tou_schedule() -> Tariff {
    Tariff::TimeOfUse(TouTariff {
        windows: vec![
            TouWindow {
                months: Some(MonthSet::summer()),
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(14, 0),
                to: TimeOfDay::new(20, 0),
                price: EnergyPrice::per_kilowatt_hour(0.24),
            },
            TouWindow {
                months: None,
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(7, 0),
                to: TimeOfDay::new(22, 0),
                price: EnergyPrice::per_kilowatt_hour(0.11),
            },
            TouWindow {
                months: None,
                days: DayFilter::All,
                from: TimeOfDay::new(22, 0),
                to: TimeOfDay::new(7, 0),
                price: EnergyPrice::per_kilowatt_hour(0.04),
            },
        ],
        base: EnergyPrice::per_kilowatt_hour(0.08),
    })
}

/// The four contract shapes meters rotate through: flat, utility TOU,
/// TOU + demand charge, TOU + demand + powerband + fee.
fn contract_shapes() -> Result<Vec<Contract>, String> {
    let demand = || DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0));
    [
        Contract::builder("flat").tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07))),
        Contract::builder("tou").tariff(tou_schedule()),
        Contract::builder("tou+demand")
            .tariff(tou_schedule())
            .demand_charge(demand()),
        Contract::builder("tou+demand+band+fee")
            .tariff(tou_schedule())
            .demand_charge(demand())
            .powerband(Powerband::ceiling(
                Power::from_megawatts(6.0),
                EnergyPrice::per_kilowatt_hour(0.45),
            ))
            .monthly_fee(Money::from_dollars(750.0)),
    ]
    .into_iter()
    .map(|b| b.build().map_err(|e| e.to_string()))
    .collect()
}

/// An amendment the fleet can take mid-stream for a meter of `shape`: a
/// fee change for every shape, demand-price changes where a demand charge
/// exists, penalty changes where a powerband exists. Values come from
/// short ladders so amended contracts share kernels.
fn pick_delta(rng: &mut Rng, shape: usize) -> ContractDelta {
    let kinds = match shape {
        0 | 1 => 1,
        2 => 2,
        _ => 3,
    };
    match rng.below(kinds) {
        0 => ContractDelta::SetMonthlyFee(Money::from_dollars(
            rng.pick(&[250.0, 500.0, 750.0, 1000.0]),
        )),
        1 => ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
            DemandPrice::per_kilowatt_month(rng.pick(&[10.0, 11.0, 12.0, 13.0, 14.0])),
        ))),
        _ => ContractDelta::SetPowerband(Some(Powerband::ceiling(
            Power::from_megawatts(6.0),
            EnergyPrice::per_kilowatt_hour(rng.pick(&[0.40, 0.45, 0.50])),
        ))),
    }
}

/// Load of a meter in profile class `class` at stream tick `tick`: a
/// diurnal shape whose phase depends on the seed.
fn meter_power(phase: f64, class: usize, tick: u64) -> Power {
    let base_mw = 0.5 + 0.75 * class as f64;
    let hour = (tick % TICKS_PER_DAY) as f64 * 0.25;
    let weekday = 1.0 + 0.05 * (((tick / TICKS_PER_DAY) % 7) as f64 - 3.0) / 3.0;
    let peak_hour = 14.0 + class as f64 + phase;
    let diurnal = 1.0 + 0.3 * ((hour - peak_hour) / 24.0 * std::f64::consts::TAU).cos();
    Power::from_megawatts(base_mw * diurnal * weekday)
}

/// A pending amendment: meter, its ledger stream, the delta, its key.
type Amendment = (usize, ContractId, ContractDelta, String);

/// A fleet plus its ledger, input buffers and running counts.
struct Rig {
    fleet: MeterFleet,
    ledger: ContractLedger,
    /// Ledger stream of each amendment candidate.
    pool: Vec<(usize, ContractId)>,
    shape_of: Vec<u8>,
    class_of: Vec<u8>,
    samples: Vec<Sample>,
    frames: Vec<TickFrame>,
    phase: f64,
    rng: Rng,
    per_day: usize,
    /// Next stream tick.
    tick: u64,
    amended: BTreeSet<usize>,
    offered: u64,
    applied: u64,
    dropped: u64,
    quarantined: u64,
    windows: u64,
}

impl Rig {
    /// Register `meters` meters and open the ledger streams of the
    /// amendment pool. Returns the rig and its registration time.
    fn new(seed: u64, meters: usize, shapes: &[Contract]) -> Result<(Rig, f64), String> {
        let cal = Calendar::default();
        let horizon = SimTime::from_days(HORIZON_DAYS);
        let mut rng = Rng::new(seed ^ 0xf1ee7);
        let t = Instant::now();
        let mut fleet = MeterFleet::new(cal, SimTime::EPOCH, horizon);
        for i in 0..meters {
            fleet
                .register(&shapes[i % shapes.len()], stream_start(), step())
                .map_err(|e| e.to_string())?;
        }
        let register_s = t.elapsed().as_secs_f64();

        let shape_of: Vec<u8> = (0..meters).map(|i| (i % shapes.len()) as u8).collect();
        let class_of: Vec<u8> = (0..meters)
            .map(|i| (mix(seed ^ i as u64) % PROFILES as u64) as u8)
            .collect();
        let samples: Vec<Sample> = (0..meters)
            .map(|i| Sample {
                meter: MeterId(i),
                power: Power::from_megawatts(0.0),
            })
            .collect();
        let ids: Arc<[MeterId]> = (0..meters).map(MeterId).collect();
        let frames = (0..WINDOW_TICKS)
            .map(|_| TickFrame::new(Arc::clone(&ids), vec![Power::from_megawatts(0.0); meters]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;

        let mut ledger = ContractLedger::new(cal, SimTime::EPOCH, horizon);
        let mut candidates: Vec<usize> = (0..meters).collect();
        let mut pool = Vec::with_capacity(pool_size(meters));
        for j in 0..pool_size(meters) {
            let k = j + rng.below(meters - j);
            candidates.swap(j, k);
            let m = candidates[j];
            let id = ledger
                .create(
                    shapes[shape_of[m] as usize].clone(),
                    &format!("meter{m}"),
                    stream_start(),
                )
                .map_err(|e| e.to_string())?;
            // Compile each shape's revision 0 once; amendments then patch.
            ledger.kernel_at(id, 0).map_err(|e| e.to_string())?;
            pool.push((m, id));
        }
        let rig = Rig {
            fleet,
            ledger,
            pool,
            shape_of,
            class_of,
            samples,
            frames,
            phase: rng.range(0.0, 6.0),
            per_day: amended_per_day(meters),
            rng,
            tick: 0,
            amended: BTreeSet::new(),
            offered: 0,
            applied: 0,
            dropped: 0,
            quarantined: 0,
            windows: 0,
        };
        Ok((rig, register_s))
    }

    fn powers_at(&self, tick: u64) -> [Power; PROFILES] {
        std::array::from_fn(|c| meter_power(self.phase, c, tick))
    }

    /// Fold one advance's report into the counts; true if it lost samples.
    fn absorb(&mut self, r: &FleetTickReport) -> bool {
        self.offered += r.samples as u64;
        self.applied += r.applied as u64;
        self.dropped += r.dropped as u64;
        self.quarantined += r.newly_quarantined.len() as u64;
        r.dropped > 0 || !r.newly_quarantined.is_empty()
    }

    /// One live tick. Returns (failed, seconds).
    fn live_tick(&mut self, tracer: &Tracer, on: bool) -> (bool, f64) {
        let by_class = self.powers_at(self.tick);
        for (s, &c) in self.samples.iter_mut().zip(&self.class_of) {
            s.power = by_class[c as usize];
        }
        let (fleet, samples) = (&mut self.fleet, &self.samples);
        let (res, secs) = tracer.op("bench.tick", on, |ctx| {
            tracer.span(ctx, "core.fleet.advance_tick", |_| {
                fleet.advance_tick(samples)
            })
        });
        self.tick += 1;
        let failed = match res {
            Ok(r) => self.absorb(&r),
            Err(e) => {
                eprintln!("perfbench: advance_tick failed: {e}");
                true
            }
        };
        (failed, secs)
    }

    /// The catch-up window. Returns (failed, seconds).
    fn catch_up(&mut self, tracer: &Tracer, on: bool) -> (bool, f64) {
        for j in 0..WINDOW_TICKS {
            let by_class = self.powers_at(self.tick + j);
            let class_of = &self.class_of;
            for (p, &c) in self.frames[j as usize]
                .powers_mut()
                .iter_mut()
                .zip(class_of)
            {
                *p = by_class[c as usize];
            }
        }
        let (fleet, frames) = (&mut self.fleet, &self.frames);
        let (res, secs) = tracer.op("bench.catchup", on, |ctx| {
            tracer.span(ctx, "core.fleet.advance_window", |_| {
                fleet.advance_window(frames)
            })
        });
        self.tick += WINDOW_TICKS;
        self.windows += 1;
        let failed = match res {
            Ok(r) => self.absorb(&r),
            Err(e) => {
                eprintln!("perfbench: advance_window failed: {e}");
                true
            }
        };
        (failed, secs)
    }

    /// The day's amendments. Inputs are drawn before the op starts.
    /// Returns (failed, seconds).
    fn amend(&mut self, tracer: &Tracer, on: bool, day: u64) -> (bool, f64) {
        let n = self.per_day.min(self.pool.len());
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        let mut batch: Vec<Amendment> = Vec::with_capacity(n);
        for j in 0..n {
            let k = j + self.rng.below(order.len() - j);
            order.swap(j, k);
            let (m, id) = self.pool[order[j]];
            let delta = pick_delta(&mut self.rng, self.shape_of[m] as usize);
            batch.push((m, id, delta, format!("meter{m}-day{day}")));
        }
        let (fleet, ledger) = (&mut self.fleet, &mut self.ledger);
        let (res, secs) = tracer.op("bench.amend", on, |ctx| -> Result<(), String> {
            for (m, id, delta, key) in batch.iter() {
                let out = tracer
                    .span(ctx, "core.ledger.append", |_| {
                        ledger.append(*id, delta.clone(), key, stream_start())
                    })
                    .map_err(|e| e.to_string())?;
                let kernel = tracer
                    .span(ctx, "core.ledger.kernel_at", |_| {
                        ledger.kernel_at(*id, out.revision)
                    })
                    .map_err(|e| e.to_string())?;
                black_box(kernel);
                let event = &ledger.events(*id).map_err(|e| e.to_string())?[out.revision as usize];
                tracer
                    .span(ctx, "core.fleet.apply_event", |_| {
                        fleet.apply_event(MeterId(*m), event)
                    })
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        self.amended.extend(batch.iter().map(|(m, ..)| *m));
        match res {
            Ok(()) => (false, secs),
            Err(e) => {
                eprintln!("perfbench: amendment failed: {e}");
                (true, secs)
            }
        }
    }

    /// The shadow bill-out. Returns (failed, seconds, bills).
    fn bill_out(&mut self, tracer: &Tracer, on: bool) -> (bool, f64, Vec<(MeterId, Bill)>) {
        let fleet = &self.fleet;
        let (res, secs) = tracer.op("bench.billout", on, |ctx| {
            tracer.span(ctx, "core.fleet.finalize_all", |_| fleet.finalize_all())
        });
        match res {
            Ok(bills) => (bills.len() != fleet.len(), secs, bills),
            Err(e) => {
                eprintln!("perfbench: finalize_all failed: {e}");
                (true, secs, Vec::new())
            }
        }
    }

    /// The batch series a meter has streamed so far.
    fn series_of(&self, m: usize) -> Result<PowerSeries, String> {
        let class = self.class_of[m] as usize;
        let t0 = stream_start().as_secs();
        Series::from_fn(stream_start(), step(), self.tick as usize, |t| {
            meter_power(self.phase, class, (t.as_secs() - t0) / 900)
        })
        .map_err(|e| e.to_string())
    }

    /// Whether there is room in the compile horizon for another day.
    fn day_fits(&self) -> bool {
        START_DAY * TICKS_PER_DAY + self.tick + TICKS_PER_DAY <= HORIZON_DAYS * TICKS_PER_DAY
    }
}

/// Timings of a measured run.
#[derive(Default)]
struct Timings {
    /// One window per complete day: live-tick latencies, samples applied,
    /// and the time of all five parts.
    days: Vec<Window>,
    /// Live ticks by trace state, for the tracing overhead.
    by_state: [Vec<f64>; 2],
    /// The first live tick after each day's amendments.
    post_amend: Vec<f64>,
    catchup: Vec<f64>,
    amend: Vec<f64>,
    billout: Vec<f64>,
}

/// Stream whole days, up to `max_days` or until `deadline` has passed at
/// the start of a day, alternating traced ops when `traced`. Returns
/// (attempted, failed).
fn stream_days(
    rig: &mut Rig,
    tracer: &Tracer,
    traced: bool,
    max_days: u64,
    deadline: Option<(Instant, f64)>,
    t: &mut Timings,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for day in 0..max_days {
        let out_of_time = deadline.is_some_and(|(start, s)| start.elapsed().as_secs_f64() >= s);
        if out_of_time || !rig.day_fits() {
            break;
        }
        let applied0 = rig.applied;
        let mut w = Window::default();
        let day_on = traced && day % 2 == 1;
        for i in 0..LIVE_TICKS {
            if i == AMEND_AFTER {
                let (f, secs) = rig.amend(tracer, day_on, day);
                attempted += 1;
                failed += u64::from(f);
                t.amend.push(secs);
                w.busy_s += secs;
            }
            let on = traced && rig.tick % 2 == 1;
            let (f, secs) = rig.live_tick(tracer, on);
            attempted += 1;
            failed += u64::from(f);
            w.op_s.push(secs);
            w.busy_s += secs;
            t.by_state[usize::from(on)].push(secs);
            if i == AMEND_AFTER {
                t.post_amend.push(secs);
            }
        }
        let (f, secs) = rig.catch_up(tracer, day_on);
        attempted += 1;
        failed += u64::from(f);
        t.catchup.push(secs);
        w.busy_s += secs;
        let (f, secs, bills) = rig.bill_out(tracer, day_on);
        attempted += 1;
        failed += u64::from(f);
        t.billout.push(secs);
        w.busy_s += secs;
        drop(bills);
        w.items = (rig.applied - applied0) as f64;
        t.days.push(w);
    }
    (attempted, failed)
}

pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Result<Outcome, String> {
    let shapes = contract_shapes()?;
    let mut o = Outcome {
        tail_q: TAIL_Q,
        item_name: "meter_samples",
        ..Outcome::default()
    };
    o.shape = vec![
        ("meters", json!(METERS)),
        ("contract_shapes", json!(shapes.len())),
        ("step_minutes", json!(15)),
        ("live_ticks_per_day", json!(LIVE_TICKS)),
        ("catchup_window_ticks", json!(WINDOW_TICKS)),
        ("amended_per_day", json!(amended_per_day(METERS))),
        ("amendment_pool", json!(pool_size(METERS))),
        ("start_day", json!(START_DAY)),
        ("horizon_days", json!(HORIZON_DAYS)),
        ("check_meters", json!(CHECK_METERS)),
        ("check_days", json!(CHECK_DAYS)),
        ("setups", json!(SETUPS)),
    ];

    // Set-up, repeated: register the fleet and open the ledger streams.
    let mut register_s = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t = Instant::now();
        let (r, reg) = Rig::new(seed, METERS, &shapes)?;
        o.setup_s.push(t.elapsed().as_secs_f64());
        register_s.push(reg);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up ran");

    // Correctness, untimed, on a small fleet streamed across the month
    // boundary with the same day structure.
    let (mut small, _) = Rig::new(seed, CHECK_METERS, &shapes)?;
    let mut scratch = Timings::default();
    let (_, check_failed) = stream_days(&mut small, tracer, false, CHECK_DAYS, None, &mut scratch);
    o.checks.push((
        format!("check fleet streamed {CHECK_DAYS} days with no failed op"),
        check_failed == 0 && small.tick == CHECK_DAYS * TICKS_PER_DAY,
    ));
    let mut sampled: BTreeSet<usize> = small.amended.clone();
    let mut pick = Rng::new(seed ^ 0xc4ec);
    while sampled.len() < small.amended.len() + CHECK_SAMPLED {
        sampled.insert(pick.below(CHECK_METERS));
    }
    let mut ledger_ok = true;
    for &m in &sampled {
        let id = match small.pool.iter().find(|(pm, _)| *pm == m) {
            Some(&(_, id)) => id,
            None => small
                .ledger
                .create(
                    shapes[small.shape_of[m] as usize].clone(),
                    &format!("meter{m}"),
                    stream_start(),
                )
                .map_err(|e| e.to_string())?,
        };
        let series = small.series_of(m)?;
        let expected = small
            .ledger
            .bill_as_of(id, &series)
            .map_err(|e| e.to_string())?
            .fold();
        let got = small
            .fleet
            .finalize(MeterId(m))
            .map_err(|e| e.to_string())?;
        ledger_ok &= bill_bits(&got) == bill_bits(&expected);
    }
    o.checks.push((
        format!(
            "{} sampled meters ({} amended) finalize bit-identical to ContractLedger::bill_as_of",
            sampled.len(),
            small.amended.len()
        ),
        ledger_ok && !small.amended.is_empty(),
    ));
    accounting_checks(&small, "check fleet", &mut o.checks);
    for (id, bill) in small.fleet.finalize_all().map_err(|e| e.to_string())? {
        o.digest = o.digest.wrapping_add(mix(bill_hash(&bill) ^ id.0 as u64));
    }
    drop(small);

    // Measure.
    let mut t = Timings::default();
    let start = Instant::now();
    let (attempted, failed) = stream_days(
        &mut rig,
        tracer,
        traced,
        u64::MAX,
        Some((start, seconds)),
        &mut t,
    );
    o.attempted = attempted;
    o.failed = failed;
    accounting_checks(&rig, "measured fleet", &mut o.checks);

    let stats = rig.fleet.stats();
    let live_ticks: usize = t.days.iter().map(|d| d.op_s.len()).sum();
    o.extra = vec![
        metric("catchup_p50_s", median(&t.catchup), "s"),
        metric("billout_p50_s", median(&t.billout), "s"),
        metric("amend_p50_s", median(&t.amend), "s"),
        metric("post_amend_tick_p50_s", median(&t.post_amend), "s"),
        metric("live_ticks", live_ticks as f64, "count"),
        metric("days", t.days.len() as f64, "count"),
        metric("fleet_contracts", stats.contracts as f64, "count"),
    ];
    o.windows = std::mem::take(&mut t.days);
    o.counters = vec![
        metric("core.fleet.register_s", median(&register_s), "s"),
        metric("core.fleet.plan_builds", stats.plan_builds as f64, "count"),
        metric("core.fleet.plan_hits", stats.plan_hits as f64, "count"),
        metric("core.fleet.bytes_per_meter", stats.bytes_per_meter, "bytes"),
        metric(
            "core.fleet.kernel_reuse_rate",
            stats.kernel_reuse_rate(),
            "frac",
        ),
        metric("core.fleet.applied", rig.applied as f64, "count"),
        metric("core.fleet.dropped", rig.dropped as f64, "count"),
        metric("core.fleet.quarantined", rig.quarantined as f64, "count"),
    ];
    if traced {
        o.overhead_pairs = t.by_state[0]
            .iter()
            .zip(&t.by_state[1])
            .map(|(&u, &tr)| (u, tr))
            .collect();
    }
    Ok(o)
}

/// Sample and scatter-plan accounting of a rig after streaming.
fn accounting_checks(rig: &Rig, what: &str, checks: &mut Vec<(String, bool)>) {
    let stats = rig.fleet.stats();
    checks.push((
        format!("{what}: applied + dropped == samples offered"),
        rig.applied + rig.dropped == rig.offered && rig.offered > 0,
    ));
    checks.push((
        format!("{what}: plan_hits + plan_builds == window advances"),
        stats.plan_hits + stats.plan_builds == rig.windows,
    ));
    checks.push((
        format!("{what}: no meter quarantined"),
        rig.quarantined == 0 && rig.fleet.quarantined().is_empty(),
    ));
}
