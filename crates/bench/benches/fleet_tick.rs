//! Bench: the fleet ingest shapes head to head (group `fleet_tick_batched`).
//!
//! One population, three ways to feed it the same samples, all through
//! the same cached `ScatterPlan`: scalar AoS `advance_tick` (id column
//! matched element-wise against the plan lane), one-frame
//! `advance_window` calls (columnar lanes, `Arc`'d id lane matched by
//! pointer), and 16-tick `advance_window` calls (one `push_run` per meter
//! per window). Each iteration feeds a fixed meter-sample count
//! (`METERS`, or `METERS × WINDOW` for the fused shape), so per-iteration
//! time divides straight into the meter-samples/s unit `BENCH_fleet.json`
//! reports — the criterion trend lines up with `exp_fleet_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcgrid_core::contract::Contract;
use hpcgrid_core::fleet::{MeterFleet, MeterId, Sample, TickFrame};
use hpcgrid_core::tariff::Tariff;
use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
use std::sync::Arc;

const METERS: usize = 4_096;
const WINDOW: usize = 16;
/// Long horizon so monotone streaming never outruns it mid-measurement.
const HORIZON_DAYS: u64 = 3_650;

fn contract() -> Contract {
    Contract::builder("fleet-bench-tou")
        .tariff(Tariff::day_night(
            EnergyPrice::per_kilowatt_hour(0.10),
            EnergyPrice::per_kilowatt_hour(0.04),
        ))
        .build()
        .unwrap()
}

fn fleet() -> (MeterFleet, Arc<[MeterId]>) {
    let mut fleet = MeterFleet::new(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(HORIZON_DAYS),
    );
    let c = contract();
    let step = Duration::from_minutes(15.0);
    let ids: Arc<[MeterId]> = (0..METERS)
        .map(|_| fleet.register(&c, SimTime::EPOCH, step).unwrap())
        .collect();
    (fleet, ids)
}

/// Deterministic diurnal load per meter and tick.
fn power(meter: usize, tick: u64) -> Power {
    let phase = (meter % 96) as f64 / 96.0 + (tick % 96) as f64 / 96.0;
    Power::from_megawatts(4.0 + 3.0 * (phase * std::f64::consts::TAU).sin())
}

fn bench_fleet_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_tick_batched");
    group.sample_size(10);

    {
        let (mut fleet, ids) = fleet();
        let mut t = 0u64;
        group.bench_function("scalar_tick", |b| {
            b.iter(|| {
                let samples: Vec<Sample> = ids
                    .iter()
                    .map(|id| Sample {
                        meter: *id,
                        power: power(id.0, t),
                    })
                    .collect();
                let report = fleet.advance_tick(&samples).unwrap();
                t += 1;
                report.applied
            })
        });
    }

    {
        let (mut fleet, ids) = fleet();
        let mut t = 0u64;
        group.bench_function("frame_tick", |b| {
            b.iter(|| {
                let powers: Vec<Power> = ids.iter().map(|id| power(id.0, t)).collect();
                let frame = TickFrame::new(Arc::clone(&ids), powers).unwrap();
                let report = fleet.advance_window(std::slice::from_ref(&frame)).unwrap();
                t += 1;
                report.applied
            })
        });
    }

    {
        let (mut fleet, ids) = fleet();
        let mut t = 0u64;
        group.bench_function("fused_window", |b| {
            b.iter(|| {
                let frames: Vec<TickFrame> = (0..WINDOW as u64)
                    .map(|k| {
                        let powers: Vec<Power> = ids.iter().map(|id| power(id.0, t + k)).collect();
                        TickFrame::new(Arc::clone(&ids), powers).unwrap()
                    })
                    .collect();
                let report = fleet.advance_window(&frames).unwrap();
                t += WINDOW as u64;
                report.applied
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_fleet_tick);
criterion_main!(benches);
