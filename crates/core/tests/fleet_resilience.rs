//! Fleet degradation and crash-safe checkpoints: a panicking meter is
//! quarantined instead of killing the tick, and a `CheckpointStore` ring
//! brings a dead fleet back bit-identically.

use hpcgrid_core::checkpoint::CheckpointStore;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::fleet::{MeterFleet, MeterId, Sample, TickFrame};
use hpcgrid_core::tariff::Tariff;
use hpcgrid_core::CoreError;
use std::sync::Arc;

use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};

const METERS: usize = 6;
const STEP_MIN: f64 = 15.0;

fn contract() -> Contract {
    Contract::builder("fleet-resilience")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .build()
        .unwrap()
}

fn fleet_of(n: usize) -> (MeterFleet, Vec<MeterId>) {
    let mut fleet = MeterFleet::with_shards(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(30),
        2,
    );
    let c = contract();
    let step = Duration::from_minutes(STEP_MIN);
    let ids = (0..n)
        .map(|_| fleet.register(&c, SimTime::EPOCH, step).unwrap())
        .collect();
    (fleet, ids)
}

/// Deterministic per-meter, per-tick load.
fn mw(meter: usize, tick: u64) -> Power {
    Power::from_megawatts(1.0 + meter as f64 * 0.25 + tick as f64 * 0.01)
}

fn batch(ids: &[MeterId], tick: u64) -> Vec<Sample> {
    ids.iter()
        .map(|id| Sample {
            meter: *id,
            power: mw(id.0, tick),
        })
        .collect()
}

#[test]
fn panicking_meter_is_quarantined_and_the_rest_of_the_fleet_ticks_on() {
    let (mut fleet, ids) = fleet_of(METERS);
    let (mut reference, ref_ids) = fleet_of(METERS);
    for t in 0..10 {
        fleet.advance_tick(&batch(&ids, t)).unwrap();
        reference.advance_tick(&batch(&ref_ids, t)).unwrap();
    }
    let victim = ids[3];
    let known_good = fleet.snapshot(victim).unwrap();

    // Tick 10: the victim's fold panics; the other five meters are
    // unaffected and the casualty is reported, not propagated.
    fleet.chaos_poison_meter(victim).unwrap();
    let report = fleet.advance_tick(&batch(&ids, 10)).unwrap();
    assert_eq!(report.samples, METERS);
    assert_eq!(report.applied, METERS - 1);
    assert_eq!(report.dropped, 1);
    assert_eq!(report.newly_quarantined.len(), 1);
    assert_eq!(report.newly_quarantined[0].0, victim);
    assert!(report.newly_quarantined[0]
        .1
        .contains("injected meter panic"));

    // Tick 11: the quarantined meter's sample is dropped at scatter time.
    let report = fleet.advance_tick(&batch(&ids, 11)).unwrap();
    assert_eq!((report.applied, report.dropped), (METERS - 1, 1));
    assert!(report.newly_quarantined.is_empty());

    // The quarantined meter refuses finalize and snapshot with a typed
    // error, and is excluded from fleet-wide operations.
    assert!(fleet.is_quarantined(victim));
    assert_eq!(fleet.quarantined().len(), 1);
    assert!(matches!(
        fleet.finalize(victim),
        Err(CoreError::Quarantined(_))
    ));
    assert!(matches!(
        fleet.snapshot(victim),
        Err(CoreError::Quarantined(_))
    ));
    assert_eq!(fleet.finalize_all().unwrap().len(), METERS - 1);
    assert_eq!(fleet.snapshot_all().len(), METERS - 1);

    // Rehabilitation: restore the pre-fault snapshot, replay the two
    // samples the quarantine dropped, and the whole fleet is bit-identical
    // to one that never faulted.
    reference.advance_tick(&batch(&ref_ids, 10)).unwrap();
    reference.advance_tick(&batch(&ref_ids, 11)).unwrap();
    fleet.restore(victim, &known_good).unwrap();
    assert!(!fleet.is_quarantined(victim));
    for t in [10, 11] {
        let report = fleet
            .advance_tick(&[Sample {
                meter: victim,
                power: mw(victim.0, t),
            }])
            .unwrap();
        assert_eq!((report.applied, report.dropped), (1, 0));
    }
    let bills = fleet.finalize_all().unwrap();
    assert_eq!(bills.len(), METERS);
    assert_eq!(bills, reference.finalize_all().unwrap());
}

#[test]
fn checkpoint_ring_survives_a_corrupt_generation_and_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("hpcgrid-ckpt-ring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut fleet, ids) = fleet_of(3);
    let mut store = CheckpointStore::open(&dir, 2).unwrap();

    let mut tick = 0u64;
    let advance = |fleet: &mut MeterFleet, n: u64, tick: &mut u64| {
        for _ in 0..n {
            fleet.advance_tick(&batch(&ids, *tick)).unwrap();
            *tick += 1;
        }
    };
    advance(&mut fleet, 5, &mut tick);
    assert_eq!(store.save(&fleet).unwrap(), 0);
    advance(&mut fleet, 3, &mut tick);
    assert_eq!(store.save(&fleet).unwrap(), 1);
    advance(&mut fleet, 2, &mut tick);
    assert_eq!(store.save(&fleet).unwrap(), 2);
    // Ring of 2: generation 0 was garbage collected.
    assert_eq!(store.generations().unwrap(), vec![1, 2]);

    // Tear the newest generation mid-file, as a crash mid-write upstream of
    // the rename never could — load falls back to generation 1.
    let newest = dir.join("ckpt-0000000002.json");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    let ckpt = store.load_latest().unwrap().expect("generation 1 intact");
    assert_eq!(ckpt.generation, 1);
    assert_eq!(ckpt.ticks, 8);
    assert_eq!(ckpt.meters.len(), 3);

    // A cold process: same registrations, restore, replay the ticks after
    // the checkpoint — bills are bit-identical to the uninterrupted fleet.
    let (mut revived, _) = fleet_of(3);
    assert_eq!(revived.restore_checkpoint(&ckpt).unwrap(), 3);
    let mut t = ckpt.ticks;
    while t < tick {
        revived.advance_tick(&batch(&ids, t)).unwrap();
        t += 1;
    }
    assert_eq!(
        revived.finalize_all().unwrap(),
        fleet.finalize_all().unwrap()
    );

    // Checkpoints are fingerprint-checked: a fleet billing a different
    // contract refuses the restore.
    let other = Contract::builder("other")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.99)))
        .build()
        .unwrap();
    let mut wrong = MeterFleet::with_shards(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(30),
        2,
    );
    for _ in 0..3 {
        wrong
            .register(&other, SimTime::EPOCH, Duration::from_minutes(STEP_MIN))
            .unwrap();
    }
    assert!(wrong.restore_checkpoint(&ckpt).is_err());

    // Saving sweeps stale temp debris from dead writers.
    let debris = dir.join("ckpt-0000000009.json.tmp.999999999");
    std::fs::write(&debris, b"half a checkpoint").unwrap();
    store.save(&fleet).unwrap();
    assert!(!debris.exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopened_store_continues_the_generation_sequence() {
    let dir = std::env::temp_dir().join(format!("hpcgrid-ckpt-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut fleet, ids) = fleet_of(2);
    fleet.advance_tick(&batch(&ids, 0)).unwrap();
    {
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store.save(&fleet).unwrap(), 0);
        assert_eq!(store.save(&fleet).unwrap(), 1);
    }
    // A new store (a restarted process) never reuses a published number.
    let mut store = CheckpointStore::open(&dir, 3).unwrap();
    assert_eq!(store.save(&fleet).unwrap(), 2);
    assert_eq!(store.load_latest().unwrap().unwrap().generation, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every meter's accrual state (sample count included) and bill equal
/// the reference fleet's.
fn assert_same_books(fleet: &MeterFleet, reference: &MeterFleet, ids: &[MeterId]) {
    for id in ids {
        assert_eq!(
            fleet.snapshot(*id).unwrap(),
            reference.snapshot(*id).unwrap(),
            "{id}"
        );
        let bill = fleet.finalize(*id).unwrap();
        assert!(bill.total().is_finite(), "{id}: {bill:?}");
        assert_eq!(bill, reference.finalize(*id).unwrap(), "{id}");
    }
}

fn frame(ids: &Arc<[MeterId]>, tick: u64) -> TickFrame {
    let powers = ids.iter().map(|id| mw(id.0, tick)).collect();
    TickFrame::new(Arc::clone(ids), powers).unwrap()
}

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

#[test]
fn non_finite_sample_fails_the_tick_and_leaves_the_meter_billable() {
    let (mut fleet, ids) = fleet_of(METERS);
    let (mut reference, _) = fleet_of(METERS);
    for t in 0..10 {
        fleet.advance_tick(&batch(&ids, t)).unwrap();
        reference.advance_tick(&batch(&ids, t)).unwrap();
    }
    // The victim sits mid-shard: shard 0 holds ids 0, 2 and 4.
    let victim = ids[2];
    for kw in NON_FINITE {
        let mut tick = batch(&ids, 10);
        tick[2].power = Power::from_kilowatts(kw);
        assert!(matches!(
            fleet.advance_tick(&tick),
            Err(CoreError::BadSeries(_))
        ));
        // No meter folded any sample of the rejected tick, before or
        // after the victim, in its shard or the other.
        assert_same_books(&fleet, &reference, &ids);
        assert!(!fleet.is_quarantined(victim));
    }
    // Retrying the tick without the bad reading lands every meter on the
    // same step as the reference.
    fleet.advance_tick(&batch(&ids, 10)).unwrap();
    reference.advance_tick(&batch(&ids, 10)).unwrap();
    assert_same_books(&fleet, &reference, &ids);
}

#[test]
fn unknown_meter_fails_the_tick_before_any_meter_folds() {
    let (mut fleet, ids) = fleet_of(METERS);
    let (mut reference, _) = fleet_of(METERS);
    for t in 0..10 {
        fleet.advance_tick(&batch(&ids, t)).unwrap();
        reference.advance_tick(&batch(&ids, t)).unwrap();
    }
    // The stranger sits mid-column, after meters of both shards.
    let mut tick = batch(&ids, 10);
    tick.insert(
        METERS / 2,
        Sample {
            meter: MeterId(99),
            power: mw(99, 10),
        },
    );
    assert!(matches!(
        fleet.advance_tick(&tick),
        Err(CoreError::BadSeries(_))
    ));
    assert_same_books(&fleet, &reference, &ids);
    // The next clean tick folds every meter exactly once.
    let report = fleet.advance_tick(&batch(&ids, 10)).unwrap();
    assert_eq!((report.samples, report.applied), (METERS, METERS));
    reference.advance_tick(&batch(&ids, 10)).unwrap();
    assert_same_books(&fleet, &reference, &ids);
}

#[test]
fn non_finite_power_fails_frames_and_windows_before_any_meter_folds() {
    let (mut fleet, ids) = fleet_of(METERS);
    let (mut reference, _) = fleet_of(METERS);
    let lane: Arc<[MeterId]> = ids.clone().into();
    let reversed: Arc<[MeterId]> = ids.iter().rev().copied().collect();
    fleet
        .advance_window(std::slice::from_ref(&frame(&lane, 0)))
        .unwrap();
    reference
        .advance_window(std::slice::from_ref(&frame(&lane, 0)))
        .unwrap();
    for kw in NON_FINITE {
        let mut bad = frame(&lane, 1);
        bad.powers_mut()[4] = Power::from_kilowatts(kw);
        // One frame.
        assert!(matches!(
            fleet.advance_window(std::slice::from_ref(&bad)),
            Err(CoreError::BadSeries(_))
        ));
        assert_same_books(&fleet, &reference, &ids);
        // A fused window (one shared lane) whose last frame is bad.
        let fused = [frame(&lane, 1), frame(&lane, 2), bad.clone()];
        assert!(fleet.advance_window(&fused).is_err());
        assert_same_books(&fleet, &reference, &ids);
        // A mixed-lane window, which folds frame by frame.
        let mut last = frame(&reversed, 3);
        last.powers_mut()[1] = Power::from_kilowatts(kw);
        let mixed = [frame(&lane, 1), frame(&reversed, 2), last];
        assert!(fleet.advance_window(&mixed).is_err());
        assert_same_books(&fleet, &reference, &ids);
    }
    let clean = [frame(&lane, 1), frame(&lane, 2), frame(&lane, 3)];
    fleet.advance_window(&clean).unwrap();
    reference.advance_window(&clean).unwrap();
    assert_same_books(&fleet, &reference, &ids);
}

#[test]
fn a_tick_failing_with_a_typed_error_still_quarantines_its_panics() {
    let (mut fleet, ids) = fleet_of(METERS);
    // Run ids[1] (shard 1) up to the horizon end: 30 days of 15-minute
    // samples. Its next sample overruns and fails shard 1's fold.
    let full: Vec<Sample> = (0..30 * 96)
        .map(|t| Sample {
            meter: ids[1],
            power: mw(1, t),
        })
        .collect();
    fleet.advance_tick(&full).unwrap();
    // ids[2] (shard 0) panics in the same tick.
    fleet.chaos_poison_meter(ids[2]).unwrap();
    assert!(matches!(
        fleet.advance_tick(&batch(&ids, 0)),
        Err(CoreError::BadSeries(_))
    ));
    assert!(fleet.is_quarantined(ids[2]));
    assert!(matches!(
        fleet.finalize(ids[2]),
        Err(CoreError::Quarantined(_))
    ));
}
