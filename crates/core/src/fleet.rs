//! Sharded meter fleets: utility-scale streaming billing.
//!
//! A [`MeterFleet`] manages many [`BillAccrual`] meters at once, sharded by
//! contract fingerprint so every meter under the same contract shares one
//! `Arc`'d [`CompiledContract`] kernel — and with it the kernel's reusable
//! segment-map cache. Each advance fans the shards across the
//! `try_par_map` worker pool; each shard is owned by exactly one task per
//! advance, so the per-shard locks never contend.
//!
//! # Hot-path data layout
//!
//! The ingest path has two entry points and one plan-routed fold:
//!
//! * [`MeterFleet::advance_tick`] — one tick of AoS [`Sample`]s;
//! * [`MeterFleet::advance_window`] — one or more columnar [`TickFrame`]s
//!   (SoA: a shared meter-id lane plus a contiguous power lane per tick).
//!
//! Both resolve directory lookups, quarantine membership, and shard
//! bucketing **once** into a cached `ScatterPlan` with prefix-sum bucket
//! offsets. A tick matches its id column element-wise against the plan's
//! lane; frames sharing one `Arc`'d lane match by pointer. On the steady
//! state (same lane, unchanged population) no directory or quarantine
//! probe happens at all: each shard worker walks its contiguous bucket
//! and pulls the powers straight out of the caller's input. A one-tick
//! advance folds one `push_next` per sample; a wider window gathers each
//! meter's samples into one contiguous run folded by a single
//! [`BillAccrual::push_run`] call, so segment cursors stay hot across the
//! window and `catch_unwind` is paid once per meter-window instead of
//! once per sample.
//!
//! The scatter plan is reused while the population is stable and
//! invalidated by anything that moves meters or changes quarantine
//! membership: [`MeterFleet::register`], [`MeterFleet::apply_delta`],
//! [`MeterFleet::restore`] of a quarantined meter, and in-tick panics.
//!
//! The fleet preserves the accrual layer's bit-identity invariant meter by
//! meter and *per ingest shape*: `finalize(meter)` equals the batch bill
//! of that meter's sample history under `Precision::BitExact`, regardless
//! of shard count, tick batching, or whether the samples arrived as AoS
//! ticks or frame windows. The shard count (default: available
//! parallelism, override with [`MeterFleet::with_shards`] or the
//! `HPCGRID_FLEET_SHARDS` env var) is therefore pure deployment tuning.

use crate::accrual::{AccrualSnapshot, BillAccrual};
use crate::billing::Bill;
use crate::checkpoint::FleetCheckpoint;
use crate::compiled::CompiledContract;
use crate::contract::{Contract, ContractDelta};
use crate::kernels::KernelCache;
use crate::ledger::{EventPayload, LedgerEvent};
use crate::{CoreError, Result};
use hpcgrid_timeseries::par::try_par_map;
use hpcgrid_units::{Calendar, Duration, Power, SimTime};
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable overriding the fleet's shards-per-contract count.
pub const ENV_SHARDS: &str = "HPCGRID_FLEET_SHARDS";

/// Opaque handle to a registered meter. Returned by
/// [`MeterFleet::register`] and stable for the fleet's lifetime (meters
/// are never deregistered, only re-sharded by [`MeterFleet::apply_delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeterId(pub usize);

impl std::fmt::Display for MeterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "meter#{}", self.0)
    }
}

/// One metered power reading for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The meter the reading belongs to.
    pub meter: MeterId,
    /// Mean power over the meter's sample interval.
    pub power: Power,
}

/// One tick's samples in columnar (SoA) form: a meter-id lane shared by
/// `Arc` and a contiguous power lane.
///
/// Frames are the fleet's batched ingest currency: a driver builds the
/// meter-id lane once, then publishes one frame per tick by cloning the
/// `Arc` and filling a fresh power lane (or updating one in place via
/// [`TickFrame::powers_mut`]). Frames sharing one id lane compare by
/// pointer inside the fleet, so the cached `ScatterPlan` match costs a
/// pointer compare, not a scan.
///
/// ```
/// use hpcgrid_core::fleet::{MeterFleet, TickFrame};
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
/// use std::sync::Arc;
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let mut fleet = MeterFleet::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(30));
/// let step = Duration::from_minutes(15.0);
/// let ids = Arc::from(vec![
///     fleet.register(&contract, SimTime::EPOCH, step)?,
///     fleet.register(&contract, SimTime::EPOCH, step)?,
/// ]);
/// // One frame per tick, sharing the id lane.
/// let frames: Vec<TickFrame> = (0..4)
///     .map(|_| {
///         TickFrame::new(
///             Arc::clone(&ids),
///             vec![Power::from_megawatts(8.0), Power::from_megawatts(5.0)],
///         )
///     })
///     .collect::<Result<_, _>>()?;
/// let report = fleet.advance_window(&frames)?;
/// assert_eq!(report.applied, 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TickFrame {
    /// Meter ids, position-aligned with `powers`.
    meters: Arc<[MeterId]>,
    /// Mean power per meter over this tick.
    powers: Vec<Power>,
}

impl TickFrame {
    /// A frame from an id lane and a position-aligned power lane. Errors
    /// if the lanes disagree in length.
    pub fn new(meters: Arc<[MeterId]>, powers: Vec<Power>) -> Result<TickFrame> {
        if meters.len() != powers.len() {
            return Err(CoreError::BadSeries(format!(
                "tick frame lanes disagree: {} meter ids vs {} powers",
                meters.len(),
                powers.len()
            )));
        }
        Ok(TickFrame { meters, powers })
    }

    /// The shared meter-id lane.
    pub fn meters(&self) -> &Arc<[MeterId]> {
        &self.meters
    }

    /// The power lane, position-aligned with [`TickFrame::meters`].
    pub fn powers(&self) -> &[Power] {
        &self.powers
    }

    /// Mutable power lane — overwrite in place to reuse one frame
    /// allocation across ticks.
    pub fn powers_mut(&mut self) -> &mut [Power] {
        &mut self.powers
    }

    /// Samples in the frame.
    pub fn len(&self) -> usize {
        self.meters.len()
    }

    /// True if the frame carries no samples.
    pub fn is_empty(&self) -> bool {
        self.meters.is_empty()
    }
}

/// The cached scatter resolution for one meter-id lane (a tick's id column
/// or a frame's lane) against one fleet population: every directory
/// lookup, quarantine probe, and shard bucket assignment done once, with
/// prefix-sum offsets so each shard's pull is a contiguous entry range.
#[derive(Debug)]
struct ScatterPlan {
    /// Fleet population version the plan was built against.
    version: u64,
    /// The meter-id lane the plan serves.
    meters: Arc<[MeterId]>,
    /// Per-shard entry ranges: shard `s` owns entries
    /// `[offsets[s], offsets[s+1])`.
    offsets: Vec<usize>,
    /// Entry → shard-local meter slot.
    slots: Vec<u32>,
    /// Entry → lane position (index into the power lane).
    positions: Vec<u32>,
    /// Lane positions dropped every tick because their meter is
    /// quarantined.
    dropped_per_tick: usize,
    /// True if no meter id appears twice in the lane — the precondition
    /// for fusing a window per meter (duplicates must fold in lane order,
    /// which per-meter fusion would reorder).
    unique: bool,
}

/// A group of meters sharing one compiled kernel, advanced by one worker
/// task per advance.
struct Shard {
    /// `CompiledContract::fingerprint().0` of the shard's kernel.
    fingerprint: u64,
    kernel: Arc<CompiledContract>,
    /// Locked once per advance per worker; code holding `&mut self` uses
    /// the lock-free `get_mut` path.
    meters: Mutex<Meters>,
}

/// A shard's `(meter id, accrual)` slots — slot positions are tracked in
/// the fleet directory and patched up on `swap_remove`.
type Meters = Vec<(MeterId, BillAccrual)>;

/// What one fleet advance (tick or window) did with its samples.
///
/// Every offered sample lands in exactly one bucket: `applied` (folded into
/// a healthy meter), `dropped` (its meter was quarantined — before this
/// advance, or earlier in this advance by a panic), or the panicking sample
/// itself, which is counted in `dropped` *and* names its meter in
/// `newly_quarantined`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetTickReport {
    /// Samples offered to the advance.
    pub samples: usize,
    /// Samples folded into healthy meters.
    pub applied: usize,
    /// Samples discarded because their meter is quarantined (including the
    /// sample whose fold panicked and, for windows, the rest of that
    /// meter's window).
    pub dropped: usize,
    /// Meters quarantined by this advance, with the panic message that
    /// condemned them, in meter-id order. The reason is shared (`Arc`)
    /// with the fleet's quarantine map, not cloned per consumer.
    pub newly_quarantined: Vec<(MeterId, Arc<str>)>,
}

impl FleetTickReport {
    /// Merge another report into this one (used when a window degrades to
    /// per-frame ticks).
    fn absorb(&mut self, other: FleetTickReport) {
        self.samples += other.samples;
        self.applied += other.applied;
        self.dropped += other.dropped;
        self.newly_quarantined.extend(other.newly_quarantined);
    }
}

/// Operating statistics of a [`MeterFleet`] — the `BENCH_fleet.json`
/// ingredients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetStats {
    /// Registered meters.
    pub meters: usize,
    /// Live shards.
    pub shards: usize,
    /// Distinct compiled kernels (one per distinct contract).
    pub contracts: usize,
    /// Registrations and delta moves that reused an existing kernel.
    pub kernel_hits: u64,
    /// Registrations and delta moves that had to compile a kernel.
    pub kernel_misses: u64,
    /// Lane resolutions by window advances that reused the cached scatter
    /// plan. A [`MeterFleet::advance_window`] call resolves its frames'
    /// lane once if they share one, plus once per frame if the window
    /// degrades to per-frame advances (mixed lanes or duplicate ids);
    /// `plan_hits + plan_builds` counts those resolutions.
    ///
    /// Ticks are not counted. [`MeterFleet::advance_tick`] reuses or
    /// rebuilds the same plan, but a live stream runs many ticks per
    /// window, so counting them would hide the window reuse rate and
    /// break that one-count-per-window identity.
    pub plan_hits: u64,
    /// Scatter plan builds by window advances (first window, population
    /// changes, new lanes). Builds triggered by ticks are not counted;
    /// see [`FleetStats::plan_hits`].
    pub plan_builds: u64,
    /// Mean accrual state size per meter, in bytes (excludes the shared
    /// kernels — that is the point of sharding).
    pub bytes_per_meter: f64,
    /// Ticks advanced so far.
    pub ticks: u64,
    /// Wall-clock seconds spent inside tick and window advances.
    pub tick_seconds: f64,
    /// Samples folded across all ticks.
    pub samples: u64,
    /// `samples / tick_seconds` — the fleet's streaming throughput.
    pub meter_samples_per_sec: f64,
}

impl FleetStats {
    /// Fraction of kernel lookups served by an already-compiled kernel.
    pub fn kernel_reuse_rate(&self) -> f64 {
        let total = self.kernel_hits + self.kernel_misses;
        if total == 0 {
            0.0
        } else {
            self.kernel_hits as f64 / total as f64
        }
    }

    /// Fraction of window lane resolutions served by the cached scatter
    /// plan.
    pub fn plan_reuse_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_builds;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// What one shard's fold did. A typed error stops the shard's fold but
/// keeps the meters it already quarantined, so a failed advance still
/// quarantines every meter that panicked in it.
#[derive(Default)]
struct ShardOutcome {
    applied: usize,
    dropped: usize,
    panicked: Vec<(MeterId, Arc<str>)>,
    error: Option<CoreError>,
}

/// A sharded fleet of streaming meters over one calendar and compile
/// horizon.
///
/// ```
/// use hpcgrid_core::fleet::{MeterFleet, Sample};
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let mut fleet = MeterFleet::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(30));
/// let step = Duration::from_minutes(15.0);
/// let a = fleet.register(&contract, SimTime::EPOCH, step)?;
/// let b = fleet.register(&contract, SimTime::EPOCH, step)?; // shares a's kernel
/// for _ in 0..96 {
///     fleet.advance_tick(&[
///         Sample { meter: a, power: Power::from_megawatts(8.0) },
///         Sample { meter: b, power: Power::from_megawatts(5.0) },
///     ])?;
/// }
/// let bill = fleet.finalize(a)?;
/// assert!(bill.total().as_dollars() > 0.0);
/// assert_eq!(fleet.stats().contracts, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MeterFleet {
    /// One compiled kernel per distinct contract, shared by `Arc` across
    /// shards (and, via [`MeterFleet::kernel_cache`], with sweep drivers).
    kernels: KernelCache,
    /// Max sub-shards per distinct contract.
    shards_per_contract: usize,
    /// Shard indexes per kernel fingerprint, in creation order.
    shard_index: HashMap<u64, Vec<usize>>,
    /// Round-robin counters per kernel fingerprint.
    rr: HashMap<u64, usize>,
    shards: Vec<Shard>,
    /// `meter id -> (shard, slot)`.
    directory: Vec<(usize, usize)>,
    /// `meter id -> panic message` of meters retired by a panicking fold.
    /// Quarantined meters drop their samples and refuse `finalize` /
    /// `snapshot`; [`MeterFleet::restore`] rehabilitates them. Reasons are
    /// `Arc`-shared with the tick reports that minted them.
    quarantined: HashMap<usize, Arc<str>>,
    /// Monotone population version: bumped by anything that moves meters
    /// between shards or changes quarantine membership. A `ScatterPlan`
    /// is valid only while its version matches.
    pop_version: u64,
    /// The cached scatter plan of the most recent lane.
    plan: Option<ScatterPlan>,
    plan_hits: u64,
    plan_builds: u64,
    /// Epoch-stamped scratch for duplicate-meter detection during plan
    /// builds (meter id → last epoch seen), reused across rebuilds.
    stamp: Vec<u32>,
    stamp_epoch: u32,
    ticks: u64,
    tick_nanos: u128,
    samples: u64,
}

impl MeterFleet {
    /// An empty fleet billing under `calendar` for loads inside
    /// `[start, end)`, with the default shard count: `HPCGRID_FLEET_SHARDS`
    /// if set, otherwise the machine's available parallelism.
    pub fn new(calendar: Calendar, start: SimTime, end: SimTime) -> MeterFleet {
        let shards = std::env::var(ENV_SHARDS)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n >= 1)
            .unwrap_or_else(|| hpcgrid_timeseries::par::default_threads(usize::MAX));
        MeterFleet::with_shards(calendar, start, end, shards)
    }

    /// Like [`MeterFleet::new`] with an explicit shards-per-contract count
    /// (clamped to at least 1). Shard count never affects bills — only how
    /// ticks spread across the worker pool.
    pub fn with_shards(
        calendar: Calendar,
        start: SimTime,
        end: SimTime,
        shards_per_contract: usize,
    ) -> MeterFleet {
        MeterFleet {
            kernels: KernelCache::new(calendar, start, end),
            shards_per_contract: shards_per_contract.max(1),
            shard_index: HashMap::new(),
            rr: HashMap::new(),
            shards: Vec::new(),
            directory: Vec::new(),
            quarantined: HashMap::new(),
            pop_version: 0,
            plan: None,
            plan_hits: 0,
            plan_builds: 0,
            stamp: Vec::new(),
            stamp_epoch: 0,
            ticks: 0,
            tick_nanos: 0,
            samples: 0,
        }
    }

    /// The fleet's compile horizon.
    pub fn horizon(&self) -> (SimTime, SimTime) {
        self.kernels.horizon()
    }

    /// The fleet's kernel cache — peek at compiled kernels (e.g. to stock a
    /// sweep's `SharedInputs` registry with the same `Arc`s the fleet
    /// bills through).
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    /// Registered meter count.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True if no meters are registered.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Register a meter under `contract`, streaming from `start` at
    /// interval `step`. Compiles the contract's kernel at most once per
    /// distinct contract — subsequent registrations share it by `Arc`.
    pub fn register(
        &mut self,
        contract: &Contract,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let kernel = self.kernels.get_or_compile(contract)?;
        self.add_meter(kernel, start, step)
    }

    /// Register a meter against an already-compiled kernel — the warm path
    /// when the caller compiled (and possibly pre-seeded segment maps on)
    /// the kernel itself. The kernel must share the fleet's horizon.
    pub fn register_compiled(
        &mut self,
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let (start_h, end_h) = self.kernels.horizon();
        if kernel.horizon() != (start_h, end_h) {
            return Err(CoreError::BadSeries(format!(
                "kernel horizon {:?} does not match the fleet horizon [{start_h}, {end_h})",
                kernel.horizon(),
            )));
        }
        let kernel = self.kernels.get_or_insert(kernel)?;
        self.add_meter(kernel, start, step)
    }

    /// Place a fresh accrual on one of its kernel's sub-shards.
    fn add_meter(
        &mut self,
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let accrual = BillAccrual::new(Arc::clone(&kernel), start, step)?;
        let id = MeterId(self.directory.len());
        let (shard, slot) = self.place(kernel, accrual, id);
        self.directory.push((shard, slot));
        self.pop_version += 1;
        Ok(id)
    }

    /// Round-robin an accrual across its kernel's sub-shards, creating
    /// sub-shards lazily up to the per-contract cap.
    fn place(
        &mut self,
        kernel: Arc<CompiledContract>,
        accrual: BillAccrual,
        id: MeterId,
    ) -> (usize, usize) {
        let fp = kernel.fingerprint().0;
        let list = self.shard_index.entry(fp).or_default();
        let shard = if list.len() < self.shards_per_contract {
            let idx = self.shards.len();
            self.shards.push(Shard {
                fingerprint: fp,
                kernel,
                meters: Mutex::new(Vec::new()),
            });
            list.push(idx);
            idx
        } else {
            let rr = self.rr.entry(fp).or_insert(0);
            let idx = list[*rr % list.len()];
            *rr += 1;
            idx
        };
        let meters = lock_mut(&mut self.shards[shard].meters);
        meters.push((id, accrual));
        (shard, meters.len() - 1)
    }

    /// Advance the fleet by one tick: route `samples` through the cached
    /// scatter plan, then fold every shard's bucket in parallel. A meter
    /// absent from `samples` simply lags — its accrual keeps its own
    /// clock. Samples for the same meter fold in slice order.
    ///
    /// The plan is reused when its lane equals the samples' id column
    /// element for element (a steady-state tick allocates nothing for
    /// routing); otherwise it is rebuilt from the samples.
    ///
    /// The fleet degrades instead of dying: a fold that *panics* (a
    /// poisoned accrual, an injected fault) quarantines that one meter —
    /// its sample and the rest of its batch are dropped, every other meter
    /// folds normally, and the casualty is reported in
    /// [`FleetTickReport::newly_quarantined`]. Subsequent ticks drop the
    /// quarantined meter's samples in the plan until
    /// [`MeterFleet::restore`] rehabilitates it from a known-good snapshot.
    /// Typed errors (grid misuse, horizon overrun) still fail the tick. An
    /// unknown meter or a NaN or infinite power fails it before any meter
    /// folds a sample.
    pub fn advance_tick(&mut self, samples: &[Sample]) -> Result<FleetTickReport> {
        let t0 = Instant::now();
        for s in samples {
            check_finite(s.meter, s.power)?;
        }
        self.ensure_plan(
            |lane| {
                lane.len() == samples.len() && lane.iter().zip(samples).all(|(m, s)| *m == s.meter)
            },
            || samples.iter().map(|s| s.meter).collect(),
        )?;
        self.advance_planned(t0, 1, |_, pos| samples[pos].power)
    }

    /// Advance the fleet by a window of columnar [`TickFrame`]s, one tick
    /// per frame — semantically identical to calling
    /// [`MeterFleet::advance_tick`] once per frame in order (bills
    /// bit-identical, same degradation rules). A one-frame window
    /// (`advance_window(std::slice::from_ref(&frame))`) is the columnar
    /// tick. A wider window gathers each meter's samples into one
    /// contiguous run folded by a single [`BillAccrual::push_run`], so
    /// cursor state stays hot and `catch_unwind` is paid once per
    /// meter-window.
    ///
    /// The fused fold needs one scatter plan for the whole window: every
    /// frame must carry the same meter-id lane (share it by `Arc` to make
    /// the check a pointer compare) with no duplicate meters. Windows that
    /// don't qualify degrade gracefully to per-frame advances — same
    /// bills, same report, just without the fusion win.
    ///
    /// A meter that panics mid-window is quarantined and the *rest of its
    /// window* is dropped; every other meter still folds its full window.
    /// A NaN or infinite power in any frame fails the whole window before
    /// any meter folds a sample.
    pub fn advance_window(&mut self, frames: &[TickFrame]) -> Result<FleetTickReport> {
        let t0 = Instant::now();
        let Some(first) = frames.first() else {
            return Ok(FleetTickReport::default());
        };
        for frame in frames {
            if let Some(pos) = frame.powers.iter().position(|p| !p.is_finite()) {
                check_finite(frame.meters[pos], frame.powers[pos])?;
            }
        }
        if frames.iter().all(|f| same_lane(&f.meters, &first.meters)) {
            self.ensure_window_plan(&first.meters)?;
            if frames.len() == 1 || self.plan.as_ref().is_some_and(|p| p.unique) {
                return self.advance_planned(t0, frames.len(), |f, pos| frames[f].powers[pos]);
            }
        }
        // Mixed lanes or duplicate ids: one-frame advances, each resolving
        // its own lane, so a panic in one frame re-plans the next.
        let mut report = FleetTickReport::default();
        for frame in frames {
            self.ensure_window_plan(&frame.meters)?;
            report.absorb(self.advance_planned(Instant::now(), 1, |_, pos| frame.powers[pos])?);
        }
        report.newly_quarantined.sort_by_key(|(id, _)| *id);
        Ok(report)
    }

    /// The one fleet advance: fold `w` ticks through the current scatter
    /// plan, every shard's bucket in parallel. `power(f, pos)` is tick
    /// `f`'s power at lane position `pos`. The caller has ensured the plan
    /// and checked every power finite; for `w > 1` the plan's lane is
    /// duplicate-free.
    fn advance_planned(
        &mut self,
        t0: Instant,
        w: usize,
        power: impl Fn(usize, usize) -> Power + Sync,
    ) -> Result<FleetTickReport> {
        let plan = self.plan.as_ref().expect("the caller ensured the plan");
        let mut report = FleetTickReport {
            samples: plan.meters.len() * w,
            dropped: plan.dropped_per_tick * w,
            ..FleetTickReport::default()
        };
        let shards = &self.shards;
        let shard_ids: Vec<usize> = (0..shards.len()).collect();
        let worked = try_par_map(&shard_ids, |&s| {
            let (lo, hi) = (plan.offsets[s], plan.offsets[s + 1]);
            let bucket = plan.slots[lo..hi].iter().zip(&plan.positions[lo..hi]);
            fold_shard(&mut lock(&shards[s].meters), bucket, w, &power)
        })
        .map_err(|e| CoreError::BatchPanic(e.to_string()))?;
        self.absorb_outcomes(&mut report, worked)?;
        self.ticks += w as u64;
        self.samples += report.applied as u64;
        self.tick_nanos += t0.elapsed().as_nanos();
        Ok(report)
    }

    /// [`MeterFleet::ensure_plan`] for a window's frame lane, counted in
    /// [`FleetStats::plan_hits`] / [`FleetStats::plan_builds`].
    fn ensure_window_plan(&mut self, meters: &Arc<[MeterId]>) -> Result<()> {
        if self.ensure_plan(|lane| same_lane(lane, meters), || Arc::clone(meters))? {
            self.plan_hits += 1;
        } else {
            self.plan_builds += 1;
        }
        Ok(())
    }

    /// Reuse the cached scatter plan when it matches the current
    /// population and `serves` its lane; rebuild it over `lane()`
    /// otherwise. Returns true on reuse.
    fn ensure_plan(
        &mut self,
        serves: impl FnOnce(&Arc<[MeterId]>) -> bool,
        lane: impl FnOnce() -> Arc<[MeterId]>,
    ) -> Result<bool> {
        if let Some(p) = &self.plan {
            if p.version == self.pop_version && serves(&p.meters) {
                return Ok(true);
            }
        }
        self.plan = Some(self.build_plan(lane())?);
        Ok(false)
    }

    /// Resolve one lane against the current population: two O(n) passes
    /// (bucket counts, then prefix-sum fill), with quarantine membership
    /// folded in (quarantined positions are dropped from the plan, so the
    /// steady-state advance never probes the quarantine map).
    fn build_plan(&mut self, meters: Arc<[MeterId]>) -> Result<ScatterPlan> {
        if meters.len() > u32::MAX as usize {
            return Err(CoreError::BadSeries(format!(
                "a lane of {} samples exceeds the plan's u32 position space",
                meters.len()
            )));
        }
        let nshards = self.shards.len();
        let mut counts = vec![0usize; nshards];
        let mut dropped_per_tick = 0usize;
        let check_quarantine = !self.quarantined.is_empty();
        for m in meters.iter() {
            let (shard, _) = *self
                .directory
                .get(m.0)
                .ok_or_else(|| CoreError::BadSeries(format!("unknown {}", m)))?;
            if check_quarantine && self.quarantined.contains_key(&m.0) {
                dropped_per_tick += 1;
                continue;
            }
            counts[shard] += 1;
        }
        let mut offsets = vec![0usize; nshards + 1];
        for s in 0..nshards {
            offsets[s + 1] = offsets[s] + counts[s];
        }
        let total = offsets[nshards];
        let mut slots = vec![0u32; total];
        let mut positions = vec![0u32; total];
        let mut cursor = offsets.clone();
        // Epoch-stamped duplicate detection: one u32 store per meter, no
        // clearing between rebuilds.
        self.stamp_epoch = self.stamp_epoch.wrapping_add(1);
        if self.stamp_epoch == 0 {
            self.stamp.clear();
            self.stamp_epoch = 1;
        }
        if self.stamp.len() < self.directory.len() {
            self.stamp.resize(self.directory.len(), 0);
        }
        let mut unique = true;
        for (pos, m) in meters.iter().enumerate() {
            if check_quarantine && self.quarantined.contains_key(&m.0) {
                continue;
            }
            let (shard, slot) = self.directory[m.0];
            if self.stamp[m.0] == self.stamp_epoch {
                unique = false;
            } else {
                self.stamp[m.0] = self.stamp_epoch;
            }
            let k = cursor[shard];
            slots[k] = slot as u32;
            positions[k] = pos as u32;
            cursor[shard] += 1;
        }
        Ok(ScatterPlan {
            version: self.pop_version,
            meters,
            offsets,
            slots,
            positions,
            dropped_per_tick,
            unique,
        })
    }

    /// Aggregate per-shard fold outcomes into `report` and quarantine the
    /// casualties (bumping the population version so the scatter plan
    /// drops them at rebuild). The casualties are quarantined even when a
    /// shard failed with a typed error, which is then returned.
    fn absorb_outcomes(
        &mut self,
        report: &mut FleetTickReport,
        worked: Vec<ShardOutcome>,
    ) -> Result<()> {
        let mut error = None;
        for outcome in worked {
            report.applied += outcome.applied;
            report.dropped += outcome.dropped;
            report.newly_quarantined.extend(outcome.panicked);
            if error.is_none() {
                error = outcome.error;
            }
        }
        report.newly_quarantined.sort_by_key(|(id, _)| *id);
        if !report.newly_quarantined.is_empty() {
            for (id, reason) in &report.newly_quarantined {
                self.quarantined.insert(id.0, Arc::clone(reason));
            }
            self.pop_version += 1;
        }
        error.map_or(Ok(()), Err)
    }

    /// Close the books of one meter — bit-identical to the batch bill of
    /// its pushed history (see the [`crate::accrual`] invariant). Errors
    /// with [`CoreError::Quarantined`] for a quarantined meter: its accrual
    /// died mid-fold and its state is not trustworthy.
    pub fn finalize(&self, meter: MeterId) -> Result<Bill> {
        self.check_quarantine(meter)?;
        let (shard, slot) = self.locate(meter)?;
        lock(&self.shards[shard].meters)[slot].1.finalize()
    }

    /// Close the books of every *healthy* meter, in parallel, returned in
    /// meter-id order. Quarantined meters are skipped — inspect
    /// [`MeterFleet::quarantined`] to account for them.
    pub fn finalize_all(&self) -> Result<Vec<(MeterId, Bill)>> {
        let quarantined = &self.quarantined;
        let per_shard = try_par_map(&self.shards, |shard| -> Result<Vec<(MeterId, Bill)>> {
            lock(&shard.meters)
                .iter()
                .filter(|(id, _)| !quarantined.contains_key(&id.0))
                .map(|(id, acc)| acc.finalize().map(|b| (*id, b)))
                .collect()
        })
        .map_err(|e| CoreError::BatchPanic(e.to_string()))?;
        let mut bills: Vec<(MeterId, Bill)> =
            Vec::with_capacity(self.directory.len() - quarantined.len());
        for part in per_shard {
            bills.extend(part?);
        }
        bills.sort_by_key(|(id, _)| *id);
        Ok(bills)
    }

    /// Serialize one meter's accrual state for checkpointing. Errors with
    /// [`CoreError::Quarantined`] for a quarantined meter — a snapshot of a
    /// half-folded accrual must never reach a checkpoint.
    pub fn snapshot(&self, meter: MeterId) -> Result<AccrualSnapshot> {
        self.check_quarantine(meter)?;
        let (shard, slot) = self.locate(meter)?;
        Ok(lock(&self.shards[shard].meters)[slot].1.snapshot())
    }

    /// Snapshot every healthy meter in meter-id order — the payload of a
    /// [`FleetCheckpoint`]. Quarantined meters are excluded by
    /// construction, so a checkpoint only ever holds trustworthy state.
    pub fn snapshot_all(&self) -> Vec<(u64, AccrualSnapshot)> {
        (0..self.directory.len())
            .filter(|id| !self.quarantined.contains_key(id))
            .map(|id| {
                let (shard, slot) = self.directory[id];
                let snap = lock(&self.shards[shard].meters)[slot].1.snapshot();
                (id as u64, snap)
            })
            .collect()
    }

    /// Restore one meter's accrual state from a snapshot taken against the
    /// same contract (validated by kernel fingerprint). The restored meter
    /// continues streaming bit-identically to the original. Restoring a
    /// quarantined meter rehabilitates it — the snapshot replaces the
    /// untrustworthy state wholesale.
    pub fn restore(&mut self, meter: MeterId, snap: &AccrualSnapshot) -> Result<()> {
        let (shard, slot) = self.locate(meter)?;
        let kernel = Arc::clone(&self.shards[shard].kernel);
        let restored = BillAccrual::restore(kernel, snap)?;
        lock_mut(&mut self.shards[shard].meters)[slot].1 = restored;
        if self.quarantined.remove(&meter.0).is_some() {
            // Rehabilitation re-admits the meter to scatter plans.
            self.pop_version += 1;
        }
        Ok(())
    }

    /// Restore every meter recorded in `ckpt` (rehabilitating quarantined
    /// ones) and adopt the checkpoint's tick count. Returns the number of
    /// meters restored. Meters registered after the checkpoint was taken
    /// are left untouched.
    pub fn restore_checkpoint(&mut self, ckpt: &FleetCheckpoint) -> Result<usize> {
        for (id, snap) in &ckpt.meters {
            self.restore(MeterId(*id as usize), snap)?;
        }
        self.ticks = ckpt.ticks;
        Ok(ckpt.meters.len())
    }

    /// Meters currently quarantined, with the panic message that condemned
    /// each, in meter-id order. Reasons are shared `Arc`s, not copies.
    pub fn quarantined(&self) -> Vec<(MeterId, Arc<str>)> {
        let mut out: Vec<(MeterId, Arc<str>)> = self
            .quarantined
            .iter()
            .map(|(id, reason)| (MeterId(*id), Arc::clone(reason)))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// True if `meter` is quarantined.
    pub fn is_quarantined(&self, meter: MeterId) -> bool {
        self.quarantined.contains_key(&meter.0)
    }

    /// Arm a one-shot injected panic on `meter`'s next fold — the chaos
    /// hook behind the fleet degradation tests. Test-only plumbing.
    #[doc(hidden)]
    pub fn chaos_poison_meter(&mut self, meter: MeterId) -> Result<()> {
        let (shard, slot) = self.locate(meter)?;
        lock_mut(&mut self.shards[shard].meters)[slot]
            .1
            .poison_next_push();
        Ok(())
    }

    fn check_quarantine(&self, meter: MeterId) -> Result<()> {
        match self.quarantined.get(&meter.0) {
            Some(reason) => Err(CoreError::Quarantined(format!("{meter}: {reason}"))),
            None => Ok(()),
        }
    }

    /// Patch one meter's contract mid-stream and move it to the patched
    /// kernel's shard group. The accrual continues without replaying
    /// history, so only accrual-preserving deltas are accepted — see
    /// [`BillAccrual::rebind`] for the exact rules. On error the meter is
    /// left untouched on its current kernel.
    pub fn apply_delta(&mut self, meter: MeterId, delta: &ContractDelta) -> Result<()> {
        let (shard, slot) = self.locate(meter)?;
        let old_fp = self.shards[shard].fingerprint;
        let patched = self.shards[shard].kernel.patch(delta)?;
        let new_fp = patched.fingerprint().0;
        if new_fp == old_fp {
            return Ok(()); // delta was a no-op; kernel content unchanged
        }
        let kernel = self.kernels.get_or_insert(Arc::new(patched))?;
        // Rebind first: if the delta is not accrual-preserving this fails
        // and the meter stays where it is.
        let mut accrual = lock_mut(&mut self.shards[shard].meters)[slot].1.clone();
        accrual.rebind(Arc::clone(&kernel))?;
        // Remove from the old shard, patching the directory entry of
        // whichever meter swap_remove moved into the vacated slot.
        {
            let meters = lock_mut(&mut self.shards[shard].meters);
            meters.swap_remove(slot);
            if let Some((moved_id, _)) = meters.get(slot) {
                self.directory[moved_id.0] = (shard, slot);
            }
        }
        let (new_shard, new_slot) = self.place(kernel, accrual, meter);
        self.directory[meter.0] = (new_shard, new_slot);
        // Two directory entries moved; cached scatter plans are stale.
        self.pop_version += 1;
        Ok(())
    }

    /// Apply a contract-ledger event to a live meter: the fleet-side hook a
    /// ledger driver calls when a renegotiation lands, so a
    /// [`LedgerEvent`] re-shards live meters through the existing
    /// [`MeterFleet::apply_delta`] patch path (the meter's kernel is
    /// patched, its accrual rebound, and the meter moves to the shard of
    /// the revised fingerprint — a no-op if the event does not change the
    /// kernel). `Created` events describe meters that do not exist yet —
    /// register those with [`MeterFleet::register`] instead.
    ///
    /// The delta must be accrual-preserving (the
    /// [`BillAccrual::rebind`] rules); events that would re-price history
    /// are rejected and the meter stays where it is — close its books and
    /// re-register to take such a revision mid-stream, or bill the horizon
    /// through [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of).
    pub fn apply_event(&mut self, meter: MeterId, event: &LedgerEvent) -> Result<()> {
        match &event.payload {
            EventPayload::Delta(delta) => self.apply_delta(meter, delta),
            EventPayload::Created(_) => Err(CoreError::Ledger(format!(
                "a created event opens a new stream; register a meter for it \
                 instead of applying it to live {meter}"
            ))),
        }
    }

    /// Operating statistics: meter count, memory per meter, kernel and
    /// scatter-plan reuse, and streaming throughput.
    pub fn stats(&self) -> FleetStats {
        let mut bytes: usize = 0;
        for shard in &self.shards {
            bytes += lock(&shard.meters)
                .iter()
                .map(|(_, acc)| acc.approx_bytes())
                .sum::<usize>();
        }
        let meters = self.directory.len();
        let secs = self.tick_nanos as f64 / 1e9;
        FleetStats {
            meters,
            shards: self.shards.len(),
            contracts: self.kernels.len(),
            kernel_hits: self.kernels.hits(),
            kernel_misses: self.kernels.misses(),
            plan_hits: self.plan_hits,
            plan_builds: self.plan_builds,
            bytes_per_meter: if meters == 0 {
                0.0
            } else {
                bytes as f64 / meters as f64
            },
            ticks: self.ticks,
            tick_seconds: secs,
            samples: self.samples,
            meter_samples_per_sec: if secs > 0.0 {
                self.samples as f64 / secs
            } else {
                0.0
            },
        }
    }

    fn locate(&self, meter: MeterId) -> Result<(usize, usize)> {
        self.directory
            .get(meter.0)
            .copied()
            .ok_or_else(|| CoreError::BadSeries(format!("unknown {}", meter)))
    }
}

/// Fold one shard's plan bucket in lane order: each `(slot, position)`
/// entry's meter takes its `w` samples — one `push_next` when `w == 1`,
/// one `push_run` over the gathered run otherwise — quarantining a meter
/// whose fold panics. The rest of a casualty's samples in this advance are
/// dropped: a lazily-allocated slot bitmap catches its later entries in a
/// lane that names it twice, O(1) per entry, and the common panic-free
/// advance never allocates or probes it.
fn fold_shard<'a>(
    meters: &mut [(MeterId, BillAccrual)],
    bucket: impl Iterator<Item = (&'a u32, &'a u32)>,
    w: usize,
    power: &impl Fn(usize, usize) -> Power,
) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    let mut bits: Vec<u64> = Vec::new();
    let words = meters.len().div_ceil(64);
    let mut run: Vec<Power> = Vec::with_capacity(if w > 1 { w } else { 0 });
    for (&slot, &pos) in bucket {
        let (slot, pos) = (slot as usize, pos as usize);
        if !bits.is_empty() && bits[slot / 64] & (1 << (slot % 64)) != 0 {
            out.dropped += w;
            continue;
        }
        let (id, accrual) = &mut meters[slot];
        let before = accrual.samples();
        let folded = if w == 1 {
            let p = power(0, pos);
            catch_unwind(AssertUnwindSafe(|| accrual.push_next(p)))
        } else {
            run.clear();
            run.extend((0..w).map(|f| power(f, pos)));
            catch_unwind(AssertUnwindSafe(|| accrual.push_run(&run)))
        };
        match folded {
            Ok(Ok(())) => out.applied += w,
            Ok(Err(e)) => {
                out.error = Some(e);
                break;
            }
            Err(payload) => {
                // The fold got `done` samples in before dying.
                let done = (accrual.samples() - before) as usize;
                out.applied += done;
                out.dropped += w - done;
                if bits.is_empty() {
                    bits = vec![0u64; words];
                }
                bits[slot / 64] |= 1 << (slot % 64);
                out.panicked.push((*id, panic_reason(payload)));
            }
        }
    }
    out
}

/// Reject a batch carrying a NaN or infinite power before any meter folds
/// it, so one bad reading fails the advance with every meter unchanged.
fn check_finite(meter: MeterId, power: Power) -> Result<()> {
    if power.is_finite() {
        Ok(())
    } else {
        Err(CoreError::BadSeries(format!(
            "{meter} has non-finite power {} kW; the advance was rejected",
            power.as_kilowatts()
        )))
    }
}

/// True if two id lanes are the same lane: one `Arc` (a pointer compare)
/// or equal element for element.
fn same_lane(a: &Arc<[MeterId]>, b: &Arc<[MeterId]>) -> bool {
    Arc::ptr_eq(a, b) || a[..] == b[..]
}

/// Human-readable panic message out of a `catch_unwind` payload, shared
/// behind one `Arc` by the tick report and the quarantine map.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> Arc<str> {
    if let Some(s) = payload.downcast_ref::<&str>() {
        Arc::from(*s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        Arc::from(s.as_str())
    } else {
        Arc::from("panic payload of unknown type")
    }
}

/// Lock a shard from a shared borrow (the parallel advance path).
/// Poisoning cannot leave half-applied state — a panicking task dies
/// before its advance's result is observed — so poisoned locks are
/// recovered.
fn lock(meters: &Mutex<Meters>) -> std::sync::MutexGuard<'_, Meters> {
    meters.lock().unwrap_or_else(|p| p.into_inner())
}

/// Lock a shard through `&mut` (registration, delta moves): no locking at
/// all.
fn lock_mut(meters: &mut Mutex<Meters>) -> &mut Meters {
    match meters.get_mut() {
        Ok(m) => m,
        Err(p) => p.into_inner(),
    }
}
