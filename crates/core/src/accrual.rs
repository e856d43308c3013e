//! Streaming bill accrual: fold one sample at a time into a running bill.
//!
//! Every batch path in this crate — interpreted or compiled — is an O(n)
//! replay over a *complete* load series. Utility-scale serving (millions of
//! meters billed continuously) needs the dual: a per-meter state machine
//! that folds one `(timestamp, Power)` sample in O(1) amortized and can
//! close the books at any instant. [`BillAccrual`] is that machine.
//!
//! # Bit-identity invariant
//!
//! `finalize()` after `k` pushes produces **bit for bit** the `Bill` that
//! [`CompiledContract::bill_with_events`] produces for the first-`k`-samples
//! series under [`Precision::BitExact`](crate::billing::Precision) — equal
//! totals, equal line items,
//! equal labels. This holds because every accumulator replicates the batch
//! path's expression shape and summation order:
//!
//! * **Strip tariffs** accumulate `Σ kW·h·price` per sample in arrival
//!   order, pricing through the kernel's segment timeline — replaying a
//!   cached segment map prefix when one matches the stream's geometry
//!   (the PR 4/5 machinery), and falling back to a monotone segment-cursor
//!   advance otherwise. Both produce the same `f64` prices, so the fold is
//!   identical either way.
//! * **Block tariffs** carry the current month's kWh bucket and fold closed
//!   months through `BlockTariff::monthly_cost` chronologically.
//! * **Demand charges** maintain the open month's metering chunk (the
//!   `downsample_mean` chunk anchored at the month slice's snapped start)
//!   and its peak state — a running max, or the top-k candidate set with the
//!   stable-sort tie order. Month boundaries replicate `Series::slice_time`
//!   snap-out, including the one-sample overlap at boundaries that are not
//!   step-aligned: the straddling sample is re-fed to the new month.
//! * **Powerbands** accumulate excursion kWh in sample order; **emergency
//!   windows** carry a running worst load per event window; the **service
//!   fee** is a month-count off the shared boundary index at finalize.
//!
//! Verified by the `accrual_equivalence` property tests at every stream
//! prefix, across all four tariff kinds, wrap-midnight TOU windows, and
//! month-straddling streams.
//!
//! # Mid-stream patches
//!
//! [`BillAccrual::rebind`] moves a live accrual onto a patched kernel
//! (see [`CompiledContract::patch`]) *without replaying history*, which is
//! only sound for deltas whose accrued state stays valid: fee changes,
//! demand-charge price changes (same interval/basis/floor), powerband
//! penalty changes (same bounds), emergency-clause changes, and component
//! removals. Deltas that would re-price history (tariff replacements,
//! corridor moves, adding a demand charge mid-stream) are rejected.
//!
//! [`BillAccrual::rebind_at`] is the *prospective* dual, built for ledger
//! events (see [`ContractLedger`](crate::ledger::ContractLedger)): instead
//! of re-pricing history it closes the books on the current revision's
//! slice at an effective instant and keeps streaming under the new kernel —
//! any delta is allowed, because nothing accrued crosses the boundary.
//! `finalize()` then folds the closed slices with the open one via
//! [`Bill::fold`], bit-identical to
//! [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of)
//! over the same stream.

use crate::billing::{Bill, LineItem, Precision};
use crate::compiled::{CompiledContract, LoweredTariff, SegmentMap};
use crate::demand_charge::{DemandAssessment, DemandBasis, DemandCharge};
use crate::typology::ContractComponentKind;
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_units::{kernels, Duration, Energy, Money, Power, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Replay state for a cached segment map whose geometry prefixes the stream.
#[derive(Debug, Clone)]
struct MapReplay {
    map: Arc<SegmentMap>,
    /// Sample count the map's geometry covers.
    len: u64,
    /// Current run index.
    run: usize,
}

/// Per-tariff accrual state, parallel to the kernel's tariff slots.
#[derive(Debug, Clone)]
enum TariffAccrual {
    /// Fixed/TOU/dynamic: running dollars + segment cursor (+ map replay).
    Strip {
        dollars: f64,
        seg: usize,
        replay: Option<MapReplay>,
    },
    /// Block: current month's kWh bucket + fold of closed months.
    Block {
        bi: usize,
        cur_kwh: f64,
        have: bool,
        total: Money,
    },
}

/// Running peak state of the open demand month.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum PeakState {
    /// Running max of completed chunk means, in kW.
    Max(Option<f64>),
    /// Top-k candidates as `(chunk_index, kW)`, kept sorted by
    /// (kW descending, chunk_index ascending) — the stable-descending-sort
    /// prefix `top_k_peaks` would produce.
    TopK(Vec<(u64, f64)>),
}

impl PeakState {
    fn new(basis: DemandBasis) -> PeakState {
        match basis {
            DemandBasis::MaxPeak => PeakState::Max(None),
            DemandBasis::TopKAverage(_) => PeakState::TopK(Vec::new()),
        }
    }

    fn observe(&mut self, k: usize, chunk_idx: u64, kw: f64) {
        match self {
            PeakState::Max(m) => *m = Some(m.map_or(kw, |c| c.max(kw))),
            PeakState::TopK(cands) => {
                // Insert after every candidate with a strictly greater or
                // equal demand: equal demands keep arrival (chronological)
                // order, exactly like the batch path's stable sort.
                let pos = cands.partition_point(|(_, c)| *c >= kw);
                if pos < k {
                    cands.insert(pos, (chunk_idx, kw));
                    cands.truncate(k);
                } else if cands.len() < k {
                    cands.push((chunk_idx, kw));
                }
            }
        }
    }

    /// The month's raw billed demand in kW, summed in the batch path's
    /// order. `None` if no chunk completed.
    fn billed_kw(&self) -> Option<f64> {
        match self {
            PeakState::Max(m) => *m,
            PeakState::TopK(cands) => {
                if cands.is_empty() {
                    return None;
                }
                let sum: f64 = cands.iter().map(|(_, kw)| *kw).sum();
                Some(sum / cands.len() as f64)
            }
        }
    }
}

/// Streaming demand-charge state.
#[derive(Debug, Clone)]
struct DemandAccrual {
    /// Samples per metering chunk (1 when the demand interval is no coarser
    /// than the sample step — metering is then the identity).
    factor: u64,
    /// Next month-boundary index to close.
    bi: usize,
    /// Billing-month number of the open month.
    month: u64,
    /// Global sample index where the open month's slice starts.
    month_i0: u64,
    chunk_sum: f64,
    chunk_count: u64,
    /// Completed chunks in the open month (the top-k arrival index).
    chunk_idx: u64,
    peak: PeakState,
    /// Assessments of closed months, in month order.
    closed: Vec<DemandAssessment>,
}

impl DemandAccrual {
    /// Mean of a metering chunk, replicating `downsample_mean`: a factor-1
    /// chunk is the raw sample (the batch path clones, it never divides).
    fn chunk_mean(&self) -> f64 {
        if self.factor == 1 {
            self.chunk_sum
        } else {
            self.chunk_sum / self.chunk_count as f64
        }
    }

    fn feed(&mut self, dc: &DemandCharge, kw: f64) {
        self.chunk_sum += kw;
        self.chunk_count += 1;
        if self.chunk_count == self.factor {
            let mean = self.chunk_mean();
            self.peak.observe(top_k(dc), self.chunk_idx, mean);
            self.chunk_sum = 0.0;
            self.chunk_count = 0;
            self.chunk_idx += 1;
        }
    }

    /// Assessment of the open month without mutating state (used both by
    /// the boundary-close path and the non-consuming `finalize`).
    fn closing_assessment(&self, dc: &DemandCharge) -> Option<DemandAssessment> {
        let mut peak = self.peak.clone();
        if self.chunk_count > 0 {
            // Partial trailing chunk: averaged over the samples present.
            peak.observe(top_k(dc), self.chunk_idx, self.chunk_mean());
        }
        let billed = dc.apply_floor(Power::from_kilowatts(peak.billed_kw()?));
        Some(DemandAssessment {
            month: self.month,
            billed_demand: billed,
            charge: billed * dc.price,
        })
    }
}

fn top_k(dc: &DemandCharge) -> usize {
    match dc.basis {
        DemandBasis::MaxPeak => 1,
        DemandBasis::TopKAverage(k) => k,
    }
}

/// Streaming powerband state: excursion energy in sample order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BandAccrual {
    over_kwh: f64,
    under_kwh: f64,
    violations: u64,
}

/// Streaming state of one emergency event window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WindowAccrual {
    /// Window `[start, end)` in seconds.
    start: u64,
    end: u64,
    /// First member sample index (snap-out: a sample straddling the window
    /// start belongs to it, like `Series::slice_time`).
    first_index: u64,
    /// Running worst load, `None` while no sample fell in the window.
    worst: Option<Power>,
}

/// A streaming bill: one contract meter folding samples into a running
/// bill in O(1) amortized per sample.
///
/// Samples arrive on a fixed grid — `start + i·step` — matching how a
/// [`PowerSeries`](hpcgrid_timeseries::series::PowerSeries) indexes
/// intervals; [`BillAccrual::push`] checks
/// the timestamp and [`BillAccrual::push_next`] skips the check (the fleet
/// tick path). [`BillAccrual::finalize`] closes the books at the current
/// instant and is bit-identical to the batch kernel — see the module docs.
///
/// ```
/// use hpcgrid_core::accrual::BillAccrual;
/// use hpcgrid_core::billing::Precision;
/// use hpcgrid_core::compiled::CompiledContract;
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_timeseries::series::Series;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
/// use std::sync::Arc;
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let cal = Calendar::default();
/// // Pin bit-exact: the bit-identity claim below is a `BitExact` statement
/// // (under a `Fast` kernel the accrual stays within its 1e-12 tolerance).
/// let kernel = Arc::new(
///     CompiledContract::compile(&cal, &contract, SimTime::EPOCH, SimTime::from_days(30))?
///         .with_precision(Precision::BitExact),
/// );
///
/// let step = Duration::from_minutes(15.0);
/// let mut meter = BillAccrual::new(Arc::clone(&kernel), SimTime::EPOCH, step)?;
/// let load = Series::constant(SimTime::EPOCH, step, Power::from_megawatts(8.0), 96)?;
/// for (t, &p) in load.iter() {
///     meter.push(t, p)?;
/// }
/// // Bit-identical to the batch path over the same samples.
/// assert_eq!(meter.finalize()?, kernel.bill(&load)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BillAccrual {
    kernel: Arc<CompiledContract>,
    /// First sample start, in seconds.
    start: u64,
    /// Sample step, in seconds.
    step: u64,
    /// Step width in hours — the batch path's `load.step().as_hours()`.
    step_h: f64,
    /// Samples folded so far.
    n: u64,
    /// kW of the most recent sample (re-fed to a new demand month when a
    /// boundary splits the sample — the `slice_time` snap-out overlap).
    last_kw: f64,
    tariffs: Vec<TariffAccrual>,
    demand: Option<DemandAccrual>,
    band: Option<BandAccrual>,
    windows: Vec<WindowAccrual>,
    /// Bills of revision slices closed by [`BillAccrual::rebind_at`], in
    /// time order; `finalize()` folds them with the open slice.
    closed_slices: Vec<Bill>,
    /// Fault-injection latch: the next `push_next` panics. Transient test
    /// state — never serialized, cleared by the panic it causes.
    poison_next: bool,
}

/// Serialized checkpoint of a [`BillAccrual`], from
/// [`BillAccrual::snapshot`]. Self-contained modulo the kernel: restoring
/// requires a kernel with the same [`CompiledContract::fingerprint`] (the
/// snapshot carries it for validation) but none of the compiled timelines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccrualSnapshot {
    /// `CompiledContract::fingerprint().0` of the kernel accrued against.
    pub fingerprint: u64,
    start: u64,
    step: u64,
    n: u64,
    last_kw: f64,
    /// Per-strip running dollars / per-block bucket state, in tariff order.
    tariffs: Vec<TariffSnapshot>,
    demand: Option<DemandSnapshot>,
    band: Option<BandAccrual>,
    windows: Vec<WindowAccrual>,
    /// Revision slices closed by [`BillAccrual::rebind_at`] before the
    /// snapshot was taken (empty for a single-revision stream).
    closed_slices: Vec<Bill>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TariffSnapshot {
    /// Running dollars; the segment cursor is re-seeked on restore.
    Strip(f64),
    /// `(current month kWh, bucket open, closed-months fold)`.
    Block(f64, bool, Money),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DemandSnapshot {
    chunk_sum: f64,
    chunk_count: u64,
    chunk_idx: u64,
    peak: PeakState,
    closed: Vec<DemandAssessment>,
}

impl BillAccrual {
    /// A fresh accrual against `kernel` for a sample stream starting at
    /// `start` with interval width `step` (no emergency event windows; see
    /// [`BillAccrual::with_events`]).
    ///
    /// Errors if `step` is zero, `start` lies outside the kernel's compile
    /// horizon, or the kernel's demand interval is incompatible with `step`
    /// (coarser but not an integer multiple — the same geometry the batch
    /// path rejects per bill, rejected here once).
    pub fn new(
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<BillAccrual> {
        BillAccrual::with_events(kernel, start, step, &IntervalSet::empty())
    }

    /// Like [`BillAccrual::new`], with emergency event windows the stream
    /// will be assessed against (the streaming form of
    /// [`CompiledContract::bill_with_events`]).
    pub fn with_events(
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
        events: &IntervalSet,
    ) -> Result<BillAccrual> {
        if step.is_zero() {
            return Err(CoreError::BadSeries("sample step must be positive".into()));
        }
        let (h_start, h_end) = kernel.horizon();
        if start < h_start || start >= h_end {
            return Err(CoreError::BadSeries(format!(
                "stream start {start} is outside the compiled horizon [{h_start}, {h_end})"
            )));
        }
        let s0 = start.as_secs();
        let step_s = step.as_secs();
        let tariffs = kernel
            .tariffs
            .iter()
            .map(|piece| match &piece.lowered {
                LoweredTariff::Strip(tl) => TariffAccrual::Strip {
                    dollars: 0.0,
                    seg: tl.breaks.partition_point(|b| *b <= s0) - 1,
                    replay: tl.prefix_map(s0, step_s).map(|(map, len)| MapReplay {
                        map,
                        len: len as u64,
                        run: 0,
                    }),
                },
                LoweredTariff::Block(_) => TariffAccrual::Block {
                    bi: kernel.boundary_after(s0),
                    cur_kwh: 0.0,
                    have: false,
                    total: Money::ZERO,
                },
            })
            .collect();
        let demand = match &kernel.demand_charge {
            Some(dc) => {
                dc.validate()?;
                let di = dc.demand_interval.as_secs();
                let factor = if di >= step_s {
                    if !di.is_multiple_of(step_s) {
                        return Err(CoreError::BadSeries(format!(
                            "demand interval {di}s is not an integer multiple of the \
                             sample step {step_s}s"
                        )));
                    }
                    di / step_s
                } else {
                    1
                };
                let bi = kernel.boundary_after(s0);
                Some(DemandAccrual {
                    factor,
                    bi,
                    month: kernel.first_month + bi as u64,
                    month_i0: 0,
                    chunk_sum: 0.0,
                    chunk_count: 0,
                    chunk_idx: 0,
                    peak: PeakState::new(dc.basis),
                    closed: Vec::new(),
                })
            }
            None => None,
        };
        let band = kernel.powerband.map(|_| BandAccrual {
            over_kwh: 0.0,
            under_kwh: 0.0,
            violations: 0,
        });
        // Window membership replicates `slice_time` snap-out against the
        // stream grid: first member index floors the window start, and a
        // sample is in while its start time is below the window end.
        let windows = events
            .intervals()
            .iter()
            .map(|w| {
                let ws = w.start.as_secs();
                WindowAccrual {
                    start: ws,
                    end: w.end.as_secs(),
                    first_index: if ws <= s0 { 0 } else { (ws - s0) / step_s },
                    worst: None,
                }
            })
            .collect();
        Ok(BillAccrual {
            kernel,
            start: s0,
            step: step_s,
            step_h: step.as_hours(),
            n: 0,
            last_kw: 0.0,
            tariffs,
            demand,
            band,
            windows,
            closed_slices: Vec::new(),
            poison_next: false,
        })
    }

    /// Arm a one-shot injected panic on the next [`BillAccrual::push_next`]
    /// — the fleet chaos hook behind
    /// [`MeterFleet::chaos_poison_meter`](crate::fleet::MeterFleet::chaos_poison_meter).
    /// Test-only plumbing; the latch is transient and never serialized.
    #[doc(hidden)]
    pub fn poison_next_push(&mut self) {
        self.poison_next = true;
    }

    /// The kernel this accrual bills against.
    pub fn kernel(&self) -> &Arc<CompiledContract> {
        &self.kernel
    }

    /// Samples folded so far.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Start time of the next expected sample.
    pub fn expected_next(&self) -> SimTime {
        SimTime::from_secs(self.start + self.n * self.step)
    }

    /// Fold one sample, checking its timestamp against the stream grid.
    /// Streams are gap-free: `t` must equal [`BillAccrual::expected_next`].
    pub fn push(&mut self, t: SimTime, power: Power) -> Result<()> {
        let expected = self.expected_next();
        if t != expected {
            return Err(CoreError::BadSeries(format!(
                "sample at {t} breaks the stream grid (expected {expected})"
            )));
        }
        self.push_next(power)
    }

    /// Fold one sample at the next grid instant (the fleet tick path).
    ///
    /// Before touching any state it rejects, in this order, a sample that
    /// runs past the compiled horizon and a sample whose power is NaN or
    /// infinite (one such sample would make every later bill of this
    /// accrual non-finite).
    pub fn push_next(&mut self, power: Power) -> Result<()> {
        if self.poison_next {
            self.poison_next = false;
            panic!("injected meter panic (chaos)");
        }
        let t = self.start + self.n * self.step;
        if t + self.step > self.kernel.end.as_secs() {
            return Err(self.past_horizon());
        }
        if !power.is_finite() {
            return Err(self.non_finite(power));
        }
        let kw = power.as_kilowatts();
        let i = self.n;
        let starts: &[u64] = &self.kernel.month_starts;

        for (slot, state) in self.kernel.tariffs.iter().zip(self.tariffs.iter_mut()) {
            match state {
                TariffAccrual::Strip {
                    dollars,
                    seg,
                    replay,
                } => {
                    let tl = match &slot.lowered {
                        LoweredTariff::Strip(tl) => tl,
                        LoweredTariff::Block(_) => unreachable!("strip state on block slot"),
                    };
                    let price = match replay {
                        Some(rep) if i < rep.len => {
                            while rep.map.runs[rep.run].0 as u64 <= i {
                                rep.run += 1;
                            }
                            rep.map.runs[rep.run].1
                        }
                        Some(rep) => {
                            // Map exhausted: resume cursor advance from the
                            // map's final segment.
                            *seg = rep.map.last_seg;
                            *replay = None;
                            advance_seg(seg, &tl.breaks, t);
                            tl.prices[*seg]
                        }
                        None => {
                            advance_seg(seg, &tl.breaks, t);
                            tl.prices[*seg]
                        }
                    };
                    // The batch fold's exact expression and order.
                    *dollars += kw * self.step_h * price;
                }
                TariffAccrual::Block {
                    bi,
                    cur_kwh,
                    have,
                    total,
                } => {
                    let b = match &slot.lowered {
                        LoweredTariff::Block(b) => b,
                        LoweredTariff::Strip(_) => unreachable!("block state on strip slot"),
                    };
                    while *bi < starts.len() && starts[*bi] <= t {
                        *bi += 1;
                        if *have {
                            *total += b.monthly_cost(*cur_kwh);
                            *cur_kwh = 0.0;
                            *have = false;
                        }
                    }
                    *cur_kwh += kw * self.step_h;
                    *have = true;
                }
            }
        }

        if let (Some(d), Some(dc)) = (self.demand.as_mut(), self.kernel.demand_charge.as_ref()) {
            while d.bi < starts.len() && starts[d.bi] <= t {
                let b = starts[d.bi];
                if let Some(a) = d.closing_assessment(dc) {
                    d.closed.push(a);
                }
                d.bi += 1;
                d.month += 1;
                d.month_i0 = (b - self.start) / self.step;
                d.chunk_sum = 0.0;
                d.chunk_count = 0;
                d.chunk_idx = 0;
                d.peak = PeakState::new(dc.basis);
                if !(b - self.start).is_multiple_of(self.step) {
                    // The boundary splits the previous sample: slice_time
                    // snap-out puts it in BOTH months, so re-feed it as the
                    // new month's first metering sample.
                    d.feed(dc, self.last_kw);
                }
            }
            d.feed(dc, kw);
        }

        if let (Some(band), Some(pb)) = (self.band.as_mut(), self.kernel.powerband.as_ref()) {
            if power > pb.upper {
                band.over_kwh += (power - pb.upper).as_kilowatts() * self.step_h;
                band.violations += 1;
            } else if let Some(lower) = pb.lower {
                if power < lower {
                    band.under_kwh += (lower - power).as_kilowatts() * self.step_h;
                    band.violations += 1;
                }
            }
        }

        for w in &mut self.windows {
            if i >= w.first_index && t < w.end {
                w.worst = Some(w.worst.map_or(power, |a| a.max(power)));
            }
        }

        self.last_kw = kw;
        self.n += 1;
        Ok(())
    }

    /// Fold a contiguous run of samples at the next grid instants — the
    /// fused form of calling [`BillAccrual::push_next`] once per sample,
    /// built for the fleet's windowed tick path
    /// ([`MeterFleet::advance_window`](crate::fleet::MeterFleet::advance_window)).
    ///
    /// Fusing keeps the segment cursor, map-replay position, and month
    /// cursors hot across the whole run: price/boundary lookups happen once
    /// per *run segment* instead of once per sample, and the inner loops
    /// are tight multiply-adds over the contiguous power slice.
    ///
    /// # Equivalence contract
    ///
    /// Under a [`Precision::BitExact`] kernel the accrued state after
    /// `push_run(powers)` is **bit-identical** to the state after
    /// `powers.len()` sequential `push_next` calls: every accumulator sees
    /// the same per-sample `f64` expressions in the same order — only
    /// cursor bookkeeping is hoisted out of the inner loops. Under a
    /// [`Precision::Fast`] kernel, constant-price runs fold through the
    /// 8-lane pairwise kernels in [`hpcgrid_units::kernels`] instead,
    /// within the fast path's documented 1e-12 relative tolerance.
    ///
    /// Error behaviour is per-sample-identical too: a run crossing the
    /// compile horizon or carrying a NaN/infinite sample applies the valid
    /// prefix and then returns exactly the error `push_next` would have
    /// returned for the first failing sample. An empty run is a no-op (zero
    /// `push_next` calls).
    pub fn push_run(&mut self, powers: &[Power]) -> Result<()> {
        if powers.is_empty() {
            return Ok(());
        }
        if self.poison_next {
            self.poison_next = false;
            panic!("injected meter panic (chaos)");
        }
        let end = self.kernel.end.as_secs();
        let t0 = self.start + self.n * self.step;
        // Sample `j` of the run occupies [t0 + j·step, t0 + (j+1)·step);
        // it fits while that interval ends at or before the horizon end.
        let fit = ((end - t0) / self.step) as usize;
        let run = &powers[..powers.len().min(fit)];
        let bad = run.iter().position(|p| !p.is_finite());
        self.fold_run(&run[..bad.unwrap_or(run.len())]);
        if let Some(j) = bad {
            return Err(self.non_finite(run[j]));
        }
        if run.len() < powers.len() {
            return Err(self.past_horizon());
        }
        Ok(())
    }

    /// The error for a next sample that runs past the compiled horizon.
    fn past_horizon(&self) -> CoreError {
        let t = self.start + self.n * self.step;
        CoreError::BadSeries(format!(
            "sample [{}, {}) runs past the compiled horizon end {}",
            SimTime::from_secs(t),
            SimTime::from_secs(t + self.step),
            self.kernel.end
        ))
    }

    /// The error for a next sample whose power is NaN or infinite.
    fn non_finite(&self, power: Power) -> CoreError {
        let t = self.start + self.n * self.step;
        CoreError::BadSeries(format!(
            "sample [{}, {}) has non-finite power {} kW",
            SimTime::from_secs(t),
            SimTime::from_secs(t + self.step),
            power.as_kilowatts()
        ))
    }

    /// The fused fold over a run already validated to fit the horizon.
    ///
    /// Component-outer: each accumulator walks the whole run before the
    /// next one starts. Components never read each other's state (demand's
    /// boundary re-feed needs the *previous sample's* kW, which comes from
    /// the run slice itself or `self.last_kw` for the run's first sample),
    /// so per-component order equals per-sample order — the bit-identity
    /// argument reduces to each inner loop replicating `push_next`'s
    /// expressions, which they do.
    fn fold_run(&mut self, powers: &[Power]) {
        if powers.is_empty() {
            return;
        }
        let len = powers.len() as u64;
        let kws = Power::kilowatts_slice(powers);
        let g0 = self.n;
        let start = self.start;
        let step = self.step;
        let step_h = self.step_h;
        let fast = self.kernel.precision() == Precision::Fast;
        let starts: &[u64] = &self.kernel.month_starts;

        for (slot, state) in self.kernel.tariffs.iter().zip(self.tariffs.iter_mut()) {
            match state {
                TariffAccrual::Strip {
                    dollars,
                    seg,
                    replay,
                } => {
                    let tl = match &slot.lowered {
                        LoweredTariff::Strip(tl) => tl,
                        LoweredTariff::Block(_) => unreachable!("strip state on block slot"),
                    };
                    let mut acc = *dollars;
                    let mut j = 0u64;
                    while j < len {
                        let g = g0 + j;
                        // The price in force at sample `g` and the global
                        // index its constant-price run extends to.
                        let (price, g_end) = if let Some(rep) = replay.as_mut() {
                            if g < rep.len {
                                while rep.map.runs[rep.run].0 as u64 <= g {
                                    rep.run += 1;
                                }
                                let (run_end, price) = rep.map.runs[rep.run];
                                (price, (run_end as u64).min(rep.len))
                            } else {
                                // Map exhausted: resume cursor advance from
                                // the map's final segment (push_next's
                                // exhaustion path), then re-enter the loop.
                                *seg = rep.map.last_seg;
                                *replay = None;
                                continue;
                            }
                        } else {
                            advance_seg(seg, &tl.breaks, start + g * step);
                            let g_end = match tl.breaks.get(*seg + 1) {
                                Some(&b) => (b - start).div_ceil(step),
                                None => u64::MAX,
                            };
                            (tl.prices[*seg], g_end)
                        };
                        let j_end = (g_end - g0).min(len);
                        let chunk = &kws[j as usize..j_end as usize];
                        if fast {
                            acc += kernels::sum_pairwise(chunk) * step_h * price;
                        } else {
                            // push_next's exact expression and order.
                            for &kw in chunk {
                                acc += kw * step_h * price;
                            }
                        }
                        j = j_end;
                    }
                    *dollars = acc;
                }
                TariffAccrual::Block {
                    bi,
                    cur_kwh,
                    have,
                    total,
                } => {
                    let b = match &slot.lowered {
                        LoweredTariff::Block(b) => b,
                        LoweredTariff::Strip(_) => unreachable!("block state on strip slot"),
                    };
                    let mut j = 0u64;
                    while j < len {
                        let t = start + (g0 + j) * step;
                        while *bi < starts.len() && starts[*bi] <= t {
                            *bi += 1;
                            if *have {
                                *total += b.monthly_cost(*cur_kwh);
                                *cur_kwh = 0.0;
                                *have = false;
                            }
                        }
                        let j_end = match starts.get(*bi) {
                            Some(&nb) => ((nb - start).div_ceil(step) - g0).min(len),
                            None => len,
                        };
                        let chunk = &kws[j as usize..j_end as usize];
                        if fast {
                            *cur_kwh += kernels::sum_pairwise(chunk) * step_h;
                        } else {
                            for &kw in chunk {
                                *cur_kwh += kw * step_h;
                            }
                        }
                        *have = true;
                        j = j_end;
                    }
                }
            }
        }

        if let (Some(d), Some(dc)) = (self.demand.as_mut(), self.kernel.demand_charge.as_ref()) {
            let mut j = 0u64;
            while j < len {
                let t = start + (g0 + j) * step;
                // kW of the most recently folded sample, for the snap-out
                // re-feed when a boundary splits it.
                let prev_kw = if j == 0 {
                    self.last_kw
                } else {
                    kws[j as usize - 1]
                };
                while d.bi < starts.len() && starts[d.bi] <= t {
                    let bnd = starts[d.bi];
                    if let Some(a) = d.closing_assessment(dc) {
                        d.closed.push(a);
                    }
                    d.bi += 1;
                    d.month += 1;
                    d.month_i0 = (bnd - start) / step;
                    d.chunk_sum = 0.0;
                    d.chunk_count = 0;
                    d.chunk_idx = 0;
                    d.peak = PeakState::new(dc.basis);
                    if !(bnd - start).is_multiple_of(step) {
                        d.feed(dc, prev_kw);
                    }
                }
                let j_end = match starts.get(d.bi) {
                    Some(&nb) => ((nb - start).div_ceil(step) - g0).min(len),
                    None => len,
                };
                for &kw in &kws[j as usize..j_end as usize] {
                    d.feed(dc, kw);
                }
                j = j_end;
            }
        }

        if let (Some(band), Some(pb)) = (self.band.as_mut(), self.kernel.powerband.as_ref()) {
            let upper = pb.upper;
            let lower = pb.lower;
            for &power in powers {
                if power > upper {
                    band.over_kwh += (power - upper).as_kilowatts() * step_h;
                    band.violations += 1;
                } else if let Some(lo) = lower {
                    if power < lo {
                        band.under_kwh += (lo - power).as_kilowatts() * step_h;
                        band.violations += 1;
                    }
                }
            }
        }

        if !self.windows.is_empty() {
            for w in &mut self.windows {
                // Member samples: i >= first_index and t < window end.
                let lo = w.first_index.max(g0);
                let hi = if w.end <= start {
                    g0
                } else {
                    (w.end - start).div_ceil(step).min(g0 + len)
                };
                if lo < hi {
                    let mut worst = w.worst;
                    for &p in &powers[(lo - g0) as usize..(hi - g0) as usize] {
                        worst = Some(worst.map_or(p, |a| a.max(p)));
                    }
                    w.worst = worst;
                }
            }
        }

        self.last_kw = kws[kws.len() - 1];
        self.n = g0 + len;
    }

    /// Close the books at the current instant. Non-consuming: the stream
    /// can keep accruing afterwards (month-to-date reporting).
    ///
    /// Bit-identical to `CompiledContract::bill_with_events` over the
    /// samples pushed so far, under `Precision::BitExact`. Errors on an
    /// empty stream, exactly like the batch path. After
    /// [`BillAccrual::rebind_at`] the closed revision slices are folded
    /// with the open one via [`Bill::fold`] — bit-identical to the ledger's
    /// as-of bill over the same samples.
    pub fn finalize(&self) -> Result<Bill> {
        if self.n == 0 {
            // A stream with closed slices but nothing in the open one yet
            // (finalize right after a rebind_at) still has books to close.
            return if self.closed_slices.is_empty() {
                Err(CoreError::BadSeries("load series is empty".into()))
            } else {
                Bill::fold(&self.closed_slices)
            };
        }
        let open = self.finalize_open()?;
        if self.closed_slices.is_empty() {
            return Ok(open);
        }
        Bill::fold(self.closed_slices.iter().chain(std::iter::once(&open)))
    }

    /// The open slice's bill: the batch-identical close of everything
    /// pushed since the last [`BillAccrual::rebind_at`] (or since creation).
    fn finalize_open(&self) -> Result<Bill> {
        if self.n == 0 {
            return Err(CoreError::BadSeries("load series is empty".into()));
        }
        let mut items = Vec::new();
        for (i, (slot, state)) in self.kernel.tariffs.iter().zip(&self.tariffs).enumerate() {
            let amount = match state {
                TariffAccrual::Strip { dollars, .. } => Money::from_dollars(*dollars),
                TariffAccrual::Block {
                    cur_kwh,
                    have,
                    total,
                    ..
                } => {
                    let b = match &slot.lowered {
                        LoweredTariff::Block(b) => b,
                        LoweredTariff::Strip(_) => unreachable!("block state on strip slot"),
                    };
                    if *have {
                        *total + b.monthly_cost(*cur_kwh)
                    } else {
                        *total
                    }
                }
            };
            items.push(LineItem {
                label: format!("{} tariff #{}", slot.kind().label(), i + 1),
                kind: Some(slot.kind()),
                amount,
            });
        }
        if let (Some(d), Some(dc)) = (self.demand.as_ref(), self.kernel.demand_charge.as_ref()) {
            // A month boundary strictly inside the final sample interval
            // splits it like `slice_time` snap-out: the straddling sample
            // closes the open month AND seeds a trailing month of its own.
            // Push never saw a sample at/past such a boundary, so close it
            // here, on a scratch copy (finalize must not mutate).
            let mut d = d.clone();
            let end = self.start + self.n * self.step;
            let starts: &[u64] = &self.kernel.month_starts;
            while d.bi < starts.len() && starts[d.bi] < end {
                if let Some(a) = d.closing_assessment(dc) {
                    d.closed.push(a);
                }
                d.bi += 1;
                d.month += 1;
                d.chunk_sum = 0.0;
                d.chunk_count = 0;
                d.chunk_idx = 0;
                d.peak = PeakState::new(dc.basis);
                d.feed(dc, self.last_kw);
            }
            let closing = d.closing_assessment(dc);
            let count = d.closed.len() + usize::from(closing.is_some());
            let amount: Money = d
                .closed
                .iter()
                .chain(closing.iter())
                .map(|a| a.charge)
                .sum();
            items.push(LineItem {
                label: format!("Demand charges ({count} billing months)"),
                kind: Some(ContractComponentKind::DemandCharge),
                amount,
            });
        }
        if let (Some(band), Some(pb)) = (self.band.as_ref(), self.kernel.powerband.as_ref()) {
            let amount = (Energy::from_kilowatt_hours(band.over_kwh)
                + Energy::from_kilowatt_hours(band.under_kwh))
                * pb.penalty;
            items.push(LineItem {
                label: format!("Powerband excursions ({} intervals)", band.violations),
                kind: Some(ContractComponentKind::Powerband),
                amount,
            });
        }
        if let Some(em) = &self.kernel.emergency {
            em.validate()?;
            let mut total = Money::ZERO;
            for w in &self.windows {
                let worst = w.worst.unwrap_or(Power::ZERO);
                if worst > em.limit {
                    total += em.penalty_per_event;
                }
            }
            items.push(LineItem {
                label: format!("Emergency DR penalties ({} events)", self.windows.len()),
                kind: Some(ContractComponentKind::EmergencyDr),
                amount: total,
            });
        }
        if self.kernel.monthly_fee > Money::ZERO {
            let end = self.start + self.n * self.step;
            let months = (self.kernel.boundary_after(end - 1)
                - self.kernel.boundary_after(self.start)) as u64
                + 1;
            items.push(LineItem {
                label: format!("Service fee ({months} months)"),
                kind: None,
                amount: self.kernel.monthly_fee * months as f64,
            });
        }
        Ok(Bill {
            contract: self.kernel.name.clone(),
            items,
        })
    }

    /// Move the accrual onto `kernel` — typically a
    /// [`CompiledContract::patch`] of the current one — and continue
    /// streaming, **without replaying history**.
    ///
    /// After a successful rebind, `finalize()` is bit-identical to billing
    /// the *entire* stream (past and future samples) under the new kernel,
    /// which is only possible when the accrued state stays valid. Allowed:
    /// service-fee changes, demand-charge *price* changes (interval, basis,
    /// and floor unchanged — closed months are re-priced from their stored
    /// billed demand), powerband *penalty* changes (bounds unchanged),
    /// emergency-clause changes (windows are tracked independently of the
    /// clause), and removing a demand charge or powerband. Rejected with
    /// [`CoreError::BadComponent`]: replacing a tariff with a different
    /// fingerprint, adding a demand charge or powerband mid-stream, or
    /// changing metering geometry / corridor bounds — those would re-price
    /// samples this accrual no longer holds. The new kernel must share the
    /// old one's calendar and horizon.
    pub fn rebind(&mut self, kernel: Arc<CompiledContract>) -> Result<()> {
        if kernel.horizon() != self.kernel.horizon() || kernel.calendar() != self.kernel.calendar()
        {
            return Err(CoreError::BadComponent(
                "rebind requires the same calendar and compile horizon".into(),
            ));
        }
        if kernel.tariffs.len() != self.kernel.tariffs.len() {
            return Err(CoreError::BadComponent(format!(
                "rebind cannot change the tariff count ({} -> {})",
                self.kernel.tariffs.len(),
                kernel.tariffs.len()
            )));
        }
        for (i, (old, new)) in self.kernel.tariffs.iter().zip(&kernel.tariffs).enumerate() {
            if old.fingerprint != new.fingerprint {
                return Err(CoreError::BadComponent(format!(
                    "rebind cannot replace tariff #{i} mid-stream: accrued energy \
                     cost cannot be re-priced without the sample history"
                )));
            }
        }
        match (&self.kernel.demand_charge, &kernel.demand_charge) {
            (_, None) => self.demand = None,
            (Some(old), Some(new)) => {
                if old.demand_interval != new.demand_interval
                    || old.basis != new.basis
                    || old.floor != new.floor
                {
                    return Err(CoreError::BadComponent(
                        "rebind supports demand-charge price changes only: interval, \
                         basis, and floor shape the accrued metering state"
                            .into(),
                    ));
                }
                if let Some(d) = self.demand.as_mut() {
                    for a in &mut d.closed {
                        a.charge = a.billed_demand * new.price;
                    }
                }
            }
            (None, Some(_)) => {
                return Err(CoreError::BadComponent(
                    "rebind cannot add a demand charge mid-stream: earlier months \
                     were never metered"
                        .into(),
                ));
            }
        }
        match (&self.kernel.powerband, &kernel.powerband) {
            (_, None) => self.band = None,
            (Some(old), Some(new)) => {
                if old.upper != new.upper || old.lower != new.lower {
                    return Err(CoreError::BadComponent(
                        "rebind supports powerband penalty changes only: moving the \
                         corridor would re-classify accrued excursions"
                            .into(),
                    ));
                }
            }
            (None, Some(_)) => {
                return Err(CoreError::BadComponent(
                    "rebind cannot add a powerband mid-stream: earlier excursions \
                     were never measured"
                        .into(),
                ));
            }
        }
        // Emergency clauses and the service fee apply at finalize; any
        // change (including add/remove) is sound.
        self.kernel = kernel;
        Ok(())
    }

    /// Splice a new revision into the stream *prospectively*: close the
    /// books on the current kernel's slice at `at` (which must be the next
    /// grid instant, [`BillAccrual::expected_next`]) and continue streaming
    /// under `kernel` — the streaming form of a ledger event taking effect
    /// (see [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of)).
    ///
    /// Unlike [`BillAccrual::rebind`], *any* delta is allowed — tariff
    /// replacements included — because nothing accrued crosses the
    /// boundary: the closed slice is billed under the old kernel, samples
    /// from `at` on are billed under the new one, and `finalize()` folds
    /// the slices via [`Bill::fold`]. The result is bit-identical to batch
    /// billing each slice separately (demand months and service fees
    /// restart at the boundary, exactly like two separate meters).
    ///
    /// The new kernel must share the old one's calendar and compile
    /// horizon; the open slice must be non-empty (an empty slice bills as
    /// nothing and would silently disagree with the ledger's slicing);
    /// streams with emergency event windows are rejected — event penalties
    /// are assessed per window, not per slice, so they cannot be spliced.
    pub fn rebind_at(&mut self, kernel: Arc<CompiledContract>, at: SimTime) -> Result<()> {
        if kernel.horizon() != self.kernel.horizon() || kernel.calendar() != self.kernel.calendar()
        {
            return Err(CoreError::BadComponent(
                "rebind_at requires the same calendar and compile horizon".into(),
            ));
        }
        if !self.windows.is_empty() {
            return Err(CoreError::BadComponent(
                "rebind_at cannot splice a stream with emergency event windows: \
                 penalties are assessed per window, not per revision slice"
                    .into(),
            ));
        }
        let expected = self.expected_next();
        if at != expected {
            return Err(CoreError::BadSeries(format!(
                "rebind_at({at}) must land on the next grid instant {expected}: \
                 a revision takes effect between samples, never inside one"
            )));
        }
        let closed = self.finalize_open()?;
        let mut fresh = BillAccrual::new(kernel, at, Duration::from_secs(self.step))?;
        fresh.closed_slices = std::mem::take(&mut self.closed_slices);
        fresh.closed_slices.push(closed);
        *self = fresh;
        Ok(())
    }

    /// Serialize the accrual's state for checkpointing. The snapshot is a
    /// plain serde struct — pair it with any format; restoring against a
    /// kernel with the same fingerprint resumes the stream bit-exactly
    /// ([`BillAccrual::restore`]).
    pub fn snapshot(&self) -> AccrualSnapshot {
        AccrualSnapshot {
            fingerprint: self.kernel.fingerprint().0,
            start: self.start,
            step: self.step,
            n: self.n,
            last_kw: self.last_kw,
            tariffs: self
                .tariffs
                .iter()
                .map(|t| match t {
                    TariffAccrual::Strip { dollars, .. } => TariffSnapshot::Strip(*dollars),
                    TariffAccrual::Block {
                        cur_kwh,
                        have,
                        total,
                        ..
                    } => TariffSnapshot::Block(*cur_kwh, *have, *total),
                })
                .collect(),
            demand: self.demand.as_ref().map(|d| DemandSnapshot {
                chunk_sum: d.chunk_sum,
                chunk_count: d.chunk_count,
                chunk_idx: d.chunk_idx,
                peak: d.peak.clone(),
                closed: d.closed.clone(),
            }),
            band: self.band.clone(),
            windows: self.windows.clone(),
            closed_slices: self.closed_slices.clone(),
        }
    }

    /// Rebuild an accrual from a snapshot and the kernel it was taken
    /// against (validated by fingerprint). The restored stream continues
    /// bit-identically to the original: cursor positions are re-derived
    /// from the grid, so only the numeric state travels.
    pub fn restore(kernel: Arc<CompiledContract>, snap: &AccrualSnapshot) -> Result<BillAccrual> {
        if kernel.fingerprint().0 != snap.fingerprint {
            return Err(CoreError::BadComponent(format!(
                "snapshot was taken against kernel {:016x}, not {:016x}",
                snap.fingerprint,
                kernel.fingerprint().0
            )));
        }
        let mut acc = BillAccrual::with_events(
            kernel,
            SimTime::from_secs(snap.start),
            Duration::from_secs(snap.step),
            &IntervalSet::empty(),
        )?;
        if snap.tariffs.len() != acc.tariffs.len() {
            return Err(CoreError::BadComponent(
                "snapshot tariff count does not match the kernel".into(),
            ));
        }
        acc.n = snap.n;
        acc.last_kw = snap.last_kw;
        // Seconds of the last pushed sample (grid position of all cursors).
        let t_last = snap.start + snap.n.saturating_sub(1) * snap.step;
        let starts: &[u64] = &acc.kernel.month_starts;
        let caught_up = snap.n > 0;
        let kernel = Arc::clone(&acc.kernel);
        for ((state, s), slot) in acc
            .tariffs
            .iter_mut()
            .zip(&snap.tariffs)
            .zip(&kernel.tariffs)
        {
            match (state, s) {
                (
                    TariffAccrual::Strip {
                        dollars,
                        seg,
                        replay,
                    },
                    TariffSnapshot::Strip(d),
                ) => {
                    *dollars = *d;
                    // Cursor positions re-derive from the grid: re-seek to
                    // the segment of the last pushed sample; push_next then
                    // advances monotonically from there. No map replay on
                    // restore — the cursor path is bit-identical anyway.
                    *replay = None;
                    if caught_up {
                        if let LoweredTariff::Strip(tl) = &slot.lowered {
                            *seg = tl.breaks.partition_point(|b| *b <= t_last) - 1;
                        }
                    }
                }
                (
                    TariffAccrual::Block {
                        bi,
                        cur_kwh,
                        have,
                        total,
                    },
                    TariffSnapshot::Block(c, h, tt),
                ) => {
                    *cur_kwh = *c;
                    *have = *h;
                    *total = *tt;
                    if caught_up {
                        *bi = starts.partition_point(|b| *b <= t_last);
                    }
                }
                _ => {
                    return Err(CoreError::BadComponent(
                        "snapshot tariff kinds do not match the kernel".into(),
                    ));
                }
            }
        }
        match (&mut acc.demand, &snap.demand, &acc.kernel.demand_charge) {
            (Some(d), Some(ds), Some(_)) => {
                d.chunk_sum = ds.chunk_sum;
                d.chunk_count = ds.chunk_count;
                d.chunk_idx = ds.chunk_idx;
                d.peak = ds.peak.clone();
                d.closed = ds.closed.clone();
                if caught_up {
                    d.bi = starts.partition_point(|b| *b <= t_last);
                    d.month = acc.kernel.first_month + d.bi as u64;
                    d.month_i0 = if d.bi > starts.partition_point(|b| *b <= snap.start) {
                        (starts[d.bi - 1] - snap.start) / snap.step
                    } else {
                        0
                    };
                }
            }
            (None, None, None) => {}
            _ => {
                return Err(CoreError::BadComponent(
                    "snapshot demand state does not match the kernel".into(),
                ));
            }
        }
        match (&mut acc.band, &snap.band) {
            (Some(b), Some(bs)) => *b = bs.clone(),
            (None, None) => {}
            _ => {
                return Err(CoreError::BadComponent(
                    "snapshot powerband state does not match the kernel".into(),
                ));
            }
        }
        acc.windows = snap.windows.clone();
        acc.closed_slices = snap.closed_slices.clone();
        Ok(acc)
    }

    /// Approximate heap + inline bytes this accrual holds — the fleet's
    /// bytes-per-meter statistic.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<BillAccrual>();
        bytes += self.tariffs.len() * std::mem::size_of::<TariffAccrual>();
        if let Some(d) = &self.demand {
            bytes += d.closed.capacity() * std::mem::size_of::<DemandAssessment>();
            if let PeakState::TopK(c) = &d.peak {
                bytes += c.capacity() * std::mem::size_of::<(u64, f64)>();
            }
        }
        bytes += self.windows.capacity() * std::mem::size_of::<WindowAccrual>();
        bytes
    }
}

/// Monotone segment-cursor advance: `seg` points at the segment containing
/// the previous sample; move it forward while the next break is at or
/// before `t`.
fn advance_seg(seg: &mut usize, breaks: &[u64], t: u64) {
    while let Some(&b) = breaks.get(*seg + 1) {
        if b <= t {
            *seg += 1;
        } else {
            break;
        }
    }
}
