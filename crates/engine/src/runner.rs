//! The sweep runner: a bounded work-stealing worker pool that executes
//! scenarios deterministically, isolates per-scenario panics, consults the
//! content-addressed cache, and preserves submission order in its results.
//!
//! One private driver does the work of every entry point. It hashes each
//! spec once, probes the cache once per distinct spec (recomputing corrupt
//! artifacts), executes the misses on the pool under the retry budget and
//! deadline, commits each result to the cache (and, given an artifact
//! directory, to a checksummed binary artifact), and fills in the
//! [`RunReport`]. The entry points differ only in the sink the driver hands
//! each hit and completion to:
//!
//! * [`SweepRunner::run`] — ordered slots, one per submitted spec
//!   (submission order preserved). Right for sweeps whose results are then
//!   tabulated individually.
//! * [`SweepRunner::run_fold`] — per-worker accumulators of an
//!   order-insensitive monoid fold, merged at the end; never materializes
//!   `Vec<R>`. Right for population-scale sweeps (10⁵–10⁷ scenarios) whose
//!   output is an aggregate: totals, histograms, argmins.
//! * [`SweepRunner::run_fold_journaled`] / [`SweepRunner::resume`] — one
//!   locked fold that journals every contribution as it absorbs it, so a
//!   killed sweep resumes without re-executing anything journaled.

use crate::cache::{CacheTier, ResultCache};
use crate::chaos::{self, sites, FailpointSet};
use crate::error::{io_classed, EngineError, RetryPolicy, ScenarioError};
use crate::hash::ContentHash;
use crate::journal::{sweep_fingerprint_of, JournalReplay, RunJournal};
use crate::report::{Disposition, RunReport, ScenarioRecord};
use crate::shared::SharedInputs;
use crate::spec::ScenarioSpec;
use hpcgrid_timeseries::par::{default_threads, panic_message};
use serde::{DeError, Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker pool size; `None` uses the machine's available parallelism
    /// bounded by the number of cache misses.
    pub threads: Option<usize>,
    /// Retry budget for failing scenarios.
    pub retry: RetryPolicy,
    /// Per-scenario wall-clock budget. When set, a worker waits at most this
    /// long per attempt; over-budget attempts surface as
    /// [`ScenarioError::TimedOut`] instead of wedging the worker. `None`
    /// (the default) waits indefinitely and runs attempts inline.
    pub deadline: Option<Duration>,
    /// In journaled folds, checkpoint the serialized accumulator (and flush
    /// the journal) every this many completed scenarios. Smaller values
    /// bound replay work after a crash; larger values cost less I/O.
    pub checkpoint_every: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: None,
            retry: RetryPolicy::default(),
            deadline: None,
            checkpoint_every: 256,
        }
    }
}

/// What a scenario closure receives: the spec, a deterministic seed derived
/// from the spec's content hash, and the sweep's zero-copy
/// [`SharedInputs`]. Using `ctx.seed` (rather than ad-hoc seeds) makes a
/// scenario's randomness a pure function of its spec — the property the
/// cache relies on.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCtx<'a> {
    /// The scenario being executed.
    pub spec: &'a ScenarioSpec,
    /// Deterministic per-scenario RNG seed.
    pub seed: u64,
    /// `Arc`'d inputs common to every scenario in the sweep (compiled
    /// kernels, load series). See [`SharedInputs`] for the cache-safety
    /// contract: shared inputs must not carry state the spec doesn't hash.
    pub shared: &'a SharedInputs,
}

/// The outcome of one sweep: per-scenario results in submission order, plus
/// the run report.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// One slot per submitted spec, in submission order.
    pub results: Vec<Result<R, ScenarioError>>,
    /// Observability for the run.
    pub report: RunReport,
}

impl<R> SweepOutcome<R> {
    /// Successful results, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &R> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Scenario errors, in submission order.
    pub fn errors(&self) -> impl Iterator<Item = &ScenarioError> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }

    /// Unwrap every result, panicking with a summary if any scenario failed.
    pub fn expect_all(self, context: &str) -> Vec<R> {
        let n_failed = self.errors().count();
        if n_failed > 0 {
            panic_with_failures(context, n_failed, self.errors());
        }
        self.results
            .into_iter()
            .map(|r| r.expect("checked above"))
            .collect()
    }
}

/// The outcome of a streaming [`SweepRunner::run_fold`]: the folded
/// aggregate plus the errors of scenarios that failed (which therefore
/// contributed nothing to the aggregate).
#[derive(Debug)]
pub struct FoldOutcome<A> {
    /// The fold of every successful scenario result into `init`.
    pub value: A,
    /// Errors of failed scenarios, in no particular order.
    pub errors: Vec<ScenarioError>,
    /// Observability for the run. `scenarios` records are *not* populated
    /// in fold mode — per-scenario bookkeeping is exactly the memory cost
    /// streaming exists to avoid.
    pub report: RunReport,
}

impl<A> FoldOutcome<A> {
    /// Unwrap the aggregate, panicking with a summary if any scenario
    /// failed.
    pub fn expect_all(self, context: &str) -> A {
        if !self.errors.is_empty() {
            panic_with_failures(context, self.errors.len(), self.errors.iter());
        }
        self.value
    }
}

/// The `expect_all` failure summary: the count, then the first five errors.
fn panic_with_failures<'e>(
    context: &str,
    n_failed: usize,
    errors: impl Iterator<Item = &'e ScenarioError>,
) -> ! {
    let lines: Vec<String> = errors.take(5).map(ScenarioError::to_string).collect();
    panic!(
        "{context}: {n_failed} scenario(s) failed:\n  {}",
        lines.join("\n  ")
    );
}

/// Scenario orchestration engine entry point.
///
/// Holds the result cache across sweeps, so consecutive sweeps in one process
/// share hits; configure an artifact directory to share across processes.
///
/// ```
/// use hpcgrid_engine::{ScenarioSpec, SweepRunner};
///
/// let specs: Vec<ScenarioSpec> = (0..4)
///     .map(|i| {
///         ScenarioSpec::builder("doubling")
///             .param("x", i as i64)
///             .build()
///     })
///     .collect();
/// let mut runner: SweepRunner<i64> = SweepRunner::new();
/// let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("x")? * 2));
/// assert_eq!(outcome.results[3].as_ref().unwrap(), &6);
/// // Identical re-run: served entirely from cache.
/// let again = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("x")? * 2));
/// assert_eq!(again.report.cache_hits(), 4);
/// assert_eq!(again.report.executed, 0);
/// ```
#[derive(Debug)]
pub struct SweepRunner<R> {
    cache: ResultCache<R>,
    config: SweepConfig,
    shared: Arc<SharedInputs>,
    chaos: Arc<FailpointSet>,
}

impl<R: Clone + Send + Serialize + Deserialize> Default for SweepRunner<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Clone + Send + Serialize + Deserialize> SweepRunner<R> {
    /// Runner with an in-memory cache and default configuration.
    pub fn new() -> Self {
        SweepRunner {
            cache: ResultCache::in_memory(),
            config: SweepConfig::default(),
            shared: Arc::new(SharedInputs::new()),
            chaos: chaos::env_failpoints(),
        }
    }

    /// Runner whose cache persists checksummed binary artifacts under
    /// `dir`.
    pub fn with_artifact_dir(dir: impl Into<std::path::PathBuf>) -> Result<Self, EngineError> {
        Ok(SweepRunner {
            cache: ResultCache::with_artifact_dir(dir)?,
            config: SweepConfig::default(),
            shared: Arc::new(SharedInputs::new()),
            chaos: chaos::env_failpoints(),
        })
    }

    /// Replace the configuration.
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the retry budget.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Set the worker pool size.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads.max(1));
        self
    }

    /// Set the per-scenario deadline (see [`SweepConfig::deadline`]).
    ///
    /// With a deadline, each attempt runs on a watchdog thread the worker
    /// waits on; a timed-out attempt is abandoned (it finishes in the
    /// background — a *bounded* stall drains by sweep end, a truly hung
    /// scenario needs a process kill plus journal resume) and retried or
    /// recorded as [`ScenarioError::TimedOut`].
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.config.deadline = Some(budget);
        self
    }

    /// Set the journal checkpoint cadence (see
    /// [`SweepConfig::checkpoint_every`]).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.config.checkpoint_every = every.max(1);
        self
    }

    /// Arm an explicit failpoint set for this runner, its cache, and any
    /// journal it writes — overrides the `HPCGRID_FAILPOINTS` default. Used
    /// by chaos tests to inject faults deterministically.
    pub fn chaos(mut self, set: FailpointSet) -> Self {
        let set = Arc::new(set);
        self.cache.set_chaos(Arc::clone(&set));
        self.chaos = set;
        self
    }

    /// Set the sweep's zero-copy [`SharedInputs`], available to every
    /// scenario via [`ScenarioCtx::shared`].
    pub fn shared_inputs(mut self, shared: SharedInputs) -> Self {
        self.shared = Arc::new(shared);
        self
    }

    /// Access the underlying cache.
    pub fn cache_mut(&mut self) -> &mut ResultCache<R> {
        &mut self.cache
    }

    /// Run a sweep: execute `f` for every spec not already cached, in
    /// parallel, panics isolated per scenario; return results in submission
    /// order plus the run report.
    pub fn run<F>(&mut self, specs: &[ScenarioSpec], f: F) -> SweepOutcome<R>
    where
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
    {
        let t0 = Instant::now();
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let push = |share: &mut Vec<Resolved<R>>, done| {
            share.push(done);
            Ok(())
        };
        let (mut report, shares) = self.drive(specs, &hashes, &HashSet::new(), &f, Vec::new, &push);
        let mut slots: Vec<Option<Resolved<R>>> = (0..specs.len()).map(|_| None).collect();
        for done in shares.into_iter().flatten() {
            let slot = done.slot;
            slots[slot] = Some(done);
        }
        // Duplicates copy their first occurrence's result, as memory hits.
        let mut first: HashMap<ContentHash, usize> = HashMap::with_capacity(specs.len());
        let mut results: Vec<Result<R, ScenarioError>> = Vec::with_capacity(specs.len());
        for (i, (spec, &key)) in specs.iter().zip(&hashes).enumerate() {
            let src = *first.entry(key).or_insert(i);
            let (disposition, wall, attempts, result) = match slots[i].take() {
                Some(done) => (done.disposition, done.wall, done.attempts, done.result),
                None => (
                    Disposition::MemoryHit,
                    Duration::ZERO,
                    0,
                    results[src].clone(),
                ),
            };
            results.push(result);
            report.scenarios.push(ScenarioRecord {
                spec: key,
                label: spec.label(),
                disposition,
                wall,
                attempts,
            });
        }
        report.wall = t0.elapsed();
        SweepOutcome { results, report }
    }

    /// Run a sweep as a streaming reduction: every successful result is
    /// folded into an accumulator *as workers finish*, so the sweep never
    /// materializes `Vec<R>` — memory stays O(workers + failures) no matter
    /// how many scenarios are submitted.
    ///
    /// `fold` absorbs one result into an accumulator; `merge` combines two
    /// accumulators. Together with `init` they must form a **commutative
    /// monoid** (fold/merge order is whatever order workers finish in):
    /// sums, counts, min/max, histograms qualify; order-sensitive folds do
    /// not. When they do, the aggregate is exactly what
    /// `run(...)` + a sequential fold would produce.
    ///
    /// Panic isolation, the retry budget, cache consultation, artifact
    /// commits, and duplicate-spec deduplication all behave exactly as in
    /// [`SweepRunner::run`] (a duplicate spec executes once and is folded
    /// once per occurrence).
    ///
    /// ```
    /// use hpcgrid_engine::{ScenarioSpec, SweepRunner};
    ///
    /// let specs: Vec<ScenarioSpec> = (0..1000)
    ///     .map(|i| ScenarioSpec::builder("sum").param("x", i as i64).build())
    ///     .collect();
    /// let mut runner: SweepRunner<i64> = SweepRunner::new();
    /// let total = runner
    ///     .run_fold(
    ///         &specs,
    ///         |ctx| Ok(ctx.spec.param_i64("x")?),
    ///         0_i64,
    ///         |acc, x| acc + x,
    ///         |a, b| a + b,
    ///     )
    ///     .expect_all("sum sweep");
    /// assert_eq!(total, 499_500);
    /// ```
    pub fn run_fold<A, F, Fold, Merge>(
        &mut self,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
        merge: Merge,
    ) -> FoldOutcome<A>
    where
        A: Clone + Send,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
        Merge: Fn(A, A) -> A,
    {
        let t0 = Instant::now();
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        // Every share folds into an accumulator of its own: no lock, no
        // serialization.
        let share = || (Some(init.clone()), Vec::new());
        let fold_share = |(acc, errors): &mut (Option<A>, Vec<ScenarioError>),
                          done: Resolved<R>| {
            match done.result {
                Ok(value) => fold_into(acc, value, done.mult, &fold),
                Err(e) => errors.push(e),
            }
            Ok(())
        };
        let (mut report, shares) =
            self.drive(specs, &hashes, &HashSet::new(), &f, share, &fold_share);
        // The probe phase's share comes first, then the workers' in worker
        // order, for what little determinism that buys a commutative monoid.
        let mut shares = shares.into_iter();
        let (acc, mut errors) = shares.next().expect("the probe phase's share");
        let mut value = acc.expect("share accumulator present");
        for (acc, errs) in shares {
            value = merge(value, acc.expect("share accumulator present"));
            errors.extend(errs);
        }
        report.wall = t0.elapsed();
        FoldOutcome {
            value,
            errors,
            report,
        }
    }

    /// Like [`SweepRunner::run_fold`], but crash-safe: every completed
    /// scenario is recorded in an append-only run journal at `journal_path`
    /// (created fresh, truncating any previous file), and the serialized
    /// accumulator is checkpointed every [`SweepConfig::checkpoint_every`]
    /// completions. A killed process loses at most the unflushed journal
    /// tail; [`SweepRunner::resume`] finishes the sweep without re-executing
    /// any journaled scenario.
    ///
    /// Differences from `run_fold`:
    ///
    /// * No `merge`: workers hand completed results to a single folding
    ///   sink, so the fold happens sequentially **in journal append order**
    ///   and every checkpoint is a faithful prefix of the fold. `fold` must
    ///   still be a commutative monoid over `init` (append order varies with
    ///   worker timing) — which is also exactly what makes a resumed fold
    ///   bit-identical to an uninterrupted one.
    /// * The accumulator must serialize (`A: Serialize + Deserialize`) so
    ///   checkpoints can be written and restored.
    /// * Failed scenarios are *not* journaled: a resume attempts them again.
    /// * If the sweep stops early (an `engine.sweep.crash` failpoint fires,
    ///   or the journal becomes unwritable), the outcome's
    ///   `report.interrupted` is true and `value` holds the partial fold.
    ///
    /// Journal I/O is buffered: records are durable at checkpoint cadence,
    /// not per scenario, which keeps the overhead of journaling a warm sweep
    /// within a few percent.
    pub fn run_fold_journaled<A, F, Fold>(
        &mut self,
        journal_path: impl AsRef<Path>,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
    ) -> Result<FoldOutcome<A>, EngineError>
    where
        A: Send + Serialize + Deserialize,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
    {
        self.fold_journaled(journal_path.as_ref(), None, specs, f, init, fold)
    }

    /// Continue an interrupted [`SweepRunner::run_fold_journaled`] from its
    /// journal: restore the fold from the latest checkpoint plus the
    /// journaled results after it, then execute only the scenarios the
    /// journal does not cover, appending to the same journal.
    ///
    /// `specs`, `f`, `init`, and `fold` must describe the same sweep that
    /// wrote the journal. The spec list is validated against the journal's
    /// fingerprint (order-insensitively); a mismatch is
    /// [`EngineError::Journal`]. Journaled scenarios are never re-executed —
    /// they surface in the report as `journal_replayed` (counted per
    /// submission, like cache hits).
    pub fn resume<A, F, Fold>(
        &mut self,
        journal_path: impl AsRef<Path>,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
    ) -> Result<FoldOutcome<A>, EngineError>
    where
        A: Send + Serialize + Deserialize,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
    {
        let replay = RunJournal::replay(journal_path.as_ref())?;
        self.fold_journaled(journal_path.as_ref(), Some(replay), specs, f, init, fold)
    }

    /// The journaled fold behind [`SweepRunner::run_fold_journaled`] (no
    /// `replay`: start a fresh journal at `path`) and [`SweepRunner::resume`]
    /// (restore the fold from `replay`, the journal's contents, and run only
    /// what it does not cover).
    fn fold_journaled<A, F, Fold>(
        &mut self,
        path: &Path,
        replay: Option<JournalReplay>,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
    ) -> Result<FoldOutcome<A>, EngineError>
    where
        A: Send + Serialize + Deserialize,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
    {
        let t0 = Instant::now();
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let fingerprint = sweep_fingerprint_of(&hashes);
        let chaos = Arc::clone(&self.chaos);
        let (journal, acc, skip) = match replay {
            None => {
                let journal =
                    RunJournal::create(path, fingerprint, specs.len(), Arc::clone(&chaos))?;
                (journal, init, HashSet::new())
            }
            Some(replay) => {
                if replay.fingerprint != fingerprint {
                    return Err(EngineError::Journal(format!(
                        "journal {} was written for a different sweep \
                         (its fingerprint {} != this spec list's {})",
                        path.display(),
                        replay.fingerprint,
                        fingerprint
                    )));
                }
                let undecodable = |what: &str, e: DeError| {
                    EngineError::Journal(format!(
                        "{what} in {} does not deserialize: {e}",
                        path.display()
                    ))
                };
                // Restore the fold: latest checkpoint, then the journaled
                // results appended after it, in journal order.
                let (covered, mut acc) = match &replay.checkpoint {
                    Some((k, acc_value)) => (
                        *k,
                        A::from_value(acc_value)
                            .map_err(|e| undecodable("checkpoint accumulator", e))?,
                    ),
                    None => (0, init),
                };
                for (_, mult, value) in &replay.entries[covered..] {
                    let result =
                        R::from_value(value).map_err(|e| undecodable("journaled result", e))?;
                    for _ in 0..*mult {
                        acc = fold(acc, result.clone());
                    }
                }
                let done = replay.entries.len();
                let journal = RunJournal::open_append(path, done, Arc::clone(&chaos))?;
                (journal, acc, replay.done_set())
            }
        };
        let sink = Mutex::new(FoldSink {
            journal,
            acc: Some(acc),
            errors: Vec::new(),
        });
        let every = self.config.checkpoint_every.max(1);
        let absorb = |_: &mut (), done: Resolved<R>| {
            let mut sink = sink.lock().expect("sink mutex poisoned");
            let value = match done.result {
                Ok(value) => value,
                Err(e) => {
                    sink.errors.push(e);
                    return Ok(());
                }
            };
            if done.disposition == Disposition::Executed && chaos.fire(sites::SWEEP_CRASH).is_some()
            {
                // Simulated process death between compute and commit: the
                // result is dropped un-journaled, exactly what a kill here
                // would lose.
                return Err(Halt);
            }
            sink.absorb(done.key, done.mult, value, &fold, every)
        };
        let (mut report, _) = self.drive(specs, &hashes, &skip, &f, || (), &absorb);
        let mut sink = sink.into_inner().expect("sink mutex poisoned");
        let acc = sink.acc.take().expect("sink accumulator present");
        if report.interrupted {
            // Best-effort flush: everything journaled so far is resumable.
            let _ = sink.journal.flush();
        } else {
            // Final checkpoint covers the whole journal (resume restores in
            // O(1) replay) and flushes the tail.
            let done = sink.journal.done_count();
            if let Err(e) = sink.journal.append_checkpoint(done, &acc.to_value()) {
                eprintln!("hpcgrid-engine: final journal checkpoint failed: {e}");
                report.interrupted = true;
            }
        }
        report.wall = t0.elapsed();
        Ok(FoldOutcome {
            value: acc,
            errors: sink.errors,
            report,
        })
    }

    /// The sweep driver behind every entry point: probe, execute, commit,
    /// count. `hashes[i]` is `specs[i].content_hash()`; specs in `skip` are
    /// already journaled and only counted. Each distinct spec is resolved
    /// once, at its first occurrence, with its multiplicity; later
    /// occurrences count as memory hits.
    ///
    /// The sink is `share`, which makes one share for the probe phase's hits
    /// and then one per pool worker, and `commit`, which hands a resolved
    /// scenario to a share on that share's own thread (an `Err(Halt)` stops
    /// the sweep). The shares come back in that order, and the caller merges
    /// them and sets `wall`.
    fn drive<F, W, Share, Commit>(
        &mut self,
        specs: &[ScenarioSpec],
        hashes: &[ContentHash],
        skip: &HashSet<ContentHash>,
        f: &F,
        mut share: Share,
        commit: &Commit,
    ) -> (RunReport, Vec<W>)
    where
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        W: Send,
        Share: FnMut() -> W,
        Commit: Fn(&mut W, Resolved<R>) -> Result<(), Halt> + Sync,
    {
        let probes0 = self.cache.probe_stats();
        let mut report = RunReport {
            total: specs.len(),
            ..RunReport::default()
        };

        // Probe (sequential; lookups are cheap relative to execution). Hits
        // commit to a share of their own; misses queue with their
        // multiplicities.
        let mut counts: HashMap<ContentHash, u64> = HashMap::with_capacity(specs.len());
        for &key in hashes {
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut to_run: Vec<(usize, u64)> = Vec::new();
        let mut probe = share();
        for (slot, &key) in hashes.iter().enumerate() {
            if !skip.is_empty() && skip.contains(&key) {
                report.journal_replayed += 1;
                continue;
            }
            // Removing the count doubles as the seen-set: a later occurrence
            // of a spec already resolved or queued finds nothing.
            let Some(mult) = counts.remove(&key) else {
                report.memory_hits += 1;
                continue;
            };
            let (value, tier) = match self.cache.get(key) {
                Ok(Some(hit)) => hit,
                Ok(None) => {
                    to_run.push((slot, mult));
                    continue;
                }
                Err(err) => {
                    // Corrupt artifact: recompute rather than fail the sweep,
                    // but count it and log the path so a damaged artifact
                    // directory does not degrade silently.
                    report.cache_corrupt += 1;
                    let path = self
                        .cache
                        .artifact_path_for(key)
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<no artifact dir>".to_string());
                    eprintln!(
                        "hpcgrid-engine: corrupt cache artifact for scenario `{}` at {path}: {err}; recomputing",
                        specs[slot].label()
                    );
                    to_run.push((slot, mult));
                    continue;
                }
            };
            let hit = Resolved {
                slot,
                key,
                mult,
                disposition: match tier {
                    CacheTier::Memory => Disposition::MemoryHit,
                    CacheTier::Artifact => Disposition::ArtifactHit,
                },
                result: Ok(value),
                wall: Duration::ZERO,
                attempts: 0,
            };
            hit.tally(&mut report);
            if commit(&mut probe, hit).is_err() {
                report.interrupted = true;
                to_run.clear();
                break;
            }
        }
        let mut shares = vec![probe];

        // Execute the misses on a bounded work-stealing pool: each result is
        // committed to the cache, then to the worker's share. A commit that
        // halts (a fired crash failpoint, an unwritable journal) raises
        // `stop`, and every worker breaks before its next scenario —
        // simulating process death at a commit point.
        let workers = self
            .config
            .threads
            .unwrap_or_else(|| default_threads(to_run.len()))
            .max(1)
            .min(to_run.len().max(1));
        if !to_run.is_empty() {
            report.workers = workers;
            let (retry, deadline) = (self.config.retry, self.config.deadline);
            let (shared, chaos) = (&*self.shared, &*self.chaos);
            let (next, stop) = (&AtomicUsize::new(0), &AtomicBool::new(false));
            let (to_run, cache) = (&to_run, &Mutex::new(&mut self.cache));
            let joined: Vec<(W, RunReport, Duration)> = std::thread::scope(|s| {
                let work = move |mut mine: W| {
                    let (mut tally, mut busy) = (RunReport::default(), Duration::ZERO);
                    while !stop.load(Ordering::Relaxed) {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(slot, mult)) = to_run.get(k) else {
                            break;
                        };
                        let (spec, key) = (&specs[slot], hashes[slot]);
                        let seed = spec.seed_from_hash(key);
                        let ctx = ScenarioCtx { spec, seed, shared };
                        let started = Instant::now();
                        let (result, attempts) =
                            execute_with_retries(s, f, ctx, key, retry, chaos, deadline);
                        let wall = started.elapsed();
                        busy += wall;
                        if let Ok(value) = &result {
                            // Cache commit failures (disk full, permissions)
                            // don't fail the scenario.
                            let _ = cache
                                .lock()
                                .expect("cache mutex poisoned")
                                .put_keyed(key, value);
                        }
                        let done = Resolved {
                            slot,
                            key,
                            mult,
                            disposition: match result {
                                Ok(_) => Disposition::Executed,
                                Err(_) => Disposition::Failed,
                            },
                            result,
                            wall,
                            attempts,
                        };
                        done.tally(&mut tally);
                        if commit(&mut mine, done).is_err() {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    (mine, tally, busy)
                };
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let mine = share();
                        s.spawn(move || work(mine))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            });
            for (mine, tally, busy) in joined {
                report.executed += tally.executed;
                report.failed += tally.failed;
                report.timed_out += tally.timed_out;
                report.retries += tally.retries;
                report.worker_busy.push(busy);
                shares.push(mine);
            }
            report.interrupted |= stop.load(Ordering::Relaxed);
        }
        let probes1 = self.cache.probe_stats();
        report.index_probes = probes1.index_probes - probes0.index_probes;
        report.disk_reads = probes1.disk_reads - probes0.disk_reads;
        (report, shares)
    }
}

/// A commit's request that the sweep stop early: a simulated crash fired,
/// or the run journal became unwritable.
struct Halt;

/// One resolved scenario — a cache hit or an execution — as the driver
/// commits it to a sink share.
struct Resolved<R> {
    /// Submission index of the spec's first occurrence.
    slot: usize,
    key: ContentHash,
    /// Occurrences of the spec in the submission.
    mult: u64,
    disposition: Disposition,
    result: Result<R, ScenarioError>,
    /// Execution wall time (zero for hits).
    wall: Duration,
    /// Attempts made (zero for hits).
    attempts: u32,
}

impl<R> Resolved<R> {
    /// Count this scenario into `report`'s tier, execution and failure
    /// counters.
    fn tally(&self, report: &mut RunReport) {
        match self.disposition {
            Disposition::MemoryHit => report.memory_hits += 1,
            Disposition::ArtifactHit => report.artifact_hits += 1,
            Disposition::Executed | Disposition::Failed => report.executed += 1,
        }
        report.retries += self.attempts.saturating_sub(1);
        if let Err(e) = &self.result {
            report.failed += 1;
            report.timed_out += usize::from(e.is_timeout());
        }
    }
}

/// Fold `value` into `acc` once per submission occurrence (`mult` ≥ 1).
fn fold_into<A, R: Clone>(acc: &mut Option<A>, value: R, mult: u64, fold: &impl Fn(A, R) -> A) {
    let mut a = acc.take().expect("accumulator present");
    for _ in 1..mult {
        a = fold(a, value.clone());
    }
    *acc = Some(fold(a, value));
}

/// The single folding sink of a journaled fold: resolved scenarios append
/// to the journal and fold into the accumulator under one lock, so the
/// journal is always a faithful prefix of the fold.
struct FoldSink<A> {
    journal: RunJournal,
    /// `Option` so the fold closure can take the accumulator by value.
    acc: Option<A>,
    errors: Vec<ScenarioError>,
}

impl<A: Serialize> FoldSink<A> {
    /// Journal one resolved scenario and fold it in once per submission
    /// occurrence, checkpointing at the configured cadence. A journal that
    /// cannot be written halts the sweep.
    fn absorb<R, Fold>(
        &mut self,
        key: ContentHash,
        mult: u64,
        value: R,
        fold: &Fold,
        checkpoint_every: usize,
    ) -> Result<(), Halt>
    where
        R: Clone + Serialize,
        Fold: Fn(A, R) -> A,
    {
        let journaled = self
            .journal
            .append_done(key, mult, &value.to_value())
            .and_then(|()| {
                fold_into(&mut self.acc, value, mult, fold);
                let done = self.journal.done_count();
                if !done.is_multiple_of(checkpoint_every) {
                    return Ok(());
                }
                let acc = self.acc.as_ref().expect("sink accumulator present");
                self.journal.append_checkpoint(done, &acc.to_value())
            });
        journaled.map_err(|e| {
            eprintln!(
                "hpcgrid-engine: run journal became unwritable: {e}; \
                 stopping sweep (resume to finish)"
            );
            Halt
        })
    }
}

/// How one attempt of a scenario closure ended.
enum AttemptOutcome<R> {
    Ok(R),
    Err(String),
    Panicked(String),
}

/// Run one attempt: apply any armed scenario failpoints (stall, panic,
/// transient error — in that order), then the closure, all under panic
/// isolation.
fn run_attempt<R, F>(f: &F, ctx: ScenarioCtx<'_>, chaos: &FailpointSet) -> AttemptOutcome<R>
where
    F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if !chaos.is_empty() {
            if let Some(chaos::FaultAction::Stall(d)) = chaos.fire(sites::SCENARIO_STALL) {
                std::thread::sleep(d);
            }
            if chaos.fire(sites::SCENARIO_PANIC).is_some() {
                panic!("injected panic (chaos failpoint {})", sites::SCENARIO_PANIC);
            }
            if chaos.fire(sites::SCENARIO_ERR).is_some() {
                return Err(format!(
                    "injected transient I/O fault (chaos failpoint {})",
                    sites::SCENARIO_ERR
                ));
            }
        }
        f(ctx)
    }));
    match outcome {
        Ok(Ok(value)) => AttemptOutcome::Ok(value),
        Ok(Err(message)) => AttemptOutcome::Err(message),
        Err(payload) => AttemptOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// One scenario's attempt loop: run `f` under panic isolation until it
/// succeeds or the retry budget is spent, sleeping a seeded exponential
/// backoff before I/O-classed retries. Returns the result and the number of
/// attempts made.
///
/// With a deadline, each attempt runs on a watchdog thread spawned in the
/// sweep's own scope and the worker waits at most `budget` for it. An
/// over-budget attempt is abandoned — its thread keeps running and its
/// eventual result is dropped (the send fails against a dropped receiver).
/// Bounded stalls therefore drain by scope exit; a truly hung scenario
/// still needs a process kill, which the run journal makes cheap to recover
/// from.
fn execute_with_retries<'scope, 'env, R, F>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    f: &'env F,
    ctx: ScenarioCtx<'env>,
    key: ContentHash,
    retry: RetryPolicy,
    chaos: &'env FailpointSet,
    deadline: Option<Duration>,
) -> (Result<R, ScenarioError>, u32)
where
    R: Send + 'env,
    F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
{
    let mut attempts = 0u32;
    let result = loop {
        attempts += 1;
        let outcome = match deadline {
            None => run_attempt(f, ctx, chaos),
            Some(budget) => {
                let (tx, rx) = mpsc::channel();
                scope.spawn(move || {
                    let _ = tx.send(run_attempt(f, ctx, chaos));
                });
                match rx.recv_timeout(budget) {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        if attempts >= retry.max_attempts() {
                            break Err(ScenarioError::TimedOut {
                                spec: key,
                                budget,
                                attempts,
                            });
                        }
                        continue;
                    }
                }
            }
        };
        match outcome {
            AttemptOutcome::Ok(value) => break Ok(value),
            AttemptOutcome::Err(message) => {
                if attempts >= retry.max_attempts() {
                    break Err(ScenarioError::Failed {
                        spec: key,
                        message,
                        attempts,
                    });
                }
                if io_classed(&message) {
                    let delay = retry.backoff_delay(attempts, ctx.seed);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
            AttemptOutcome::Panicked(message) => {
                if attempts >= retry.max_attempts() {
                    break Err(ScenarioError::Panicked {
                        spec: key,
                        message,
                        attempts,
                    });
                }
            }
        }
    };
    (result, attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RetryPolicy;

    fn specs(n: u64) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                ScenarioSpec::builder("runner-test")
                    .trace_seed(i)
                    .param("i", i as i64)
                    .build()
            })
            .collect()
    }

    #[test]
    fn preserves_submission_order() {
        let specs = specs(64);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")? * 10));
        let values: Vec<i64> = outcome
            .results
            .iter()
            .map(|r| *r.as_ref().unwrap())
            .collect();
        assert_eq!(values, (0..64).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(outcome.report.executed, 64);
        assert_eq!(outcome.report.cache_hits(), 0);
        assert!(outcome.report.worker_utilization() >= 0.0);
    }

    #[test]
    fn second_run_is_all_hits() {
        let specs = specs(16);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
        let again = runner.run(&specs, |_| panic!("must not execute"));
        assert_eq!(again.report.executed, 0);
        assert_eq!(again.report.memory_hits, 16);
        assert_eq!(again.report.workers, 0);
        assert_eq!(
            again.results.iter().filter_map(|r| r.as_ref().ok()).count(),
            16
        );
    }

    #[test]
    fn duplicates_execute_once() {
        let one = specs(1);
        let tripled = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let count = AtomicUsize::new(0);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&tripled, |ctx| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(ctx.spec.param_i64("i")?)
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.memory_hits, 2);
        assert!(outcome.results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn returned_error_is_typed_not_fatal() {
        let specs = specs(8);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&specs, |ctx| {
            let i = ctx.spec.param_i64("i")?;
            if i == 3 {
                Err("bad scenario".to_string())
            } else {
                Ok(i)
            }
        });
        assert_eq!(outcome.report.failed, 1);
        match &outcome.results[3] {
            Err(ScenarioError::Failed {
                message, attempts, ..
            }) => {
                assert_eq!(message, "bad scenario");
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(outcome.successes().count(), 7);
    }

    #[test]
    fn retry_budget_is_spent_and_reported() {
        let specs = specs(2);
        let mut runner: SweepRunner<i64> = SweepRunner::new().retry(RetryPolicy::with_budget(2));
        let outcome = runner.run(&specs, |ctx| {
            if ctx.spec.param_i64("i")? == 0 {
                Err("always fails".to_string())
            } else {
                Ok(1)
            }
        });
        // Scenario 0: 1 try + 2 retries, all failing.
        assert_eq!(outcome.report.retries, 2);
        match &outcome.results[0] {
            Err(ScenarioError::Failed { attempts, .. }) => assert_eq!(*attempts, 3),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_artifact_is_counted_and_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("hpcgrid-runner-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = specs(1);
        // Plant a corrupt artifact where the cache will index it, *before*
        // the runner under test opens the directory.
        {
            let scout: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
            let path = scout
                .cache
                .artifact_path_for(specs[0].content_hash())
                .unwrap();
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, "not a valid artifact").unwrap();
        }
        let mut runner: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
        let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.cache_corrupt, 1);
        assert_eq!(*outcome.results[0].as_ref().unwrap(), 0);
        assert!(outcome.report.summary_table().contains("corrupt artifacts"));
        // The recomputation overwrote the artifact, so a fresh runner (empty
        // memory tier) now reads it cleanly.
        let mut fresh: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
        let again = fresh.run(&specs, |_| panic!("must not execute"));
        assert_eq!(again.report.artifact_hits, 1);
        assert_eq!(again.report.cache_corrupt, 0);
        assert_eq!(again.report.disk_reads, 1, "one artifact fetch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_seed_is_stable() {
        let specs = specs(4);
        let mut runner: SweepRunner<u64> = SweepRunner::new();
        let first = runner.run(&specs, |ctx| Ok(ctx.seed));
        let mut fresh: SweepRunner<u64> = SweepRunner::new();
        let second = fresh.run(&specs, |ctx| Ok(ctx.seed));
        for (a, b) in first.results.iter().zip(second.results.iter()) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn shared_inputs_reach_scenarios_without_copies() {
        let mut shared = SharedInputs::new();
        shared.insert("series/base", vec![1.0_f64; 1024]);
        let mut runner: SweepRunner<f64> = SweepRunner::new().shared_inputs(shared);
        let specs = specs(8);
        let outcome = runner.run(&specs, |ctx| {
            let series = ctx.shared.expect::<Vec<f64>>("series/base")?;
            Ok(series.iter().sum::<f64>() + ctx.spec.param_i64("i")? as f64)
        });
        assert_eq!(outcome.report.failed, 0);
        assert_eq!(*outcome.results[3].as_ref().unwrap(), 1027.0);
    }

    #[test]
    fn run_fold_matches_run_plus_sequential_fold() {
        let specs = specs(100);
        let mut a: SweepRunner<i64> = SweepRunner::new();
        let expected: i64 = a
            .run(&specs, |ctx| Ok(ctx.spec.param_i64("i")? * 3))
            .expect_all("run")
            .into_iter()
            .sum();
        let mut b: SweepRunner<i64> = SweepRunner::new();
        let folded = b
            .run_fold(
                &specs,
                |ctx| Ok(ctx.spec.param_i64("i")? * 3),
                0_i64,
                |acc, x| acc + x,
                |x, y| x + y,
            )
            .expect_all("run_fold");
        assert_eq!(folded, expected);
    }

    #[test]
    fn run_fold_folds_duplicates_once_per_occurrence() {
        let one = specs(1);
        let tripled = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let count = AtomicUsize::new(0);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run_fold(
            &tripled,
            |_| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(5)
            },
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        assert_eq!(count.load(Ordering::SeqCst), 1, "duplicates execute once");
        assert_eq!(outcome.value, 15, "but fold once per occurrence");
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.memory_hits, 2);
    }

    #[test]
    fn run_fold_isolates_failures_and_reports_them() {
        let specs = specs(10);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run_fold(
            &specs,
            |ctx| {
                let i = ctx.spec.param_i64("i")?;
                if i == 4 {
                    panic!("boom");
                }
                Ok(i)
            },
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        assert_eq!(outcome.errors.len(), 1);
        assert!(matches!(outcome.errors[0], ScenarioError::Panicked { .. }));
        assert_eq!(outcome.value, 45 - 4, "failed scenario contributes nothing");
        assert_eq!(outcome.report.failed, 1);
    }

    #[test]
    fn run_fold_populates_the_cache_for_later_runs() {
        let specs = specs(12);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        runner.run_fold(
            &specs,
            |ctx| Ok(ctx.spec.param_i64("i")?),
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        let again = runner.run_fold(
            &specs,
            |_| panic!("must not execute"),
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        assert_eq!(again.report.executed, 0);
        assert_eq!(again.report.memory_hits, 12);
        assert_eq!(again.value, 66);
    }
}
