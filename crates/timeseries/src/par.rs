//! Parallel batch helpers for Monte-Carlo parameter sweeps.
//!
//! The experiment harness evaluates hundreds of scenarios (tariff × load ×
//! policy combinations) that are mutually independent — classic
//! embarrassingly-parallel fan-out. These helpers run a closure over a slice
//! of inputs on scoped threads (`std::thread::scope`), preserving input order
//! in the output.
//!
//! Two scheduling modes are provided:
//!
//! * [`par_map`] — static chunking, lowest overhead, best when every task
//!   costs about the same;
//! * [`par_map_dynamic`] — an atomic work counter so threads steal the next
//!   index when they finish, best when task costs are skewed (e.g. sweeps
//!   where longer horizons cost more).
//!
//! Each has a fallible variant ([`try_par_map`], [`try_par_map_dynamic`])
//! that catches per-task panics and reports them as a [`ParError`] instead of
//! aborting the whole batch. The infallible versions delegate to them and
//! resurface the first panic, preserving the historical "a panic in `f`
//! panics the caller" contract.
//!
//! The `hpcgrid-engine` sweep runner keeps its own bounded pool (it needs
//! retries, deadlines, and streaming folds these helpers do not offer) and
//! borrows only [`default_threads`] and [`panic_message`] from here.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker task panicked during a parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    /// Index of the first input whose task panicked.
    pub index: usize,
    /// Panic payload rendered to a string (`&str`/`String` payloads survive;
    /// anything else becomes a placeholder).
    pub message: String,
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ParError {}

/// Render a `catch_unwind` payload into something printable.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of worker threads to use: the machine's available parallelism,
/// clamped to the number of tasks, and at least 1.
pub fn default_threads(tasks: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(tasks).max(1)
}

/// Map `f` over `items` in parallel with static chunking; output order
/// matches input order. Falls back to a sequential map for 0–1 items.
///
/// # Panics
/// Re-raises the first panic observed in a worker task.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    unwrap_par(try_par_map(items, f))
}

/// Fallible [`par_map`]: a panic in any task stops the sweep and is returned
/// as a [`ParError`] naming the first offending input index; tasks already
/// running complete normally.
pub fn try_par_map<T, U, F>(items: &[T], f: F) -> Result<Vec<U>, ParError>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 {
        return seq_map(items, &f);
    }
    let threads = default_threads(n);
    let chunk = n.div_ceil(threads);
    let mut chunk_results: Vec<Result<Vec<U>, ParError>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                s.spawn(move || {
                    let base = ci * chunk;
                    let mut out = Vec::with_capacity(slice.len());
                    for (off, item) in slice.iter().enumerate() {
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(u) => out.push(u),
                            Err(payload) => {
                                return Err(ParError {
                                    index: base + off,
                                    message: panic_message(payload.as_ref()),
                                })
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        for h in handles {
            // Tasks never unwind past catch_unwind, so join only fails on
            // catastrophic runtime errors; surface those as a ParError too.
            chunk_results.push(h.join().unwrap_or_else(|payload| {
                Err(ParError {
                    index: usize::MAX,
                    message: panic_message(payload.as_ref()),
                })
            }));
        }
    });
    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<ParError> = None;
    for r in chunk_results {
        match r {
            Ok(part) => out.extend(part),
            Err(e) => {
                let replace = match &first_err {
                    Some(prev) => e.index < prev.index,
                    None => true,
                };
                if replace {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Map `f` over `items` in parallel with dynamic (work-stealing-style)
/// scheduling; output order matches input order.
///
/// # Panics
/// Re-raises the first panic observed in a worker task.
pub fn par_map_dynamic<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    unwrap_par(try_par_map_dynamic(items, f))
}

/// Fallible [`par_map_dynamic`]: per-task panics become a [`ParError`] for
/// the lowest panicking input index; remaining queued tasks are skipped once
/// a panic is observed.
pub fn try_par_map_dynamic<T, U, F>(items: &[T], f: F) -> Result<Vec<U>, ParError>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 {
        return seq_map(items, &f);
    }
    let threads = default_threads(n);
    let next = AtomicUsize::new(0);
    // Lowest panicking index, or usize::MAX while none: doubles as the
    // cooperative stop signal for the remaining workers.
    let first_panic = AtomicUsize::new(usize::MAX);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    let messages: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Per-thread buffer so the shared lock is taken once per thread.
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || first_panic.load(Ordering::Relaxed) != usize::MAX {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(u) => local.push((i, u)),
                        Err(payload) => {
                            first_panic.fetch_min(i, Ordering::Relaxed);
                            messages
                                .lock()
                                .expect("message mutex poisoned")
                                .push((i, panic_message(payload.as_ref())));
                        }
                    }
                }
                collected
                    .lock()
                    .expect("result mutex poisoned")
                    .extend(local);
            });
        }
    });
    let panic_idx = first_panic.load(Ordering::Relaxed);
    if panic_idx != usize::MAX {
        let messages = messages.into_inner().expect("message mutex poisoned");
        let message = messages
            .into_iter()
            .find(|(i, _)| *i == panic_idx)
            .map(|(_, m)| m)
            .unwrap_or_else(|| "worker panicked".to_string());
        return Err(ParError {
            index: panic_idx,
            message,
        });
    }
    let mut pairs = collected.into_inner().expect("result mutex poisoned");
    pairs.sort_by_key(|(i, _)| *i);
    Ok(pairs.into_iter().map(|(_, u)| u).collect())
}

fn seq_map<T, U, F: Fn(&T) -> U>(items: &[T], f: &F) -> Result<Vec<U>, ParError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| ParError {
                index: i,
                message: panic_message(payload.as_ref()),
            })
        })
        .collect()
}

fn unwrap_par<U>(r: Result<Vec<U>, ParError>) -> Vec<U> {
    match r {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_dynamic_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        let out = par_map_dynamic(&items, |x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_small_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7], |x| x * 3), vec![21]);
        assert!(par_map_dynamic(&empty, |x| *x).is_empty());
        assert_eq!(par_map_dynamic(&[7], |x| x * 3), vec![21]);
    }

    #[test]
    fn matches_sequential_on_skewed_work() {
        // Tasks with wildly different costs still produce ordered results.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_dynamic(&items, |x| {
            let mut acc = 0u64;
            for i in 0..(x % 13) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (*x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1_000_000) >= 1);
    }

    #[test]
    fn try_par_map_reports_first_panic() {
        let items: Vec<u64> = (0..256).collect();
        let err = try_par_map(&items, |x| {
            if *x == 41 || *x == 97 {
                panic!("boom at {x}");
            }
            x * 2
        })
        .unwrap_err();
        assert_eq!(err.index, 41);
        assert!(err.message.contains("boom at 41"), "{}", err.message);
    }

    #[test]
    fn try_par_map_dynamic_reports_panic_and_survives() {
        let items: Vec<u64> = (0..256).collect();
        let err = try_par_map_dynamic(&items, |x| {
            if *x == 13 {
                panic!("unlucky");
            }
            *x
        })
        .unwrap_err();
        assert_eq!(err.index, 13);
        assert!(err.message.contains("unlucky"));
        // The same helper still works afterwards (no poisoned global state).
        assert_eq!(try_par_map_dynamic(&items, |x| *x).unwrap(), items);
    }

    #[test]
    fn try_variants_succeed_without_panics() {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            try_par_map(&items, |x| x + 1).unwrap(),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
        assert_eq!(
            try_par_map_dynamic(&items, |x| x + 1).unwrap(),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sequential_small_input_panic_is_caught() {
        let items = [1u64];
        let err = try_par_map(&items, |_| -> u64 { panic!("single") }).unwrap_err();
        assert_eq!(err.index, 0);
        assert!(err.message.contains("single"));
    }

    #[test]
    #[should_panic(expected = "parallel task")]
    fn infallible_wrapper_still_panics() {
        let items: Vec<u64> = (0..64).collect();
        par_map(&items, |x| {
            if *x == 7 {
                panic!("legacy contract");
            }
            *x
        });
    }
}
