//! Cross-entry-point parity: `run`, `run_fold` and `run_fold_journaled`
//! drive the same probe → execute → commit core, so over one submission
//! that exercises every cache tier and every fault path they must report
//! identical counters, and their folds must equal `run` + a sequential
//! fold.

use hpcgrid_engine::{ResultCache, RetryPolicy, RunReport, ScenarioCtx, ScenarioSpec, SweepRunner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Roles, by the spec's `i` parameter.
const MEMORY_HIT: i64 = 0;
const ARTIFACT_HIT: i64 = 1;
const CORRUPT: i64 = 2;
const FLAKY: i64 = 3;
const ALWAYS_ERRS: i64 = 4;
const STALLS: i64 = 5;
/// Roles 6.. are plain misses.
const ROLES: i64 = 9;

const DEADLINE: Duration = Duration::from_millis(100);
const STALL: Duration = Duration::from_millis(300);

type Acc = (u64, u64);

fn spec(i: i64) -> ScenarioSpec {
    ScenarioSpec::builder("driver-parity")
        .trace_seed(i as u64)
        .param("i", i)
        .build()
}

/// Every role twice, the second copies in reverse order, so duplicates of
/// hits, corrupt artifacts, misses and failures all appear.
fn submission() -> Vec<ScenarioSpec> {
    (0..ROLES).chain((0..ROLES).rev()).map(spec).collect()
}

fn init() -> Acc {
    (0, 0)
}

fn fold(acc: Acc, x: i64) -> Acc {
    (
        acc.0 + 1,
        acc.1.wrapping_add((x as u64).wrapping_mul(0x9E37_79B9)),
    )
}

fn merge(a: Acc, b: Acc) -> Acc {
    (a.0 + b.0, a.1.wrapping_add(b.1))
}

/// The scenario closure: `FLAKY` panics on its first attempt only,
/// `ALWAYS_ERRS` always errors, `STALLS` always overruns the deadline.
fn scenario(panicked: &AtomicBool, ctx: ScenarioCtx<'_>) -> Result<i64, String> {
    let i = ctx.spec.param_i64("i")?;
    match i {
        FLAKY if !panicked.swap(true, Ordering::SeqCst) => panic!("transient driver fault"),
        ALWAYS_ERRS => Err("bad point".to_string()),
        STALLS => {
            std::thread::sleep(STALL);
            Ok(i)
        }
        _ => Ok(i * 10),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpcgrid-drivers-{tag}-{}", std::process::id()))
}

/// A runner over a fresh artifact directory holding a good artifact for
/// `ARTIFACT_HIT` and a corrupt one for `CORRUPT`, with `MEMORY_HIT` in its
/// memory tier.
fn fixture(dir: &PathBuf) -> SweepRunner<i64> {
    let _ = std::fs::remove_dir_all(dir);
    {
        let mut scout: ResultCache<i64> = ResultCache::with_artifact_dir(dir).unwrap();
        scout
            .put(&spec(ARTIFACT_HIT), &(ARTIFACT_HIT * 10))
            .unwrap();
        let path = scout
            .artifact_path_for(spec(CORRUPT).content_hash())
            .unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not a valid artifact").unwrap();
    }
    let mut runner: SweepRunner<i64> = SweepRunner::with_artifact_dir(dir)
        .unwrap()
        .threads(2)
        .retry(RetryPolicy::with_budget(1))
        .deadline(DEADLINE);
    runner
        .cache_mut()
        .put(&spec(MEMORY_HIT), &(MEMORY_HIT * 10))
        .unwrap();
    runner
}

/// The counters every entry point must agree on.
fn counters(r: &RunReport) -> [(&'static str, u64); 11] {
    [
        ("total", r.total as u64),
        ("memory_hits", r.memory_hits as u64),
        ("artifact_hits", r.artifact_hits as u64),
        ("executed", r.executed as u64),
        ("failed", r.failed as u64),
        ("retries", u64::from(r.retries)),
        ("timed_out", r.timed_out as u64),
        ("cache_corrupt", r.cache_corrupt as u64),
        ("index_probes", r.index_probes),
        ("disk_reads", r.disk_reads),
        ("workers", r.workers as u64),
    ]
}

#[test]
fn every_entry_point_reports_the_same_counters_and_fold() {
    let specs = submission();

    let dir = temp_dir("run");
    let panicked = AtomicBool::new(false);
    let ran = fixture(&dir).run(&specs, |ctx| scenario(&panicked, ctx));
    let _ = std::fs::remove_dir_all(&dir);
    let expected = ran.successes().copied().fold(init(), fold);

    let dir = temp_dir("fold");
    let panicked = AtomicBool::new(false);
    let folded =
        fixture(&dir).run_fold(&specs, |ctx| scenario(&panicked, ctx), init(), fold, merge);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = temp_dir("journaled");
    let journal = temp_dir("journaled.hgj");
    let panicked = AtomicBool::new(false);
    let journaled = fixture(&dir)
        .run_fold_journaled(
            &journal,
            &specs,
            |ctx| scenario(&panicked, ctx),
            init(),
            fold,
        )
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&journal);

    // The fixture really does exercise every path.
    let r = &ran.report;
    assert_eq!(r.total, specs.len());
    assert_eq!(r.artifact_hits, 1);
    assert_eq!(r.cache_corrupt, 1);
    assert_eq!(r.executed, (ROLES - 2) as usize);
    assert_eq!(r.failed, 2, "ALWAYS_ERRS and STALLS");
    assert_eq!(r.timed_out, 1);
    assert_eq!(
        r.retries, 3,
        "one retry each for FLAKY, ALWAYS_ERRS, STALLS"
    );
    assert_eq!(r.memory_hits, specs.len() - 1 - (ROLES - 2) as usize);
    assert_eq!(r.workers, 2);
    assert_eq!(ran.errors().count(), 4, "both copies of both failures");

    for (name, outcome) in [("run_fold", &folded), ("run_fold_journaled", &journaled)] {
        assert_eq!(
            counters(&outcome.report),
            counters(r),
            "{name} disagrees with run"
        );
        assert_eq!(
            outcome.value, expected,
            "{name} fold != run + sequential fold"
        );
        assert_eq!(outcome.errors.len(), 2, "{name}: one error per failed spec");
        assert!(!outcome.report.interrupted, "{name}");
    }
}
