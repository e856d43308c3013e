//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every op is timed; in a traced op the calls inside it also record spans
//! (name, start, end, parent, op id) into memory. Spans are written out
//! when the run ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover. Root spans and the
//! benchmark's own scenario code are named `bench.*`: their self time is
//! the glue between layers.

use crate::support::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// `0` for an op's root span.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
}

/// Where a call sits: its op, its parent span, and whether the op is
/// traced.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    op: u32,
    parent: u32,
    on: bool,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.on
    }
}

pub struct Tracer {
    base: Instant,
    next_id: AtomicU32,
    next_op: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            base: Instant::now(),
            next_id: AtomicU32::new(1),
            next_op: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn nanos(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Run one op, returning its result and wall time in seconds. A traced
    /// op records a root span named `name` and hands `f` the context its
    /// child spans hang from.
    pub fn op<R>(&self, name: &'static str, traced: bool, f: impl FnOnce(Ctx) -> R) -> (R, f64) {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let id = if traced {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let t0 = Instant::now();
        let out = f(Ctx {
            op,
            parent: id,
            on: traced,
        });
        let t1 = Instant::now();
        if traced {
            self.record(Span {
                id,
                parent: 0,
                op,
                name,
                start: self.nanos(t0),
                end: self.nanos(t1),
            });
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// Run `f` inside a span named `name` (a no-op wrapper when the op is
    /// not traced). Safe to call from worker threads.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        if !ctx.on {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = f(Ctx { parent: id, ..ctx });
        let t1 = Instant::now();
        self.record(Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            name,
            start: self.nanos(t0),
            end: self.nanos(t1),
        });
        out
    }

    /// Summed duration of every span named `name` so far, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum();
        ns as f64 / 1e9
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span buffer poisoned")
    }
}

/// One traced op, reduced to self time per span name.
#[derive(Debug, Default)]
pub struct OpBreakdown {
    pub root: &'static str,
    pub wall_ns: u64,
    /// Summed self time per span name within the op.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration per span name within the op.
    pub dur_ns: BTreeMap<&'static str, u64>,
    /// Time children of one parent ran side by side.
    pub overlap_ns: u64,
    /// Spans whose parent is missing, belongs to another op, or does not
    /// contain the span's interval.
    pub misplaced: u32,
}

impl OpBreakdown {
    /// Self time of the glue: every `bench.*` span.
    pub fn glue_ns(&self) -> u64 {
        self.self_ns
            .iter()
            .filter(|(n, _)| n.starts_with("bench."))
            .map(|(_, v)| v)
            .sum()
    }

    /// Self time of the library layers: every other span.
    pub fn layers_ns(&self) -> u64 {
        self.self_ns
            .iter()
            .filter(|(n, _)| !n.starts_with("bench."))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Length of the union of intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Reduce spans to per-op breakdowns, keyed by op id.
pub fn breakdown(spans: &[Span]) -> BTreeMap<u32, OpBreakdown> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    let mut ops: BTreeMap<u32, OpBreakdown> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let placed = by_id
            .get(&s.parent)
            .is_some_and(|p| p.op == s.op && p.start <= s.start && s.end <= p.end);
        if !placed {
            ops.entry(s.op).or_default().misplaced += 1;
        }
        children.entry(s.parent).or_default().push(s);
    }
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let dur = s.end - s.start;
        // Children clipped to this span's interval.
        let covered = union_len(
            kids.iter()
                .map(|k| {
                    let a = k.start.clamp(s.start, s.end);
                    (a, k.end.clamp(a, s.end))
                })
                .collect(),
        );
        let kids_total: u64 = kids.iter().map(|k| k.end - k.start).sum();
        let b = ops.entry(s.op).or_default();
        *b.self_ns.entry(s.name).or_default() += dur - covered;
        *b.dur_ns.entry(s.name).or_default() += dur;
        b.overlap_ns += kids_total.saturating_sub(covered);
        if s.parent == 0 {
            b.root = s.name;
            b.wall_ns = dur;
        }
    }
    ops
}

/// Glue self time over wall time, summed over the traced ops of each kind
/// (root span name).
pub fn glue_share_by_kind(ops: &BTreeMap<u32, OpBreakdown>) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for b in ops.values() {
        let e = sums.entry(b.root).or_default();
        e.0 += b.glue_ns();
        e.1 += b.wall_ns;
    }
    sums.into_iter()
        .map(|(k, (glue, wall))| (k, glue as f64 / wall.max(1) as f64))
        .collect()
}

/// The traced run's consistency checks over every traced op:
///
/// 1. every span lies inside its parent, in the parent's op;
/// 2. no two children of one span overlap — every op is serial, since the
///    run uses one CPU — so layer self times are wall time minus glue;
/// 3. for each kind of op, glue is at most `max_glue` of the kind's summed
///    wall time, so the layers' self times account for the rest. The share
///    is summed over ops so that one op preempted between two spans does
///    not fail the run.
///
/// A span recorded outside its parent fails 1 (and its time outside the
/// parent is lost from the sum); a worker-thread span running beside a
/// sibling fails 2.
pub fn checks(ops: &BTreeMap<u32, OpBreakdown>, max_glue: f64) -> Vec<(String, bool)> {
    let all = |f: &dyn Fn(&OpBreakdown) -> bool| !ops.is_empty() && ops.values().all(f);
    vec![
        (
            format!(
                "{} traced ops: every span lies inside its parent",
                ops.len()
            ),
            all(&|b| b.misplaced == 0 && b.wall_ns > 0),
        ),
        (
            "no sibling spans overlap, so layer self times == wall - glue".into(),
            all(&|b| b.overlap_ns == 0 && b.layers_ns() + b.glue_ns() == b.wall_ns),
        ),
        (
            format!("glue self time <= {max_glue} of each op kind's wall time"),
            glue_share_by_kind(ops)
                .values()
                .all(|&share| share <= max_glue),
        ),
    ]
}

/// Median over the ops that contain span `name` of its per-op self time,
/// in seconds; `0.0` if no traced op called that layer.
pub fn layer_self_s(ops: &BTreeMap<u32, OpBreakdown>, name: &str) -> f64 {
    per_op(ops, |b| b.self_ns.get(name).copied())
}

/// Like [`layer_self_s`] for the span's full duration.
pub fn layer_dur_s(ops: &BTreeMap<u32, OpBreakdown>, name: &str) -> f64 {
    per_op(ops, |b| b.dur_ns.get(name).copied())
}

/// Median glue self time per op, in seconds.
pub fn glue_s(ops: &BTreeMap<u32, OpBreakdown>) -> f64 {
    per_op(ops, |b| Some(b.glue_ns()))
}

fn per_op(ops: &BTreeMap<u32, OpBreakdown>, f: impl Fn(&OpBreakdown) -> Option<u64>) -> f64 {
    let v: Vec<f64> = ops
        .values()
        .filter_map(&f)
        .map(|ns| ns as f64 / 1e9)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Spans as CSV lines: `op,id,parent,name,start_ns,end_ns`.
pub fn to_csv(spans: &[Span]) -> String {
    let mut out = String::from("op,id,parent,name,start_ns,end_ns\n");
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.op, s.id, s.parent, s.name, s.start, s.end
        )
        .expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start,
            end,
        }
    }

    fn passed(spans: &[Span]) -> Vec<bool> {
        checks(&breakdown(spans), 0.1)
            .into_iter()
            .map(|(_, ok)| ok)
            .collect()
    }

    #[test]
    fn a_serial_nested_op_passes_and_splits_its_wall_time() {
        let spans = [
            span(1, 0, "bench.op", 0, 100),
            span(2, 1, "a", 2, 50),
            span(3, 2, "b", 10, 30),
            span(4, 1, "c", 50, 99),
        ];
        assert_eq!(passed(&spans), [true, true, true]);
        let ops = breakdown(&spans);
        let b = &ops[&7];
        assert_eq!(
            (b.self_ns["a"], b.self_ns["b"], b.self_ns["c"]),
            (28, 20, 49)
        );
        assert_eq!((b.glue_ns(), b.layers_ns(), b.wall_ns), (3, 97, 100));
    }

    #[test]
    fn a_child_outside_its_parent_fails() {
        let spans = [span(1, 0, "bench.op", 10, 100), span(2, 1, "a", 5, 90)];
        assert!(!passed(&spans)[0]);
        // A child of a span in another op is misplaced too.
        let mut other = span(3, 1, "a", 20, 30);
        other.op = 8;
        let spans = [
            span(1, 0, "bench.op", 0, 100),
            span(2, 1, "a", 1, 99),
            other,
        ];
        assert!(!passed(&spans)[0]);
    }

    #[test]
    fn overlapping_siblings_fail() {
        let spans = [
            span(1, 0, "bench.op", 0, 100),
            span(2, 1, "a", 1, 60),
            span(3, 1, "a", 40, 99),
        ];
        assert_eq!(passed(&spans), [true, false, true]);
    }

    #[test]
    fn heavy_glue_fails_per_op_kind() {
        let spans = [span(1, 0, "bench.op", 0, 100), span(2, 1, "a", 0, 80)];
        assert_eq!(passed(&spans), [true, true, false]);
        // Diluted by a lean op of the same kind it passes; an op of another
        // kind does not dilute it.
        let mut lean = [span(3, 0, "bench.op", 0, 1000), span(4, 3, "a", 0, 1000)];
        for s in &mut lean {
            s.op = 8;
        }
        let mut diluted = spans.to_vec();
        diluted.extend(lean.clone());
        assert_eq!(passed(&diluted), [true, true, true]);
        lean[0].name = "bench.other";
        let mut other = spans.to_vec();
        other.extend(lean);
        assert_eq!(passed(&other), [true, true, false]);
    }
}
