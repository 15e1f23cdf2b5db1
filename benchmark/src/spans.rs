//! Benchmark-side tracing: one span around each call into a layer's public
//! function, kept in memory and written out in Chrome trace form when the
//! run ends. The program's own `stencil_obs` spans are folded in as
//! children, and a layer's self time is its span minus the part of that
//! interval its children cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use stencil_obs::SpanEvent;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>` for benchmark-side spans, `obs.<stage>` for
    /// spans folded in from the program.
    pub name: String,
    /// Start, microseconds on the `stencil_obs` clock.
    pub start_us: u64,
    /// End, same clock.
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
    /// Recording thread.
    pub tid: u64,
}

/// Benchmark thread ids start here so they cannot collide with the ids
/// `stencil_obs` gives the program's threads.
const BENCH_TID_BASE: u64 = 1000;

fn this_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(BENCH_TID_BASE);
    thread_local!(static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

/// Per-name totals: how often a span ran, its total and its self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, microseconds.
    pub total_us: u64,
    /// Sum of durations not covered by children, microseconds.
    pub self_us: u64,
}

/// In-memory span store shared by the benchmark's threads.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracing thread panicked")
    }

    /// Open a span and return its index, for [`Tracer::end`] and for
    /// naming it as the parent of nested spans.
    pub fn begin(&self, name: &str, parent: Option<usize>, op_id: u64) -> usize {
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_us: stencil_obs::now_us(),
            end_us: 0,
            parent,
            op_id,
            tid: this_tid(),
        });
        spans.len() - 1
    }

    /// Close the span `begin` opened.
    pub fn end(&self, idx: usize) {
        let end = stencil_obs::now_us();
        self.lock()[idx].end_us = end;
    }

    /// Run `f` inside a span; `f` receives the span's index.
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let idx = self.begin(name, parent, op_id);
        let out = f(idx);
        self.end(idx);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold the program's own spans in: each event becomes a child of the
    /// innermost benchmark span, among those recorded at index `since` or
    /// later, whose interval contains it (no parent when none does).
    pub fn fold_obs(&self, events: &[SpanEvent], since: usize) {
        let mut spans = self.lock();
        let bench_end = spans.len();
        for e in events {
            let parent = (since..bench_end)
                .filter(|&i| spans[i].start_us <= e.t0_us && e.t1_us <= spans[i].end_us)
                .max_by_key(|&i| spans[i].start_us);
            let op_id = parent.map_or(0, |i| spans[i].op_id);
            spans.push(Span {
                name: format!("obs.{}", e.id.name()),
                start_us: e.t0_us,
                end_us: e.t1_us,
                parent,
                op_id,
                tid: e.tid,
            });
        }
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        self_times(&self.lock())
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let spans = self.lock();
        let events = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("name", Value::str(s.name.as_str())),
                    ("cat", Value::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_us as f64)),
                    (
                        "dur",
                        Value::Num(s.end_us.saturating_sub(s.start_us) as f64),
                    ),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(s.tid as f64)),
                    (
                        "args",
                        Value::obj([
                            ("span", Value::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("op_id", Value::Num(s.op_id as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ms")),
        ])
        .to_json()
    }
}

/// Run `f` inside a span of `tracer` when there is one, plainly otherwise:
/// the measured code reads the same traced and untraced.
pub fn scoped<R>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<usize>,
    op_id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tr) => tr.scope(name, parent, op_id, |_| f()),
        None => f(),
    }
}

/// Self time per name over `spans`: duration minus the union of the
/// children's intervals clipped to the parent. Children may overlap each
/// other (parallel workers), hence the union and not a sum.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_us.saturating_sub(s.start_us);
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_us += total;
        e.self_us += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            op_id: 7,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // overlaps `a` (a parallel worker): 30..40 must count once
            span("b", 30, 60, Some(0)),
            // sticks out of the parent: only 90..100 is inside
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"].total_us, 100);
        assert_eq!(st["op"].self_us, 100 - 50 - 10);
        assert_eq!(st["a"].self_us, 30 - 8);
        assert_eq!(st["b"].self_us, 30);
        assert_eq!(
            st["leaf"],
            SelfTime {
                count: 1,
                total_us: 8,
                self_us: 8
            }
        );
        // self times of a tree never exceed the root's duration on one
        // thread; with parallel children they may, which is why the
        // union is taken per parent and not globally
        assert!(st["op"].self_us + st["a"].self_us <= 100);
    }

    #[test]
    fn scopes_nest_and_obs_events_find_the_innermost_parent() {
        let t = Tracer::new();
        let inner = t.scope("op", None, 3, |op| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.scope("core.run", Some(op), 3, |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            })
        });
        let (s0, s1) = {
            let spans = t.lock();
            assert_eq!(spans[inner].parent, Some(0));
            assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
            (spans[0].clone(), spans[1].clone())
        };
        let ev = |t0_us, t1_us| SpanEvent {
            id: stencil_obs::SpanId::WorkerJob,
            t0_us,
            t1_us,
            job: 0,
            tid: 2,
            thread: "w".into(),
        };
        t.fold_obs(
            &[ev(s1.start_us, s1.end_us), ev(s0.end_us + 5, s0.end_us + 9)],
            0,
        );
        let spans = t.lock();
        assert_eq!(spans[2].parent, Some(1), "innermost containing span");
        assert_eq!(spans[2].op_id, 3);
        assert_eq!(spans[3].parent, None, "outside every span");
        assert_eq!(spans[2].name, "obs.worker_job");
        drop(spans);
        let doc = crate::json::parse(&t.chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
