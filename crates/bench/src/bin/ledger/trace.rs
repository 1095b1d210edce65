//! The ledger's own in-memory span recorder.
//!
//! Spans wrap `adapter.rs` calls only — tracing inside the engine is a
//! later issue. A span has an id, the id of the span that caused it, a
//! name, its workload, start/end nanoseconds since the recorder was
//! created, and counts attached at the same boundary. Spans stay in
//! memory and are written once, at exit (`--trace-out`). A span's
//! self time is its duration minus the part its children cover.

use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::Counter;
use crate::json::Value;

/// Id of "no span": the parent of root spans, and what a disabled
/// recorder hands out.
pub const NO_SPAN: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(String, f64)>,
}

pub struct Tracer {
    enabled: bool,
    workload: String,
    t0: Instant,
    /// Ids handed out so far; an id only has to be unique, it publishes
    /// nothing, which is what a relaxed `Counter` is for.
    ids: Counter,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            t0: Instant::now(),
            ids: Counter::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` gets the
    /// new span's id (to parent its own children) and returns its
    /// result plus the counts to attach. A disabled recorder just runs
    /// `f` and drops the counts.
    pub fn span<T>(
        &self,
        parent: u32,
        name: &str,
        f: impl FnOnce(u32) -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        if !self.enabled {
            return f(NO_SPAN).0;
        }
        let id = self.ids.inc() as u32;
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let (out, counts) = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span body panicked while recording")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                workload: self.workload.clone(),
                start_ns,
                end_ns,
                counts: counts
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            });
        out
    }

    /// [`Tracer::span`] for bodies with nothing to count.
    pub fn plain<T>(&self, parent: u32, name: &str, f: impl FnOnce(u32) -> T) -> T {
        self.span(parent, name, |id| (f(id), Vec::new()))
    }

    /// Everything recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("a span body panicked while recording")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (children of concurrent clients may overlap,
/// so intervals are merged before subtracting).
pub fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// The `--trace-out` document: one object per span, self time included.
pub fn to_json(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    Value::Arr(
        spans
            .iter()
            .zip(&selfs)
            .map(|(s, (_, self_ns))| {
                Value::obj(vec![
                    ("id", Value::Num(f64::from(s.id))),
                    ("parent", Value::Num(f64::from(s.parent))),
                    ("name", Value::str(&s.name)),
                    ("workload", Value::str(&s.workload)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(*self_ns as f64)),
                    (
                        "counts",
                        Value::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new("w", false);
        let out = t.span(NO_SPAN, "a", |id| {
            assert_eq!(id, NO_SPAN);
            (7, vec![("k", 1.0)])
        });
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_counts() {
        let t = Tracer::new("w", true);
        t.plain(NO_SPAN, "outer", |outer| {
            t.span(outer, "inner", |_| ((), vec![("bytes", 4096.0)]));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, NO_SPAN);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.counts, vec![("bytes".to_string(), 4096.0)]);
        assert_eq!(inner.workload, "w");
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: String::new(),
            workload: String::new(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        };
        // Two overlapping children cover [10, 60) of a [0, 100) parent.
        let spans = vec![mk(1, 0, 0, 100), mk(2, 1, 10, 40), mk(3, 1, 30, 60)];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![(1, 50), (2, 30), (3, 30)]);
    }
}
