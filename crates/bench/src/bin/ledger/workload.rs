//! What every workload shares: its inputs ([`Ctx`]), its result
//! ([`Outcome`]), the failure tally, and the helpers that turn summed
//! engine/device records into the catalogued per-layer metrics.

use std::collections::HashMap;
use std::time::Instant;

use crate::adapter::{DeviceDelta, Res, RunView, ServeStats};
use crate::stats::{median, Metric, END_TO_END, END_TO_END_UNGATED, PER_LAYER};
use crate::trace::{Span, Tracer};
use crate::util::cpu_seconds;

/// How one workload run is parameterised.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured part, in seconds (two equal halves).
    pub seconds: f64,
    /// Scale-10 graphs, one set-up, one pass per phase: compiles and
    /// exercises everything, measures nothing worth recording.
    pub quick: bool,
    /// Record spans in the second phase and run the per-layer probes.
    pub trace: bool,
    /// Engine worker threads, `min(nproc, 4)`.
    pub workers: usize,
    pub nproc: usize,
    /// Test hook: corrupt the first checked answer, to show that a
    /// wrong answer reaches `failed_share`.
    pub inject_wrong_answer: bool,
}

impl Ctx {
    pub fn scale(&self, full: u32) -> u32 {
        if self.quick {
            10
        } else {
            full
        }
    }

    /// Set-ups at the start of a run; [`setup_again`] adds more later.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            2
        }
    }

    pub fn half_seconds(&self) -> f64 {
        self.seconds / 2.0
    }

    /// The serving workloads cut each half into this many phases and
    /// sample their in-memory reference in between: the host's speed
    /// moves between levels that last a second or a few, and a
    /// reference taken at three points of a run would sit on three of
    /// them.
    pub fn slices(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    pub fn slice_seconds(&self) -> f64 {
        self.half_seconds() / self.slices() as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading the run.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Closes a run: in a traced run the recorder's spans are taken
    /// (and counted) and the per-layer list is emitted.
    pub fn new(ctx: &Ctx, tally: Tally, mut set: MetricSet, traced: &Tracer) -> Outcome {
        let spans = traced.spans();
        if ctx.trace {
            set.point("ledger.spans", spans.len() as f64);
        }
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            end_to_end: set.end_to_end(),
            per_layer: if ctx.trace {
                set.per_layer()
            } else {
                Vec::new()
            },
            spans,
        }
    }
}

/// Operations attempted and failed: errors, panics caught as errors,
/// and oracle mismatches all land here.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Res<()>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Wall and process-CPU time of a section.
pub struct Stopwatch {
    t: Instant,
    cpu: Option<f64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            t: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.t.elapsed().as_secs_f64()
    }

    /// CPU seconds since `start`; falls back to wall time where the
    /// process clock is unavailable, so the metric is never zero.
    pub fn cpu_s(&self) -> f64 {
        match (self.cpu, cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => self.wall_s(),
        }
    }
}

/// Set-up timings over the repetitions of one run.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub write_image_s: Vec<f64>,
    pub load_index_s: Vec<f64>,
}

/// Sets a workload up `ctx.setup_reps()` times — the first under the
/// run's recorder, the rest unrecorded — and keeps the last fixture.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    traced: &Tracer,
    mut setup: impl FnMut(&Tracer, &mut SetupTimes) -> Res<T>,
) -> Res<(T, SetupTimes)> {
    let mut times = SetupTimes::default();
    let untraced = Tracer::new("", false);
    let mut fixture = setup(traced, &mut times)?;
    for _ in 1..ctx.setup_reps() {
        fixture = setup(&untraced, &mut times)?;
    }
    Ok((fixture, times))
}

/// One more set-up, timed and thrown away. A set-up takes a fraction of
/// a second, so repetitions back to back all see the host at one speed;
/// the workloads call this at points spread over the run instead, and
/// `setup_s` is the median of them all.
pub fn setup_again<T>(
    ctx: &Ctx,
    times: &mut SetupTimes,
    setup: impl FnOnce(&Tracer, &mut SetupTimes) -> Res<T>,
) -> Res<()> {
    if !ctx.quick {
        setup(&Tracer::new("", false), times)?;
    }
    Ok(())
}

/// Metrics keyed by name, emitted in catalogue order with zeros for
/// whatever a workload does not exercise — every run prints every
/// catalogued name.
#[derive(Debug, Default)]
pub struct MetricSet(HashMap<String, Metric>);

impl MetricSet {
    pub fn put(&mut self, m: Metric) {
        self.0.insert(m.name.clone(), m);
    }

    pub fn point(&mut self, name: &str, value: f64) {
        self.put(Metric::point(name, value));
    }

    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        self.put(Metric::median_of(name, samples));
    }

    /// All thirteen end-to-end metrics: the three the driver gates,
    /// then the ten it does not.
    pub fn end_to_end(&self) -> Vec<Metric> {
        self.in_order(END_TO_END.iter().chain(END_TO_END_UNGATED).map(|s| s.name))
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        self.in_order(PER_LAYER.iter().map(|s| s.name))
    }

    fn in_order(&self, names: impl Iterator<Item = &'static str>) -> Vec<Metric> {
        names
            .map(|name| {
                self.0
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| Metric::median_of(name, &[]))
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Device and cache counts: per-unit medians from `units` (one delta
/// per measured pass or phase), ratios from their total.
pub fn put_device(set: &mut MetricSet, units: &[DeviceDelta]) {
    let col = |f: fn(&DeviceDelta) -> f64| -> Vec<f64> { units.iter().map(f).collect() };
    set.samples("ssdsim.read_requests", &col(|d| d.read_requests as f64));
    set.samples("ssdsim.bytes_read", &col(|d| d.bytes_read as f64));
    set.samples("ssdsim.max_busy_s", &col(|d| d.max_busy_ns() as f64 / 1e9));
    set.samples("ssdsim.depth_zero_dips", &col(|d| d.depth_zero_dips as f64));
    set.samples("safs.cache_lookups", &col(|d| d.cache_lookups as f64));
    set.samples("safs.cache_evictions", &col(|d| d.cache_evictions as f64));
    set.samples("safs.dedup_hits", &col(|d| d.dedup_hits as f64));
    set.samples("safs.dedup_bytes", &col(|d| d.dedup_bytes as f64));
    let mut total = DeviceDelta::default();
    for d in units {
        total.add(d);
    }
    set.point("ssdsim.busy_skew", total.busy_skew());
    set.point(
        "ssdsim.mean_read_bytes",
        ratio(total.bytes_read as f64, total.read_requests as f64),
    );
    set.point(
        "ssdsim.mean_queue_depth",
        ratio(total.depth_sum as f64, total.depth_samples as f64),
    );
    set.point(
        "safs.cache_hit_rate",
        ratio(total.cache_hits as f64, total.cache_lookups as f64),
    );
}

/// Engine counters and shares. `first` is one unit of work (the first
/// measured pass, or the first query) whose counters are reported as
/// is — they are deterministic, so any unit would do; `total` sums
/// every measured run, `threads` is the worker count those runs used,
/// and `io_bound` / `runs` count roofline verdicts.
pub fn put_engine(
    set: &mut MetricSet,
    first: &RunView,
    total: &RunView,
    device_bytes: u64,
    threads: usize,
    io_bound: u64,
    runs: u64,
) {
    set.point("engine.iterations", first.iterations as f64);
    set.point("engine.vertices_processed", first.vertices_processed as f64);
    set.point("engine.engine_requests", first.engine_requests as f64);
    set.point("engine.issued_requests", first.issued_requests as f64);
    set.point("engine.bytes_requested", first.bytes_requested as f64);
    set.point("engine.edges_delivered", first.edges_delivered as f64);
    set.point("engine.activations", first.activations as f64);
    set.point("engine.messages_sent", first.messages_sent as f64);
    set.point("shard.msg_bytes", first.shard_msg_bytes as f64);
    let thread_ns = threads as f64 * total.wall_ns as f64;
    let compute = ratio(total.compute_ns as f64, thread_ns);
    let wait = ratio(total.wait_ns as f64, thread_ns);
    set.point("engine.compute_share", compute);
    set.point("engine.wait_share", wait);
    set.point("engine.overhead_share", 1.0 - compute - wait);
    set.point("engine.io_bound_share", ratio(io_bound as f64, runs as f64));
    set.point(
        "merge.issued_per_logical",
        ratio(total.issued_requests as f64, total.engine_requests as f64),
    );
    set.point(
        "merge.mean_issued_bytes",
        ratio(total.bytes_requested as f64, total.issued_requests as f64),
    );
    set.point(
        "merge.page_waste_ratio",
        ratio(device_bytes as f64, total.bytes_requested as f64),
    );
}

pub fn put_serve(set: &mut MetricSet, s: &ServeStats) {
    set.point("serve.queue_wait_p50_us", s.queue_wait_p50_ns as f64 / 1e3);
    set.point("serve.queue_wait_p99_us", s.queue_wait_p99_ns as f64 / 1e3);
    set.point("serve.peak_inflight", s.peak_inflight as f64);
    set.point("serve.admitted", s.admitted as f64);
    set.point("serve.aborted", s.aborted as f64);
}

pub fn put_setup(
    set: &mut MetricSet,
    t: &SetupTimes,
    image_bytes: u64,
    edges: u64,
    index_bytes: usize,
    vertices: usize,
) {
    set.samples("setup_s", &t.total_s);
    set.samples("format.write_image_s", &t.write_image_s);
    set.samples("format.load_index_s", &t.load_index_s);
    set.point(
        "format.image_bytes_per_edge",
        ratio(image_bytes as f64, edges as f64),
    );
    set.point(
        "format.index_bytes_per_vertex",
        ratio(index_bytes as f64, vertices as f64),
    );
}

/// `(second - first) / first` of two phases' medians: the traced phase
/// against the untraced one.
pub fn overhead_share(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = median(untraced);
    if base == 0.0 || traced.is_empty() {
        0.0
    } else {
        (median(traced) - base) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{check, Answer};

    #[test]
    fn an_injected_wrong_answer_raises_failed_share() {
        let want = Answer::Count(41);
        let mut tally = Tally::default();
        tally.record("tc", check(&Answer::Count(41), &want, 0.0));
        assert_eq!(tally.failed_share(), 0.0);
        tally.record("tc", check(&Answer::Count(42), &want, 0.0));
        tally.record("tc", Err("engine error".into()));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_share() - 2.0 / 3.0).abs() < 1e-12);
        assert!(tally.failures[0].contains("42 vs 41"));
    }

    #[test]
    fn metric_sets_emit_every_catalogued_name() {
        let mut set = MetricSet::default();
        set.point("wall_s", 1.5);
        let e2e = set.end_to_end();
        assert_eq!(e2e.len(), END_TO_END.len() + END_TO_END_UNGATED.len());
        assert_eq!(e2e[3].name, "wall_s");
        assert_eq!((e2e[3].value, e2e[3].n), (1.5, 1));
        assert_eq!((e2e[0].value, e2e[0].n), (0.0, 0));
        assert_eq!(set.per_layer().len(), PER_LAYER.len());
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_phase() {
        assert!((overhead_share(&[1.0, 1.0], &[1.1, 1.1]) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_share(&[], &[1.0]), 0.0);
    }
}
