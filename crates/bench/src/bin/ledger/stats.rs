//! The metric catalogue (names, units, directions, bounds) and the
//! sample statistics every reported number goes through.
//!
//! The catalogue is the one place a metric name is spelled; the
//! workloads, `--compare`, the README tables and `BENCHMARK.json` all
//! follow it (a unit test checks the last one).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `--compare` (and the driver) call it a regression.
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
    /// Deterministic counter: `--compare` diffs it strictly on the
    /// batch workloads.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str) -> Spec {
    Spec {
        name,
        unit: "count",
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics the benchmark driver gates — the
/// `end_to_end` list of `BENCHMARK.json`: the set-up time its contract
/// asks for, and the two that hold their bound whatever the host is
/// doing. `rel_mem` is a ratio of passes that alternate within a run
/// and `device_bytes` is a count; every absolute timing follows the
/// shared host's speed, which drifts by a quarter over minutes (README,
/// "Bounds"), so a bound of 25 % on one of those would refuse runs of
/// unchanged code.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rel_mem", "ratio", Higher, 0.25),
    e2e("device_bytes", "B", Lower, 0.2),
];

/// The other ten end-to-end metrics: the absolute timings and rates,
/// which every workload defines, then the four that exist on the
/// serving workloads only (a tail percentile needs hundreds of samples;
/// a batch workload has a dozen passes), on `ingest_live` only, or are
/// zero by design (`failed_share`; the driver's contract wants every
/// `end_to_end` metric non-zero on every workload). The driver sees
/// them at the head of the traced run's list, unbounded; the ledger's
/// own report and `--compare` treat them as end-to-end, with these
/// bounds.
pub const END_TO_END_UNGATED: &[Spec] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("modeled_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("edges_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("query_p95_ms", "ms", Lower, 0.25),
    e2e("ingest_ops_per_s", "1/s", Higher, 0.25),
    e2e("compact_s", "s", Lower, 0.25),
    e2e("failed_share", "ratio", Lower, 0.0),
];

/// Per-layer metrics, module-prefixed. Counts come from the public
/// stats snapshots of the measured passes; probes time one layer's
/// public function directly.
pub const PER_LAYER: &[Spec] = &[
    // fg_ssdsim
    layer("ssdsim.read_requests", "count", Lower),
    layer("ssdsim.bytes_read", "B", Lower),
    layer("ssdsim.max_busy_s", "s", Lower),
    layer("ssdsim.busy_skew", "ratio", Lower),
    layer("ssdsim.mean_read_bytes", "B", Higher),
    layer("ssdsim.mean_queue_depth", "count", Higher),
    layer("ssdsim.depth_zero_dips", "count", Lower),
    layer("ssdsim.read_ns_per_page", "ns", Lower),
    // fg_safs
    layer("safs.cache_hit_rate", "ratio", Higher),
    layer("safs.cache_lookups", "count", Lower),
    layer("safs.cache_evictions", "count", Lower),
    layer("safs.dedup_hits", "count", Higher),
    layer("safs.dedup_bytes", "B", Higher),
    layer("safs.cache_get_ns", "ns", Lower),
    layer("safs.cache_insert_ns", "ns", Lower),
    layer("safs.hop_us", "us", Lower),
    layer("safs.hop_batch_us_per_req", "us", Lower),
    // fg_format
    layer("format.image_bytes_per_edge", "B", Lower),
    layer("format.index_bytes_per_vertex", "B", Lower),
    layer("format.write_image_s", "s", Lower),
    layer("format.load_index_s", "s", Lower),
    layer("format.locate_ns", "ns", Lower),
    layer("format.decode_ns_per_edge", "ns", Lower),
    // flashgraph::merge
    layer("merge.issued_per_logical", "ratio", Lower),
    layer("merge.mean_issued_bytes", "B", Higher),
    layer("merge.page_waste_ratio", "ratio", Lower),
    layer("merge.ns_per_req", "ns", Lower),
    // flashgraph engine
    exact("engine.iterations"),
    exact("engine.vertices_processed"),
    exact("engine.engine_requests"),
    layer("engine.issued_requests", "count", Lower),
    exact("engine.bytes_requested"),
    exact("engine.edges_delivered"),
    exact("engine.activations"),
    exact("engine.messages_sent"),
    layer("engine.compute_share", "ratio", Higher),
    layer("engine.wait_share", "ratio", Lower),
    layer("engine.overhead_share", "ratio", Lower),
    layer("engine.io_bound_share", "ratio", Higher),
    layer("engine.run_floor_us", "us", Lower),
    layer("engine.noop_ns_per_vertex", "ns", Lower),
    layer("engine.fetch_ns_per_req", "ns", Lower),
    layer("vertex.touch_ns_per_edge", "ns", Lower),
    layer("vertex.touch_varint_ns_per_edge", "ns", Lower),
    layer("vertex.touch_overlay_ns_per_edge", "ns", Lower),
    layer("messages.send_ns_per_msg", "ns", Lower),
    layer("engine.activate_ns", "ns", Lower),
    // flashgraph shard / serve
    layer("shard.msg_bytes", "B", Lower),
    layer("shard.rendezvous_us_per_iter", "us", Lower),
    layer("shard.one_shard_ratio", "ratio", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p99_us", "us", Lower),
    layer("serve.peak_inflight", "count", Higher),
    layer("serve.admitted", "count", Higher),
    layer("serve.aborted", "count", Lower),
    layer("serve.admit_us", "us", Lower),
    // fg_graph::delta
    layer("delta.compactions", "count", Higher),
    layer("delta.generation", "count", Higher),
    layer("delta.pending_ops_peak", "count", Lower),
    layer("delta.apply_ns_per_op", "ns", Lower),
    layer("delta.merged_list_ns_per_edge", "ns", Lower),
    // references
    layer("apps.mem_wall_s", "s", Lower),
    layer("baselines.direct_s", "s", Lower),
    layer("ledger.trace_overhead_share", "ratio", Lower),
    layer("ledger.spans", "count", Lower),
];

/// Looks a metric up in all three lists.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(END_TO_END_UNGATED)
        .chain(PER_LAYER)
        .find(|s| s.name == name)
}

/// One reported number: a median (or an exact count) with its sample
/// count and quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A single observation (counts, ratios of totals).
    pub fn point(name: &str, value: f64) -> Metric {
        Metric::new(name, value, 1, value, value)
    }

    /// The median of `samples` with quartiles; 0 with `n = 0` when
    /// there are none (a metric the workload does not exercise).
    pub fn median_of(name: &str, samples: &[f64]) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric::new(name, median(samples), samples.len(), q1, q3)
    }

    /// `value` as the headline with the spread of `samples` (a mean of
    /// totals, or a percentile, whose samples are still worth showing).
    pub fn with_spread(name: &str, value: f64, samples: &[f64]) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric::new(name, value, samples.len(), q1, q3)
    }

    fn new(name: &str, value: f64, n: usize, q1: f64, q3: f64) -> Metric {
        let unit = spec(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .unit;
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
            q1,
            q3,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts; 0 if empty).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method) — the driver's spread rule uses
/// that function, so the ledger's own spread numbers match it.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let m = v.len();
    match m {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile, `p` in `(0, 1]`; 0 if empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END
            .iter()
            .chain(END_TO_END_UNGATED)
            .chain(PER_LAYER)
            .collect();
        for (i, s) in all.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                s.name
            );
            assert!(all[..i].iter().all(|t| t.name != s.name), "{}", s.name);
        }
        assert_eq!(END_TO_END.len() + END_TO_END_UNGATED.len(), 13);
        assert!(END_TO_END.iter().all(|s| s.bound.unwrap() <= 0.25));
    }
}
