//! Per-layer probes: each times one layer's public function directly,
//! on a fixture built from the workload's own graph, inside one span
//! of the traced run. A probe takes [`SAMPLES`] samples and reports
//! the median cost per operation with quartiles.
//!
//! The engine rungs form a ladder — each program differs from the one
//! below by one layer — so a rung's cost is its run time minus the
//! median of the rung below, over the operations the run's own
//! counters report.

use crate::adapter::{Backend, ProbeKit, Res, Rung, Sample, FAN, G};
use crate::stats::{median, Metric};
use crate::trace::{Tracer, NO_SPAN};
use crate::util::Rng;
use crate::workload::{Ctx, MetricSet};

/// Probe fixtures are capped at this R-MAT scale: a workload on a
/// larger graph probes a sibling drawn with the same generator
/// parameters and seed, so the traced run stays within its time
/// budget whatever the workload's size.
const MAX_SCALE: u32 = 13;

/// Active set of the engine rungs: this many of the highest out-degree
/// vertices, in id order. Hubs are what a traversal's frontier is made
/// of, and their long lists let the per-edge rungs stand clear of the
/// per-request cost below them.
const SEEDS: usize = 2048;

/// Iterations every ladder rung keeps its active set alive for.
const ITERS: u32 = 4;

const SAMPLES: usize = 20;
const SPIN_ITERS: u32 = 16;

struct Probes<'a> {
    tracer: &'a Tracer,
    set: &'a mut MetricSet,
    samples: usize,
}

impl Probes<'_> {
    /// Takes the samples of one probe inside its span and returns the
    /// raw `(ns, ops)` pairs.
    fn take(&mut self, name: &str, mut f: impl FnMut() -> Res<Sample>) -> Res<Vec<Sample>> {
        let n = self.samples;
        self.tracer.span(NO_SPAN, &format!("probe.{name}"), |_| {
            let taken: Res<Vec<Sample>> = (0..n).map(|_| f()).collect();
            let ops = taken
                .as_ref()
                .map_or(0, |t| t.iter().map(|s| s.ops).sum::<u64>());
            (taken, vec![("samples", n as f64), ("ops", ops as f64)])
        })
    }

    /// A probe whose metric is plain time per operation.
    fn per_op(&mut self, name: &str, per_ns: f64, f: impl FnMut() -> Res<Sample>) -> Res<()> {
        let taken = self.take(name, f)?;
        let values: Vec<f64> = taken
            .iter()
            .map(|s| s.ns as f64 / s.ops.max(1) as f64 * per_ns)
            .collect();
        self.set.samples(name, &values);
        Ok(())
    }

    /// A rung's cost above the rung below it: the difference of the
    /// two medians over `ops`, floored at zero (engine start-up jitter
    /// is about as large as the cheapest layers, so single samples can
    /// come out below the base). The quartiles are those of the single
    /// samples against the same base.
    fn above(&mut self, name: &str, taken: &[Sample], base_ns: f64, ops: u64, per_ns: f64) {
        let cost = |ns: f64| ((ns - base_ns) / ops.max(1) as f64 * per_ns).max(0.0);
        let values: Vec<f64> = taken.iter().map(|s| cost(s.ns as f64)).collect();
        self.set
            .put(Metric::with_spread(name, cost(median_ns(taken)), &values));
    }
}

fn median_ns(taken: &[Sample]) -> f64 {
    median(&taken.iter().map(|s| s.ns as f64).collect::<Vec<_>>())
}

/// Runs every probe on `own`, the workload's graph of R-MAT scale
/// `own_scale` — or, when that is above the cap, on the sibling
/// `graph_at` draws at the cap.
pub fn run(
    ctx: &Ctx,
    own: &G,
    own_scale: u32,
    graph_at: impl FnOnce(u32) -> G,
    cache_share: u64,
    tracer: &Tracer,
    set: &mut MetricSet,
) -> Res<()> {
    let sibling = (own_scale > MAX_SCALE).then(|| graph_at(MAX_SCALE));
    let g = sibling.as_ref().unwrap_or(own);
    let mut seeds = g.top_out_degree(SEEDS.min(g.vertices()));
    seeds.sort_unstable();
    let mut rng = Rng::new(ctx.seed, "probes");
    let kit = tracer.plain(NO_SPAN, "probe.setup", |_| {
        ProbeKit::build(g, &seeds, cache_share, ctx.workers, &mut rng)
    })?;
    let mut p = Probes {
        tracer,
        set,
        samples: if ctx.quick { 4 } else { SAMPLES },
    };

    p.per_op("ssdsim.read_ns_per_page", 1.0, || kit.ssd_read(&mut rng))?;
    p.per_op("safs.cache_get_ns", 1.0, || Ok(kit.cache_get(&mut rng)))?;
    p.per_op("safs.cache_insert_ns", 1.0, || {
        Ok(kit.cache_insert(&mut rng))
    })?;
    p.per_op("safs.hop_us", 1e-3, || kit.hop(&mut rng))?;
    p.per_op("safs.hop_batch_us_per_req", 1e-3, || {
        kit.hop_batch(&mut rng)
    })?;
    p.per_op("format.locate_ns", 1.0, || Ok(kit.locate()))?;
    p.per_op("format.decode_ns_per_edge", 1.0, || kit.decode())?;
    p.per_op("merge.ns_per_req", 1.0, || Ok(kit.merge()))?;
    p.per_op("serve.admit_us", 1e-3, || kit.admit())?;
    p.per_op("delta.apply_ns_per_op", 1.0, || kit.delta_apply())?;
    p.per_op("delta.merged_list_ns_per_edge", 1.0, || {
        Ok(kit.merged_list())
    })?;

    // The ladder. Each rung's run also yields the engine's own counters,
    // which say how many operations that run performed.
    let rung = |p: &mut Probes, name: &str, rung: Option<Rung>, iters: u32, backend: Backend| {
        let mut view = None;
        let taken = p.take(name, || {
            let (sample, v) = kit.engine_run(rung, iters, backend)?;
            view = Some(v);
            Ok(sample)
        })?;
        Ok::<_, String>((taken, view.expect("at least one sample")))
    };
    let raw = Backend::Raw;
    let (floor, _) = rung(&mut p, "engine.run_floor_us", None, 1, raw)?;
    let (spin, spin_v) = rung(
        &mut p,
        "engine.noop_ns_per_vertex",
        Some(Rung::Spin),
        ITERS,
        raw,
    )?;
    let (fetch, fetch_v) = rung(
        &mut p,
        "engine.fetch_ns_per_req",
        Some(Rung::Fetch),
        ITERS,
        raw,
    )?;
    let (touch, touch_v) = rung(
        &mut p,
        "vertex.touch_ns_per_edge",
        Some(Rung::Touch),
        ITERS,
        raw,
    )?;
    let (send, send_v) = rung(
        &mut p,
        "messages.send_ns_per_msg",
        Some(Rung::Send),
        ITERS,
        raw,
    )?;
    let (fan, fan_v) = rung(&mut p, "engine.activate_ns", Some(Rung::Fan), ITERS, raw)?;
    let floor_us: Vec<f64> = floor.iter().map(|s| s.ns as f64 / 1e3).collect();
    p.set.samples("engine.run_floor_us", &floor_us);
    p.above(
        "engine.noop_ns_per_vertex",
        &spin,
        median_ns(&floor),
        spin_v.vertices_processed,
        1.0,
    );
    p.above(
        "engine.fetch_ns_per_req",
        &fetch,
        median_ns(&spin),
        fetch_v.engine_requests,
        1.0,
    );
    p.above(
        "vertex.touch_ns_per_edge",
        &touch,
        median_ns(&fetch),
        touch_v.edges_delivered,
        1.0,
    );
    p.above(
        "messages.send_ns_per_msg",
        &send,
        median_ns(&touch),
        send_v.messages_sent,
        1.0,
    );
    p.above(
        "engine.activate_ns",
        &fan,
        median_ns(&spin),
        // No vertex re-activates in the last iteration.
        FAN * fan_v.vertices_processed * u64::from(ITERS - 1) / u64::from(ITERS),
        1.0,
    );
    for (name, backend) in [
        ("vertex.touch_varint_ns_per_edge", Backend::Varint),
        ("vertex.touch_overlay_ns_per_edge", Backend::Overlay),
    ] {
        let base = format!("{name}.base");
        let (fetch, _) = rung(&mut p, &base, Some(Rung::Fetch), ITERS, backend)?;
        let (touch, v) = rung(&mut p, name, Some(Rung::Touch), ITERS, backend)?;
        p.above(name, &touch, median_ns(&fetch), v.edges_delivered, 1.0);
    }

    // The sharded backend's 1-shard case against the plain engine: the
    // rendezvous cost per iteration of a program that only iterates,
    // and the end-to-end ratio on a real application.
    let spin = Some(Rung::Spin);
    let name = "shard.rendezvous_us_per_iter";
    let (plain, _) = rung(&mut p, &format!("{name}.base"), spin, SPIN_ITERS, raw)?;
    let (shard, _) = rung(&mut p, name, spin, SPIN_ITERS, Backend::OneShard)?;
    p.above(name, &shard, median_ns(&plain), u64::from(SPIN_ITERS), 1e-3);
    // One span of alternating runs, half on each backend.
    let mut flip = false;
    let both = p.take("shard.one_shard_ratio", || {
        flip = !flip;
        kit.wcc(if flip {
            Backend::Raw
        } else {
            Backend::OneShard
        })
    })?;
    let plain: Vec<Sample> = both.iter().step_by(2).copied().collect();
    let shard: Vec<Sample> = both.iter().skip(1).step_by(2).copied().collect();
    let base = median_ns(&plain).max(1.0);
    let ratios: Vec<f64> = shard.iter().map(|s| s.ns as f64 / base).collect();
    p.set.samples("shard.one_shard_ratio", &ratios);
    Ok(())
}
