//! The three batch workloads: the same harness over three application
//! sets chosen to stress different layers (see the README for why each
//! one is there and what it deliberately bypasses).
//!
//! A *pass* runs the workload's applications once. Passes come in
//! pairs — in-memory engine, then semi-external engine on the same
//! graph — so the Figure 8 ratio compares like with like. One unmeasured
//! semi-external pass warms the mount first; every application run of
//! every pass, warm-up included, is checked against the
//! `fg_baselines::direct` oracle.

use std::time::Instant;

use crate::adapter::{
    self, check, App, DeviceDelta, Format, Fs, Index, Res, RunView, Skew, G, PAGERANK_TOLERANCE,
    SCORE_TOLERANCE,
};
use crate::probes;
use crate::stats::{median, Metric};
use crate::trace::{Tracer, NO_SPAN};
use crate::util::Rng;
use crate::workload::{
    overhead_share, put_device, put_engine, put_setup, repeat_setup, setup_again, Ctx, MetricSet,
    Outcome, SetupTimes, Stopwatch, Tally,
};

/// The paper's cache proportion: 1 GB of page cache for the 13 GB
/// Twitter image.
const CACHE_SHARE: u64 = 13;

pub struct BatchSpec {
    pub name: &'static str,
    scale: u32,
    edge_factor: u32,
    skew: Skew,
    /// Run on the symmetrised (undirected) view.
    symmetric: bool,
    apps: fn(&[u32]) -> Vec<App>,
    /// Roots drawn (seeded) from the 1024 highest out-degree vertices.
    roots: usize,
}

pub const BFS_BC_SPARSE: BatchSpec = BatchSpec {
    name: "bfs_bc_sparse",
    scale: 15,
    edge_factor: 32,
    skew: Skew::Social,
    symmetric: false,
    apps: |roots| {
        roots
            .iter()
            .flat_map(|&r| [App::Bfs(r), App::Bc(r)])
            .collect()
    },
    roots: 8,
};

pub const PR_WCC_DENSE: BatchSpec = BatchSpec {
    name: "pr_wcc_dense",
    scale: 15,
    edge_factor: 22,
    skew: Skew::Web,
    symmetric: false,
    apps: |_| vec![App::Wcc, App::Pr(30)],
    roots: 0,
};

pub const TC_NEIGHBOR: BatchSpec = BatchSpec {
    name: "tc_neighbor",
    scale: 13,
    edge_factor: 32,
    skew: Skew::Social,
    symmetric: true,
    apps: |_| vec![App::Tc],
    roots: 0,
};

struct Fixture {
    g: G,
    fs: Fs,
    index: Index,
    image_bytes: u64,
}

/// The workload's graph at `scale`: the seed reaches it through the
/// workload's name, so every workload draws its own.
fn graph(spec: &BatchSpec, ctx: &Ctx, scale: u32) -> G {
    let seed = Rng::new(ctx.seed, spec.name).next_u64();
    let g = adapter::gen_graph(scale, spec.edge_factor, spec.skew, seed);
    if spec.symmetric {
        adapter::symmetrize(&g)
    } else {
        g
    }
}

fn setup(spec: &BatchSpec, ctx: &Ctx, tracer: &Tracer, times: &mut SetupTimes) -> Res<Fixture> {
    let watch = Stopwatch::start();
    let fx = tracer.plain(NO_SPAN, "setup", |setup| -> Res<Fixture> {
        let g = tracer.plain(setup, "gen_graph", |_| {
            graph(spec, ctx, ctx.scale(spec.scale))
        });
        let t = Instant::now();
        let image = tracer.plain(setup, "write_image", |_| {
            adapter::write_image(&g, Format::Raw)
        })?;
        times.write_image_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let index = tracer.plain(setup, "load_index", |_| adapter::load_index(&image))?;
        times.load_index_s.push(t.elapsed().as_secs_f64());
        let image_bytes = image.bytes();
        let fs = tracer.plain(setup, "mount", |_| {
            adapter::mount(image, image_bytes / CACHE_SHARE)
        })?;
        Ok(Fixture {
            g,
            fs,
            index,
            image_bytes,
        })
    })?;
    times.total_s.push(watch.wall_s());
    Ok(fx)
}

fn tolerance(app: App) -> f64 {
    match app {
        App::Pr(_) => PAGERANK_TOLERANCE,
        _ => SCORE_TOLERANCE,
    }
}

/// One pass: every application once, each answer checked.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    modeled_s: f64,
    io_bound: u64,
    total: RunView,
    device: DeviceDelta,
}

struct Harness<'a> {
    ctx: &'a Ctx,
    fx: &'a Fixture,
    apps: &'a [App],
    want: &'a [adapter::Answer],
    tally: Tally,
    inject: bool,
}

impl Harness<'_> {
    fn pass(&mut self, sem: bool, tracer: &Tracer) -> Pass {
        let name = if sem { "pass.sem" } else { "pass.mem" };
        tracer.span(NO_SPAN, name, |pass| {
            let before = self.fx.fs.device();
            let watch = Stopwatch::start();
            let mut total = RunView::default();
            let (mut modeled_ns, mut io_bound) = (0u64, 0u64);
            let mut answers = Vec::with_capacity(self.apps.len());
            for &app in self.apps {
                let run = tracer.span(pass, app.name(), |_| {
                    let run = if sem {
                        adapter::run_sem(&self.fx.fs, &self.fx.index, app, self.ctx.workers)
                    } else {
                        adapter::run_mem(&self.fx.g, app, self.ctx.workers)
                    };
                    let counts = run.as_ref().map_or(Vec::new(), |(_, v)| {
                        vec![
                            ("edges_delivered", v.edges_delivered as f64),
                            ("device_bytes", v.device.bytes_read as f64),
                            ("engine_requests", v.engine_requests as f64),
                        ]
                    });
                    (run, counts)
                });
                if let Ok((_, v)) = &run {
                    total.add(v);
                    modeled_ns += v.modeled_ns;
                    io_bound += u64::from(v.io_bound);
                }
                answers.push(run.map(|(answer, _)| answer));
            }
            let wall_s = watch.wall_s();
            let cpu_s = watch.cpu_s();
            let device = self.fx.fs.device().since(&before);
            // Checked after the clock: the oracle comparison is not
            // part of the pass.
            for ((&app, got), want) in self.apps.iter().zip(answers).zip(self.want) {
                let verdict = got.and_then(|mut got| {
                    if std::mem::take(&mut self.inject) {
                        got = adapter::Answer::Count(u64::MAX);
                    }
                    check(&got, want, tolerance(app))
                });
                self.tally.record(app.name(), verdict);
            }
            let counts = vec![
                ("device_bytes", device.bytes_read as f64),
                ("edges_delivered", total.edges_delivered as f64),
            ];
            let pass = Pass {
                wall_s,
                cpu_s,
                modeled_s: modeled_ns as f64 / 1e9,
                io_bound,
                total,
                device,
            };
            (pass, counts)
        })
    }
}

pub fn run(spec: &BatchSpec, ctx: &Ctx) -> Res<Outcome> {
    let untraced = Tracer::new(spec.name, false);
    let traced = Tracer::new(spec.name, ctx.trace);

    let (fx, mut times) = repeat_setup(ctx, &traced, |tracer, times| {
        setup(spec, ctx, tracer, times)
    })?;

    let roots: Vec<u32> = {
        let pool = fx.g.hub_pool();
        let mut rng = Rng::new(ctx.seed, "roots");
        (0..spec.roots)
            .map(|_| pool[rng.below(pool.len() as u64) as usize])
            .collect()
    };
    let apps = (spec.apps)(&roots);
    let t = Instant::now();
    let want: Vec<adapter::Answer> = traced.plain(NO_SPAN, "oracle", |_| {
        apps.iter()
            .map(|&app| adapter::oracle(&fx.g, app))
            .collect()
    });
    let direct_s = t.elapsed().as_secs_f64();

    let mut h = Harness {
        ctx,
        fx: &fx,
        apps: &apps,
        want: &want,
        tally: Tally::default(),
        inject: ctx.inject_wrong_answer,
    };
    // Warm-up and correctness gate: the first semi-external pass.
    h.pass(true, &untraced);
    setup_again(ctx, &mut times, |tracer, times| {
        setup(spec, ctx, tracer, times)
    })?;

    let mut mem: Vec<Pass> = Vec::new();
    let mut sem: [Vec<Pass>; 2] = [Vec::new(), Vec::new()];
    let min_pairs = if ctx.quick { 1 } else { 2 };
    for (phase, tracer) in [&untraced, &traced].into_iter().enumerate() {
        let t = Instant::now();
        while sem[phase].len() < min_pairs || t.elapsed().as_secs_f64() < ctx.half_seconds() {
            mem.push(h.pass(false, tracer));
            sem[phase].push(h.pass(true, tracer));
        }
        setup_again(ctx, &mut times, |tracer, times| {
            setup(spec, ctx, tracer, times)
        })?;
    }
    let tally = h.tally;

    let phase_walls: Vec<Vec<f64>> = sem
        .iter()
        .map(|p| p.iter().map(|p| p.wall_s).collect())
        .collect();
    let sem: Vec<&Pass> = sem.iter().flatten().collect();
    let col = |f: fn(&Pass) -> f64| -> Vec<f64> { sem.iter().map(|p| f(p)).collect() };
    let mem_walls: Vec<f64> = mem.iter().map(|p| p.wall_s).collect();
    let modeled = col(|p| p.modeled_s);
    let walls = col(|p| p.wall_s);

    let mut set = MetricSet::default();
    put_setup(
        &mut set,
        &times,
        fx.image_bytes,
        fx.g.edges(),
        fx.index.heap_bytes(),
        fx.g.vertices(),
    );
    set.samples("wall_s", &walls);
    set.samples("modeled_s", &modeled);
    // Figure 8: in-memory wall over semi-external modeled runtime.
    let rel: Vec<f64> = mem_walls.iter().map(|m| m / median(&modeled)).collect();
    set.samples("rel_mem", &rel);
    // A mean of the total: the process clock ticks at 1/100 s, too
    // coarse to take a median of single passes.
    let cpu = col(|p| p.cpu_s);
    set.put(Metric::with_spread(
        "cpu_s",
        cpu.iter().sum::<f64>() / cpu.len() as f64,
        &cpu,
    ));
    set.samples(
        "edges_per_s",
        &col(|p| p.total.edges_delivered as f64 / p.wall_s),
    );
    set.samples("device_bytes", &col(|p| p.device.bytes_read as f64));
    // The unit of work of a batch workload is the pass, so a "query"
    // here is one pass: its latency distribution and its rate.
    let pass_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    set.samples("query_p50_ms", &pass_ms);
    let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    set.samples("queries_per_s", &rates);
    set.point("failed_share", tally.failed_share());

    if ctx.trace {
        let devices: Vec<DeviceDelta> = sem.iter().map(|p| p.device.clone()).collect();
        put_device(&mut set, &devices);
        let mut total = RunView::default();
        for p in &sem {
            total.add(&p.total);
        }
        put_engine(
            &mut set,
            &sem[0].total,
            &total,
            devices.iter().map(|d| d.bytes_read).sum(),
            ctx.workers,
            sem.iter().map(|p| p.io_bound).sum(),
            sem.len() as u64 * apps.len() as u64,
        );
        set.samples("apps.mem_wall_s", &mem_walls);
        set.point("baselines.direct_s", direct_s);
        set.point(
            "ledger.trace_overhead_share",
            overhead_share(&phase_walls[0], &phase_walls[1]),
        );
        probes::run(
            ctx,
            &fx.g,
            ctx.scale(spec.scale),
            |scale| graph(spec, ctx, scale),
            CACHE_SHARE,
            &traced,
            &mut set,
        )?;
    }
    Ok(Outcome::new(ctx, tally, set, &traced))
}
