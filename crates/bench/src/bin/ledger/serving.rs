//! The two serving workloads: `serve_closed` (read-only, sharded,
//! closed loop) and `ingest_live` (one writer beside one reader on a
//! mutable single-mount service). The README says why each is there.
//!
//! Both measure in two halves (the second is the recorded one in a
//! traced run), each cut into short phases with every thread joined in
//! between, so the points between phases are quiescent: that is where
//! the in-memory reference is sampled and sampled answers are
//! re-checked (after the clock stops), and where — after each half —
//! `ingest_live` compares the served graph against its mirror.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use crate::adapter::{
    self, check, Answer, App, AtomicBool, AtomicU64, Batch, DeviceDelta, Format, Op, Ordering, Res,
    RunView, Service, Skew, G, SCORE_TOLERANCE,
};
use crate::probes;
use crate::stats::{median, percentile, Metric};
use crate::trace::{Tracer, NO_SPAN};
use crate::util::{cpu_seconds, Rng};
use crate::workload::{
    overhead_share, put_device, put_engine, put_serve, put_setup, repeat_setup, setup_again, Ctx,
    MetricSet, Outcome, SetupTimes, Stopwatch, Tally,
};

pub const SERVE_CLOSED: &str = "serve_closed";
pub const INGEST_LIVE: &str = "ingest_live";

const SCALE: u32 = 14;
const EDGE_FACTOR: u32 = 32;
/// Both workloads serve the same graph (one raw and sharded, one
/// compressed and whole), so their setups draw the same seed.
const GRAPH_TAG: &str = "serving_graph";
/// BFS roots come from a pool of this many, drawn (seeded) from the
/// 1024 highest out-degree vertices: repeated hot roots are what lets
/// tenants share pages.
const ROOT_POOL: usize = 16;
/// The PageRank queries of the mix stop after this many iterations.
const PR_ITERS: u32 = 3;
/// Length of the sub-windows a phase is cut into. Every rate and
/// per-query cost is taken per window and reported as the median over
/// the windows, so a stall of the host spoils the windows it falls in
/// and not the run's number.
const WINDOW_S: f64 = 1.0;
const SHARDS: usize = 2;
const SERVE_CACHE_SHARE: u64 = 4;
/// Every this-many-th query of a client keeps its answer for the
/// re-check after the clock stops.
const RECHECK_EVERY: usize = 16;

const BATCH_OPS: usize = 1024;
const BATCHES_PER_CYCLE: usize = 16;

fn serving_graph(ctx: &Ctx, scale: u32) -> G {
    let seed = Rng::new(ctx.seed, GRAPH_TAG).next_u64();
    adapter::gen_graph(scale, EDGE_FACTOR, Skew::Social, seed)
}

fn root_pool(ctx: &Ctx, g: &G) -> Vec<u32> {
    let top = g.hub_pool();
    let mut rng = Rng::new(ctx.seed, "root_pool");
    (0..ROOT_POOL)
        .map(|_| top[rng.below(top.len() as u64) as usize])
        .collect()
}

/// One completed query, as its client saw it.
struct QueryRec {
    /// Completion time, seconds since the phase started.
    end_s: f64,
    latency_ms: f64,
    view: RunView,
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientLog {
    recs: Vec<QueryRec>,
    kept: Vec<(App, Answer)>,
    errors: Vec<String>,
}

/// What a phase's threads share with its timekeeper: the stop flag, and
/// counts of finished queries and compactions, so that a phase on a
/// slow or busy host still ends with something measured. The counts
/// gate the timekeeper, so they are release/acquire pairs rather than
/// relaxed statistics.
#[derive(Default)]
struct PhaseClock {
    stop: AtomicBool,
    queries: AtomicU64,
    compactions: AtomicU64,
}

impl PhaseClock {
    /// Sleeps until `len_s` has passed and `enough` holds, then raises
    /// the stop flag. On the way it marks the window boundaries — the
    /// time each was seen at and the process CPU clock there.
    fn run(&self, start: Instant, len_s: f64, enough: impl Fn(&PhaseClock) -> bool) -> Vec<Mark> {
        let count = (len_s / WINDOW_S).round().max(1.0) as usize;
        let mark = || {
            let at_s = start.elapsed().as_secs_f64();
            Mark {
                at_s,
                // Wall time stands in where the process clock is
                // missing, as in `Stopwatch::cpu_s`.
                cpu_s: cpu_seconds().unwrap_or(at_s),
            }
        };
        let mut marks = vec![mark()];
        // The boundary waited for, in windows from the start.
        let mut next = 1;
        loop {
            let now = start.elapsed().as_secs_f64();
            if next <= count && now >= len_s * next as f64 / count as f64 {
                marks.push(mark());
                // A timekeeper that was stalled skips the boundaries it
                // slept through rather than marking slivers.
                next = (now / len_s * count as f64) as usize + 1;
            }
            if now >= len_s && enough(self) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        self.stop.store(true, Ordering::Release);
        marks
    }
}

/// A window boundary of a phase, as the timekeeper saw it.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Seconds since the phase started.
    at_s: f64,
    /// Process CPU seconds so far.
    cpu_s: f64,
}

/// A closed-loop client: the next query is sent when the previous one
/// returns, until the phase clock stops it.
fn client_loop(
    tracer: &Tracer,
    parent: u32,
    clock: &PhaseClock,
    phase_start: Instant,
    mut next: impl FnMut() -> App,
    query: impl Fn(App) -> Res<(Answer, RunView)>,
    keep: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    while !clock.stop.load(Ordering::Acquire) {
        let app = next();
        let t = Instant::now();
        let out = tracer.span(parent, "query", |_| {
            let out = query(app);
            let counts = out.as_ref().map_or(Vec::new(), |(_, v)| {
                vec![
                    ("edges_delivered", v.edges_delivered as f64),
                    ("device_bytes", v.device.bytes_read as f64),
                ]
            });
            (out, counts)
        });
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        clock.queries.fetch_add(1, Ordering::Release);
        match out {
            Ok((answer, view)) => {
                if keep && log.recs.len() % RECHECK_EVERY == 0 {
                    log.kept.push((app, answer));
                }
                log.recs.push(QueryRec {
                    end_s: phase_start.elapsed().as_secs_f64(),
                    latency_ms,
                    view,
                });
            }
            Err(e) => log.errors.push(format!("{}: {e}", app.name())),
        }
    }
    log
}

/// Everything one measured phase produced.
struct Phase {
    /// Window boundaries, first to last: the measured part of the
    /// phase lies between them.
    marks: Vec<Mark>,
    recs: Vec<QueryRec>,
    device: DeviceDelta,
}

/// One sub-window of a phase: the queries that completed in it, and
/// what the process clock charged meanwhile.
struct Window<'a> {
    len_s: f64,
    cpu_s: f64,
    recs: Vec<&'a QueryRec>,
}

impl Phase {
    fn windows(&self) -> Vec<Window<'_>> {
        self.marks
            .windows(2)
            .map(|m| Window {
                len_s: m[1].at_s - m[0].at_s,
                cpu_s: m[1].cpu_s - m[0].cpu_s,
                recs: self
                    .recs
                    .iter()
                    .filter(|r| m[0].at_s < r.end_s && r.end_s <= m[1].at_s)
                    .collect(),
            })
            .collect()
    }
}

impl Window<'_> {
    fn mean(&self, f: fn(&QueryRec) -> f64) -> f64 {
        self.recs.iter().map(|r| f(r)).sum::<f64>() / self.recs.len() as f64
    }
}

/// The end-to-end metrics both serving workloads define the same way:
/// the unit of work is one query. Each is computed per window and
/// reported as the median over the windows. A mean over the whole run
/// would follow every stall of the host; a median over the queries
/// would jump between the humps of `ingest_live`'s distributions (a
/// query that a compaction overlapped is slower, and device-bound).
fn put_query_metrics(
    set: &mut MetricSet,
    phases: &[Phase],
    device_bytes: u64,
    mem_query_s: f64,
) -> Res<()> {
    let recs: Vec<&QueryRec> = phases.iter().flat_map(|p| &p.recs).collect();
    let windows: Vec<Window> = phases.iter().flat_map(Phase::windows).collect();
    // Per-query costs come from the windows that completed a query.
    let busy: Vec<&Window> = windows.iter().filter(|w| !w.recs.is_empty()).collect();
    if busy.is_empty() {
        return Err("no query completed in the measured phases".into());
    }
    let per_window =
        |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { busy.iter().map(|w| f(w)).collect() };
    set.samples(
        "wall_s",
        &per_window(&|w| w.mean(|r| r.view.wall_ns as f64 / 1e9)),
    );
    let modeled = per_window(&|w| w.mean(|r| r.view.modeled_ns as f64 / 1e9));
    set.samples("modeled_s", &modeled);
    let rel: Vec<f64> = modeled.iter().map(|m| mem_query_s / m).collect();
    set.put(Metric::with_spread(
        "rel_mem",
        mem_query_s / median(&modeled),
        &rel,
    ));
    set.samples("cpu_s", &per_window(&|w| w.cpu_s / w.recs.len() as f64));
    let rate =
        |f: fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(|w| f(w) / w.len_s).collect() };
    set.samples(
        "edges_per_s",
        &rate(|w| w.recs.iter().map(|r| r.view.edges_delivered as f64).sum()),
    );
    set.point("device_bytes", device_bytes as f64 / recs.len() as f64);
    let latency: Vec<f64> = recs.iter().map(|r| r.latency_ms).collect();
    set.samples("query_p50_ms", &latency);
    // The tail is taken per phase, not per window: a window holds too
    // few queries to have a 95th percentile worth the name.
    let tails: Vec<f64> = phases
        .iter()
        .filter(|p| !p.recs.is_empty())
        .map(|p| {
            percentile(
                &p.recs.iter().map(|r| r.latency_ms).collect::<Vec<_>>(),
                0.95,
            )
        })
        .collect();
    set.samples("query_p95_ms", &tails);
    set.samples("queries_per_s", &rate(|w| w.recs.len() as f64));
    Ok(())
}

/// In-memory reference for one query of the mix, sampled before,
/// between and after the measured phases so that it sees the same host
/// conditions they do: every pool root's BFS (and the PageRank query
/// when the mix has one), one query at a time on the in-memory engine
/// with as many worker threads as one served query gets in total.
struct MemReference {
    threads: usize,
    /// Share of the mix that is the PageRank query.
    pr_share: f64,
    bfs_s: Vec<f64>,
    pr_s: Vec<f64>,
    pr_answer: Option<Answer>,
}

impl MemReference {
    fn new(threads: usize, pr_share: f64) -> MemReference {
        MemReference {
            threads,
            pr_share,
            bfs_s: Vec::new(),
            pr_s: Vec::new(),
            pr_answer: None,
        }
    }

    fn sample(&mut self, g: &G, pool: &[u32], tally: &mut Tally) {
        for &root in pool {
            let t = Instant::now();
            let run = adapter::run_mem(g, App::Bfs(root), self.threads);
            self.bfs_s.push(t.elapsed().as_secs_f64());
            tally.record("mem bfs", run.map(|_| ()));
        }
        if self.pr_share > 0.0 {
            let t = Instant::now();
            let run = adapter::run_mem(g, App::Pr(PR_ITERS), self.threads);
            self.pr_s.push(t.elapsed().as_secs_f64());
            tally.record(
                "mem pagerank",
                run.map(|(answer, _)| self.pr_answer = Some(answer)),
            );
        }
    }

    /// Seconds per query of the mix.
    fn per_query_s(&self) -> f64 {
        (1.0 - self.pr_share) * median(&self.bfs_s) + self.pr_share * median(&self.pr_s)
    }
}

// ------------------------------------------------------------ serve_closed

struct ServeFixture {
    g: G,
    service: Service,
    image_bytes: u64,
    index_bytes: usize,
}

fn setup_serve(ctx: &Ctx, tracer: &Tracer, times: &mut SetupTimes) -> Res<ServeFixture> {
    let watch = Stopwatch::start();
    let fx = tracer.plain(NO_SPAN, "setup", |setup| -> Res<ServeFixture> {
        let g = tracer.plain(setup, "gen_graph", |_| serving_graph(ctx, ctx.scale(SCALE)));
        let t = Instant::now();
        let images = tracer.plain(setup, "write_image", |_| adapter::write_sharded(&g, SHARDS))?;
        times.write_image_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let index = tracer.plain(setup, "load_index", |_| {
            adapter::load_sharded_index(&images)
        })?;
        times.load_index_s.push(t.elapsed().as_secs_f64());
        let image_bytes = index.image_bytes();
        let service = tracer.plain(setup, "mount", |_| -> Res<Service> {
            let per_shard = image_bytes / SERVE_CACHE_SHARE / SHARDS as u64;
            let fs = adapter::mount_sharded(images, per_shard)?;
            let max_inflight = (ctx.nproc / 2).max(1);
            Ok(Service::sharded(fs, &index, max_inflight, 1))
        })?;
        Ok(ServeFixture {
            g,
            service,
            image_bytes,
            index_bytes: index.heap_bytes(),
        })
    })?;
    times.total_s.push(watch.wall_s());
    Ok(fx)
}

/// One phase of `clients` closed-loop tenants over the sharded service.
fn serve_phase(
    ctx: &Ctx,
    fx: &ServeFixture,
    pool: &[u32],
    tag: &str,
    len_s: f64,
    tracer: &Tracer,
) -> (Phase, Vec<ClientLog>) {
    let clients = 2 * (ctx.nproc / 2).max(1);
    let clock = PhaseClock::default();
    tracer.plain(NO_SPAN, "phase", |phase| {
        let before = fx.service.device();
        let start = Instant::now();
        let (marks, logs): (_, Vec<ClientLog>) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let clock = &clock;
                    let mut rng = Rng::new(ctx.seed, &format!("{tag}.client{c}"));
                    // Every fifth query of a client is the PageRank one
                    // (the seed says which fifth): a drawn 20 % would
                    // leave the heavy queries' count to chance, and
                    // every rate below with it.
                    let mut sent = rng.below(5);
                    s.spawn(move || {
                        let next = move || {
                            sent += 1;
                            if sent % 5 == 0 {
                                App::Pr(PR_ITERS)
                            } else {
                                App::Bfs(pool[rng.below(pool.len() as u64) as usize])
                            }
                        };
                        client_loop(
                            tracer,
                            phase,
                            clock,
                            start,
                            next,
                            |app| fx.service.query_sharded(app),
                            true,
                        )
                    })
                })
                .collect();
            let marks = clock.run(start, len_s, |c| {
                c.queries.load(Ordering::Acquire) >= clients as u64
            });
            let logs = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ClientLog {
                        errors: vec!["client thread panicked".into()],
                        ..ClientLog::default()
                    })
                })
                .collect();
            (marks, logs)
        });
        let phase = Phase {
            marks,
            recs: Vec::new(),
            device: fx.service.device().since(&before),
        };
        (phase, logs)
    })
}

/// Folds client logs into the phase and the tally; kept answers are
/// re-checked here, after the clock has stopped.
fn settle(
    phase: &mut Phase,
    logs: Vec<ClientLog>,
    tally: &mut Tally,
    mut want: impl FnMut(App) -> Answer,
) {
    for log in logs {
        for e in log.errors {
            tally.record("query", Err(e));
        }
        for _ in &log.recs {
            tally.record("query", Ok(()));
        }
        for (app, got) in &log.kept {
            tally.record("recheck", check(got, &want(*app), SCORE_TOLERANCE));
        }
        phase.recs.extend(log.recs);
    }
}

pub fn run_serve_closed(ctx: &Ctx) -> Res<Outcome> {
    let untraced = Tracer::new(SERVE_CLOSED, false);
    let traced = Tracer::new(SERVE_CLOSED, ctx.trace);
    let (fx, mut times) = repeat_setup(ctx, &traced, |tracer, times| {
        setup_serve(ctx, tracer, times)
    })?;
    let pool = root_pool(ctx, &fx.g);
    let mut tally = Tally::default();

    let t = Instant::now();
    let mut oracle: HashMap<App, Answer> = pool
        .iter()
        .map(|&r| (App::Bfs(r), adapter::oracle(&fx.g, App::Bfs(r))))
        .collect();
    let direct_s = t.elapsed().as_secs_f64();
    let mut mem = MemReference::new(SHARDS, 0.2);
    mem.sample(&fx.g, &pool, &mut tally);
    // A capped delta-PageRank is not power iteration stopped early, so
    // its reference is the in-memory engine's answer to the same call.
    oracle.insert(
        App::Pr(PR_ITERS),
        mem.pr_answer
            .clone()
            .ok_or("in-memory PageRank reference failed")?,
    );
    let mut inject = ctx.inject_wrong_answer;
    let mut want = |app: App| {
        if std::mem::take(&mut inject) {
            return Answer::Count(u64::MAX);
        }
        oracle[&app].clone()
    };

    let warm_s = if ctx.quick { 0.2 } else { 2.0 };
    let (mut warm, logs) = serve_phase(ctx, &fx, &pool, "warm", warm_s, &untraced);
    settle(&mut warm, logs, &mut tally, &mut want);
    let mut phases = Vec::new();
    for (half, tracer) in [&untraced, &traced].into_iter().enumerate() {
        for slice in 0..ctx.slices() {
            let tag = format!("phase{half}.{slice}");
            let (mut phase, logs) = serve_phase(ctx, &fx, &pool, &tag, ctx.slice_seconds(), tracer);
            settle(&mut phase, logs, &mut tally, &mut want);
            phases.push(phase);
            mem.sample(&fx.g, &pool, &mut tally);
            if slice % 2 == 1 {
                setup_again(ctx, &mut times, |tracer, times| {
                    setup_serve(ctx, tracer, times)
                })?;
            }
        }
    }
    let mem_query_s = mem.per_query_s();

    let mut set = MetricSet::default();
    put_setup(
        &mut set,
        &times,
        fx.image_bytes,
        fx.g.edges(),
        fx.index_bytes,
        fx.g.vertices(),
    );
    let device_bytes = phases.iter().map(|p| p.device.bytes_read).sum();
    put_query_metrics(&mut set, &phases, device_bytes, mem_query_s)?;
    set.point("failed_share", tally.failed_share());

    if ctx.trace {
        put_layers(&mut set, &phases, SHARDS, device_bytes);
        put_serve(&mut set, &fx.service.stats());
        set.point("apps.mem_wall_s", mem_query_s);
        set.point("baselines.direct_s", direct_s);
        run_probes(ctx, &fx.g, SERVE_CACHE_SHARE, &traced, &mut set)?;
    }
    Ok(Outcome::new(ctx, tally, set, &traced))
}

/// The per-layer counts the serving workloads share.
fn put_layers(set: &mut MetricSet, phases: &[Phase], engine_threads: usize, device_bytes: u64) {
    let devices: Vec<DeviceDelta> = phases.iter().map(|p| p.device.clone()).collect();
    put_device(set, &devices);
    let recs: Vec<&QueryRec> = phases.iter().flat_map(|p| &p.recs).collect();
    let mut total = RunView::default();
    for r in &recs {
        total.add(&r.view);
    }
    put_engine(
        set,
        &recs[0].view,
        &total,
        device_bytes,
        engine_threads,
        recs.iter().filter(|r| r.view.io_bound).count() as u64,
        recs.len() as u64,
    );
    // The first half of the phases ran with the recorder off.
    let (control, recorded) = phases.split_at(phases.len() / 2);
    let latency = |half: &[Phase]| -> Vec<f64> {
        half.iter()
            .flat_map(|p| &p.recs)
            .map(|r| r.latency_ms)
            .collect()
    };
    set.point(
        "ledger.trace_overhead_share",
        overhead_share(&latency(control), &latency(recorded)),
    );
}

fn run_probes(ctx: &Ctx, g: &G, cache_share: u64, traced: &Tracer, set: &mut MetricSet) -> Res<()> {
    let scale = ctx.scale(SCALE);
    probes::run(
        ctx,
        g,
        scale,
        |scale| serving_graph(ctx, scale),
        cache_share,
        traced,
        set,
    )
}

// ------------------------------------------------------------- ingest_live

struct IngestFixture {
    g: G,
    service: Service,
    image_bytes: u64,
    index_bytes: usize,
}

fn setup_ingest(ctx: &Ctx, tracer: &Tracer, times: &mut SetupTimes) -> Res<IngestFixture> {
    let watch = Stopwatch::start();
    let fx = tracer.plain(NO_SPAN, "setup", |setup| -> Res<IngestFixture> {
        let g = tracer.plain(setup, "gen_graph", |_| serving_graph(ctx, ctx.scale(SCALE)));
        let t = Instant::now();
        let image = tracer.plain(setup, "write_image", |_| {
            adapter::write_image(&g, Format::Compressed)
        })?;
        times.write_image_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let index = tracer.plain(setup, "load_index", |_| adapter::load_index(&image))?;
        times.load_index_s.push(t.elapsed().as_secs_f64());
        let image_bytes = image.bytes();
        // The one workload whose cache holds the whole image.
        let service = tracer.plain(setup, "mount", |_| -> Res<Service> {
            Ok(Service::single(
                adapter::mount(image, image_bytes)?,
                &index,
                2,
                1,
            ))
        })?;
        Ok(IngestFixture {
            g,
            service,
            image_bytes,
            index_bytes: index.heap_bytes(),
        })
    })?;
    times.total_s.push(watch.wall_s());
    Ok(fx)
}

/// The writer's plan. Cycles alternate: a *forward* cycle ingests 16
/// fresh batches (each op effective against the base graph and distinct
/// within the cycle) and compacts; the next cycle ingests their
/// inverses in reverse order and compacts, which restores the base
/// graph exactly. The graph therefore stays the same size for the
/// whole run — compaction time does not drift with run length — and at
/// any instant the served graph is the base plus a known prefix of the
/// current forward batches, which is what the mirror checks.
struct Writer {
    rng: Rng,
    forward: Vec<Vec<Op>>,
    /// Batches ingested in the current cycle.
    done: usize,
    undoing: bool,
    ingest_s: f64,
    cycle_ops: usize,
    // Measured samples.
    ingest_ops_per_s: Vec<f64>,
    compact_s: Vec<f64>,
    pending_peak: u64,
    errors: Vec<String>,
}

impl Writer {
    fn new(ctx: &Ctx) -> Writer {
        Writer {
            rng: Rng::new(ctx.seed, "delta_batches"),
            forward: Vec::new(),
            done: 0,
            undoing: false,
            ingest_s: 0.0,
            cycle_ops: 0,
            ingest_ops_per_s: Vec::new(),
            compact_s: Vec::new(),
            pending_peak: 0,
            errors: Vec::new(),
        }
    }

    /// 16 batches of 1024 ops: three adds of absent edges for every
    /// remove of a present one.
    fn draw_cycle(&mut self, g: &G) {
        let n = g.vertices() as u64;
        let mut used: HashSet<(u32, u32)> = HashSet::new();
        self.forward = (0..BATCHES_PER_CYCLE)
            .map(|_| {
                let mut ops = Vec::with_capacity(BATCH_OPS);
                while ops.len() < BATCH_OPS {
                    let src = self.rng.below(n) as u32;
                    if self.rng.below(4) == 0 {
                        let degree = g.out_degree(src);
                        if degree == 0 {
                            continue;
                        }
                        let dst = g.out_neighbor(src, self.rng.below(degree as u64) as usize);
                        if used.insert((src, dst)) {
                            ops.push(Op::Remove(src, dst));
                        }
                    } else {
                        let dst = self.rng.below(n) as u32;
                        if src != dst && !g.has_edge(src, dst) && used.insert((src, dst)) {
                            ops.push(Op::Add(src, dst));
                        }
                    }
                }
                ops
            })
            .collect();
    }

    /// The forward batches currently in effect on top of the base graph.
    fn live_prefix(&self) -> usize {
        if self.undoing {
            BATCHES_PER_CYCLE - self.done
        } else {
            self.done
        }
    }

    /// One step: the next batch, or the compaction that ends the cycle.
    fn step(&mut self, g: &G, service: &Service, clock: &PhaseClock, tracer: &Tracer, parent: u32) {
        if self.forward.is_empty() {
            self.draw_cycle(g);
        }
        if self.done < BATCHES_PER_CYCLE {
            let batch = if self.undoing {
                let undone: Vec<Op> = self.forward[BATCHES_PER_CYCLE - 1 - self.done]
                    .iter()
                    .rev()
                    .map(|&op| match op {
                        Op::Add(s, d) => Op::Remove(s, d),
                        Op::Remove(s, d) => Op::Add(s, d),
                    })
                    .collect();
                Batch::new(&undone)
            } else {
                Batch::new(&self.forward[self.done])
            };
            let t = Instant::now();
            let out = tracer.span(parent, "ingest", |_| {
                (service.ingest(&batch), vec![("ops", batch.len() as f64)])
            });
            self.ingest_s += t.elapsed().as_secs_f64();
            self.cycle_ops += batch.len();
            self.done += 1;
            if let Err(e) = out {
                self.errors.push(format!("ingest: {e}"));
            }
            return;
        }
        let pending = service.pending_ops();
        self.pending_peak = self.pending_peak.max(pending);
        let t = Instant::now();
        let out = tracer.span(parent, "compact", |_| {
            (service.compact(), vec![("pending_ops", pending as f64)])
        });
        self.compact_s.push(t.elapsed().as_secs_f64());
        clock.compactions.fetch_add(1, Ordering::Release);
        self.ingest_ops_per_s
            .push(self.cycle_ops as f64 / self.ingest_s.max(1e-9));
        if let Err(e) = out {
            self.errors.push(format!("compact: {e}"));
        }
        (self.ingest_s, self.cycle_ops, self.done) = (0.0, 0, 0);
        if self.undoing {
            self.forward.clear();
        }
        self.undoing = !self.undoing;
    }
}

/// A quiescent checkpoint: the served graph (image + pending deltas)
/// must answer like `DeltaLog::union` of a mirror log over the base.
fn checkpoint(fx: &IngestFixture, writer: &Writer, pool: &[u32], tally: &mut Tally) {
    let live: Vec<Batch> = writer.forward[..writer.live_prefix().min(writer.forward.len())]
        .iter()
        .map(|ops| Batch::new(ops))
        .collect();
    let mirror = match adapter::union_with(&fx.g, &live.iter().collect::<Vec<_>>()) {
        Ok(g) => g,
        Err(e) => return tally.record("mirror", Err(e)),
    };
    for &root in &pool[..2.min(pool.len())] {
        let app = App::Bfs(root);
        let verdict = fx
            .service
            .query(app)
            .and_then(|(got, _)| check(&got, &adapter::oracle(&mirror, app), 0.0));
        tally.record("checkpoint", verdict);
    }
}

fn ingest_phase(
    ctx: &Ctx,
    fx: &IngestFixture,
    writer: &mut Writer,
    pool: &[u32],
    tag: &str,
    len_s: f64,
    tracer: &Tracer,
) -> (Phase, ClientLog) {
    let clock = PhaseClock::default();
    tracer.plain(NO_SPAN, "phase", |phase| {
        let start = Instant::now();
        let (marks, log) = std::thread::scope(|s| {
            let clock = &clock;
            let writer_thread = s.spawn(move || {
                while !clock.stop.load(Ordering::Acquire) {
                    writer.step(&fx.g, &fx.service, clock, tracer, phase);
                }
            });
            let mut rng = Rng::new(ctx.seed, &format!("{tag}.reader"));
            let reader = s.spawn(move || {
                let next = move || App::Bfs(pool[rng.below(pool.len() as u64) as usize]);
                client_loop(
                    tracer,
                    phase,
                    clock,
                    start,
                    next,
                    |app| fx.service.query(app),
                    false,
                )
            });
            let marks = clock.run(start, len_s, |c| {
                c.queries.load(Ordering::Acquire) >= 1 && c.compactions.load(Ordering::Acquire) >= 1
            });
            let mut log = reader.join().unwrap_or_else(|_| ClientLog {
                errors: vec!["reader thread panicked".into()],
                ..ClientLog::default()
            });
            if writer_thread.join().is_err() {
                log.errors.push("writer thread panicked".into());
            }
            (marks, log)
        });
        let phase = Phase {
            marks,
            recs: Vec::new(),
            // Compaction replaces the mount, so there is no one device
            // to diff across a phase: `settle` sums the queries' own
            // per-run deltas instead.
            device: DeviceDelta::default(),
        };
        (phase, log)
    })
}

pub fn run_ingest_live(ctx: &Ctx) -> Res<Outcome> {
    let untraced = Tracer::new(INGEST_LIVE, false);
    let traced = Tracer::new(INGEST_LIVE, ctx.trace);
    let (fx, mut times) = repeat_setup(ctx, &traced, |tracer, times| {
        setup_ingest(ctx, tracer, times)
    })?;
    let pool = root_pool(ctx, &fx.g);
    let mut tally = Tally::default();
    let t = Instant::now();
    let frozen = adapter::oracle(&fx.g, App::Bfs(pool[0]));
    let direct_s = t.elapsed().as_secs_f64();
    let first = fx.service.query(App::Bfs(pool[0])).and_then(|(got, _)| {
        let got = if ctx.inject_wrong_answer {
            Answer::Count(u64::MAX)
        } else {
            got
        };
        check(&got, &frozen, 0.0)
    });
    tally.record("frozen bfs", first);
    let mut mem = MemReference::new(1, 0.0);
    mem.sample(&fx.g, &pool, &mut tally);

    let mut writer = Writer::new(ctx);
    // The reader keeps no answers: under live ingest an answer depends
    // on the snapshot it was admitted at, so only the quiescent
    // checkpoints can be checked.
    let no_answers = |_: App| Answer::Count(0);
    let warm_s = if ctx.quick { 0.2 } else { 1.0 };
    let (mut warm, log) = ingest_phase(ctx, &fx, &mut writer, &pool, "warm", warm_s, &untraced);
    settle(&mut warm, vec![log], &mut tally, no_answers);
    // Warm-up samples are not measurements.
    writer.ingest_ops_per_s.clear();
    writer.compact_s.clear();
    checkpoint(&fx, &writer, &pool, &mut tally);
    let mut phases = Vec::new();
    for (half, tracer) in [&untraced, &traced].into_iter().enumerate() {
        for slice in 0..ctx.slices() {
            let tag = format!("phase{half}.{slice}");
            let (mut phase, log) = ingest_phase(
                ctx,
                &fx,
                &mut writer,
                &pool,
                &tag,
                ctx.slice_seconds(),
                tracer,
            );
            settle(&mut phase, vec![log], &mut tally, no_answers);
            for r in &phase.recs {
                phase.device.add(&r.view.device);
            }
            phases.push(phase);
            mem.sample(&fx.g, &pool, &mut tally);
            if slice % 2 == 1 {
                setup_again(ctx, &mut times, |tracer, times| {
                    setup_ingest(ctx, tracer, times)
                })?;
            }
        }
        checkpoint(&fx, &writer, &pool, &mut tally);
    }
    let mem_query_s = mem.per_query_s();
    for e in std::mem::take(&mut writer.errors) {
        tally.record("writer", Err(e));
    }
    let writes = writer.compact_s.len() * (BATCHES_PER_CYCLE + 1);
    tally.attempted += writes as u64;

    let mut set = MetricSet::default();
    put_setup(
        &mut set,
        &times,
        fx.image_bytes,
        fx.g.edges(),
        fx.index_bytes,
        fx.g.vertices(),
    );
    let device_bytes = phases.iter().map(|p| p.device.bytes_read).sum();
    put_query_metrics(&mut set, &phases, device_bytes, mem_query_s)?;
    if writer.compact_s.is_empty() {
        return Err("no compaction cycle completed in the measured phases".into());
    }
    set.samples("ingest_ops_per_s", &writer.ingest_ops_per_s);
    set.samples("compact_s", &writer.compact_s);
    set.point("failed_share", tally.failed_share());

    if ctx.trace {
        put_layers(&mut set, &phases, 1, device_bytes);
        put_serve(&mut set, &fx.service.stats());
        set.point("delta.compactions", writer.compact_s.len() as f64);
        set.point("delta.generation", fx.service.generation() as f64);
        set.point("delta.pending_ops_peak", writer.pending_peak as f64);
        set.point("apps.mem_wall_s", mem_query_s);
        set.point("baselines.direct_s", direct_s);
        run_probes(ctx, &fx.g, 1, &traced, &mut set)?;
    }
    Ok(Outcome::new(ctx, tally, set, &traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> Ctx {
        Ctx {
            seed: 5,
            seconds: 1.0,
            quick: true,
            trace: false,
            workers: 1,
            nproc: 1,
            inject_wrong_answer: false,
        }
    }

    #[test]
    fn a_forward_cycle_and_its_undo_restore_the_base_graph() {
        let ctx = quick_ctx();
        let g = adapter::gen_graph(10, EDGE_FACTOR, Skew::Social, 9);
        let mut w = Writer::new(&ctx);
        w.draw_cycle(&g);
        assert_eq!(w.forward.len(), BATCHES_PER_CYCLE);
        let all: Vec<Op> = w.forward.iter().flatten().copied().collect();
        assert_eq!(all.len(), BATCHES_PER_CYCLE * BATCH_OPS);
        let distinct: HashSet<Op> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "ops repeat within a cycle");
        for op in &all {
            match *op {
                Op::Add(s, d) => assert!(s != d && !g.has_edge(s, d)),
                Op::Remove(s, d) => assert!(g.has_edge(s, d)),
            }
        }
        let removes = all.iter().filter(|op| matches!(op, Op::Remove(..))).count();
        assert!(removes * 3 < all.len() && removes * 6 > all.len());

        let forward: Vec<Batch> = w.forward.iter().map(|ops| Batch::new(ops)).collect();
        let undo: Vec<Batch> = w
            .forward
            .iter()
            .rev()
            .map(|ops| {
                let inv: Vec<Op> = ops
                    .iter()
                    .rev()
                    .map(|&op| match op {
                        Op::Add(s, d) => Op::Remove(s, d),
                        Op::Remove(s, d) => Op::Add(s, d),
                    })
                    .collect();
                Batch::new(&inv)
            })
            .collect();
        let moved = adapter::union_with(&g, &forward.iter().collect::<Vec<_>>()).unwrap();
        assert_ne!(moved.edges(), g.edges());
        let both: Vec<&Batch> = forward.iter().chain(&undo).collect();
        let back = adapter::union_with(&g, &both).unwrap();
        assert_eq!(back.edges(), g.edges());
        for v in 0..g.vertices() as u32 {
            assert_eq!(back.out_degree(v), g.out_degree(v));
        }
    }

    #[test]
    fn windows_take_completions_and_cpu_between_their_marks() {
        let rec = |end_s, wall_ns| QueryRec {
            end_s,
            latency_ms: end_s,
            view: RunView {
                wall_ns,
                edges_delivered: 10,
                ..RunView::default()
            },
        };
        let mark = |at_s, cpu_s| Mark { at_s, cpu_s };
        let phase = Phase {
            // A stalled timekeeper: the second boundary came late.
            marks: vec![mark(0.0, 1.0), mark(1.0, 2.5), mark(2.5, 3.0)],
            recs: vec![rec(0.5, 100), rec(1.0, 300), rec(2.0, 500), rec(2.7, 900)],
            device: DeviceDelta::default(),
        };
        let w = phase.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].len_s, w[0].cpu_s, w[0].recs.len()), (1.0, 1.5, 2));
        assert_eq!((w[1].len_s, w[1].cpu_s, w[1].recs.len()), (1.5, 0.5, 1));
        assert_eq!(w[0].mean(|r| r.view.wall_ns as f64), 200.0);

        let mut set = MetricSet::default();
        put_query_metrics(&mut set, &[phase], 4096, 1e-6).unwrap();
        let e2e = set.end_to_end();
        let value = |name: &str| e2e.iter().find(|m| m.name == name).unwrap().value;
        // Medians over the two windows; the query that ended after the
        // last mark counts for latency and device bytes only.
        assert_eq!(value("queries_per_s"), (2.0 / 1.0 + 1.0 / 1.5) / 2.0);
        assert_eq!(value("edges_per_s"), (20.0 / 1.0 + 10.0 / 1.5) / 2.0);
        assert_eq!(value("cpu_s"), (1.5 / 2.0 + 0.5 / 1.0) / 2.0);
        assert_eq!(value("wall_s"), (200e-9 + 500e-9) / 2.0);
        assert_eq!(value("device_bytes"), 1024.0);
        assert_eq!(value("query_p50_ms"), 1.5);
    }

    #[test]
    fn the_timekeeper_marks_every_window_of_a_phase() {
        let clock = PhaseClock::default();
        let marks = clock.run(Instant::now(), 0.05, |_| true);
        assert_eq!(marks.len(), 2);
        assert!(marks[0].at_s < 0.05 && marks[1].at_s >= 0.05);
        assert!(marks[1].cpu_s >= marks[0].cpu_s);
        assert!(clock.stop.load(Ordering::Acquire));
    }
}
