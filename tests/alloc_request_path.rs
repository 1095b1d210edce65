//! Tier-1 allocation floor for the semi-external request path: what a
//! request allocates, it allocates per *cover* — a cover of the issue
//! queue, or one a sweep reads for a dense run — and next to nothing
//! per request, on both paths, on a frozen image and with a pinned delta view alike
//! (an overlaid delivery borrows its ops from the view), on a raw image
//! and on a compressed one (a packed delivery decodes in place, out of
//! a window borrowed from its cover).
//!
//! This binary installs a counting global allocator (it is its own
//! process, so no shipped crate changes) and holds one test only: the
//! count is process-wide, I/O threads included, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

use fg_format::{load_index, required_capacity_with, write_image_with, WriteOptions};
use fg_graph::{gen, DeltaBatch, DeltaLog, DeltaView, Graph};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::sync::Counter;
use fg_types::{EdgeDir, VertexId};
use flashgraph::{
    Engine, EngineConfig, Init, PageVertex, Request, RunStats, VertexContext, VertexProgram,
};

/// Calls into the allocator that can return new memory: `alloc`,
/// `alloc_zeroed` (through `alloc`) and `realloc` — a vector that
/// regrows is what the request path used to do every batch.
static ALLOCATIONS: Counter = Counter::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter is
// an atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `GlobalAlloc::alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.inc();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations are `GlobalAlloc::dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's obligations are `GlobalAlloc::realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.inc();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every vertex requests its own list and sums the ids on it.
struct SumOwnList;

impl VertexProgram for SumOwnList {
    type State = u64;
    type Msg = ();

    fn run(&self, v: VertexId, _: &mut u64, ctx: &mut VertexContext<'_, ()>) {
        ctx.request(v, Request::edges(EdgeDir::Out));
    }

    fn run_on_vertex(
        &self,
        _: VertexId,
        sum: &mut u64,
        vertex: &PageVertex<'_>,
        _: &mut VertexContext<'_, ()>,
    ) {
        *sum += vertex.edges().map(|w| w.0 as u64).sum::<u64>();
    }
}

/// Allocations of one run of `engine` from `init`, with its stats.
fn allocations_of(engine: &Engine<'_>, init: Init) -> (u64, RunStats) {
    let before = ALLOCATIONS.get();
    let (sums, stats) = engine.run(&SumOwnList, init).unwrap();
    let during = ALLOCATIONS.get() - before;
    drop(sums);
    (during, stats)
}

/// What [`SumOwnList`] sums over every vertex of `g`.
fn sum_of(g: &Graph) -> u64 {
    g.vertices()
        .flat_map(|v| g.out_neighbors(v))
        .map(|w| w.0 as u64)
        .sum()
}

#[test]
fn a_request_allocates_per_cover_not_per_request() {
    let g = gen::rmat(13, 8, gen::RmatSkew::default(), 17);
    // A view with ops on every other vertex: each of those adds an edge
    // to the first id its list lacks.
    let log = DeltaLog::for_graph(&g);
    let mut batch = DeltaBatch::new();
    for v in g.vertices().step_by(2) {
        let lacks = (0..)
            .map(VertexId)
            .find(|&w| w != v && !g.out_neighbors(v).contains(&w));
        batch.add_edge(v, lacks.expect("a vertex without every edge"));
    }
    log.apply(&g, &batch).unwrap();
    let view = log.current_view();
    let overlaid = g
        .vertices()
        .filter(|&v| view.list(v, EdgeDir::Out).is_some());
    assert!(2 * overlaid.count() >= g.num_vertices());
    let expected_overlaid = sum_of(&DeltaLog::union(&g, &view));
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        floor_holds(&g, &opts, &view, expected_overlaid);
    }
}

/// The floor on one image of `g` written with `opts`, without and with
/// `view` pinned (`expected_overlaid` is what the view's run sums).
fn floor_holds(g: &Graph, opts: &WriteOptions, view: &Arc<DeltaView>, expected_overlaid: u64) {
    let expected = sum_of(g);
    let capacity = required_capacity_with(g, opts);
    let array = SsdArray::new_mem(ArrayConfig::small_test(), capacity).unwrap();
    let meta = write_image_with(g, &array, opts).unwrap();
    assert_eq!(meta.format, opts.format);
    let (_, index) = load_index(&array).unwrap();
    // A cache that holds the image: a warm run never reaches the
    // device, so what is counted is the request path and nothing of
    // the I/O threads'.
    let cache = 4 * capacity;
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(cache), array).unwrap();
    let default = EngineConfig::default();
    let engine = Engine::new_sem(&safs, index, default.with_threads(1));

    let measure = |issue_batch: usize, deltas: Option<&Arc<DeltaView>>, init: &Init| {
        // The shipped depth of the pipeline, in batches: a worker makes
        // as many batches as it ever has out together, and a run this
        // short must not be all ramp-up.
        let cfg = EngineConfig {
            issue_batch,
            max_pending: issue_batch * default.max_pending.div_ceil(default.issue_batch),
            ..default.with_threads(1)
        };
        let (engine, expected) = match deltas {
            None => (engine.reconfigured(cfg), expected),
            Some(view) => {
                let engine = engine.reconfigured(cfg).with_deltas(Arc::clone(view));
                (engine, expected_overlaid)
            }
        };
        // Warm the cache (and anything lazily set up), then take the
        // run's allocations less those of a run that requests nothing:
        // states, threads and boards cost the same in both.
        let (sums, _) = engine.run(&SumOwnList, Init::All).unwrap();
        assert_eq!(sums.iter().sum::<u64>(), expected);
        let (floor, idle) = allocations_of(&engine, Init::Seeds(Vec::new()));
        assert_eq!(idle.engine_requests, 0);
        let (warm, stats) = allocations_of(&engine, init.clone());
        assert_eq!(stats.io.as_ref().expect("sem mode").bytes_read, 0, "warm");
        println!(
            "{:?} image, issue_batch {issue_batch}, deltas {}: {warm} allocations warm, \
             {floor} idle, {} covers, {} requests, {} swept",
            opts.format,
            deltas.is_some(),
            stats.issued_requests,
            stats.engine_requests,
            stats.swept_requests
        );
        (warm.saturating_sub(floor), stats)
    };

    // Covers of at most 4 parts, and of 64: a cover's parts are a range
    // of its batch, so neither costs more than the cover's page vector
    // and a share of amortised growth. With every vertex active each
    // claimed run asks for all of its span and is swept.
    for issue_batch in [4, 64] {
        let (allocations, stats) = measure(issue_batch, None, &Init::All);
        let covers = stats.issued_requests;
        assert!(covers > 0 && stats.engine_requests >= covers);
        assert!(stats.swept_requests > 0);
        assert!(
            allocations <= 3 * covers,
            "{allocations} allocations for {covers} covers at issue_batch {issue_batch} \
             ({:?} image)",
            opts.format
        );
    }
    // One vertex in eight active: the runs select, and their requests
    // go out through the issue queue as one batch a run, so even at the
    // smallest batch size a request costs a twentieth of an allocation.
    let scattered = Init::Seeds(g.vertices().step_by(8).collect());
    for issue_batch in [4, 64] {
        let (allocations, stats) = measure(issue_batch, None, &scattered);
        assert_eq!(stats.swept_requests, 0);
        assert!(
            allocations * 20 <= stats.engine_requests,
            "{allocations} allocations for {} selected requests at issue_batch \
             {issue_batch} ({:?} image)",
            stats.engine_requests,
            opts.format
        );
    }
    // And at the shipped batch size, a twentieth of an allocation a
    // request — overlaid deliveries included.
    for deltas in [None, Some(view)] {
        let (allocations, stats) = measure(default.issue_batch, deltas, &Init::All);
        assert!(
            allocations * 20 <= stats.engine_requests,
            "{allocations} allocations for {} requests (deltas: {}, {:?} image)",
            stats.engine_requests,
            deltas.is_some(),
            opts.format
        );
    }
}
