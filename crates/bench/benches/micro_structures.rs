//! Criterion micro-benchmarks of the core data structures:
//!
//! * the set-associative page cache (§3.1's "lightweight" claim:
//!   lookups must stay cheap at low hit rates and scale with threads),
//! * the compact graph index (§3.5.1: locating an edge list costs at
//!   most 31 adds),
//! * engine-side request merging (§3.6).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fg_format::GraphIndex;
use fg_safs::{Page, PageCache};
use fg_types::{EdgeDir, VertexId};
use std::sync::Arc;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_cache");
    let cache = PageCache::new(4096, 8);
    for no in 0..4096u64 {
        cache.insert(Arc::new(Page::new(no, vec![0u8; 64].into_boxed_slice())));
    }
    g.bench_function("hit", |b| {
        let mut no = 0u64;
        b.iter(|| {
            no = (no + 1) % 2048;
            std::hint::black_box(cache.get(no))
        })
    });
    g.bench_function("miss", |b| {
        let mut no = 1 << 32;
        b.iter(|| {
            no += 1;
            std::hint::black_box(cache.get(no))
        })
    });
    g.bench_function("insert_evict", |b| {
        let mut no = 1 << 33;
        b.iter(|| {
            no += 1;
            cache.insert(Arc::new(Page::new(no, vec![0u8; 64].into_boxed_slice())));
        })
    });
    // The victim path: a 64-page cache beside 256 pages that stay
    // held (each for 256 inserts), so every eviction pushes out a
    // held page — one victim entry recorded, the set's dead entries
    // swept — and three in four of the held pages are findable only
    // through the victim tables.
    let small = PageCache::new(64, 8);
    let mut held: Vec<Arc<Page>> = (0..256u64)
        .map(|no| {
            small.insert(Arc::new(Page::new(no, vec![0u8; 64].into_boxed_slice())));
            small.get(no).expect("just inserted")
        })
        .collect();
    g.bench_function("insert_evict_held", |b| {
        let mut no = 256u64;
        b.iter(|| {
            small.insert(Arc::new(Page::new(no, vec![0u8; 64].into_boxed_slice())));
            held[(no % 256) as usize] = small.get(no).expect("just inserted");
            no += 1;
        })
    });
    g.bench_function("pinned_hit", |b| {
        // The 128 oldest holders: long since out of their slots.
        let old: Vec<u64> = {
            let mut nos: Vec<u64> = held.iter().map(|p| p.pageno()).collect();
            nos.sort_unstable();
            nos.truncate(128);
            nos
        };
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % old.len();
            std::hint::black_box(small.get(old[i]))
        })
    });
    let s = small.stats().snapshot();
    println!(
        "victim path: {} of {} hits were pinned hits, {} evictions",
        s.pinned_hits, s.hits, s.evictions
    );
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph_index");
    let n = 1_000_000usize;
    let degrees: Vec<u64> = (0..n).map(|i| (i % 13) as u64).collect();
    let index = GraphIndex::build(&degrees, Some(&degrees), 4, 4096, 1 << 30, None, None);
    // Print the paper's §3.5.1 memory claim alongside the benchmark.
    println!(
        "index memory: {:.2} bytes/vertex (paper claims ~2.5 for directed)",
        index.heap_bytes() as f64 / n as f64
    );
    g.bench_function("locate_worst_case_in_checkpoint", |b| {
        // Vertex 31 of a checkpoint: the longest degree scan.
        let v = VertexId(1024 * 32 + 31);
        b.iter(|| std::hint::black_box(index.locate(v, EdgeDir::Out)))
    });
    g.bench_function("locate_at_checkpoint", |b| {
        let v = VertexId(1024 * 32);
        b.iter(|| std::hint::black_box(index.locate(v, EdgeDir::Out)))
    });
    g.bench_function("degree_lookup", |b| {
        let v = VertexId(777_777);
        b.iter(|| std::hint::black_box(index.degree(v, EdgeDir::In)))
    });
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    use flashgraph::merge::{merge_requests, RangeReq, UNLIMITED_MERGE_BYTES};
    let mut g = c.benchmark_group("request_merge");
    // A realistic issue batch: 256 mostly-sorted, clustered requests.
    let make_batch = || -> Vec<RangeReq> {
        (0..256u64)
            .map(|i| RangeReq {
                offset: i * 900 + (i % 7) * 64,
                bytes: 400 + (i % 50) * 8,
                meta: i as u32,
            })
            .collect()
    };
    g.bench_function("merge_256_clustered", |b| {
        b.iter_batched(
            make_batch,
            |batch| std::hint::black_box(merge_requests(batch, 4096, true, UNLIMITED_MERGE_BYTES)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("sort_only_256", |b| {
        b.iter_batched(
            make_batch,
            |batch| std::hint::black_box(merge_requests(batch, 4096, false, UNLIMITED_MERGE_BYTES)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_cache, bench_index, bench_merge
}
criterion_main!(benches);
