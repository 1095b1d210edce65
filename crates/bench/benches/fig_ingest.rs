//! Serving under ingest — queries against (image + deltas) while an
//! ingest thread appends. Not a figure from the paper (FlashGraph
//! serves frozen images); it quantifies the mutable-graph layer the
//! LSM-style delta log adds on top of §3.1's substrate.
//!
//! Five claims, asserted hard:
//!
//! 1. **Oracle identity.** A fresh query over (image + deltas) equals
//!    the direct oracle on the union graph, and stays equal while an
//!    ingest thread races it (each query pins its snapshot at
//!    admission).
//! 2. **Unaffected extents cost nothing.** A query pinned at the
//!    pre-ingest watermark requests *exactly* the bytes the
//!    frozen-image baseline requests — an empty delta view is dropped
//!    at engine construction, so snapshot-pinned queries pay zero
//!    overlay overhead — and reads no more of them from the device:
//!    ingest canonicalizes through the page cache, so the mount that
//!    just ingested already holds some of the pages the query wants.
//! 3. **The write path reads through the cache.** Ingesting the same
//!    batches again — every source resident — reads zero device
//!    bytes, and a compaction reads each byte of the old image at
//!    most once.
//! 4. **Compaction folds without changing answers.** After
//!    `compact_with` flips to generation 1, the pending count is zero
//!    and the same query still equals the union oracle.
//! 5. **A compaction leaves the next generation resident.** It writes
//!    generation 1 through the new mount's page cache, so that BFS
//!    reads zero device bytes from the generation-1 mount.
//!
//! Reported (not asserted): query wall time frozen vs overlaid vs
//! racing-ingest, ingest and compaction throughput, device bytes.

use std::sync::Arc;

use fg_bench::report::{bytes, ratio, secs, Table};
use fg_bench::{scale_bump, traversal_root, worker_threads};
use fg_format::{load_index, required_capacity, write_image};
use fg_graph::gen::{rmat, RmatSkew};
use fg_graph::{DeltaBatch, DeltaLog, Graph};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::VertexId;
use flashgraph::{EngineConfig, GraphService, QueryOpts, ServiceConfig};

/// A cold service whose cache holds the whole image: every page is
/// fetched at most once, so device bytes per query are a function of
/// the pages touched, not of eviction timing — which is what makes
/// claim 2's byte-for-byte comparison meaningful. The cache is twice
/// the image, so the set-associative cache holds it with no set
/// overflowing, and so it holds the compacted image too (claim 5),
/// which the ingested edges make a few pages larger.
fn cold_service(g: &Graph) -> GraphService {
    let capacity = required_capacity(g).max(4096);
    let array = SsdArray::new_mem(ArrayConfig::paper_array(), capacity).expect("array");
    write_image(g, &array).expect("image");
    let (_, index) = load_index(&array).expect("index");
    let cache = SafsConfig::default().with_cache_bytes(2 * capacity);
    let safs = Safs::new(cache, array).unwrap();
    safs.reset_stats();
    let cfg = ServiceConfig::default()
        .with_max_inflight(4)
        .with_engine(EngineConfig::default().with_threads(worker_threads(2)));
    GraphService::new(safs, index, cfg)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// `batches` edit batches of `ops` each: ~3/4 adds of random pairs,
/// ~1/4 removes of an existing out-edge (so removals actually bite).
fn make_batches(g: &Graph, batches: usize, ops: usize, seed: u64) -> Vec<DeltaBatch> {
    let n = g.num_vertices() as u64;
    let mut rng = seed | 1;
    (0..batches)
        .map(|_| {
            let mut b = DeltaBatch::new();
            for _ in 0..ops {
                let src = VertexId((xorshift(&mut rng) % n) as u32);
                let dst = VertexId((xorshift(&mut rng) % n) as u32);
                if xorshift(&mut rng).is_multiple_of(4) {
                    let outs = g.out_neighbors(src);
                    if let Some(&victim) =
                        outs.get((xorshift(&mut rng) % n) as usize % outs.len().max(1))
                    {
                        b.remove_edge(src, victim);
                    }
                } else {
                    b.add_edge(src, dst);
                }
            }
            b
        })
        .collect()
}

fn device_bytes(svc: &GraphService) -> u64 {
    svc.safs().array().stats().snapshot().bytes_read
}

fn main() {
    let bump = scale_bump();
    let g = rmat(11 + bump, 16, RmatSkew::social(), 0x1A6E);
    let root = traversal_root(&g);
    let batches = make_batches(&g, 8, 256, 0xD3117A);

    // Union oracle: the same batches folded into an in-memory log.
    let oracle_log = DeltaLog::for_graph(&g);
    for b in &batches {
        oracle_log.apply(&g, b).expect("oracle apply");
    }
    let union = DeltaLog::union(&g, &oracle_log.current_view());
    let want = fg_baselines::direct::bfs_levels(&union, root);

    // Frozen baseline: BFS on the image alone, cold mount.
    let frozen = cold_service(&g);
    let t0 = std::time::Instant::now();
    let (frozen_levels, frozen_stats) = frozen.query(|e| fg_apps::bfs(e, root)).unwrap();
    let frozen_wall = t0.elapsed().as_secs_f64();
    let frozen_bytes = device_bytes(&frozen);

    // Overlaid: ingest every batch, then the same BFS over
    // (image + deltas), plus a replay pinned at the pre-ingest
    // watermark — claim 2's byte-for-byte comparison.
    let svc = Arc::new(cold_service(&g));
    let w0 = svc.watermark();
    let t1 = std::time::Instant::now();
    for b in &batches {
        svc.ingest(b).expect("ingest");
    }
    let ingest_wall = t1.elapsed().as_secs_f64();

    // Claim 3, first half: every source the batches touch is resident
    // now, so canonicalizing them again costs the device nothing (and
    // changes nothing: each op is a no-op the second time).
    let ingested = device_bytes(&svc);
    for b in &batches {
        svc.ingest(b).expect("second ingest");
    }
    assert_eq!(
        device_bytes(&svc),
        ingested,
        "re-ingesting resident sources must read zero device bytes"
    );

    let pinned_before = device_bytes(&svc);
    let (pinned_levels, pinned_stats) = svc
        .query_opts(QueryOpts::new().at_watermark(w0), |e| fg_apps::bfs(e, root))
        .unwrap()
        .unwrap();
    let pinned_bytes = device_bytes(&svc) - pinned_before;
    assert_eq!(
        pinned_levels, frozen_levels,
        "a query pinned before ingest must see the frozen image"
    );
    assert_eq!(
        pinned_stats.bytes_requested, frozen_stats.bytes_requested,
        "a pinned query's empty delta view must not change the bytes it requests"
    );
    assert!(
        pinned_bytes <= frozen_bytes,
        "a pinned query on the mount ingest warmed read {pinned_bytes} device \
         bytes, the cold frozen baseline {frozen_bytes}"
    );

    // Overlaid bytes measured on a mount only ingest has touched (the
    // pinned replay above warmed the rest of `svc`'s cache): what is
    // left to read is the lists of vertices no batch named.
    let ov = cold_service(&g);
    for b in &batches {
        ov.ingest(b).expect("ingest (cold overlay)");
    }
    let ov_before = device_bytes(&ov);
    let t2 = std::time::Instant::now();
    let (overlaid_levels, _) = ov.query(|e| fg_apps::bfs(e, root)).unwrap();
    let overlaid_wall = t2.elapsed().as_secs_f64();
    let overlaid_bytes = device_bytes(&ov) - ov_before;
    assert_eq!(
        overlaid_levels, want,
        "BFS over (image + deltas) diverged from the union-graph oracle"
    );
    // The warm service must agree too — this is the instance the
    // racing and compaction phases continue with.
    let (warm_levels, _) = svc.query(|e| fg_apps::bfs(e, root)).unwrap();
    assert_eq!(warm_levels, want, "warm overlaid BFS diverged");

    // Racing ingest: more batches land while queries run; every query
    // pinned at admission must still match one of the two oracles it
    // could legally see — here we pin explicitly, so exactly the
    // post-batch oracle.
    let noise = make_batches(&union, 4, 256, 0xBEEF);
    let w1 = svc.watermark();
    let racing_wall = std::thread::scope(|s| {
        let svc2 = Arc::clone(&svc);
        let noise_ref = &noise;
        let ingester = s.spawn(move || {
            for b in noise_ref {
                svc2.ingest(b).expect("racing ingest");
            }
        });
        let mut walls = Vec::new();
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let (levels, _) = svc
                .query_opts(QueryOpts::new().at_watermark(w1), |e| fg_apps::bfs(e, root))
                .unwrap()
                .unwrap();
            walls.push(t.elapsed().as_secs_f64());
            assert_eq!(
                levels, want,
                "a query pinned at the pre-noise watermark drifted while \
                 ingest raced it"
            );
        }
        ingester.join().unwrap();
        walls.iter().sum::<f64>() / walls.len() as f64
    });

    // Compaction: fold everything into generation 1, re-check.
    let pending = svc.pending_deltas();
    let old_mount = svc.safs();
    let old_image = required_capacity(&g);
    let before_compaction = old_mount.array().stats().snapshot().bytes_read;
    let t4 = std::time::Instant::now();
    let generation = svc
        .compact_with(|need| SsdArray::new_mem(ArrayConfig::paper_array(), need))
        .expect("compact");
    let compact_wall = t4.elapsed().as_secs_f64();
    // Claim 3, second half: the read-back is one sweep.
    let compaction_bytes = old_mount.array().stats().snapshot().bytes_read - before_compaction;
    assert!(
        compaction_bytes <= old_image,
        "compaction read {compaction_bytes} bytes of a {old_image}-byte image"
    );
    assert_eq!(generation, 1, "compaction must flip to generation 1");
    assert_eq!(svc.pending_deltas(), 0, "compaction must fold the log");
    let full_union = {
        let log = DeltaLog::for_graph(&g);
        for b in batches.iter().chain(noise.iter()) {
            log.apply(&g, b).expect("full oracle apply");
        }
        DeltaLog::union(&g, &log.current_view())
    };
    let want_full = fg_baselines::direct::bfs_levels(&full_union, root);
    let gen1_before = device_bytes(&svc);
    let t5 = std::time::Instant::now();
    let (post_levels, _) = svc.query(|e| fg_apps::bfs(e, root)).unwrap();
    let post_wall = t5.elapsed().as_secs_f64();
    let post_bytes = device_bytes(&svc) - gen1_before;
    assert_eq!(
        post_levels, want_full,
        "BFS on the compacted generation diverged from the full union oracle"
    );
    // Claim 5: the compaction wrote generation 1 through its mount.
    assert_eq!(
        post_bytes, 0,
        "BFS on generation 1 read {post_bytes} device bytes of an image its compaction \
         had just written through the mount's cache"
    );

    let mut t = Table::new(
        &format!(
            "Serving under ingest: BFS on {} vertices / {} edges, {} delta ops",
            union.num_vertices(),
            union.num_edges(),
            pending
        ),
        &["mode", "wall", "vs frozen", "device bytes"],
    );
    t.row(&[
        "frozen image".to_string(),
        secs(frozen_wall),
        ratio(1.0),
        bytes(frozen_bytes),
    ]);
    t.row(&[
        "pinned @ pre-ingest".to_string(),
        "-".to_string(),
        "-".to_string(),
        bytes(pinned_bytes),
    ]);
    t.row(&[
        "image + deltas".to_string(),
        secs(overlaid_wall),
        ratio(overlaid_wall / frozen_wall),
        bytes(overlaid_bytes),
    ]);
    t.row(&[
        "racing ingest (mean of 3)".to_string(),
        secs(racing_wall),
        ratio(racing_wall / frozen_wall),
        "-".to_string(),
    ]);
    t.row(&[
        "generation 1 (after compaction)".to_string(),
        secs(post_wall),
        ratio(post_wall / frozen_wall),
        bytes(post_bytes),
    ]);
    t.print();
    println!(
        "ingest: {} effective ops in {} ({:.0} ops/s); compaction to gen {} in {}, \
         {} read back from the device",
        pending,
        secs(ingest_wall),
        pending as f64 / ingest_wall.max(1e-9),
        generation,
        secs(compact_wall),
        bytes(compaction_bytes)
    );
    println!(
        "expected shape: pinned bytes <= frozen bytes (empty view dropped; ingest read the \
         lists it canonicalized against into the cache); overlaid reads only what no batch \
         touched and stays oracle-identical; a second ingest reads nothing, a compaction at \
         most the old image once; generation 1 is served from the pages its compaction wrote"
    );
}
