//! Multi-tenant serving stress: mixed BFS / PageRank / WCC queries
//! running *concurrently* through one [`GraphService`] — one SAFS
//! mount, one index, one shared page cache — must each produce
//! exactly the answer the in-memory oracles produce, while the shared
//! cache's books stay balanced and cross-query locality shows up as
//! extra hits.

use std::sync::Arc;

use fg_format::{load_index, required_capacity_with, write_image_with, GraphIndex, WriteOptions};
use fg_graph::gen::{rmat, RmatSkew};
use fg_graph::Graph;
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::VertexId;
use flashgraph::{EngineConfig, GraphService, ServiceConfig};

fn test_graph() -> Graph {
    rmat(8, 6, RmatSkew::default(), 0xC0FFEE)
}

/// Both image formats; every test below runs once per format.
fn formats() -> [WriteOptions; 2] {
    [WriteOptions::default(), WriteOptions::compressed()]
}

/// A fresh service over a fresh mount of `g` in the image format
/// `opts` selects — cold cache, cold device counters.
fn fresh_service(
    g: &Graph,
    opts: &WriteOptions,
    cache_pages: u64,
    max_inflight: usize,
) -> GraphService {
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index): (_, GraphIndex) = load_index(&array).unwrap();
    let safs = Safs::new(
        SafsConfig::default().with_cache_bytes(cache_pages * 4096),
        array,
    )
    .unwrap();
    safs.reset_stats();
    let cfg = ServiceConfig::default()
        .with_max_inflight(max_inflight)
        .with_engine(EngineConfig::small());
    GraphService::new(safs, index, cfg)
}

#[test]
fn mixed_queries_match_oracles_and_cache_books_balance() {
    let g = test_graph();
    for opts in formats() {
        let svc = Arc::new(fresh_service(&g, &opts, 16, 3));

        let bfs_roots = [VertexId(0), VertexId(3), VertexId(17)];
        let bfs_oracles: Vec<Vec<Option<u32>>> = bfs_roots
            .iter()
            .map(|&r| fg_baselines::direct::bfs_levels(&g, r))
            .collect();
        let wcc_oracle = fg_baselines::direct::wcc_labels(&g);
        let pr_oracle = fg_baselines::direct::pagerank(&g, 0.85, 100);

        std::thread::scope(|s| {
            // Three BFS tenants from different roots.
            for (root, oracle) in bfs_roots.iter().zip(&bfs_oracles) {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    let (levels, stats) = svc.query(|e| fg_apps::bfs(e, *root)).unwrap();
                    assert_eq!(&levels, oracle, "BFS from {root} diverged from oracle");
                    assert!(stats.cache.is_some());
                });
            }
            // Two WCC tenants (identical queries: maximal page overlap).
            for _ in 0..2 {
                let svc = Arc::clone(&svc);
                let oracle = &wcc_oracle;
                s.spawn(move || {
                    let (labels, _) = svc.query(|e| fg_apps::wcc(e)).unwrap();
                    assert_eq!(&labels, oracle, "WCC diverged from union-find oracle");
                });
            }
            // Two PageRank tenants.
            for _ in 0..2 {
                let svc = Arc::clone(&svc);
                let oracle = &pr_oracle;
                let g = &g;
                s.spawn(move || {
                    let (ranks, _) = svc
                        .query(|e| fg_apps::pagerank(e, 0.85, 1e-5, 200))
                        .unwrap();
                    for v in g.vertices() {
                        let got = ranks[v.index()] as f64;
                        let expect = oracle[v.index()];
                        assert!(
                            (got - expect).abs() < 0.02 * expect.max(1.0),
                            "PR vertex {v}: {got} vs {expect}"
                        );
                    }
                });
            }
        });

        // Every tenant went through admission and released its slot.
        let svc_stats = svc.stats();
        assert_eq!(svc_stats.admitted, 7);
        assert_eq!(svc_stats.completed, 7);
        assert!(svc_stats.peak_inflight <= 3, "admission cap overrun");
        assert_eq!(svc.inflight(), 0);

        // The shared cache's books balance even under concurrent tenants:
        // every counted lookup is exactly one hit or one miss.
        let cache = svc.cache_stats();
        assert!(cache.lookups > 0, "queries never touched the shared cache");
        assert_eq!(
            cache.hits + cache.misses,
            cache.lookups,
            "shared cache lost lookups under concurrency"
        );
    }
}

#[test]
fn concurrent_tenants_hit_each_others_pages() {
    let g = test_graph();
    // Cache large enough to keep the little image resident, so
    // cross-query reuse reliably turns into hits.
    let cache_pages = 64;

    for opts in formats() {
        // Baseline: each query alone on a cold mount. `bfs_cold_misses`
        // is the BFS tenant's own (session-scoped) miss count — the pages
        // it had to pull from the device itself.
        let (alone_bfs, bfs_cold_misses) = {
            let svc = fresh_service(&g, &opts, cache_pages, 2);
            let (_, stats) = svc.query(|e| fg_apps::bfs(e, VertexId(0))).unwrap();
            (svc.cache_stats().hits, stats.cache.unwrap().misses)
        };
        let alone_wcc = {
            let svc = fresh_service(&g, &opts, cache_pages, 2);
            svc.query(|e| fg_apps::wcc(e)).unwrap();
            svc.cache_stats().hits
        };

        // Both queries concurrently over one cold shared mount.
        let svc = Arc::new(fresh_service(&g, &opts, cache_pages, 2));
        let bfs_oracle = fg_baselines::direct::bfs_levels(&g, VertexId(0));
        let wcc_oracle = fg_baselines::direct::wcc_labels(&g);
        std::thread::scope(|s| {
            let svc_a = Arc::clone(&svc);
            let svc_b = Arc::clone(&svc);
            let a = s.spawn(move || svc_a.query(|e| fg_apps::bfs(e, VertexId(0))).unwrap());
            let b = s.spawn(move || svc_b.query(|e| fg_apps::wcc(e)).unwrap());
            assert_eq!(a.join().unwrap().0, bfs_oracle);
            assert_eq!(b.join().unwrap().0, wcc_oracle);
        });
        let together = svc.cache_stats().hits;

        // The shared mount served strictly more hits than either tenant
        // achieves alone on a cold cache (the acceptance bar)...
        assert!(
            together > alone_bfs && together > alone_wcc,
            "no cross-query locality: together {together}, alone BFS {alone_bfs}, alone WCC {alone_wcc}"
        );
        // ...and a deterministic discrimination of *cross-tenant* reuse
        // from a tenant's own reuse: alone on a cold mount, BFS must pull
        // pages from the device (scoped misses > 0); after a WCC tenant
        // warmed the shared mount, the same BFS finds every page already
        // resident (scoped misses == 0). WCC's page set (all vertices,
        // both directions) covers BFS's, and the cache holds the whole
        // image, so those vanished misses can only be pages the *other*
        // tenant pulled in.
        assert!(
            bfs_cold_misses > 0,
            "cold-mount BFS never went to the device; baseline is vacuous"
        );
        let svc2 = fresh_service(&g, &opts, cache_pages, 2);
        svc2.query(|e| fg_apps::wcc(e)).unwrap();
        let (levels, stats) = svc2.query(|e| fg_apps::bfs(e, VertexId(0))).unwrap();
        assert_eq!(levels, bfs_oracle);
        let warm = stats.cache.unwrap();
        assert!(warm.lookups > 0, "warm BFS made no lookups at all");
        assert_eq!(
            warm.misses, 0,
            "every BFS page should be resident from the WCC tenant's fills"
        );
    }
}

#[test]
fn per_query_scopes_sum_to_mount_lookups() {
    let g = test_graph();
    for opts in formats() {
        let svc = Arc::new(fresh_service(&g, &opts, 16, 4));
        let scoped: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let svc = Arc::clone(&svc);
                    s.spawn(move || {
                        let root = VertexId(i * 5);
                        let (_, stats) = svc.query(|e| fg_apps::bfs(e, root)).unwrap();
                        let c = stats.cache.expect("sem run records scoped stats");
                        (c.lookups, c.hits, c.misses)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for &(lookups, hits, misses) in &scoped {
            assert_eq!(hits + misses, lookups, "a tenant's own books don't balance");
        }
        // The mount saw exactly the union of its tenants' lookups: the
        // per-query scopes partition the shared counters.
        let total: u64 = scoped.iter().map(|s| s.0).sum();
        assert_eq!(svc.cache_stats().lookups, total);
    }
}
