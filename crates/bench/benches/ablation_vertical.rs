//! Ablation — vertical partitioning (§3.8) for triangle counting:
//! splitting hub vertices' neighbour requests into id-range passes
//! makes concurrent vertices touch the same SSD region, raising
//! page-cache hit rates. Also ablates work stealing (§3.8.1) on a
//! deliberately skewed graph.

use fg_bench::report::{secs, Table};
use fg_bench::{build_sem, scale_bump, symmetrize, Dataset, PAPER_CACHE_FRACTION};
use fg_types::VertexId;
use flashgraph::{Engine, EngineConfig};

fn main() {
    let bump = scale_bump();
    let u = symmetrize(&Dataset::TwitterSim.generate(bump));

    let mut t = Table::new(
        "Ablation: vertical partitioning for TC on twitter-sim (undirected)",
        &[
            "vertical parts",
            "runtime (modeled)",
            "cache hit rate",
            "device reads",
        ],
    );
    let mut totals = Vec::new();
    for parts in [1u32, 2, 4, 8] {
        let fx = build_sem(&u, PAPER_CACHE_FRACTION).expect("fixture");
        let cfg = EngineConfig::default().with_vertical_parts(parts);
        let engine = Engine::new_sem(&fx.safs, fx.index.clone(), cfg);
        fx.safs.reset_stats();
        let (total, _, stats) = fg_apps::triangle_count(&engine, false).expect("tc");
        totals.push(total);
        t.row(&[
            parts.to_string(),
            secs(stats.modeled_runtime_secs()),
            format!(
                "{:.0}%",
                stats.cache.as_ref().map(|c| c.hit_rate()).unwrap_or(0.0) * 100.0
            ),
            fg_bench::report::count(stats.io.as_ref().map(|io| io.read_requests).unwrap_or(0)),
        ]);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "vertical partitioning must not change the count"
    );
    t.print();

    // Work stealing on a skewed graph: all edges concentrated in the
    // id range owned by one partition.
    let mut b = fg_graph::GraphBuilder::directed();
    let hub_vertices = 1u32 << 8;
    for i in 0..hub_vertices {
        for j in 1..48u32 {
            b.add_edge(VertexId(i), VertexId((i + j) % hub_vertices));
        }
    }
    b.reserve_vertices(1 << 14);
    let skew = b.build();
    let mut s = Table::new(
        "Ablation: work stealing on a skewed graph (BFS + WCC)",
        &["work stealing", "BFS", "WCC"],
    );
    for stealing in [false, true] {
        let fx = build_sem(&skew, PAPER_CACHE_FRACTION).expect("fixture");
        let cfg = EngineConfig {
            work_stealing: stealing,
            ..EngineConfig::default()
        };
        let engine = Engine::new_sem(&fx.safs, fx.index.clone(), cfg);
        fx.safs.reset_stats();
        let (_, bfs) = fg_apps::bfs(&engine, VertexId(0)).expect("bfs");
        fx.safs.reset_stats();
        let (_, wcc) = fg_apps::wcc(&engine).expect("wcc");
        s.row(&[
            stealing.to_string(),
            secs(bfs.modeled_runtime_secs()),
            secs(wcc.modeled_runtime_secs()),
        ]);
    }
    s.print();
    println!(
        "\nexpected: stealing helps the skewed graph. The hit-rate column is flat (≈ 100 %) at the \
         default scale: the requests TC keeps in flight hold the whole image in memory, and a page \
         a span holds stays a cache hit however small the cache is. §3.8's effect — higher hit \
         rates with more vertical parts — needs an image larger than the in-flight window: raise \
         FG_SCALE."
    );
}
