//! Ablation — vertical partitioning (§3.8) for triangle counting:
//! splitting hub vertices' neighbour requests into id-range passes
//! makes concurrent vertices touch the same SSD region, raising
//! page-cache hit rates.

use fg_bench::report::{secs, Table};
use fg_bench::{build_sem, scale_bump, symmetrize, Dataset, PAPER_CACHE_FRACTION};
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

    println!(
        "\nexpected: the hit-rate column is flat (≈ 100 %) at the \
         default scale: the requests TC keeps in flight hold the whole image in memory, and a page \
         a span holds stays a cache hit however small the cache is. §3.8's effect — higher hit \
         rates with more vertical parts — needs an image larger than the in-flight window: raise \
         FG_SCALE."
    );
}
