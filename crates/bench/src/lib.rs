//! Shared infrastructure for the paper's sweeps and the test suites.
//!
//! The ledger (`src/bin/ledger/`) is the evaluation; `benches/` keeps
//! the three parameter sweeps of Figures 12–14 as `harness = false`
//! targets. This library holds what they and the workspace tests
//! share: dataset preparation (generate → write image → mount SAFS,
//! single or sharded), the app runner, and plain-text table
//! rendering.
//!
//! Scale: graphs are generated at laptop scale by default; set
//! `FG_SCALE=k` to raise every dataset by `k` R-MAT scale steps
//! (each step doubles vertices).

pub mod report;

use fg_format::{
    load_index, required_capacity, required_shard_capacities, write_image, write_sharded_image,
    GraphIndex, ImageMeta, ShardedIndex, WriteOptions,
};
use fg_graph::{Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig, ShardSet};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::Result;

/// Re-exported so harnesses only import this crate.
pub use fg_graph::gen::Dataset;

/// Reads the numeric pin `name` from the environment: `None` when it
/// is unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set to
/// anything but an integer of at least `min` — a typo in a CI matrix
/// fails loudly instead of silently testing the default.
pub fn env_pin(name: &str, min: u32) -> Option<u32> {
    let value = std::env::var_os(name)?;
    match value.to_str().and_then(|s| s.trim().parse().ok()) {
        Some(n) if n >= min => Some(n),
        _ => panic!("{name}={value:?}: expected an integer >= {min}"),
    }
}

/// Reads the `FG_SCALE` environment variable (default 0).
pub fn scale_bump() -> u32 {
    env_pin("FG_SCALE", 0).unwrap_or(0)
}

/// The cache fraction equivalent to the paper's "1 GB cache for the
/// 13 GB Twitter graph" configuration.
pub const PAPER_CACHE_FRACTION: f64 = 1.0 / 13.0;

/// A semi-external fixture: image written, index loaded, SAFS mounted.
pub struct SemFixture {
    /// The mounted filesystem.
    pub safs: Safs,
    /// The compact in-memory index.
    pub index: GraphIndex,
    /// Bytes of the on-SSD image.
    pub image_bytes: u64,
}

/// Builds a semi-external fixture for `g` with `cache_fraction` of
/// the image bytes as page cache and otherwise default SAFS settings.
///
/// # Errors
///
/// Propagates image/SAFS errors.
pub fn build_sem(g: &Graph, cache_fraction: f64) -> Result<SemFixture> {
    build_sem_with(g, cache_fraction, SafsConfig::default())
}

/// [`build_sem`] with explicit SAFS settings (page size, merge flag).
///
/// # Errors
///
/// Propagates image/SAFS errors.
pub fn build_sem_with(g: &Graph, cache_fraction: f64, cfg: SafsConfig) -> Result<SemFixture> {
    build_sem_on(g, cache_fraction, cfg, ArrayConfig::paper_array())
}

/// [`build_sem_with`] on an explicit array. The I/O-sensitivity
/// sweeps (Figures 13 and 14) use a smaller array so the device
/// stays on the critical path at reproduction scale — the testbed
/// scaled down in proportion to the dataset, keeping the paper's
/// I/O-to-compute balance.
///
/// # Errors
///
/// Propagates image/SAFS errors.
pub fn build_sem_on(
    g: &Graph,
    cache_fraction: f64,
    cfg: SafsConfig,
    array_cfg: ArrayConfig,
) -> Result<SemFixture> {
    let capacity = required_capacity(g).max(4096);
    let array = SsdArray::new_mem(array_cfg, capacity)?;
    let image_bytes = write_image(g, &array)?.total_bytes;
    let (_, index) = load_index(&array)?;
    let cache_bytes = (image_bytes as f64 * cache_fraction) as u64;
    let safs = Safs::new(cfg.with_cache_bytes(cache_bytes), array)?;
    safs.reset_stats();
    Ok(SemFixture {
        safs,
        index,
        image_bytes,
    })
}

/// A sharded semi-external fixture: one in-memory array, image shard,
/// and SAFS mount per vertex-range shard.
pub struct ShardFixture {
    /// One mount per shard, in shard order.
    pub set: ShardSet,
    /// The global index over every shard's local index.
    pub index: ShardedIndex,
    /// Each shard image's header, in shard order.
    pub metas: Vec<ImageMeta>,
    /// Bytes of the whole on-SSD image, summed over shards.
    pub image_bytes: u64,
}

/// Builds a sharded fixture for `g`: `shards` equal vertex ranges,
/// each written to its own array and mounted with `cache_fraction`
/// of *its shard's* image bytes as page cache — so the aggregate
/// cache budget matches a single-mount [`build_sem_on`] fixture of
/// the same fraction.
///
/// # Errors
///
/// Propagates image/SAFS errors.
pub fn build_shard_fixture(
    g: &Graph,
    cache_fraction: f64,
    cfg: SafsConfig,
    array_cfg: ArrayConfig,
    opts: &WriteOptions,
    shards: usize,
) -> Result<ShardFixture> {
    let arrays = required_shard_capacities(g, opts, shards)
        .into_iter()
        .map(|cap| SsdArray::new_mem(array_cfg, cap.max(4096)))
        .collect::<Result<Vec<_>>>()?;
    write_sharded_image(g, &arrays, opts)?;
    let (metas, index) = ShardedIndex::load(&arrays)?;
    let image_bytes: u64 = metas.iter().map(|m| m.total_bytes).sum();
    let per_shard_cache = (image_bytes as f64 * cache_fraction / shards.max(1) as f64) as u64;
    let set = ShardSet::new(cfg.with_cache_bytes(per_shard_cache), arrays)?;
    set.reset_stats();
    Ok(ShardFixture {
        set,
        index,
        metas,
        image_bytes,
    })
}

/// Symmetrizes a directed graph (TC and scan statistics run on the
/// undirected view, as in the reference implementations).
pub fn symmetrize(g: &Graph) -> Graph {
    let mut b = GraphBuilder::undirected();
    b.reserve_vertices(g.num_vertices());
    for (s, d) in g.edges() {
        b.add_edge(s, d);
    }
    b.build()
}

/// The six applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Breadth-first search (out-edges, frontier subset).
    Bfs,
    /// Betweenness centrality from one source (both directions).
    Bc,
    /// Weakly connected components (both directions, narrowing).
    Wcc,
    /// Delta PageRank, 30 iterations (out-edges, narrowing).
    Pr,
    /// Triangle counting (neighbour-list reads, undirected view).
    Tc,
    /// Scan statistics (degree-first scheduler, undirected view).
    Ss,
}

impl App {
    /// All six, in the paper's figure order.
    pub const ALL: [App; 6] = [App::Bfs, App::Bc, App::Wcc, App::Pr, App::Tc, App::Ss];

    /// Short name used in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs => "BFS",
            App::Bc => "BC",
            App::Wcc => "WCC",
            App::Pr => "PR",
            App::Tc => "TC",
            App::Ss => "SS",
        }
    }
}

/// Picks the BFS/BC source: the highest-out-degree vertex, so
/// traversals cover most of the graph (R-MAT hubs reach everything).
pub fn traversal_root(g: &Graph) -> fg_types::VertexId {
    g.vertices()
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(fg_types::VertexId(0))
}

/// Runs `app` on the matching engine (`directed` for BFS/BC/WCC/PR,
/// `undirected` for TC/SS) and returns its statistics.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_app(
    app: App,
    directed: &flashgraph::Engine<'_>,
    undirected: &flashgraph::Engine<'_>,
    root: fg_types::VertexId,
) -> Result<flashgraph::RunStats> {
    Ok(match app {
        App::Bfs => fg_apps::bfs(directed, root)?.1,
        App::Bc => fg_apps::bc_single_source(directed, root)?.1,
        App::Wcc => fg_apps::wcc(directed)?.1,
        App::Pr => fg_apps::pagerank(directed, 0.85, 1e-3, 30)?.1,
        App::Tc => fg_apps::triangle_count(undirected, false)?.2,
        App::Ss => fg_apps::scan_statistics(undirected)?.1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::fixtures;

    #[test]
    fn fixture_builds_and_mounts() {
        let g = fixtures::complete(20);
        let fx = build_sem(&g, 0.5).unwrap();
        assert!(fx.image_bytes > 0);
        assert!(fx.safs.config().cache_bytes <= fx.image_bytes);
        assert_eq!(fx.index.num_vertices(), 20);
    }

    #[test]
    fn symmetrize_makes_undirected() {
        let g = fixtures::path(4);
        let u = symmetrize(&g);
        assert!(!u.is_directed());
        assert_eq!(u.num_edges(), 3);
        assert_eq!(u.out_neighbors(fg_types::VertexId(1)).len(), 2);
    }

    #[test]
    fn scale_bump_defaults_to_zero() {
        std::env::remove_var("FG_SCALE");
        assert_eq!(scale_bump(), 0);
    }

    #[test]
    fn shard_fixture_builds_and_mounts() {
        let g = fixtures::complete(30);
        let fx = build_shard_fixture(
            &g,
            0.5,
            SafsConfig::default(),
            ArrayConfig::small_test(),
            &WriteOptions::default(),
            3,
        )
        .unwrap();
        assert_eq!(fx.set.len(), 3);
        assert_eq!(fx.index.num_shards(), 3);
        assert_eq!(fx.index.num_vertices(), 30);
        assert_eq!(fx.image_bytes, fx.metas.iter().map(|m| m.total_bytes).sum());
    }
}
