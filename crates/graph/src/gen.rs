//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on three natural graphs (Twitter, a web
//! subdomain crawl, a 3.4 B-vertex page crawl — Table 1). Those
//! datasets are not redistributable, so the reproduction uses R-MAT
//! generated power-law graphs with the same *relative* structure: see
//! the README's "Running the evaluation" section for the stand-ins.
//! Everything here is deterministic given a seed so experiments are
//! repeatable.

use fg_types::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::csr::Graph;

/// Quadrant probabilities for the R-MAT recursive generator.
///
/// The defaults `(0.57, 0.19, 0.19, 0.05)` are the Graph500 values and
/// produce a heavy power-law degree distribution similar to social
/// networks such as the paper's Twitter graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatSkew {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatSkew {
    /// Graph500-style skew (heavy hubs, like a social graph).
    pub fn social() -> Self {
        RmatSkew {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// Milder skew with a longer diameter, web-crawl-like.
    pub fn web() -> Self {
        RmatSkew {
            a: 0.45,
            b: 0.22,
            c: 0.22,
        }
    }

    /// Probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

impl Default for RmatSkew {
    fn default() -> Self {
        RmatSkew::social()
    }
}

/// Generates a directed R-MAT graph with `2^scale` vertices and about
/// `edge_factor * 2^scale` edges (duplicates and self-loops are
/// dropped, so slightly fewer survive).
///
/// # Example
///
/// ```
/// use fg_graph::gen::{rmat, RmatSkew};
///
/// let g = rmat(8, 8, RmatSkew::default(), 7);
/// assert!(g.is_directed());
/// assert!(g.num_edges() > 0);
/// // Deterministic: same seed, same graph.
/// assert_eq!(g, rmat(8, 8, RmatSkew::default(), 7));
/// ```
pub fn rmat(scale: u32, edge_factor: u32, skew: RmatSkew, seed: u64) -> Graph {
    assert!(
        scale < 31,
        "rmat scale {scale} too large for u32 vertex ids"
    );
    assert!(
        skew.b >= 0.0 && skew.c >= 0.0,
        "rmat quadrant probabilities must be non-negative: {skew:?}"
    );
    let n: u64 = 1 << scale;
    let m = n * edge_factor as u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::directed();
    b.reserve_vertices(n as usize);
    b.extend_edges((0..m).map(|_| {
        let (src, dst) = rmat_edge(scale, skew, &mut rng);
        (VertexId(src), VertexId(dst))
    }));
    b.build()
}

/// One recursive R-MAT edge sample: one uniform draw per level picks
/// the quadrant, `[0, a)` top-left, `[a, a + b)` top-right (dst bit),
/// `[a + b, a + b + c)` bottom-left (src bit), the rest bottom-right
/// (both bits).
///
/// Each bit is a comparison, not a branch: a three-way `if` on a
/// uniform draw mispredicts about half the time, which costs several
/// times the draw itself. The thresholds are the same `f64` sums the
/// branches compared against and each level still takes exactly one
/// draw, so the RNG stream, and every graph, is unchanged. The two
/// forms agree because `a <= a + b <= a + b + c` (`b`, `c` >= 0).
fn rmat_edge(scale: u32, skew: RmatSkew, rng: &mut SmallRng) -> (u32, u32) {
    let (a, ab, abc) = (skew.a, skew.a + skew.b, skew.a + skew.b + skew.c);
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        let r: f64 = rng.gen();
        src = (src << 1) | (r >= ab) as u32;
        dst = (dst << 1) | (((r >= a) & (r < ab)) | (r >= abc)) as u32;
    }
    (src, dst)
}

/// Generates an undirected Watts–Strogatz ring: `n` vertices each
/// joined to `k` nearest neighbours per side, with rewiring
/// probability `p`. Long diameter at `p = 0`, small-world as `p`
/// rises — useful as a high-diameter counterpoint to R-MAT.
pub fn watts_strogatz(n: usize, k: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 2 * k, "watts_strogatz needs n > 2k");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::undirected();
    b.reserve_vertices(n);
    for v in 0..n {
        for j in 1..=k {
            let mut d = ((v + j) % n) as u32;
            if rng.gen::<f64>() < p {
                d = rng.gen_range(0..n as u32);
            }
            b.add_edge(VertexId(v as u32), VertexId(d));
        }
    }
    b.build()
}

/// Adds deterministic pseudo-random weights in `(0, max_w]` to every
/// edge of `g`, producing a weighted copy (used by SSSP, which
/// exercises the edge-attribute path of the on-disk format).
pub fn with_random_weights(g: &Graph, max_w: f32, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = if g.is_directed() {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    b.reserve_vertices(g.num_vertices());
    for (s, d) in g.edges() {
        if !g.is_directed() && s > d {
            continue; // one orientation only; builder re-symmetrizes
        }
        let w = rng.gen_range(0.0f32..max_w).max(f32::MIN_POSITIVE);
        b.add_weighted_edge(s, d, w);
    }
    b.build()
}

/// The evaluation dataset the paper's sweeps (Figures 12–14) run on,
/// scaled down.
///
/// `scale_bump` raises the graph by that many R-MAT scale steps
/// (a bump of 1 doubles vertices) so the same harness can run
/// laptop-size or larger via the `FG_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Stand-in for the subdomain web graph of Table 1 (89 M v / 2 B e).
    SubdomainSim,
}

impl Dataset {
    /// Human-readable dataset name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::SubdomainSim => "subdomain-sim",
        }
    }

    /// Generates the dataset at the default reproduction scale plus
    /// `scale_bump`.
    pub fn generate(self, scale_bump: u32) -> Graph {
        match self {
            // Subdomain: milder skew than a social graph, longer
            // diameter; mean degree ≈ 2B/89M ≈ 22.
            Dataset::SubdomainSim => rmat(15 + scale_bump, 22, RmatSkew::web(), 0x5EED),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic() {
        let g1 = rmat(8, 4, RmatSkew::default(), 99);
        let g2 = rmat(8, 4, RmatSkew::default(), 99);
        assert_eq!(g1, g2);
    }

    #[test]
    fn rmat_different_seeds_differ() {
        let g1 = rmat(8, 4, RmatSkew::default(), 1);
        let g2 = rmat(8, 4, RmatSkew::default(), 2);
        assert_ne!(g1, g2);
    }

    #[test]
    fn rmat_respects_vertex_bound() {
        let g = rmat(6, 4, RmatSkew::default(), 5);
        assert_eq!(g.num_vertices(), 64);
        for (s, d) in g.edges() {
            assert!(s.index() < 64 && d.index() < 64);
        }
    }

    #[test]
    fn rmat_is_skewed() {
        // With social skew, the max degree should far exceed the mean.
        let g = rmat(10, 8, RmatSkew::social(), 3);
        let n = g.num_vertices();
        let mean = g.num_edges() as f64 / n as f64;
        let max = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert!(
            (max as f64) > 8.0 * mean,
            "max degree {max} should be much larger than mean {mean}"
        );
    }

    #[test]
    fn watts_strogatz_ring_degree() {
        let g = watts_strogatz(100, 2, 0.0, 1);
        // Unrewired ring: every vertex has exactly 2k neighbours.
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 4);
        }
    }

    #[test]
    fn weighted_copy_preserves_structure() {
        let g = rmat(7, 4, RmatSkew::default(), 11);
        let w = with_random_weights(&g, 10.0, 4);
        assert_eq!(w.num_vertices(), g.num_vertices());
        assert_eq!(w.num_edges(), g.num_edges());
        assert!(w.has_weights());
        for v in w.vertices() {
            assert_eq!(w.out_neighbors(v), g.out_neighbors(v));
            for &wt in w.csr(fg_types::EdgeDir::Out).weights_of(v).unwrap() {
                assert!(wt > 0.0 && wt <= 10.0);
            }
        }
    }

    /// FNV-1a over every array of both CSRs (offsets, neighbours,
    /// weight bits), so two graphs share a checksum only if they are
    /// the same bytes.
    fn checksum(g: &Graph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for dir in [fg_types::EdgeDir::Out, fg_types::EdgeDir::In] {
            let c = g.csr(dir);
            c.offsets().iter().for_each(|&o| eat(o));
            c.neighbor_array().iter().for_each(|v| eat(v.0 as u64));
            for v in g.vertices() {
                c.weights_of(v)
                    .into_iter()
                    .flatten()
                    .for_each(|w| eat(w.to_bits() as u64));
            }
        }
        h
    }

    #[test]
    fn rmat_graphs_are_pinned() {
        // Computed with the three-way-branch sampler and the
        // comparison-sort builder this crate shipped before both were
        // made branch-free / counting-sort based. Every benchmark graph
        // is an R-MAT draw, so a change to sampling or construction that
        // re-draws or re-lays-out any graph fails here first.
        let draws = [
            (RmatSkew::social(), 12),
            (RmatSkew::social(), 34),
            (RmatSkew::web(), 12),
            (RmatSkew::web(), 34),
        ];
        let got: Vec<u64> = draws
            .iter()
            .map(|&(skew, seed)| checksum(&rmat(12, 16, skew, seed)))
            .collect();
        assert_eq!(
            got,
            [
                0xae78_c14b_d73e_6cdf,
                0x6640_9d81_a5be_6b7d,
                0x5f3a_750e_6f7f_09f5,
                0x0c46_b598_fc76_3a41,
            ],
            "an R-MAT draw changed: {got:#018x?}"
        );
    }

    #[test]
    fn datasets_keep_relative_sizes() {
        // A scale bump doubles the vertex set and keeps the mean degree.
        let base = Dataset::SubdomainSim.generate(0);
        let bumped = Dataset::SubdomainSim.generate(1);
        assert_eq!(bumped.num_vertices(), 2 * base.num_vertices());
        assert!(bumped.num_edges() > 3 * base.num_edges() / 2);
    }
}
