//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on three natural graphs (Twitter, a web
//! subdomain crawl, a 3.4 B-vertex page crawl — Table 1). Those
//! datasets are not redistributable, so the reproduction uses R-MAT
//! generated power-law graphs with the same *relative* structure: see
//! the README's "Running the evaluation" section for the stand-ins.
//! Everything here is deterministic given a seed so experiments are
//! repeatable.
//!
//! [`rmat`] draws on every core without changing a draw. Edge `i`
//! takes draws `scale * i` to `scale * i + scale - 1` of one xoshiro
//! stream seeded by `seed`, exactly as a serial loop takes them. The
//! edge list is cut into chunks of 16 K edges, dealt round-robin to
//! the threads. Each thread walks the whole stream from the seed: it
//! steps past the draws of other threads' chunks, which costs a
//! fraction of sampling them, and samples its own chunks in place.
//! Every thread count therefore writes the same edge list, and
//! [`GraphBuilder`]'s passes lay any list out the same way at any
//! thread count, so a graph depends on its seed alone. The pins in
//! this module's tests hold that.

use fg_types::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::{GraphBuilder, Pair};
use crate::csr::Graph;
use crate::sort::{self, CHUNK};

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
    let n = 1usize << scale;
    let m = n * edge_factor as usize;
    let edges = sample(scale, skew, seed, m, sort::threads_for(m));
    GraphBuilder::from_pairs(n, edges).build()
}

/// The first `m` R-MAT edges of `seed`'s stream, drawn on `threads`
/// threads (no more than there are chunks).
///
/// Edge `i` takes draws `scale * i` to `scale * i + scale - 1` of the
/// one stream, as a serial loop takes them. Chunk `c` of [`CHUNK`]
/// edges belongs to thread `c % threads`. Each thread walks the whole
/// stream from the seed: it steps past the draws of other threads'
/// chunks and samples its own into place. So the edge list is the
/// serial one at any thread count.
fn sample(scale: u32, skew: RmatSkew, seed: u64, m: usize, threads: usize) -> Vec<Pair> {
    let threads = threads.min(m.div_ceil(CHUNK)).max(1);
    let cuts = cuts(skew);
    let mut edges = vec![(0, 0); m];
    let mut mine: Vec<Vec<(usize, &mut [Pair])>> = (0..threads).map(|_| Vec::new()).collect();
    for (c, chunk) in edges.chunks_mut(CHUNK).enumerate() {
        mine[c % threads].push((c, chunk));
    }
    sort::run(mine.into_iter().map(|chunks| {
        move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut at = 0; // the chunk whose draws come next
            for (c, chunk) in chunks {
                for _ in 0..(c - at) * CHUNK * scale as usize {
                    rng.next_u64();
                }
                for e in chunk.iter_mut() {
                    *e = rmat_edge(scale, cuts, &mut rng);
                }
                at = c + 1;
            }
        }
    }));
    edges
}

/// One recursive R-MAT edge sample: one uniform draw per level picks
/// the quadrant, `[0, a)` top-left, `[a, a + b)` top-right (dst bit),
/// `[a + b, a + b + c)` bottom-left (src bit), the rest bottom-right
/// (both bits). `cuts` are the three bounds as [`cuts`] gives them.
///
/// Each bit is a comparison, not a branch: a three-way `if` on a
/// uniform draw mispredicts about half the time, which costs several
/// times the draw itself. Each level still takes exactly one draw, so
/// the RNG stream, and every graph, is unchanged. Because
/// `a <= a + b <= a + b + c` (`b`, `c` >= 0), the draw passes the
/// bounds in order: the src bit is "past `a + b`", and the dst bit,
/// set in `[a, a + b)` and past `a + b + c`, is "past an odd number of
/// the three".
fn rmat_edge(scale: u32, cuts: [u64; 3], rng: &mut SmallRng) -> (u32, u32) {
    let [a, ab, abc] = cuts;
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        let k = rng.next_u64() >> 11;
        src = (src << 1) | (k >= ab) as u32;
        dst = (dst << 1) | ((k >= a) ^ (k >= ab) ^ (k >= abc)) as u32;
    }
    (src, dst)
}

/// The quadrant bounds `a`, `a + b` and `a + b + c` as integers the
/// sampler compares a draw's top 53 bits `k` against.
///
/// The shim's uniform `f64` is `k * 2^-53`. Scaling by a power of two
/// is exact, so `k * 2^-53 >= t` holds exactly when `k >= t * 2^53`,
/// that is when `k >= ceil(t * 2^53)`, for any `t` that is not NaN.
/// The integer test picks the same quadrants as the `f64` one without
/// converting each draw.
fn cuts(skew: RmatSkew) -> [u64; 3] {
    let cut = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
    let (a, b, c) = (skew.a, skew.b, skew.c);
    [cut(a), cut(a + b), cut(a + b + c)]
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
    fn every_parallel_pass_keeps_the_pinned_bytes() {
        // Computed with the serial sampler and builder. Drawn large
        // enough that every chunked and threaded pass splits them: 2^19
        // edges are 32 sampling chunks, and each counting pass sorts
        // well over one chunk per thread. One directed draw, the same
        // graph symmetrised through the undirected builder, and a
        // weighted copy of that, so pairs and triples both sort.
        let g = rmat(15, 16, RmatSkew::social(), 43);
        let mut b = GraphBuilder::undirected();
        b.reserve_vertices(g.num_vertices());
        b.extend_edges(g.edges());
        let sym = b.build();
        let weighted = with_random_weights(&sym, 10.0, 43);
        let got = [checksum(&g), checksum(&sym), checksum(&weighted)];
        assert_eq!(
            got,
            [
                0xc4c6_4bbb_c88f_320c,
                0xbc3d_98ba_5735_1961,
                0xfbd3_d87a_b5e9_94a1,
            ],
            "a parallel pass changed a graph: {got:#018x?}"
        );
    }

    /// The R-MAT draw as a plain serial loop: one `f64` per level and a
    /// three-way branch on it.
    fn serial_rmat(scale: u32, skew: RmatSkew, seed: u64, m: usize) -> Vec<Pair> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, ab, abc) = (skew.a, skew.a + skew.b, skew.a + skew.b + skew.c);
        (0..m)
            .map(|_| {
                let (mut src, mut dst) = (0, 0);
                for _ in 0..scale {
                    let r: f64 = rng.gen();
                    let (s, d) = if r < a {
                        (0, 0)
                    } else if r < ab {
                        (0, 1)
                    } else if r < abc {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    src = src << 1 | s;
                    dst = dst << 1 | d;
                }
                (src, dst)
            })
            .collect()
    }

    /// Both shipped skews, and one whose bounds are exact binary
    /// fractions, so a draw can land on a bound exactly.
    fn skews() -> [RmatSkew; 3] {
        let exact = RmatSkew {
            a: 0.5,
            b: 0.25,
            c: 0.125,
        };
        [RmatSkew::social(), RmatSkew::web(), exact]
    }

    #[test]
    fn the_chunked_sampler_draws_the_serial_stream() {
        // Below one chunk, exactly one, and a ragged tail past three.
        for (i, skew) in skews().into_iter().enumerate() {
            for m in [0, 1, 100, CHUNK, 3 * CHUNK + 5] {
                let want = serial_rmat(7, skew, i as u64, m);
                for threads in 1..=4 {
                    assert!(
                        sample(7, skew, i as u64, m, threads) == want,
                        "{skew:?}, {m} edges on {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn integer_cuts_split_draws_where_the_f64_bounds_do() {
        // At and beside each cut, where a rounding slip would show.
        let unit = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        for skew in skews() {
            let bounds = [skew.a, skew.a + skew.b, skew.a + skew.b + skew.c];
            for (cut, t) in cuts(skew).into_iter().zip(bounds) {
                for k in [cut - 1, cut, cut + 1] {
                    assert_eq!(k >= cut, unit(k) >= t, "{skew:?}: draw {k} against {t}");
                }
            }
        }
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
