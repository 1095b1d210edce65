//! Approximate local clustering coefficient by *sampled partial
//! edge-list reads* — the showcase app for first-class vertex I/O
//! requests ([`flashgraph::Request`]).
//!
//! The exact LCC of `v` needs `v`'s whole adjacency plus every
//! neighbour's list — the scan-statistics access pattern, dominated
//! by hub vertices whose multi-MB lists cost I/O roughly quadratic in
//! their degree. The sampled estimator reads partial lists on *both*
//! sides instead:
//!
//! 1. it draws `k` *edge positions* of `v`'s list uniformly without
//!    replacement via `Request::edges(dir).range(pos, 1)` — each a
//!    4-byte read served from a single page — giving a neighbour
//!    sample `S` (every neighbour included with probability `k/d`);
//! 2. for each `u ∈ S` it probes `min(k, deg(u))` sampled positions
//!    of *u's* list the same way, and counts probed entries that land
//!    back in `S`, weighting each hit by `deg(u)/k_u` to undo the
//!    second-stage sampling rate.
//!
//! Dividing the weighted count by `|S|·(|S|-1)` gives an unbiased
//! estimate of the LCC, and at `k ≥ d` both stages read whole lists
//! and the estimate is exact — the estimator *is* the exact algorithm
//! restricted to a sub-sample of positions. Crucially, no list is
//! ever read past its sampled positions, so a hub's multi-page
//! interior is touched only where probes land — the selective-I/O
//! win `fig_partial` in `fg_bench` measures against full-list
//! execution with `IoStats`.

use std::collections::HashSet;

use fg_types::{EdgeDir, Result, VertexId};
use flashgraph::{GraphEngine, Init, PageVertex, Request, RunStats, VertexContext, VertexProgram};

/// The sampled-LCC vertex program (undirected graphs).
#[derive(Debug, Clone, Copy)]
pub struct LccProgram {
    /// Sample size: edge positions drawn per list (own list and each
    /// sampled neighbour's). Where `k` covers a list's degree the
    /// whole list is read; `k ≥` the maximum degree computes the
    /// exact coefficient everywhere.
    pub k: u32,
    /// Seed of the deterministic per-vertex sampling streams.
    pub seed: u64,
}

/// Per-vertex LCC state.
#[derive(Debug, Default)]
pub struct LccState {
    /// The (estimated) local clustering coefficient.
    pub lcc: f32,
    /// Sorted sampled neighbours, held while their lists are probed.
    sample: Option<Box<[u32]>>,
    /// Sampled neighbours as they arrive (positions may complete in
    /// any order).
    collecting: Vec<u32>,
    /// Sampled own-list edges still to arrive.
    own_pending: u64,
    /// Probed neighbour-list edges still to arrive.
    pending_edges: u64,
    /// Weighted incidences (u, x) observed inside the sample: each
    /// probed hit counts `deg(u) / k_u` to undo the probe rate.
    weighted_matches: f64,
    /// Effective sample size (distinct neighbours drawn).
    s_eff: u64,
}

/// `s` distinct uniform positions in `[0, d)` (Floyd's algorithm over
/// a per-(vertex, subject) xorshift stream), sorted ascending so the
/// resulting single-position requests issue in offset order and merge
/// well.
fn sample_positions(seed: u64, v: VertexId, subject: VertexId, d: u64, s: u64) -> Vec<u64> {
    let mut x = seed
        ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(v.0 as u64 + 1)
        ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(subject.0 as u64 + 1);
    if x == 0 {
        x = 0x9E37_79B9_7F4A_7C15;
    }
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut chosen: HashSet<u64> = HashSet::with_capacity(s as usize);
    for j in (d - s)..d {
        let t = next() % (j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut out: Vec<u64> = chosen.into_iter().collect();
    out.sort_unstable();
    out
}

impl VertexProgram for LccProgram {
    type State = LccState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut LccState, ctx: &mut VertexContext<'_, ()>) {
        let d = ctx.degree(v, EdgeDir::Out);
        if d < 2 {
            return; // degree < 2 has no pairs; lcc stays 0
        }
        let s = (self.k as u64).min(d);
        state.own_pending = s;
        if s == d {
            // Sample = whole list: one full request (exact LCC).
            ctx.request(v, Request::edges(EdgeDir::Out));
        } else {
            for p in sample_positions(self.seed, v, v, d, s) {
                ctx.request(v, Request::edges(EdgeDir::Out).range(p, 1));
            }
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut LccState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        if vertex.id() == v && state.own_pending > 0 {
            // A sampled position (or the full list).
            state.collecting.extend(vertex.edges().map(|e| e.0));
            state.own_pending -= vertex.degree() as u64;
            if state.own_pending > 0 {
                return;
            }
            let mut sample = std::mem::take(&mut state.collecting);
            sample.sort_unstable();
            sample.dedup();
            sample.retain(|&u| u != v.0);
            state.s_eff = sample.len() as u64;
            if state.s_eff < 2 {
                return;
            }
            // Second stage: probe min(k, deg(u)) sampled positions of
            // each sampled neighbour's list — never the whole list.
            state.pending_edges = sample
                .iter()
                .map(|&u| (self.k as u64).min(ctx.degree(VertexId(u), EdgeDir::Out)))
                .sum();
            if state.pending_edges == 0 {
                return; // isolated sampled neighbours: no pairs adjacent
            }
            let targets: Vec<u32> = sample.clone();
            state.sample = Some(sample.into_boxed_slice());
            for u in targets {
                let u = VertexId(u);
                let du = ctx.degree(u, EdgeDir::Out);
                let su = (self.k as u64).min(du);
                if su == du {
                    ctx.request(u, Request::edges(EdgeDir::Out));
                } else {
                    for p in sample_positions(self.seed, v, u, du, su) {
                        ctx.request(u, Request::edges(EdgeDir::Out).range(p, 1));
                    }
                }
            }
        } else {
            // Probed entries of a sampled neighbour's list: count the
            // ones landing back in the sample, weighted by the probe
            // rate so the estimate stays unbiased.
            let u = vertex.id();
            let du = ctx.degree(u, EdgeDir::Out);
            let su = (self.k as u64).min(du);
            let weight = du as f64 / su as f64;
            let sample = state.sample.as_deref().expect("sample held while pending");
            let mut i = 0usize;
            for x in vertex.edges() {
                while i < sample.len() && sample[i] < x.0 {
                    i += 1;
                }
                if i < sample.len() && sample[i] == x.0 && x != u {
                    state.weighted_matches += weight;
                    i += 1;
                }
            }
            state.pending_edges -= vertex.degree() as u64;
            if state.pending_edges == 0 {
                // Clamp the unbiased estimate into the coefficient's
                // range: probe-rate weights can overshoot on hubs.
                let est = state.weighted_matches / (state.s_eff * (state.s_eff - 1)) as f64;
                state.lcc = est.clamp(0.0, 1.0) as f32;
                state.sample = None;
                state.weighted_matches = 0.0;
            }
        }
    }
}

/// Estimates every vertex's local clustering coefficient from `k`
/// sampled edge positions per list (exact where `k` covers the
/// degrees involved); deterministic for a given `seed`.
///
/// # Errors
///
/// Propagates engine errors.
pub fn lcc<E: GraphEngine>(engine: &E, k: u32, seed: u64) -> Result<(Vec<f32>, RunStats)> {
    let (states, stats) = engine.run(&LccProgram { k, seed }, Init::All)?;
    Ok((states.into_iter().map(|s| s.lcc).collect(), stats))
}

/// Like [`lcc`] but for the given query vertices only — the per-query
/// form a serving deployment uses ("how clustered is *this* user's
/// neighbourhood?"). Non-queried entries of the result stay 0. This
/// is where partial requests shine: an exact per-hub answer reads the
/// hub's whole multi-page list plus every neighbour's list, while the
/// sampled estimator touches `k + k²` probed positions regardless of
/// the hub's degree.
///
/// # Errors
///
/// Propagates engine errors (including out-of-range query vertices).
pub fn lcc_of<E: GraphEngine>(
    engine: &E,
    queries: &[VertexId],
    k: u32,
    seed: u64,
) -> Result<(Vec<f32>, RunStats)> {
    let (states, stats) = engine.run(&LccProgram { k, seed }, Init::Seeds(queries.to_vec()))?;
    Ok((states.into_iter().map(|s| s.lcc).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen, GraphBuilder};
    use flashgraph::{Engine, EngineConfig};
    fn symmetrized_rmat(scale: u32, factor: u32, seed: u64) -> fg_graph::Graph {
        let d = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let mut b = GraphBuilder::undirected();
        for (s, t) in d.edges() {
            b.add_edge(s, t);
        }
        b.build()
    }

    fn max_degree(g: &fg_graph::Graph) -> u32 {
        g.vertices()
            .map(|v| g.out_degree(v) as u32)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn exact_on_complete_graph() {
        let g = fixtures::complete(8);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (coeffs, _) = lcc(&engine, 32, 1).unwrap();
        assert!(coeffs.iter().all(|&c| c == 1.0), "{coeffs:?}");
    }

    #[test]
    fn star_is_zero() {
        let g = fixtures::star(9);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (coeffs, _) = lcc(&engine, 4, 7).unwrap();
        assert!(coeffs.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn matches_oracle_when_k_covers_degree() {
        let g = symmetrized_rmat(7, 4, 99);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (coeffs, _) = lcc(&engine, max_degree(&g), 5).unwrap();
        let want = fg_baselines::direct::local_clustering(&g);
        for v in g.vertices() {
            assert!(
                (coeffs[v.index()] as f64 - want[v.index()]).abs() < 1e-6,
                "vertex {v}: {} vs {}",
                coeffs[v.index()],
                want[v.index()]
            );
        }
    }

    #[test]
    fn sampled_estimates_converge_to_oracle() {
        let g = symmetrized_rmat(8, 4, 3);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let want = fg_baselines::direct::local_clustering(&g);
        let mean_err = |k: u32| {
            let (coeffs, _) = lcc(&engine, k, 11).unwrap();
            let (mut err, mut cnt) = (0f64, 0u64);
            for v in g.vertices() {
                if g.out_degree(v) >= 2 {
                    err += (coeffs[v.index()] as f64 - want[v.index()]).abs();
                    cnt += 1;
                }
            }
            err / cnt as f64
        };
        let coarse = mean_err(2);
        let fine = mean_err(16);
        let exact = mean_err(max_degree(&g));
        assert!(
            exact < 1e-6,
            "k >= degree must be exact up to f32 rounding: {exact}"
        );
        assert!(
            fine < coarse,
            "larger samples should track the oracle better: k=16 err {fine} vs k=2 err {coarse}"
        );
    }

    #[test]
    fn sampling_reads_fewer_edges_than_exact() {
        let g = symmetrized_rmat(8, 6, 17);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (_, sampled) = lcc(&engine, 3, 11).unwrap();
        let (_, full) = lcc(&engine, max_degree(&g), 11).unwrap();
        assert!(
            sampled.edges_delivered < full.edges_delivered / 2,
            "sampled {} vs full {}",
            sampled.edges_delivered,
            full.edges_delivered
        );
    }
}
