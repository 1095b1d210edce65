//! Single-source shortest paths over weighted edges — an extension
//! app exercising the *edge attribute* path of the on-SSD format:
//! FlashGraph stores attributes separately from edges (§3.5.2), so
//! SSSP requests both runs while unweighted algorithms never pay for
//! attribute bytes.
//!
//! The algorithm is label-correcting (Bellman-Ford by wavefront):
//! whenever a vertex's distance improves it pushes `dist + w(e)` to
//! its out-neighbours.

use fg_types::{EdgeDir, Result, VertexId};
use flashgraph::{GraphEngine, Init, PageVertex, Request, RunStats, VertexContext, VertexProgram};

/// The SSSP vertex program.
#[derive(Debug, Clone, Copy)]
pub struct SsspProgram {
    /// Source vertex.
    pub source: VertexId,
}

/// Per-vertex SSSP state.
#[derive(Debug, Clone, Copy)]
pub struct SsspState {
    /// Best distance found so far (`f32::INFINITY` = unreached).
    pub dist: f32,
    /// Distance already propagated to neighbours.
    settled: f32,
}

impl Default for SsspState {
    fn default() -> Self {
        SsspState {
            dist: f32::INFINITY,
            settled: f32::INFINITY,
        }
    }
}

impl VertexProgram for SsspProgram {
    type State = SsspState;
    type Msg = f32;

    fn init_state(&self, v: VertexId) -> SsspState {
        if v == self.source {
            SsspState {
                dist: 0.0,
                settled: f32::INFINITY,
            }
        } else {
            SsspState::default()
        }
    }

    fn run(&self, v: VertexId, state: &mut SsspState, ctx: &mut VertexContext<'_, f32>) {
        if state.dist < state.settled {
            state.settled = state.dist;
            ctx.request(v, Request::edges(EdgeDir::Out).with_attrs());
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut SsspState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, f32>,
    ) {
        let edges = vertex
            .weighted_edges()
            .expect("sssp needs a weighted graph image");
        for (dst, w) in edges {
            ctx.send(dst, state.settled + w);
        }
    }

    fn run_on_message(
        &self,
        v: VertexId,
        state: &mut SsspState,
        msg: &f32,
        ctx: &mut VertexContext<'_, f32>,
    ) {
        if *msg < state.dist {
            state.dist = *msg;
            ctx.activate(v);
        }
    }
}

/// Runs SSSP from `source` on a weighted graph; distances are
/// `f32::INFINITY` for unreachable vertices.
///
/// # Errors
///
/// Propagates engine errors. Panics inside the run if the graph has
/// no edge attributes.
pub fn sssp<E: GraphEngine>(engine: &E, source: VertexId) -> Result<(Vec<f32>, RunStats)> {
    let (states, stats) = engine.run(&SsspProgram { source }, Init::Seeds(vec![source]))?;
    Ok((states.into_iter().map(|s| s.dist).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen};
    use flashgraph::{Engine, EngineConfig};
    #[test]
    fn weighted_square_distances() {
        let g = fixtures::weighted_square();
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (dist, _) = sssp(&engine, VertexId(0)).unwrap();
        assert_eq!(dist, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn matches_dijkstra_on_weighted_rmat() {
        let base = gen::rmat(7, 5, gen::RmatSkew::default(), 3);
        let g = gen::with_random_weights(&base, 10.0, 7);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (dist, _) = sssp(&engine, VertexId(0)).unwrap();
        let want = fg_baselines::direct::sssp(&g, VertexId(0));
        for v in g.vertices() {
            let (got, expect) = (dist[v.index()] as f64, want[v.index()]);
            if expect.is_infinite() {
                assert!(got.is_infinite(), "vertex {v} should be unreachable");
            } else {
                assert!((got - expect).abs() < 1e-3, "vertex {v}: {got} vs {expect}");
            }
        }
    }

    #[test]
    fn unreachable_vertices_infinite() {
        let g = fixtures::weighted_square();
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (dist, _) = sssp(&engine, VertexId(3)).unwrap();
        assert_eq!(dist[3], 0.0);
        assert!(dist[0].is_infinite());
    }
}
