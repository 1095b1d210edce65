//! Delta-based PageRank (§4): a vertex pushes only the *change* of
//! its rank to its neighbours (the Maiter-style formulation the paper
//! cites), so as the algorithm converges fewer vertices stay active —
//! the narrowing access pattern PR shares with WCC.

use fg_types::{EdgeDir, Result, VertexId};
use flashgraph::{
    EngineConfig, GraphEngine, Init, PageVertex, Request, RunStats, VertexContext, VertexProgram,
};

/// The delta-PageRank vertex program.
#[derive(Debug, Clone, Copy)]
pub struct PageRankProgram {
    /// Damping factor; the paper (and Pregel) use 0.85.
    pub damping: f32,
    /// Deltas below this threshold are not propagated.
    pub threshold: f32,
}

impl Default for PageRankProgram {
    fn default() -> Self {
        PageRankProgram {
            damping: 0.85,
            threshold: 1e-3,
        }
    }
}

/// Per-vertex PageRank state.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrState {
    /// Converged rank so far.
    pub rank: f32,
    /// Accumulated un-propagated delta.
    pub delta: f32,
    /// Damped delta awaiting the edge list (set in `run`, spent in
    /// `run_on_vertex`).
    push: f32,
}

impl PrState {
    /// The vertex's rank estimate including the unpropagated residue.
    pub fn estimate(&self) -> f32 {
        self.rank + self.delta
    }
}

impl VertexProgram for PageRankProgram {
    type State = PrState;
    type Msg = f32;

    fn init_state(&self, _v: VertexId) -> PrState {
        PrState {
            rank: 0.0,
            delta: 1.0 - self.damping,
            push: 0.0,
        }
    }

    fn run(&self, v: VertexId, state: &mut PrState, ctx: &mut VertexContext<'_, f32>) {
        let delta = state.delta;
        if delta < self.threshold {
            return;
        }
        state.rank += delta;
        state.delta = 0.0;
        state.push = delta * self.damping;
        if ctx.degree(v, EdgeDir::Out) > 0 {
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut PrState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, f32>,
    ) {
        // The request was for the whole list, so the delivery's length
        // is the out-degree.
        let share = state.push / vertex.degree() as f32;
        for dst in vertex.edges() {
            ctx.send(dst, share);
        }
    }

    fn run_on_message(
        &self,
        v: VertexId,
        state: &mut PrState,
        msg: &f32,
        ctx: &mut VertexContext<'_, f32>,
    ) {
        state.delta += *msg;
        if state.delta >= self.threshold {
            ctx.activate(v);
        }
    }
}

/// Runs delta-PageRank for at most `max_iters` iterations (the paper
/// caps at 30, matching Pregel); returns per-vertex ranks.
///
/// Ranks converge to the un-normalized fixed point
/// `rank(v) = (1-d) + d * Σ rank(u)/outdeg(u)` — the same quantity
/// `fg_baselines::direct::pagerank` iterates.
///
/// # Errors
///
/// Propagates engine errors.
pub fn pagerank<E: GraphEngine>(
    engine: &E,
    damping: f32,
    threshold: f32,
    max_iters: u32,
) -> Result<(Vec<f32>, RunStats)> {
    let program = PageRankProgram { damping, threshold };
    let cfg = EngineConfig {
        max_iterations: max_iters,
        ..*engine.config()
    };
    let capped = engine.reconfigured(cfg);
    let (states, stats) = capped.run(&program, Init::All)?;
    Ok((states.into_iter().map(|s| s.estimate()).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen};
    use flashgraph::{Engine, EngineConfig};
    #[test]
    fn uniform_on_cycle() {
        let g = fixtures::cycle(10);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (ranks, _) = pagerank(&engine, 0.85, 1e-6, 100).unwrap();
        for r in &ranks {
            assert!((r - 1.0).abs() < 1e-3, "cycle rank {r}");
        }
    }

    #[test]
    fn close_to_power_iteration_on_rmat() {
        let g = gen::rmat(8, 5, gen::RmatSkew::default(), 42);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (ranks, _) = pagerank(&engine, 0.85, 1e-5, 200).unwrap();
        let want = fg_baselines::direct::pagerank(&g, 0.85, 100);
        for v in g.vertices() {
            let got = ranks[v.index()] as f64;
            let expect = want[v.index()];
            assert!(
                (got - expect).abs() < 0.02 * expect.max(1.0),
                "vertex {v}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn narrowing_frontier() {
        // The paper's observation: PR starts with all vertices and
        // narrows as ranks converge.
        let g = gen::rmat(8, 5, gen::RmatSkew::default(), 11);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (_, stats) = pagerank(&engine, 0.85, 1e-3, 30).unwrap();
        let first = stats.per_iteration.first().unwrap().frontier;
        let last = stats.per_iteration.last().unwrap().frontier;
        assert_eq!(first, g.num_vertices() as u64);
        assert!(
            last < first / 4,
            "frontier should narrow: {first} -> {last}"
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let g = gen::rmat(7, 5, gen::RmatSkew::default(), 1);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (_, stats) = pagerank(&engine, 0.85, 1e-9, 5).unwrap();
        assert_eq!(stats.iterations, 5);
    }
}
