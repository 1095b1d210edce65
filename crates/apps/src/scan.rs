//! Scan statistics (§4): find the maximum *locality statistic* —
//! edges in a vertex's closed 1-neighbourhood — over the whole graph.
//!
//! This is the paper's showcase for custom vertex scheduling: a
//! degree-descending scheduler starts with the strongest candidates,
//! a shared running maximum lets every later vertex compare its cheap
//! upper bounds against the incumbent, and most vertices are pruned
//! before doing any I/O beyond (at most) their own edge list. The
//! Wang et al. active-community paper the authors cite reports
//! exactly this structure.

use fg_types::sync::Counter;
use fg_types::{EdgeDir, Result, VertexId};
use flashgraph::{
    EngineConfig, GraphEngine, Init, PageVertex, Request, RunStats, SchedulerKind, VertexContext,
    VertexProgram,
};

/// The scan-statistics vertex program (undirected graphs).
#[derive(Debug, Default)]
pub struct ScanProgram {
    /// Running maximum of the locality statistic (shared incumbent).
    /// A relaxed [`Counter`] even though it gates the pruning
    /// decisions: a stale read only weakens a prune bound (more work,
    /// never a wrong answer), and `max` is an atomic RMW so the
    /// incumbent itself is never lost.
    best: Counter,
    /// Vertices that skipped all work thanks to the degree bound.
    pruned_no_io: Counter,
    /// Vertices pruned after reading only their own list.
    pruned_after_own: Counter,
}

impl ScanProgram {
    fn raise(&self, candidate: u64) {
        self.best.max(candidate);
    }

    fn best(&self) -> u64 {
        self.best.get()
    }
}

/// Per-vertex scan state.
#[derive(Debug, Default)]
pub struct ScanState {
    /// The vertex's locality statistic, when computed (pruned
    /// vertices keep `None`).
    pub scan: Option<u64>,
    /// The own list, held while neighbour lists are outstanding.
    own: Option<Box<[u32]>>,
    /// Neighbour-list edges still to arrive.
    pending_edges: u64,
    edges_in_neighborhood: u64,
}

impl ScanProgram {
    /// Own list delivered: apply bound 2 or fan out neighbourhood
    /// requests.
    fn finish_own(&self, own: Vec<u32>, state: &mut ScanState, ctx: &mut VertexContext<'_, ()>) {
        let deg = own.len() as u64;
        // Bound 2 (index only): each neighbour u contributes at
        // most min(deg(u)-1, deg(v)-1) neighbourhood edges; the
        // sum double-counts, so halve it.
        let mut cap = 0u64;
        for &u in &own {
            let du = ctx.degree(VertexId(u), EdgeDir::Out);
            cap += du.saturating_sub(1).min(deg.saturating_sub(1));
        }
        let bound = deg + cap / 2;
        if bound <= self.best() {
            self.pruned_after_own.inc();
            return;
        }
        // Neighbours with no out-edges (sinks of a directed image) are
        // not asked for: nothing to count, and their empty deliveries
        // would not move `pending_edges`.
        let targets: Vec<(u32, u64)> = own
            .iter()
            .map(|&u| (u, ctx.degree(VertexId(u), EdgeDir::Out)))
            .filter(|&(_, du)| du > 0)
            .collect();
        state.pending_edges = targets.iter().map(|&(_, du)| du).sum();
        state.edges_in_neighborhood = 0;
        state.own = Some(own.into_boxed_slice());
        for &(u, _) in &targets {
            ctx.request(VertexId(u), Request::edges(EdgeDir::Out));
        }
        // Every neighbour a sink: nothing to wait for.
        self.maybe_publish(state);
    }

    /// Publishes the statistic and releases the own list once no
    /// neighbour slice is outstanding.
    fn maybe_publish(&self, state: &mut ScanState) {
        if state.pending_edges > 0 {
            return;
        }
        let own = state.own.take().expect("own list held while pending");
        let scan = own.len() as u64 + state.edges_in_neighborhood / 2;
        state.scan = Some(scan);
        self.raise(scan);
    }
}

impl VertexProgram for ScanProgram {
    type State = ScanState;
    type Msg = ();

    fn run(&self, v: VertexId, _state: &mut ScanState, ctx: &mut VertexContext<'_, ()>) {
        let deg = ctx.degree(v, EdgeDir::Out);
        // Bound 1 (free): the neighbourhood cannot hold more than
        // deg + C(deg, 2) edges. With hubs scheduled first, this
        // prunes the long power-law tail without any I/O.
        let bound = deg + deg.saturating_mul(deg.saturating_sub(1)) / 2;
        if bound <= self.best() {
            self.pruned_no_io.inc();
            return;
        }
        if deg > 0 {
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut ScanState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        if vertex.id() == v && state.own.is_none() {
            // The own list. Neighbour lists are asked for only once
            // it is held, so a self-loop's delivery of v's list as a
            // neighbour finds it held.
            self.finish_own(vertex.edges().map(|e| e.0).collect(), state, ctx);
        } else {
            // Count edges from this neighbour list into the
            // neighbourhood; each undirected neighbourhood edge is
            // seen from both ends, so halve at the end.
            let own = state.own.as_deref().expect("own list held while pending");
            let mut i = 0usize;
            for x in vertex.edges() {
                while i < own.len() && own[i] < x.0 {
                    i += 1;
                }
                if i < own.len() && own[i] == x.0 {
                    state.edges_in_neighborhood += 1;
                    i += 1;
                }
            }
            state.pending_edges -= vertex.degree() as u64;
            self.maybe_publish(state);
        }
    }
}

/// Result of [`scan_statistics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// The maximum locality statistic.
    pub max_scan: u64,
    /// A vertex achieving it.
    pub argmax: VertexId,
    /// Vertices pruned before any I/O.
    pub pruned_no_io: u64,
    /// Vertices pruned after reading only their own edge list.
    pub pruned_after_own: u64,
}

/// Computes the scan statistic with the paper's degree-descending
/// scheduler and pruning; returns the maximum, its vertex, and prune
/// counters (the measure of how much work the scheduler saved).
///
/// # Errors
///
/// Propagates engine errors.
pub fn scan_statistics<E: GraphEngine>(engine: &E) -> Result<(ScanResult, RunStats)> {
    let cfg = EngineConfig {
        // Scan statistics reads out-lists only (the undirected image
        // keeps one list per vertex), so hubs are ranked by the
        // degree that actually drives their I/O and pruning power.
        scheduler: SchedulerKind::DegreeDescending(EdgeDir::Out),
        // A short pipeline is the point of the custom schedule: the
        // first (largest) vertices must *finish* before the long tail
        // starts, so the rising incumbent can prune the tail. A deep
        // pipeline would start thousands of vertices against an
        // incumbent of zero and read their neighbourhoods for nothing.
        max_pending: 16,
        ..*engine.config()
    };
    let tuned = engine.reconfigured(cfg);
    let program = ScanProgram::default();
    let (states, stats) = tuned.run(&program, Init::All)?;
    let mut best = (VertexId(0), 0u64);
    for (i, s) in states.iter().enumerate() {
        if let Some(scan) = s.scan {
            if scan > best.1 {
                best = (VertexId::from_index(i), scan);
            }
        }
    }
    Ok((
        ScanResult {
            max_scan: best.1,
            argmax: best.0,
            pruned_no_io: program.pruned_no_io.get(),
            pruned_after_own: program.pruned_after_own.get(),
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen};
    use flashgraph::Engine;

    #[test]
    fn star_max_is_center_degree() {
        let g = fixtures::star(9);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (res, _) = scan_statistics(&engine).unwrap();
        assert_eq!(res.max_scan, 9);
        assert_eq!(res.argmax, VertexId(0));
    }

    #[test]
    fn complete_graph_scan() {
        let g = fixtures::complete(6);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (res, _) = scan_statistics(&engine).unwrap();
        // deg 5 + C(5,2) = 15 edges in every closed neighbourhood.
        assert_eq!(res.max_scan, 15);
    }

    #[test]
    fn matches_direct_on_symmetrized_rmat() {
        let d = gen::rmat(7, 5, gen::RmatSkew::default(), 55);
        let mut b = fg_graph::GraphBuilder::undirected();
        for (s, t) in d.edges() {
            b.add_edge(s, t);
        }
        let g = b.build();
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (res, _) = scan_statistics(&engine).unwrap();
        let (_, want) = fg_baselines::direct::scan_statistics(&g);
        assert_eq!(res.max_scan, want);
    }

    #[test]
    fn pruning_skips_most_of_a_power_law_graph() {
        let d = gen::rmat(9, 6, gen::RmatSkew::social(), 3);
        let mut b = fg_graph::GraphBuilder::undirected();
        for (s, t) in d.edges() {
            b.add_edge(s, t);
        }
        let g = b.build();
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (res, _) = scan_statistics(&engine).unwrap();
        let pruned = res.pruned_no_io + res.pruned_after_own;
        assert!(
            pruned > g.num_vertices() as u64 / 2,
            "degree-first scheduling should prune most vertices ({pruned} of {})",
            g.num_vertices()
        );
        // Pruning must not change the answer.
        let (_, want) = fg_baselines::direct::scan_statistics(&g);
        assert_eq!(res.max_scan, want);
    }
}
