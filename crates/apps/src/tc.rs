//! Triangle counting (§4): the paper's less-common I/O pattern — a
//! vertex reads the edge lists of *many other vertices*. Each vertex
//! `u` intersects its own list with each higher-id neighbour `w`'s
//! list; a triangle `u < w < x` is counted exactly once, at `u`, and
//! `u` notifies `w` and `x` by message so every vertex learns its own
//! triangle count (the paper's design).

use fg_types::{EdgeDir, Result, VertexId};
use flashgraph::{
    EngineConfig, GraphEngine, Init, PageVertex, Request, RunStats, SchedulerKind, VertexContext,
    VertexProgram,
};

/// The triangle-counting vertex program (undirected graphs).
#[derive(Debug, Clone, Copy)]
pub struct TcProgram {
    /// Whether to notify the other two corners of each triangle via
    /// messages (needed for per-vertex counts; the global total works
    /// without).
    pub notify: bool,
}

/// Per-vertex TC state.
///
/// `own` holds the vertex's adjacency only while its intersections
/// are in flight — and only the entries that can still close a
/// triangle (ids above `v`), so the transient copy shrinks with the
/// filter instead of mirroring the hub's whole list.
#[derive(Debug, Default)]
pub struct TcState {
    /// Triangles counted at or reported to this vertex.
    pub triangles: u64,
    /// Transient filtered adjacency (entries `> v`), held until all
    /// intersections finished.
    own: Option<Box<[u32]>>,
    /// Neighbour-list edges still to arrive.
    pending_edges: u64,
}

impl TcProgram {
    /// Requests the list of every neighbour in the held own list. The
    /// intersection filter keeps ids above v only: a triangle
    /// u < w < x is counted at u, so entries ≤ v can never match.
    fn fan_out(state: &mut TcState, ctx: &mut VertexContext<'_, u32>) {
        let own = state.own.as_deref().expect("own list held before fan-out");
        // A neighbour with no out-edges (a sink of a directed image)
        // has nothing to intersect and is not asked for: its empty
        // delivery would add nothing to `pending_edges`, so it could
        // arrive after `own` was released.
        for &w in own {
            let d = ctx.degree(VertexId(w), EdgeDir::Out);
            if d > 0 {
                state.pending_edges += d;
                ctx.request(VertexId(w), Request::edges(EdgeDir::Out));
            }
        }
        Self::maybe_release(state);
    }

    /// Releases the transient adjacency once no neighbour slice is
    /// outstanding.
    fn maybe_release(state: &mut TcState) {
        if state.pending_edges == 0 {
            state.own = None;
        }
    }
}

impl VertexProgram for TcProgram {
    type State = TcState;
    type Msg = u32; // triangle-count increments for a corner

    fn run(&self, v: VertexId, _state: &mut TcState, ctx: &mut VertexContext<'_, u32>) {
        // Skip vertices that cannot close a triangle.
        if ctx.degree(v, EdgeDir::Out) >= 2 {
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut TcState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, u32>,
    ) {
        if vertex.id() == v {
            // The own list, in one delivery: keep its sorted tail
            // above v (one allocation, sized exactly), then fan out.
            let mut edges = vertex.edges().peekable();
            while edges.next_if(|w| w.0 <= v.0).is_some() {}
            let mut above = Vec::with_capacity(edges.len());
            above.extend(edges.map(|w| w.0));
            state.own = Some(above.into_boxed_slice());
            Self::fan_out(state, ctx);
        } else {
            // A neighbour's list: count common neighbours above w
            // against the filtered own copy.
            let w = vertex.id();
            let own = state.own.as_deref().expect("own list held while pending");
            let mut i = 0usize;
            for x in vertex.edges() {
                if x <= w {
                    continue;
                }
                while i < own.len() && own[i] < x.0 {
                    i += 1;
                }
                if i < own.len() && own[i] == x.0 {
                    state.triangles += 1;
                    if self.notify {
                        ctx.send(w, 1);
                        ctx.send(x, 1);
                    }
                    i += 1;
                }
            }
            state.pending_edges -= vertex.degree() as u64;
            Self::maybe_release(state);
        }
    }

    fn run_on_message(
        &self,
        _v: VertexId,
        state: &mut TcState,
        msg: &u32,
        _ctx: &mut VertexContext<'_, u32>,
    ) {
        state.triangles += *msg as u64;
    }
}

/// Counts triangles; returns `(total, per_vertex, stats)`. Per-vertex
/// counts (each triangle at all three corners) are only meaningful
/// with `notify` true.
///
/// # Errors
///
/// Propagates engine errors.
pub fn triangle_count<E: GraphEngine>(
    engine: &E,
    notify: bool,
) -> Result<(u64, Vec<u64>, RunStats)> {
    // Hubs first, ranked by the out-degree TC actually reads (§3.7):
    // the heaviest intersections start — and their neighbour-list I/O
    // overlaps — while the long low-degree tail computes.
    let cfg = EngineConfig {
        scheduler: SchedulerKind::DegreeDescending(EdgeDir::Out),
        ..*engine.config()
    };
    let tuned = engine.reconfigured(cfg);
    let (states, stats) = tuned.run(&TcProgram { notify }, Init::All)?;
    let per: Vec<u64> = states.iter().map(|s| s.triangles).collect();
    // Each triangle was counted once at its smallest corner; with
    // notify, corners got +1 each, so the raw sum counts each triangle
    // three times.
    let total = if notify {
        per.iter().sum::<u64>() / 3
    } else {
        per.iter().sum()
    };
    Ok((total, per, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen};
    use flashgraph::{Engine, EngineConfig};
    #[test]
    fn complete_graph_counts() {
        let g = fixtures::complete(8);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (total, per, _) = triangle_count(&engine, true).unwrap();
        assert_eq!(total, 56); // C(8,3)
        assert!(per.iter().all(|&c| c == 21)); // C(7,2)
    }

    #[test]
    fn star_has_no_triangles() {
        let g = fixtures::star(12);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (total, per, _) = triangle_count(&engine, true).unwrap();
        assert_eq!(total, 0);
        assert!(per.iter().all(|&c| c == 0));
    }

    #[test]
    fn matches_direct_on_symmetrized_rmat() {
        let d = gen::rmat(7, 6, gen::RmatSkew::default(), 31);
        let mut b = fg_graph::GraphBuilder::undirected();
        for (s, t) in d.edges() {
            b.add_edge(s, t);
        }
        let g = b.build();
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (total, per, _) = triangle_count(&engine, true).unwrap();
        assert_eq!(total, fg_baselines::direct::triangle_count(&g));
        assert_eq!(per, fg_baselines::direct::triangles_per_vertex(&g));
    }

    #[test]
    fn no_notify_total_matches() {
        let g = fixtures::complete(6);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (total, _, _) = triangle_count(&engine, false).unwrap();
        assert_eq!(total, 20);
    }
}
