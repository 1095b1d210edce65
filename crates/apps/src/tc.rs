//! Triangle counting (§4): the paper's less-common I/O pattern — a
//! vertex reads the edge lists of *many other vertices*. Each vertex
//! `u` intersects its own list with each higher-id neighbour `w`'s
//! list; a triangle `u < w < x` is counted exactly once, at `u`, and
//! `u` notifies `w` and `x` by message so every vertex learns its own
//! triangle count (the paper's design).
//!
//! With vertical partitioning configured
//! ([`flashgraph::EngineConfig::vertical_parts`] > 1), pass `j`
//! restricts `u`'s requests to neighbours in the `j`-th slice of the
//! id space, so concurrently running hubs touch the same region of
//! SSDs and share page-cache hits (§3.8, Figure 7).

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
///
/// The state is *pass-order independent*: under the pipelined
/// scheduler a vertex's vertical passes may interleave with the
/// deliveries of earlier passes (only per-callback atomicity is
/// guaranteed), so the own list is requested exactly once, passes
/// that run before it lands park themselves in `deferred`, and
/// `pending_edges` accumulates across passes instead of being
/// re-armed per pass.
#[derive(Debug, Default)]
pub struct TcState {
    /// Triangles counted at or reported to this vertex.
    pub triangles: u64,
    /// Transient filtered adjacency (entries `> v`), held until every
    /// pass has fanned out and all intersections finished.
    own: Option<Box<[u32]>>,
    /// Neighbour-list edges still to arrive, over all passes in
    /// flight.
    pending_edges: u64,
    /// Passes whose `run` happened before the own list arrived.
    deferred: Vec<u32>,
    /// Passes that have fanned out their neighbour requests.
    fanned: u32,
}

impl TcProgram {
    /// Fans out pass `part`'s neighbour requests against the held
    /// own list. The intersection filter keeps ids above v
    /// only: a triangle u < w < x is counted at u, so entries ≤ v
    /// can never match; pass `part` additionally restricts the
    /// requests to the `part`-th slice of the id space (§3.8).
    fn fan_out(&self, state: &mut TcState, part: u32, ctx: &mut VertexContext<'_, u32>) {
        let (_, parts) = ctx.vertical_part();
        let n = ctx.num_vertices() as u64;
        let span = n.div_ceil(parts as u64).max(1);
        let lo = (part as u64 * span) as u32;
        let hi = ((part as u64 + 1) * span).min(n) as u32;
        let own = state.own.as_deref().expect("own list held before fan-out");
        // A neighbour with no out-edges (a sink of a directed image)
        // has nothing to intersect and is not asked for: its empty
        // delivery would add nothing to `pending_edges`, so it could
        // arrive after `own` was released.
        let wanted: Vec<(u32, u64)> = own
            .iter()
            .filter(|&&w| w >= lo && w < hi)
            .map(|&w| (w, ctx.degree(VertexId(w), EdgeDir::Out)))
            .filter(|&(_, d)| d > 0)
            .collect();
        state.fanned += 1;
        state.pending_edges += wanted.iter().map(|&(_, d)| d).sum::<u64>();
        for &(w, _) in &wanted {
            ctx.request(VertexId(w), Request::edges(EdgeDir::Out));
        }
        Self::maybe_release(state, ctx);
    }

    /// Releases the transient adjacency once every pass has fanned
    /// out and no neighbour slice is outstanding.
    fn maybe_release(state: &mut TcState, ctx: &VertexContext<'_, u32>) {
        let (_, parts) = ctx.vertical_part();
        if state.fanned >= parts && state.pending_edges == 0 {
            state.own = None;
        }
    }
}

impl VertexProgram for TcProgram {
    type State = TcState;
    type Msg = u32; // triangle-count increments for a corner

    fn run(&self, v: VertexId, state: &mut TcState, ctx: &mut VertexContext<'_, u32>) {
        // Skip vertices that cannot close a triangle.
        let d = ctx.degree(v, EdgeDir::Out);
        if d < 2 {
            return;
        }
        let (part, _) = ctx.vertical_part();
        if state.own.is_some() {
            // The own list already arrived (an earlier pass fetched
            // it): fan this pass's slice out directly.
            self.fan_out(state, part, ctx);
        } else {
            // First pass to run requests the own list, once; every
            // pass that runs before it lands (later passes always do
            // under the pipelined scheduler) defers its fan-out to
            // the own-list callback.
            if state.deferred.is_empty() {
                ctx.request(v, Request::edges(EdgeDir::Out));
            }
            state.deferred.push(part);
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut TcState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, u32>,
    ) {
        if vertex.id() == v && state.own.is_none() {
            // The own list, in one delivery: keep its sorted tail
            // above v (one allocation, sized exactly), then run the
            // fan-out of every pass that executed while it was in
            // flight.
            let mut edges = vertex.edges().peekable();
            while edges.next_if(|w| w.0 <= v.0).is_some() {}
            let mut above = Vec::with_capacity(edges.len());
            above.extend(edges.map(|w| w.0));
            state.own = Some(above.into_boxed_slice());
            for part in std::mem::take(&mut state.deferred) {
                self.fan_out(state, part, ctx);
            }
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
            Self::maybe_release(state, ctx);
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
    fn vertical_partitioning_same_answer() {
        let g = fixtures::complete(10);
        for parts in [1u32, 2, 4] {
            let cfg = EngineConfig {
                vertical_parts: parts,
                ..EngineConfig::small()
            };
            let engine = Engine::new_mem(&g, cfg);
            let (total, _, _) = triangle_count(&engine, false).unwrap();
            assert_eq!(total, 120, "parts={parts}"); // C(10,3)
        }
    }

    #[test]
    fn no_notify_total_matches() {
        let g = fixtures::complete(6);
        let engine = Engine::new_mem(&g, EngineConfig::small());
        let (total, _, _) = triangle_count(&engine, false).unwrap();
        assert_eq!(total, 20);
    }
}
