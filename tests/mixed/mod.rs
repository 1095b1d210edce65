//! `ListProbe` over a `mixed_frontier`, shared by the suites that hold
//! the sweep to the in-memory engine: a frontier whose claimed runs
//! sweep in one half of the ids and select in the other, in one
//! iteration.
//!
//! `tests/prop_pipeline.rs` and `tests/prop_shard.rs` take it as
//! `mod mixed;`.

use fg_types::{EdgeDir, VertexId};
use flashgraph::{PageVertex, Request, VertexContext, VertexProgram};

/// A frontier dense in some id ranges and scattered in others: every
/// vertex of `[0, n/2)` and every `stride`-th vertex of `[n/2, n)`. Over
/// a power-of-two `n` the dense half is whole partition ranges, so its
/// claimed runs ask for every list in their span and sweep, while the
/// scattered half's runs ask for about one list in `stride` and select.
pub fn mixed_frontier(n: u32, stride: u32) -> Vec<VertexId> {
    let half = n / 2;
    let scattered = (half..n).step_by(stride as usize);
    (0..half).chain(scattered).map(VertexId).collect()
}

/// Asks, in the iteration it first runs, for its own out-list and its
/// own in-list, and records every delivery: `(out?, offset, edges)`.
pub struct ListProbe;

/// What one vertex received, in arrival order.
#[derive(Default, Clone, Debug, PartialEq)]
pub struct ListState {
    pub started: bool,
    pub got: Vec<(bool, u64, Vec<u32>)>,
}

impl ListState {
    /// The deliveries in direction, then offset, order.
    pub fn sorted(&self) -> Vec<(bool, u64, Vec<u32>)> {
        let mut got = self.got.clone();
        got.sort();
        got
    }
}

impl VertexProgram for ListProbe {
    type State = ListState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut ListState, ctx: &mut VertexContext<'_, ()>) {
        if !state.started {
            state.started = true;
            ctx.request(v, Request::edges(EdgeDir::Both));
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut ListState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert_eq!(vertex.id(), v);
        let edges = vertex.edges().map(|e| e.0).collect();
        let out = vertex.dir() == EdgeDir::Out;
        state.got.push((out, vertex.offset(), edges));
    }
}
