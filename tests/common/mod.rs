//! `SplitProbe`, shared by the suites that read a list in pieces: a
//! vertex program that asks for its own out-list as explicit ranges of
//! `chunk` edges and records every piece that comes back.
//!
//! The suites beside this directory take it as `mod common;`;
//! `crates/core/tests/engine_behavior.rs` includes it by path.

use fg_types::{EdgeDir, VertexId};
use flashgraph::{PageVertex, Request, VertexContext, VertexProgram};

/// Asks for positions `[k·chunk, (k + 1)·chunk)` of its own out-list
/// for every `k` the list reaches — one request per range, so one
/// callback per range. A zero-degree vertex asks for one empty range.
pub struct SplitProbe {
    pub chunk: u64,
}

/// What one vertex received: `(offset(), edges)` per callback, in
/// arrival order.
#[derive(Default, Clone)]
pub struct SplitState {
    pub pieces: Vec<(u64, Vec<u32>)>,
}

impl SplitState {
    /// The pieces in offset order.
    pub fn sorted(&self) -> Vec<(u64, Vec<u32>)> {
        let mut pieces = self.pieces.clone();
        pieces.sort_by_key(|&(offset, _)| offset);
        pieces
    }
}

impl VertexProgram for SplitProbe {
    type State = SplitState;
    type Msg = ();

    fn run(&self, v: VertexId, _state: &mut SplitState, ctx: &mut VertexContext<'_, ()>) {
        let ranges = ctx.degree(v, EdgeDir::Out).div_ceil(self.chunk).max(1);
        for k in 0..ranges {
            let range = Request::edges(EdgeDir::Out).range(k * self.chunk, self.chunk);
            ctx.request(v, range);
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut SplitState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert_eq!(vertex.id(), v);
        let edges = vertex.edges().map(|e| e.0).collect();
        state.pieces.push((vertex.offset(), edges));
    }
}

/// What `SplitProbe { chunk }` must receive for `list`, in offset
/// order: piece `k` at offset `k·chunk`, holding the list's next
/// `chunk` edges — and one empty piece at 0 for an empty list.
pub fn expected_pieces(list: &[u32], chunk: u64) -> Vec<(u64, Vec<u32>)> {
    if list.is_empty() {
        return vec![(0, Vec::new())];
    }
    list.chunks(chunk as usize)
        .enumerate()
        .map(|(k, piece)| (k as u64 * chunk, piece.to_vec()))
        .collect()
}
