//! The image writer's input: a [`ListSource`] — a [`Graph`], or an old
//! image merged with a delta view ([`crate::ImageLists`]).

use std::ops::Range;

use fg_graph::Graph;
use fg_types::{EdgeDir, Result, VertexId};

/// The most lists one [`ListRun`] of a built-in source holds.
pub(crate) const RUN_LISTS: usize = 1024;

/// Consecutive lists of one direction as one contiguous entry run.
#[derive(Debug, Clone, Copy)]
pub struct ListRun<'a> {
    /// One more than the run's lists, ascending; list `i`'s entries are
    /// `offsets[i] - offsets[0]..offsets[i + 1] - offsets[0]` of `ids`.
    pub offsets: &'a [u64],
    /// The lists' entries, back to back.
    pub ids: &'a [VertexId],
    /// Parallel to `ids`, when the source is weighted.
    pub weights: Option<&'a [f32]>,
}

impl<'a> ListRun<'a> {
    /// Where each list's entries sit in `ids` (and `weights`), in order.
    pub fn spans(&self) -> impl Iterator<Item = Range<usize>> + 'a {
        let base = self.offsets[0];
        (self.offsets.windows(2)).map(move |w| (w[0] - base) as usize..(w[1] - base) as usize)
    }
}

/// What [`ListSource::runs`] hands each run to.
pub type RunSink<'a> = &'a mut dyn FnMut(ListRun<'_>) -> Result<()>;

/// A graph as the image writer reads it: its shape, the entry count of
/// any window of lists (which sizes a device before a list is read),
/// and each direction's sorted lists in id order. An undirected source
/// answers every direction with its one set of lists.
pub trait ListSource {
    fn num_vertices(&self) -> usize;
    fn is_directed(&self) -> bool;
    fn has_weights(&self) -> bool;
    /// Total entries of the `dir` lists of the vertices in `vs`.
    fn entries(&self, dir: EdgeDir, vs: Range<usize>) -> u64;
    /// Hands the `dir` lists of the vertices in `vs` to `each` in id
    /// order, as runs of consecutive lists; fails with the source's read
    /// errors, or the first error `each` returns.
    fn runs(&self, dir: EdgeDir, vs: Range<usize>, each: RunSink<'_>) -> Result<()>;
}

/// A run is a window of the CSR's offset, neighbour and weight arrays.
impl ListSource for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }
    fn is_directed(&self) -> bool {
        Graph::is_directed(self)
    }
    fn has_weights(&self) -> bool {
        Graph::has_weights(self)
    }
    fn entries(&self, dir: EdgeDir, vs: Range<usize>) -> u64 {
        let off = self.csr(dir).offsets();
        off[vs.end] - off[vs.start]
    }
    fn runs(&self, dir: EdgeDir, vs: Range<usize>, each: RunSink<'_>) -> Result<()> {
        let csr = self.csr(dir);
        for lo in vs.clone().step_by(RUN_LISTS) {
            let offsets = &csr.offsets()[lo..=(lo + RUN_LISTS).min(vs.end)];
            let entries = offsets[0] as usize..offsets[offsets.len() - 1] as usize;
            let ids = &csr.neighbor_array()[entries.clone()];
            let weights = csr.weight_array().map(|w| &w[entries]);
            each(ListRun {
                offsets,
                ids,
                weights,
            })?;
        }
        Ok(())
    }
}
