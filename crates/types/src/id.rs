//! Vertex identifiers.

use std::fmt;

/// A vertex identifier.
///
/// FlashGraph uses dense 32-bit vertex ids: the vertices of a graph
/// with `n` vertices are exactly `0..n`. 32 bits suffice for the
/// paper's largest graph (3.4 billion vertices, below `u32::MAX`),
/// and keeping ids at four bytes halves the size of edge lists on
/// SSDs compared to 64-bit ids — the external-memory representation
/// is deliberately compact (§3.5.2 of the paper).
///
/// `VertexId` is a transparent newtype so it can be reinterpreted as
/// raw `u32` in on-disk edge lists.
///
/// # Example
///
/// ```
/// use fg_types::VertexId;
///
/// let v = VertexId(7);
/// assert_eq!(v.index(), 7usize);
/// assert_eq!(VertexId::from_index(7), v);
/// assert_eq!(format!("{v}"), "7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the id as a `usize` index into per-vertex arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not fit in `u32`.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        assert!(idx <= u32::MAX as usize, "vertex index {idx} overflows u32");
        VertexId(idx as u32)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u32 {
    fn from(v: VertexId) -> Self {
        v.0
    }
}

impl From<VertexId> for usize {
    fn from(v: VertexId) -> Self {
        v.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for raw in [0u32, 1, 17, u32::MAX - 1] {
            let v = VertexId(raw);
            assert_eq!(VertexId::from_index(v.index()), v);
        }
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(VertexId(0) < VertexId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn from_index_panics_on_overflow() {
        let _ = VertexId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn display_matches_raw() {
        assert_eq!(VertexId(42).to_string(), "42");
    }

    #[test]
    fn conversions() {
        let v: VertexId = 9u32.into();
        let raw: u32 = v.into();
        let idx: usize = v.into();
        assert_eq!(raw, 9);
        assert_eq!(idx, 9);
    }

    #[test]
    fn is_transparent_u32() {
        assert_eq!(std::mem::size_of::<VertexId>(), std::mem::size_of::<u32>());
        assert_eq!(
            std::mem::align_of::<VertexId>(),
            std::mem::align_of::<u32>()
        );
    }
}
