//! Edge directions.

use std::fmt;

/// Which edge list of a directed vertex an operation touches.
///
/// FlashGraph stores the in-edge and out-edge lists of a vertex
/// *separately* on SSDs (§3.5.2): many algorithms need only one
/// direction (BFS and PageRank read out-edges only) and storing the
/// lists together would force them to read twice the data. Algorithms
/// that need both (WCC, triangle counting, betweenness centrality)
/// request both lists; FlashGraph's request merging keeps the extra
/// request count manageable.
///
/// # Example
///
/// ```
/// use fg_types::EdgeDir;
///
/// let both: Vec<_> = EdgeDir::Both.singles().collect();
/// assert_eq!(both, vec![EdgeDir::In, EdgeDir::Out]);
/// assert_eq!(EdgeDir::Out.to_string(), "out");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDir {
    /// The in-edge list: sources of edges pointing at the vertex.
    In,
    /// The out-edge list: destinations of edges leaving the vertex.
    Out,
    /// Both lists.
    Both,
}

impl EdgeDir {
    /// Iterates over the single directions included in `self`
    /// (`Both` yields `In` then `Out`).
    pub fn singles(self) -> impl Iterator<Item = EdgeDir> {
        let (a, b) = match self {
            EdgeDir::In => (Some(EdgeDir::In), None),
            EdgeDir::Out => (Some(EdgeDir::Out), None),
            EdgeDir::Both => (Some(EdgeDir::In), Some(EdgeDir::Out)),
        };
        a.into_iter().chain(b)
    }
}

impl fmt::Display for EdgeDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeDir::In => "in",
            EdgeDir::Out => "out",
            EdgeDir::Both => "both",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singles_enumerates_components() {
        let got: Vec<_> = EdgeDir::Both.singles().collect();
        assert_eq!(got, vec![EdgeDir::In, EdgeDir::Out]);
        let got: Vec<_> = EdgeDir::Out.singles().collect();
        assert_eq!(got, vec![EdgeDir::Out]);
    }

    #[test]
    fn display_names() {
        assert_eq!(EdgeDir::In.to_string(), "in");
        assert_eq!(EdgeDir::Out.to_string(), "out");
        assert_eq!(EdgeDir::Both.to_string(), "both");
    }
}
