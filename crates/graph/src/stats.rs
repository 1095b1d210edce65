//! Diameter estimation: the in-memory reference for the engine's
//! diameter app.

use std::collections::VecDeque;

use fg_types::VertexId;

use crate::csr::Graph;

/// Estimates the diameter of `g` ignoring edge direction, the way
/// Table 1 of the paper reports diameters.
///
/// Uses the classic double-sweep lower bound: BFS from `probes` seed
/// vertices, then BFS again from the farthest vertex found, keeping
/// the largest eccentricity seen. Exact on trees and paths; a lower
/// bound elsewhere.
pub fn estimate_diameter(g: &Graph, probes: usize, seed: u64) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    // Deterministic pseudo-random probe sequence (LCG) — avoids a rand
    // dependency here and keeps the estimate reproducible.
    let mut state = seed | 1;
    let mut next_probe = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    for _ in 0..probes.max(1) {
        let start = VertexId::from_index(next_probe());
        let (far, dist) = bfs_farthest_undirected(g, start);
        best = best.max(dist);
        let (_, dist2) = bfs_farthest_undirected(g, far);
        best = best.max(dist2);
    }
    best
}

/// BFS over the union of in- and out-edges; returns the farthest
/// reached vertex and its distance.
fn bfs_farthest_undirected(g: &Graph, start: VertexId) -> (VertexId, usize) {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    dist[start.index()] = 0;
    q.push_back(start);
    let mut far = (start, 0usize);
    while let Some(v) = q.pop_front() {
        let d = dist[v.index()];
        let mut visit = |u: VertexId| {
            if dist[u.index()] == u32::MAX {
                dist[u.index()] = d + 1;
                if (d + 1) as usize > far.1 {
                    far = (u, (d + 1) as usize);
                }
                q.push_back(u);
            }
        };
        for &u in g.out_neighbors(v) {
            visit(u);
        }
        if g.is_directed() {
            for &u in g.in_neighbors(v) {
                visit(u);
            }
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn diameter_of_path_is_exact() {
        let g = fixtures::path(10);
        assert_eq!(estimate_diameter(&g, 2, 42), 9);
    }

    #[test]
    fn diameter_of_cycle_is_half() {
        let g = fixtures::cycle(10);
        // Undirected view of a 10-cycle has diameter 5.
        assert_eq!(estimate_diameter(&g, 4, 42), 5);
    }

    #[test]
    fn diameter_of_star_is_two() {
        let g = fixtures::star(20);
        assert_eq!(estimate_diameter(&g, 3, 1), 2);
    }

    #[test]
    fn diameter_empty_graph_is_zero() {
        let g = crate::builder::GraphBuilder::directed().build();
        assert_eq!(estimate_diameter(&g, 3, 1), 0);
    }
}
