//! Horizontal range partitioning (§3.8).
//!
//! The partition function is the paper's:
//!
//! ```text
//! range_id     = vid >> r
//! partition_id = range_id % n
//! ```
//!
//! so a partition is a union of vertex-id *ranges* of size `2^r`.
//! Ranges keep the edge lists of a partition's vertices mostly
//! adjacent on SSDs (lists are sorted by id), which is what lets a
//! per-thread scheduler issue large merged reads (§3.8).
//!
//! Sharded execution adds a *window*: a shard's engine partitions only
//! its own contiguous global id range `[lo, hi)` across its workers,
//! applying the formula to the window-relative id `vid - lo`. The
//! classic whole-graph map is the `[0, n)` window.

use fg_types::VertexId;

/// The horizontal partition map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// First global vertex id of the window.
    lo: usize,
    /// One past the last global vertex id of the window.
    hi: usize,
    num_partitions: usize,
    /// The range shift `r`: ranges are `2^r` vertices.
    shift: u32,
}

impl PartitionMap {
    /// Builds a map over the global id window `[lo, hi)` with range
    /// size `2^shift` — a shard's engine windows its own ids so
    /// its workers only ever own (and collect) the shard's vertices;
    /// an unsharded engine's window is `[0, n)`.
    pub fn new_window(lo: usize, hi: usize, num_partitions: usize, shift: u32) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        assert!(lo <= hi, "window bounds out of order");
        PartitionMap {
            lo,
            hi,
            num_partitions,
            shift,
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Range size in vertices.
    #[inline]
    pub(crate) fn range_len(&self) -> usize {
        1usize << self.shift
    }

    /// The partition owning `v` (which must lie inside the window).
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        debug_assert!(
            (self.lo..self.hi).contains(&v.index()),
            "{v} outside partition window {}..{}",
            self.lo,
            self.hi
        );
        ((v.index() - self.lo) >> self.shift) % self.num_partitions
    }

    /// Iterates over the half-open global vertex-index ranges of
    /// partition `p`, ascending.
    pub fn ranges_of(&self, p: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let rl = self.range_len();
        let (lo, hi) = (self.lo, self.hi);
        (p..)
            .step_by(self.num_partitions)
            .map(move |range_id| {
                let start = lo + range_id * rl;
                start..((start + rl).min(hi))
            })
            .take_while(move |r| r.start < hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total vertices assigned to partition `p`.
    fn partition_len(m: &PartitionMap, p: usize) -> usize {
        m.ranges_of(p).map(|r| r.len()).sum()
    }

    #[test]
    fn partition_function_matches_paper_formula() {
        let m = PartitionMap::new_window(0, 1000, 4, 5);
        for vid in [0u32, 31, 32, 63, 64, 999] {
            let expect = ((vid >> 5) % 4) as usize;
            assert_eq!(m.partition_of(VertexId(vid)), expect);
        }
    }

    #[test]
    fn ranges_cover_every_vertex_exactly_once() {
        let m = PartitionMap::new_window(0, 1003, 3, 4);
        let mut seen = vec![0u32; 1003];
        for p in 0..3 {
            for r in m.ranges_of(p) {
                for v in r {
                    seen[v] += 1;
                    assert_eq!(m.partition_of(VertexId(v as u32)), p);
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn partition_lens_sum_to_n() {
        let m = PartitionMap::new_window(0, 12345, 7, 6);
        let total: usize = (0..7).map(|p| partition_len(&m, p)).sum();
        assert_eq!(total, 12345);
    }

    #[test]
    fn partitions_are_balanced_within_one_range() {
        let m = PartitionMap::new_window(0, 1 << 16, 4, 8);
        let lens: Vec<usize> = (0..4).map(|p| partition_len(&m, p)).collect();
        let max = *lens.iter().max().unwrap();
        let min = *lens.iter().min().unwrap();
        assert!(max - min <= m.range_len());
    }

    #[test]
    fn single_partition_owns_everything() {
        let m = PartitionMap::new_window(0, 100, 1, 3);
        assert_eq!(partition_len(&m, 0), 100);
        for v in 0..100u32 {
            assert_eq!(m.partition_of(VertexId(v)), 0);
        }
    }

    #[test]
    fn empty_graph_has_empty_ranges() {
        let m = PartitionMap::new_window(0, 0, 2, 4);
        assert_eq!(m.ranges_of(0).count(), 0);
        assert_eq!(partition_len(&m, 1), 0);
    }

    #[test]
    fn window_map_covers_exactly_the_window() {
        let m = PartitionMap::new_window(100, 357, 3, 4);
        let mut seen = vec![0u32; 357];
        for p in 0..3 {
            for r in m.ranges_of(p) {
                assert!(r.start >= 100 && r.end <= 357);
                for v in r {
                    seen[v] += 1;
                    assert_eq!(m.partition_of(VertexId(v as u32)), p);
                }
            }
        }
        assert!(seen[..100].iter().all(|&c| c == 0));
        assert!(seen[100..].iter().all(|&c| c == 1));
        let total: usize = (0..3).map(|p| partition_len(&m, p)).sum();
        assert_eq!(total, 257);
    }

    #[test]
    fn window_map_matches_shifted_global_map() {
        // A `[lo, hi)` window behaves exactly like a `[0, hi - lo)`
        // map on shifted ids — the invariant that makes a 1-shard run
        // reproduce the unsharded partitioning bit for bit.
        let global = PartitionMap::new_window(0, 500, 4, 5);
        let window = PartitionMap::new_window(1000, 1500, 4, 5);
        for v in 0..500u32 {
            assert_eq!(
                global.partition_of(VertexId(v)),
                window.partition_of(VertexId(v + 1000))
            );
        }
        for p in 0..4 {
            let a: Vec<_> = global.ranges_of(p).collect();
            let b: Vec<_> = window
                .ranges_of(p)
                .map(|r| r.start - 1000..r.end - 1000)
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_window_has_no_ranges() {
        let m = PartitionMap::new_window(64, 64, 2, 3);
        assert_eq!(m.ranges_of(0).count(), 0);
        assert_eq!(partition_len(&m, 1), 0);
    }
}
