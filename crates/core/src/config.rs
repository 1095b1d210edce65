//! Engine configuration.

use fg_types::EdgeDir;

/// How a worker thread orders the active vertices of its partition
/// before processing them (§3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Ascending vertex id — matches edge-list order on SSDs, so the
    /// request stream is (mostly) sequential and merges well. The
    /// paper's default.
    ById,
    /// Ascending id on even iterations, descending on odd ones: pages
    /// touched at the end of one iteration are touched first in the
    /// next, helping the page cache (§3.7). Used for algorithms whose
    /// convergence is order-independent.
    Alternating,
    /// Deterministic pseudo-random order seeded per iteration — the
    /// "random execution" configuration of Figure 12, which shows how
    /// much performance sequential I/O ordering buys.
    Random(u64),
    /// Descending degree in the given direction-of-interest: scan
    /// statistics schedules large vertices first so it can prune the
    /// rest (§3.7, §4). [`EdgeDir::Both`] (the conservative default)
    /// ranks by total degree; algorithms that only ever read one
    /// list — scan statistics and triangle counting read out-lists —
    /// pass that direction so hubs are ranked by the degree that
    /// actually drives their I/O and pruning power.
    DegreeDescending(EdgeDir),
}

/// Tunables of an [`crate::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. Zero means use available parallelism.
    pub num_threads: usize,
    /// Range shift `r` of the horizontal partition function
    /// `(vid >> r) % num_threads` (§3.8). Zero means pick
    /// automatically from the graph size. The paper found 12–18 works
    /// well for 100 M-vertex graphs.
    pub range_shift: u32,
    /// Maximum outstanding edge-list requests per worker. The paper
    /// saw no benefit past 4000 running vertices per thread.
    pub max_pending: usize,
    /// Requests accumulated before a sort-and-merge flush.
    pub issue_batch: usize,
    /// Merge requests inside the engine before they reach SAFS
    /// (§3.6). Turning this off reproduces the "merge in SAFS" and
    /// "no merging" rows of Figure 12.
    pub merge_in_engine: bool,
    /// Upper bound in bytes on one merged I/O request. Without a cap a
    /// well-sorted issue batch coalesces into a single giant device
    /// read that lands on one drive and serializes the array; the cap
    /// splits such covers so they stripe. A single request larger than
    /// the cap still issues whole. Zero means unlimited.
    pub max_merge_bytes: u64,
    /// Vertex ordering policy.
    pub scheduler: SchedulerKind,
    /// Vertical passes per iteration (§3.8): programs see
    /// `ctx.vertical_part()` and can restrict each pass to a slice of
    /// the neighbour space, improving cache reuse for hub-heavy
    /// algorithms like triangle counting.
    pub vertical_parts: u32,
    /// Hard iteration cap (safety net; algorithms normally converge).
    pub max_iterations: u32,
}

impl EngineConfig {
    /// Scales `max_pending` and batch sizes down for unit tests.
    pub fn small() -> Self {
        EngineConfig {
            num_threads: 2,
            max_pending: 16,
            issue_batch: 4,
            ..Self::default()
        }
    }

    /// Builder-style: sets the worker-thread count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builder-style: sets the scheduler.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Builder-style: toggles engine-side merging.
    pub fn with_engine_merge(mut self, on: bool) -> Self {
        self.merge_in_engine = on;
        self
    }

    /// The merged-request cap as [`crate::merge::merge_requests`]
    /// expects it: the configured bytes, or effectively-infinite when
    /// the knob is 0.
    pub fn resolved_max_merge_bytes(&self) -> u64 {
        if self.max_merge_bytes == 0 {
            crate::merge::UNLIMITED_MERGE_BYTES
        } else {
            self.max_merge_bytes
        }
    }

    /// Builder-style: sets vertical passes.
    pub fn with_vertical_parts(mut self, v: u32) -> Self {
        self.vertical_parts = v.max(1);
        self
    }

    /// Resolved thread count.
    pub fn threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.num_threads
        }
    }

    /// Resolved range shift for a graph of `n` vertices: the paper's
    /// guidance adapted to small graphs — enough ranges per partition
    /// (≥ 8) for stealing granularity, ranges at least 256 vertices
    /// when the graph affords it. An explicit shift wins, clamped to
    /// the smallest `r` with `2^r ≥ n`: any larger shift means the same
    /// thing — one range holds every vertex — and would overflow the
    /// range arithmetic.
    pub fn resolve_range_shift(&self, n: usize) -> u32 {
        if self.range_shift != 0 {
            return self.range_shift.min(n.next_power_of_two().trailing_zeros());
        }
        let threads = self.threads().max(1);
        let target_ranges = threads * 8;
        let mut r = 0u32;
        while (n >> (r + 1)) >= target_ranges && r < 18 {
            r += 1;
        }
        r
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_threads: 0,
            range_shift: 0,
            max_pending: 4000,
            issue_batch: 256,
            merge_in_engine: true,
            // A few MB: large enough that merging still amortizes
            // request overhead, small enough that one cover cannot
            // monopolize a drive (a couple of stripes on the paper's
            // array geometry).
            max_merge_bytes: 4 << 20,
            scheduler: SchedulerKind::Alternating,
            vertical_parts: 1,
            max_iterations: u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resolves_threads() {
        assert!(EngineConfig::default().threads() >= 1);
        assert_eq!(EngineConfig::default().with_threads(3).threads(), 3);
    }

    #[test]
    fn explicit_range_shift_wins() {
        let c = EngineConfig {
            range_shift: 14,
            ..EngineConfig::default()
        };
        assert_eq!(c.resolve_range_shift(1 << 20), 14);
        // Past one range for the whole graph, clamped to that range.
        for r in [40, 62, 63, 64, u32::MAX] {
            let c = EngineConfig {
                range_shift: r,
                ..EngineConfig::default()
            };
            assert_eq!(c.resolve_range_shift(1000), 10, "r={r}");
            assert_eq!(c.resolve_range_shift(1 << 20), 20, "r={r}");
            assert_eq!(c.resolve_range_shift(1), 0, "r={r}");
        }
    }

    #[test]
    fn auto_range_shift_scales_with_graph() {
        let c = EngineConfig::default().with_threads(4);
        let small = c.resolve_range_shift(1 << 10);
        let large = c.resolve_range_shift(1 << 24);
        assert!(large > small);
        assert!(large <= 18, "paper's upper guidance");
        // Enough ranges for stealing even on tiny graphs.
        assert!((1usize << 10) >> small >= 4 * 4);
    }

    #[test]
    fn merge_cap_defaults_and_resolves() {
        let c = EngineConfig::default();
        assert_eq!(c.max_merge_bytes, 4 << 20);
        assert_eq!(c.resolved_max_merge_bytes(), 4 << 20);
        let unlimited = EngineConfig {
            max_merge_bytes: 0,
            ..c
        };
        assert_eq!(
            unlimited.resolved_max_merge_bytes(),
            crate::merge::UNLIMITED_MERGE_BYTES
        );
    }

    #[test]
    fn vertical_parts_never_zero() {
        assert_eq!(
            EngineConfig::default()
                .with_vertical_parts(0)
                .vertical_parts,
            1
        );
    }
}
