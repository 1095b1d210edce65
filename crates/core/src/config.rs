//! Engine configuration.
//!
//! What the paper fixes is derived, not configured: the range shift `r`
//! of §3.8's partition function follows from the window size and the
//! worker count ([`EngineConfig::partition_shift`]), and the cap on one
//! merged read is a constant ([`crate::merge::MAX_MERGE_BYTES`]).

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
    /// Worker threads. Zero means use available parallelism. The
    /// range shift `r` of the horizontal partition function
    /// `(vid >> r) % num_threads` (§3.8) follows from this and the
    /// graph size ([`EngineConfig::partition_shift`]).
    pub num_threads: usize,
    /// Maximum outstanding edge-list requests per worker. The paper
    /// saw no benefit past 4000 running vertices per thread.
    pub max_pending: usize,
    /// Requests accumulated before a sort-and-merge flush.
    pub issue_batch: usize,
    /// Merge requests inside the engine before they reach SAFS
    /// (§3.6). Turning this off reproduces the "merge in SAFS" and
    /// "no merging" rows of Figure 12.
    pub merge_in_engine: bool,
    /// Vertex ordering policy.
    pub scheduler: SchedulerKind,
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
    /// expects it: [`crate::merge::MAX_MERGE_BYTES`], whatever the
    /// configuration. The engine reads the constant itself; this
    /// method stays only because the ledger's merge probe
    /// (`crates/bench/src/bin/ledger/adapter.rs`) calls it, and goes
    /// once that probe reads the constant too.
    pub fn resolved_max_merge_bytes(&self) -> u64 {
        crate::merge::MAX_MERGE_BYTES
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

    /// The range shift `r` for a window of `n` vertices: the paper's
    /// guidance (it found 12–18 works well for 100 M-vertex graphs)
    /// adapted to small graphs — the largest `r ≤ 18` that still leaves
    /// at least 8 ranges per worker for stealing granularity. So one
    /// range never holds the whole window unless `n` is below
    /// `16 × threads`, where `r` is 0.
    pub fn partition_shift(&self, n: usize) -> u32 {
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
            max_pending: 4000,
            issue_batch: 256,
            merge_in_engine: true,
            scheduler: SchedulerKind::Alternating,
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
    fn auto_range_shift_scales_with_graph() {
        let c = EngineConfig::default().with_threads(4);
        let small = c.partition_shift(1 << 10);
        let large = c.partition_shift(1 << 24);
        assert!(large > small);
        assert!(large <= 18, "paper's upper guidance");
        assert_eq!(c.partition_shift(usize::MAX), 18);
        // Enough ranges for stealing even on tiny graphs.
        assert!((1usize << 10) >> small >= 4 * 4);
    }
}
