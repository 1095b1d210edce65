//! Run statistics: the raw material of every evaluation figure.

use std::time::Duration;

use fg_safs::CacheStatsSnapshot;
use fg_ssdsim::IoStatsSnapshot;
use fg_types::CancelCause;

/// Per-iteration trace (used by Figure 9's PR1/PR2 split and for
/// debugging convergence).
#[derive(Debug, Clone)]
pub struct IterStats {
    /// Vertices active at the start of the iteration.
    pub frontier: u64,
    /// Wall-clock nanoseconds of the iteration.
    pub wall_ns: u64,
    /// Device read requests during the iteration.
    pub read_requests: u64,
    /// Bytes read from the device during the iteration.
    pub bytes_read: u64,
    /// Bytes covered by logical requests during the iteration
    /// (semi-external mode; compare with `bytes_read` for the
    /// page-rounding waste of this iteration's access pattern).
    pub bytes_requested: u64,
    /// Physical requests this iteration submitted to SAFS after
    /// engine merging. Derived from the engine's own completion
    /// counters at quiesced boundaries — not from sampling — so the
    /// per-iteration values sum exactly to
    /// [`RunStats::issued_requests`] under both schedulers, work
    /// stealing included.
    pub issued_requests: u64,
    /// Edges delivered to `run_on_vertex` callbacks this iteration.
    pub edges_delivered: u64,
    /// Requests this iteration read by a sweep, on the claiming worker
    /// (see [`RunStats::swept_requests`]); the rows sum to the run's
    /// total.
    pub swept_requests: u64,
    /// Increase of the busiest drive's virtual busy time.
    pub io_busy_ns: u64,
}

impl IterStats {
    /// Folds another shard's trace of the *same* iteration into this
    /// one: counters sum, wall/busy times take the slowest shard
    /// (shards run the iteration concurrently).
    pub fn absorb(&mut self, other: &IterStats) {
        self.frontier += other.frontier;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self.read_requests += other.read_requests;
        self.bytes_read += other.bytes_read;
        self.bytes_requested += other.bytes_requested;
        self.issued_requests += other.issued_requests;
        self.edges_delivered += other.edges_delivered;
        self.swept_requests += other.swept_requests;
        self.io_busy_ns = self.io_busy_ns.max(other.io_busy_ns);
    }
}

/// Statistics of one [`crate::Engine::run`].
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Iterations executed.
    pub iterations: u32,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Nanoseconds spent inside user vertex-program callbacks, summed
    /// over workers — the "user CPU" proxy of Figure 9.
    pub compute_ns: u64,
    /// Nanoseconds workers spent blocked waiting for I/O completions.
    pub wait_ns: u64,
    /// Total vertex activations (`ctx.activate` calls that set a bit).
    pub activations: u64,
    /// Per-vertex message deliveries posted.
    pub messages_sent: u64,
    /// `run` invocations: one per active vertex per iteration.
    pub vertices_processed: u64,
    /// Logical edge-list/attribute requests issued by programs.
    pub engine_requests: u64,
    /// Physical requests submitted to SAFS after engine merging.
    pub issued_requests: u64,
    /// Bytes covered by logical requests (edge + attribute payload).
    pub bytes_requested: u64,
    /// Edges delivered to `run_on_vertex` callbacks — every edge of
    /// every slice handed to a program, in both execution modes. For
    /// full-list execution this is the sum of requested degrees; for
    /// range/sampled execution it shows how much smaller the touched
    /// edge set was.
    pub edges_delivered: u64,
    /// Logical requests read by a *sweep*: a claimed run's dense
    /// requests, read together on the claiming worker rather than
    /// through the issue queue and the I/O threads (and delivered
    /// through the ready pool, as every request is). Exact: runs cut at
    /// fixed offsets of each partition's active list and the rule is
    /// deterministic. Zero in memory and with engine-side merging off.
    pub swept_requests: u64,
    /// Nanoseconds the query waited in a [`crate::GraphService`]
    /// admission queue before its engine run began. Zero for runs
    /// invoked directly on an [`crate::Engine`].
    pub queue_wait_ns: u64,
    /// Serialized bytes of batched cross-shard packets this run (or
    /// this shard of a sharded run) posted to the shard bus. Zero for
    /// unsharded runs.
    pub shard_msg_bytes: u64,
    /// Device statistics delta over the run (semi-external mode only).
    pub io: Option<IoStatsSnapshot>,
    /// Page-cache lookups performed by *this run's own* I/O sessions
    /// (semi-external only). Under a shared mount this stays accurate
    /// per query; insertions/evictions happen on the shared I/O
    /// threads and are only visible mount-wide (see `cache_mount`).
    pub cache: Option<CacheStatsSnapshot>,
    /// Mount-wide page-cache delta across the run (semi-external
    /// only). Equals `cache` plus insertions/evictions when the run
    /// was the mount's only tenant; includes other queries' traffic
    /// when the mount is shared.
    pub cache_mount: Option<CacheStatsSnapshot>,
    /// Why the run stopped before converging, when it did: a
    /// [`fg_types::CancelToken`] fired at an iteration boundary.
    /// `None` for runs that converged (or hit their iteration cap).
    /// The driver layers (`Engine::run`, [`crate::GraphService`]) turn
    /// this into the matching [`fg_types::FgError`]; it is visible
    /// here so per-shard stats can carry the verdict out of their
    /// threads without poisoning the rendezvous group.
    pub cancelled: Option<CancelCause>,
    /// Per-iteration trace.
    pub per_iteration: Vec<IterStats>,
}

impl RunStats {
    /// Folds another engine's statistics of the *same concurrent run*
    /// into this one — how a sharded run rolls its per-shard stats up
    /// into one aggregate. Work counters (activations, messages,
    /// requests, bytes, edges, compute time, cross-shard traffic)
    /// sum; times that elapse concurrently (`elapsed`, `wait_ns`,
    /// `queue_wait_ns`) take the slowest shard; `iterations` takes
    /// the max (shards iterate in lockstep, so they agree); I/O and
    /// cache snapshots absorb (distinct devices concatenate, see
    /// [`IoStatsSnapshot::absorb`]); per-iteration traces merge row
    /// by row via [`IterStats::absorb`].
    pub fn absorb(&mut self, other: &RunStats) {
        self.iterations = self.iterations.max(other.iterations);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.compute_ns += other.compute_ns;
        self.wait_ns = self.wait_ns.max(other.wait_ns);
        self.activations += other.activations;
        self.messages_sent += other.messages_sent;
        self.vertices_processed += other.vertices_processed;
        self.engine_requests += other.engine_requests;
        self.issued_requests += other.issued_requests;
        self.bytes_requested += other.bytes_requested;
        self.edges_delivered += other.edges_delivered;
        self.swept_requests += other.swept_requests;
        self.queue_wait_ns = self.queue_wait_ns.max(other.queue_wait_ns);
        self.shard_msg_bytes += other.shard_msg_bytes;
        // Any shard observing the (shared) token makes the whole run
        // cancelled; explicit cancellation outranks a deadline.
        self.cancelled = match (self.cancelled, other.cancelled) {
            (Some(CancelCause::Cancelled), _) | (_, Some(CancelCause::Cancelled)) => {
                Some(CancelCause::Cancelled)
            }
            (a, b) => a.or(b),
        };
        match (&mut self.io, &other.io) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (io @ None, Some(theirs)) => *io = Some(theirs.clone()),
            _ => {}
        }
        match (&mut self.cache, &other.cache) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (cache @ None, Some(theirs)) => *cache = Some(*theirs),
            _ => {}
        }
        match (&mut self.cache_mount, &other.cache_mount) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (cache @ None, Some(theirs)) => *cache = Some(*theirs),
            _ => {}
        }
        for (i, row) in other.per_iteration.iter().enumerate() {
            match self.per_iteration.get_mut(i) {
                Some(mine) => mine.absorb(row),
                None => self.per_iteration.push(row.clone()),
            }
        }
    }

    /// The roofline runtime model used throughout the reproduction's
    /// figures: computation and I/O overlap (the engine's async
    /// user-task design), so modeled runtime is the maximum of the
    /// wall-clock compute path and the busiest simulated drive.
    /// In-memory runs have no simulated I/O and report wall clock.
    pub fn modeled_runtime_ns(&self) -> u64 {
        let wall = self.elapsed.as_nanos() as u64;
        match &self.io {
            Some(io) => wall.max(io.max_busy_ns),
            None => wall,
        }
    }

    /// Modeled runtime in seconds.
    pub fn modeled_runtime_secs(&self) -> f64 {
        self.modeled_runtime_ns() as f64 / 1e9
    }

    /// Whether the run was I/O-bound under the roofline model.
    pub fn io_bound(&self) -> bool {
        match &self.io {
            Some(io) => io.max_busy_ns > self.elapsed.as_nanos() as u64,
            None => false,
        }
    }

    /// Device bytes read per logically requested byte — the
    /// page-rounding (and cache-miss re-read) waste ratio of
    /// semi-external execution. Small scattered range requests push
    /// this up (each touches a whole page); sequential full-list scans
    /// with warm merging pull it toward — or, with cache hits, below —
    /// 1.0. `None` in in-memory mode or when nothing was requested.
    pub fn page_waste_ratio(&self) -> Option<f64> {
        let io = self.io.as_ref()?;
        if self.bytes_requested == 0 {
            return None;
        }
        Some(io.bytes_read as f64 / self.bytes_requested as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RunStats {
        RunStats {
            iterations: 3,
            elapsed: Duration::from_millis(10),
            compute_ns: 1,
            wait_ns: 2,
            activations: 3,
            messages_sent: 4,
            vertices_processed: 5,
            engine_requests: 6,
            issued_requests: 3,
            bytes_requested: 300,
            edges_delivered: 75,
            swept_requests: 2,
            queue_wait_ns: 0,
            shard_msg_bytes: 0,
            io: None,
            cache: None,
            cache_mount: None,
            cancelled: None,
            per_iteration: Vec::new(),
        }
    }

    #[test]
    fn absorb_merges_cancellation_with_explicit_winning() {
        let mut a = base();
        let mut b = base();
        b.cancelled = Some(CancelCause::DeadlineExpired);
        a.absorb(&b);
        assert_eq!(a.cancelled, Some(CancelCause::DeadlineExpired));
        let mut c = base();
        c.cancelled = Some(CancelCause::Cancelled);
        a.absorb(&c);
        assert_eq!(a.cancelled, Some(CancelCause::Cancelled));
        // Sticky once set; a clean shard does not clear it.
        a.absorb(&base());
        assert_eq!(a.cancelled, Some(CancelCause::Cancelled));
    }

    #[test]
    fn absorb_sums_counters_and_maxes_waits() {
        let mut a = base();
        a.wait_ns = 10;
        a.shard_msg_bytes = 100;
        a.per_iteration.push(IterStats {
            frontier: 5,
            wall_ns: 50,
            read_requests: 1,
            bytes_read: 4096,
            bytes_requested: 100,
            issued_requests: 1,
            edges_delivered: 25,
            swept_requests: 1,
            io_busy_ns: 9,
        });
        let mut b = base();
        b.iterations = 5;
        b.elapsed = Duration::from_millis(25);
        b.wait_ns = 7;
        b.shard_msg_bytes = 40;
        b.io = Some(IoStatsSnapshot {
            read_requests: 2,
            pages_read: 2,
            bytes_read: 8192,
            write_requests: 0,
            pages_written: 0,
            bytes_written: 0,
            per_ssd_busy_ns: vec![3, 4],
            max_busy_ns: 4,
            total_busy_ns: 7,
            depth_samples: 0,
            depth_sum: 0,
            depth_zero_dips: 0,
            depth_max: 0,
            dedup_hits: 0,
            dedup_bytes: 0,
        });
        b.per_iteration.push(IterStats {
            frontier: 2,
            wall_ns: 80,
            read_requests: 3,
            bytes_read: 4096,
            bytes_requested: 50,
            issued_requests: 2,
            edges_delivered: 10,
            swept_requests: 0,
            io_busy_ns: 4,
        });
        a.absorb(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.elapsed, Duration::from_millis(25));
        assert_eq!(a.compute_ns, 2);
        assert_eq!(a.wait_ns, 10, "waits elapse concurrently: max, not sum");
        assert_eq!(a.activations, 6);
        assert_eq!(a.messages_sent, 8);
        assert_eq!(a.vertices_processed, 10);
        assert_eq!(a.engine_requests, 12);
        assert_eq!(a.issued_requests, 6);
        assert_eq!(a.bytes_requested, 600);
        assert_eq!(a.edges_delivered, 150);
        assert_eq!(a.swept_requests, 4);
        assert_eq!(a.shard_msg_bytes, 140);
        let io = a.io.unwrap();
        assert_eq!(io.read_requests, 2);
        assert_eq!(io.per_ssd_busy_ns, vec![3, 4]);
        // Per-iteration rows merged element-wise.
        assert_eq!(a.per_iteration.len(), 1);
        let row = &a.per_iteration[0];
        assert_eq!(row.frontier, 7);
        assert_eq!(row.wall_ns, 80);
        assert_eq!(row.read_requests, 4);
        assert_eq!(row.edges_delivered, 35);
        assert_eq!(row.swept_requests, 1);
        assert_eq!(row.io_busy_ns, 9);
    }

    #[test]
    fn absorb_extends_with_longer_traces() {
        let mut a = base();
        let mut b = base();
        b.per_iteration.push(IterStats {
            frontier: 1,
            wall_ns: 1,
            read_requests: 0,
            bytes_read: 0,
            bytes_requested: 0,
            issued_requests: 0,
            edges_delivered: 0,
            swept_requests: 0,
            io_busy_ns: 0,
        });
        a.absorb(&b);
        assert_eq!(a.per_iteration.len(), 1);
        assert_eq!(a.per_iteration[0].frontier, 1);
    }

    #[test]
    fn modeled_runtime_in_memory_is_wall() {
        let s = base();
        assert_eq!(s.modeled_runtime_ns(), 10_000_000);
        assert!(!s.io_bound());
    }

    #[test]
    fn modeled_runtime_takes_io_critical_path() {
        let mut s = base();
        s.io = Some(IoStatsSnapshot {
            read_requests: 1,
            pages_read: 1,
            bytes_read: 4096,
            write_requests: 0,
            pages_written: 0,
            bytes_written: 0,
            per_ssd_busy_ns: vec![50_000_000],
            max_busy_ns: 50_000_000,
            total_busy_ns: 50_000_000,
            depth_samples: 0,
            depth_sum: 0,
            depth_zero_dips: 0,
            depth_max: 0,
            dedup_hits: 0,
            dedup_bytes: 0,
        });
        assert_eq!(s.modeled_runtime_ns(), 50_000_000);
        assert!(s.io_bound());
    }

    #[test]
    fn page_waste_ratio_needs_io() {
        let mut s = base();
        assert_eq!(s.page_waste_ratio(), None, "in-memory runs have no io");
        s.io = Some(IoStatsSnapshot {
            read_requests: 1,
            pages_read: 1,
            bytes_read: 4096,
            write_requests: 0,
            pages_written: 0,
            bytes_written: 0,
            per_ssd_busy_ns: vec![0],
            max_busy_ns: 0,
            total_busy_ns: 0,
            depth_samples: 0,
            depth_sum: 0,
            depth_zero_dips: 0,
            depth_max: 0,
            dedup_hits: 0,
            dedup_bytes: 0,
        });
        // 300 logical bytes cost one 4096-byte page.
        let ratio = s.page_waste_ratio().unwrap();
        assert!((ratio - 4096.0 / 300.0).abs() < 1e-9);
        s.bytes_requested = 0;
        assert_eq!(s.page_waste_ratio(), None);
    }
}
