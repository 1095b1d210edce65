//! Atomic I/O accounting shared by all threads touching an array.

use fg_types::sync::Counter;

/// Live counters for an [`crate::SsdArray`].
///
/// All counters are [`Counter`]s — relaxed statistics, not
/// synchronization (the exact-read points are externally
/// synchronized; see the `Counter` contract). `busy_ns` is per-drive
/// virtual device time — the maximum across drives is the array's
/// I/O critical path, used as the I/O term of the experiments'
/// roofline runtime model.
#[derive(Debug)]
pub struct IoStats {
    read_requests: Counter,
    pages_read: Counter,
    bytes_read: Counter,
    write_requests: Counter,
    pages_written: Counter,
    bytes_written: Counter,
    busy_ns: Vec<Counter>,
    /// Logical read requests currently queued on (or being served by)
    /// the array — a gauge, maintained by the I/O layer above via
    /// [`IoStats::queue_enter`] / [`IoStats::queue_exit`].
    inflight: Counter,
    depth_samples: Counter,
    depth_sum: Counter,
    depth_zero_dips: Counter,
    depth_max: Counter,
    dedup_hits: Counter,
    dedup_bytes: Counter,
}

impl IoStats {
    /// Creates zeroed stats for `num_ssds` drives.
    pub fn new(num_ssds: usize) -> Self {
        let mut busy_ns = Vec::with_capacity(num_ssds);
        busy_ns.resize_with(num_ssds, Counter::default);
        IoStats {
            read_requests: Counter::default(),
            pages_read: Counter::default(),
            bytes_read: Counter::default(),
            write_requests: Counter::default(),
            pages_written: Counter::default(),
            bytes_written: Counter::default(),
            busy_ns,
            inflight: Counter::default(),
            depth_samples: Counter::default(),
            depth_sum: Counter::default(),
            depth_zero_dips: Counter::default(),
            depth_max: Counter::default(),
            dedup_hits: Counter::default(),
            dedup_bytes: Counter::default(),
        }
    }

    /// Books a span of pages that a session *did not* read from the
    /// device because another session's in-flight read already covers
    /// them (the mount-level in-flight table attached it as a waiter).
    /// Device counters (`record_read`) book the bytes once, on the
    /// fetching request; this books the avoided duplicate delivery, so
    /// `bytes_read + dedup_bytes` is total bytes *delivered* to
    /// sessions while `bytes_read` stays total bytes *fetched*.
    pub fn record_dedup(&self, pages: u64, bytes: u64) {
        self.dedup_hits.add(pages);
        self.dedup_bytes.add(bytes);
    }

    /// Books one logical read request entering the device queue and
    /// samples the resulting depth. Called by the I/O layer when it
    /// dispatches a request to an I/O thread (not by `read` itself:
    /// the simulator services reads synchronously, so queue depth is
    /// only observable at the dispatch/completion layer above).
    pub fn queue_enter(&self) {
        let d = self.inflight.inc();
        self.sample_depth(d);
    }

    /// Books one logical read request leaving the device queue,
    /// samples the resulting depth, and counts a *zero dip* when the
    /// queue just drained — the scheduler-idle signal the pipelined
    /// engine exists to eliminate between iteration boundaries.
    pub fn queue_exit(&self) {
        // Clamped at zero: an exit without a paired enter (direct
        // batch serving in tests) must not wrap the gauge.
        let prev = self.inflight.dec_saturating();
        let d = prev.saturating_sub(1);
        self.sample_depth(d);
        if d == 0 {
            self.depth_zero_dips.inc();
        }
    }

    fn sample_depth(&self, d: u64) {
        self.depth_samples.inc();
        self.depth_sum.add(d);
        self.depth_max.max(d);
    }

    pub(crate) fn record_read(&self, ssd: usize, pages: u64, bytes: u64, service_ns: u64) {
        self.read_requests.inc();
        self.pages_read.add(pages);
        self.bytes_read.add(bytes);
        self.busy_ns[ssd].add(service_ns);
    }

    pub(crate) fn record_write(&self, ssd: usize, pages: u64, bytes: u64, service_ns: u64) {
        self.write_requests.inc();
        self.pages_written.add(pages);
        self.bytes_written.add(bytes);
        self.busy_ns[ssd].add(service_ns);
    }

    /// Resets every counter; call between experiment phases so the
    /// measured region excludes graph loading.
    pub fn reset(&self) {
        self.read_requests.set(0);
        self.pages_read.set(0);
        self.bytes_read.set(0);
        self.write_requests.set(0);
        self.pages_written.set(0);
        self.bytes_written.set(0);
        for b in &self.busy_ns {
            b.set(0);
        }
        // The depth trace restarts but the gauge itself does not: a
        // reset taken while requests are queued must not make later
        // `queue_exit` calls underflow.
        self.depth_samples.set(0);
        self.depth_sum.set(0);
        self.depth_zero_dips.set(0);
        self.depth_max.set(0);
        self.dedup_hits.set(0);
        self.dedup_bytes.set(0);
    }

    /// Takes a consistent-enough snapshot (exact when no I/O is in
    /// flight, which is how the harnesses use it).
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let busy: Vec<u64> = self.busy_ns.iter().map(|b| b.get()).collect();
        IoStatsSnapshot {
            read_requests: self.read_requests.get(),
            pages_read: self.pages_read.get(),
            bytes_read: self.bytes_read.get(),
            write_requests: self.write_requests.get(),
            pages_written: self.pages_written.get(),
            bytes_written: self.bytes_written.get(),
            max_busy_ns: busy.iter().copied().max().unwrap_or(0),
            total_busy_ns: busy.iter().copied().sum(),
            per_ssd_busy_ns: busy,
            depth_samples: self.depth_samples.get(),
            depth_sum: self.depth_sum.get(),
            depth_zero_dips: self.depth_zero_dips.get(),
            depth_max: self.depth_max.get(),
            dedup_hits: self.dedup_hits.get(),
            dedup_bytes: self.dedup_bytes.get(),
        }
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Read requests issued to drives (after any merging upstream).
    pub read_requests: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Bytes read (request payload, page-aligned).
    pub bytes_read: u64,
    /// Write requests issued to drives.
    pub write_requests: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Bytes written — the wearout metric the paper minimizes.
    pub bytes_written: u64,
    /// Virtual busy time of each drive.
    pub per_ssd_busy_ns: Vec<u64>,
    /// Busy time of the most-loaded drive: the I/O critical path.
    pub max_busy_ns: u64,
    /// Sum of all drives' busy time.
    pub total_busy_ns: u64,
    /// Queue-depth samples taken (one per enter/exit transition).
    pub depth_samples: u64,
    /// Sum of sampled depths; `depth_sum / depth_samples` is the mean
    /// device queue depth over the measured phase.
    pub depth_sum: u64,
    /// Times the queue drained to zero — each dip is a window in
    /// which the device sat idle while the scheduler synchronized.
    pub depth_zero_dips: u64,
    /// High-watermark queue depth. Meaningful per measured phase
    /// (after a [`IoStats::reset`]); its `delta_since` is a
    /// saturating difference like every other field, not a windowed
    /// maximum.
    pub depth_max: u64,
    /// Pages a session obtained by attaching to *another* session's
    /// in-flight device read instead of issuing its own (the
    /// mount-level dedup table). Each hit is a device read avoided.
    pub dedup_hits: u64,
    /// Bytes delivered through dedup attachments. Device `bytes_read`
    /// books fetched bytes once; this books the duplicate deliveries,
    /// per tenant, that the device never saw.
    pub dedup_bytes: u64,
}

impl IoStatsSnapshot {
    /// Difference `self - earlier`, counter-wise; used to isolate one
    /// experiment phase.
    ///
    /// Saturating, like `CacheStatsSnapshot::delta_since`: when
    /// [`IoStats::reset`] ran between the two snapshots (easy to hit
    /// once many tenants share one array), each counter clamps at zero
    /// instead of panicking in debug or wrapping in release.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_requests: self.read_requests.saturating_sub(earlier.read_requests),
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            write_requests: self.write_requests.saturating_sub(earlier.write_requests),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            per_ssd_busy_ns: self
                .per_ssd_busy_ns
                .iter()
                .zip(&earlier.per_ssd_busy_ns)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            max_busy_ns: {
                self.per_ssd_busy_ns
                    .iter()
                    .zip(&earlier.per_ssd_busy_ns)
                    .map(|(a, b)| a.saturating_sub(*b))
                    .max()
                    .unwrap_or(0)
            },
            total_busy_ns: self.total_busy_ns.saturating_sub(earlier.total_busy_ns),
            depth_samples: self.depth_samples.saturating_sub(earlier.depth_samples),
            depth_sum: self.depth_sum.saturating_sub(earlier.depth_sum),
            depth_zero_dips: self.depth_zero_dips.saturating_sub(earlier.depth_zero_dips),
            depth_max: self.depth_max.saturating_sub(earlier.depth_max),
            dedup_hits: self.dedup_hits.saturating_sub(earlier.dedup_hits),
            dedup_bytes: self.dedup_bytes.saturating_sub(earlier.dedup_bytes),
        }
    }

    /// Folds `other` into `self` as the aggregate of *distinct
    /// devices* (e.g. one array per shard): counters sum, per-drive
    /// busy times concatenate (the drives are disjoint), and maxima
    /// take the max. Queue-depth gauges sum sample-wise, so the
    /// aggregate's `depth_sum / depth_samples` is the sample-weighted
    /// mean across devices.
    pub fn absorb(&mut self, other: &IoStatsSnapshot) {
        self.read_requests += other.read_requests;
        self.pages_read += other.pages_read;
        self.bytes_read += other.bytes_read;
        self.write_requests += other.write_requests;
        self.pages_written += other.pages_written;
        self.bytes_written += other.bytes_written;
        self.per_ssd_busy_ns
            .extend_from_slice(&other.per_ssd_busy_ns);
        self.max_busy_ns = self.max_busy_ns.max(other.max_busy_ns);
        self.total_busy_ns += other.total_busy_ns;
        self.depth_samples += other.depth_samples;
        self.depth_sum += other.depth_sum;
        self.depth_zero_dips += other.depth_zero_dips;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.dedup_hits += other.dedup_hits;
        self.dedup_bytes += other.dedup_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = IoStats::new(2);
        s.record_read(0, 1, 4096, 100);
        s.record_read(1, 2, 8192, 200);
        s.record_write(0, 1, 4096, 300);
        let snap = s.snapshot();
        assert_eq!(snap.read_requests, 2);
        assert_eq!(snap.pages_read, 3);
        assert_eq!(snap.bytes_read, 12288);
        assert_eq!(snap.write_requests, 1);
        assert_eq!(snap.per_ssd_busy_ns, vec![400, 200]);
        assert_eq!(snap.max_busy_ns, 400);
        assert_eq!(snap.total_busy_ns, 600);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new(1);
        s.record_read(0, 1, 4096, 10);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.read_requests, 0);
        assert_eq!(snap.max_busy_ns, 0);
    }

    #[test]
    fn delta_isolates_a_phase() {
        let s = IoStats::new(2);
        s.record_read(0, 1, 4096, 50);
        let before = s.snapshot();
        s.record_read(1, 4, 16384, 500);
        let after = s.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.read_requests, 1);
        assert_eq!(d.pages_read, 4);
        assert_eq!(d.max_busy_ns, 500);
    }

    #[test]
    fn delta_saturates_across_reset() {
        let s = IoStats::new(2);
        s.record_read(0, 3, 12288, 700);
        let before = s.snapshot();
        s.reset();
        s.record_read(1, 1, 4096, 40);
        let d = s.snapshot().delta_since(&before);
        assert_eq!(d.read_requests, 0, "post-reset counters clamp, not wrap");
        assert_eq!(d.pages_read, 0);
        assert_eq!(d.per_ssd_busy_ns, vec![0, 40]);
        assert_eq!(d.max_busy_ns, 40);
        assert_eq!(d.total_busy_ns, 0);
    }

    #[test]
    fn queue_depth_gauge_and_dips() {
        let s = IoStats::new(1);
        // Two requests enter, drain, one more enters and drains:
        // depths sampled 1,2,1,0,1,0 -> two zero dips, max 2.
        s.queue_enter();
        s.queue_enter();
        s.queue_exit();
        s.queue_exit();
        s.queue_enter();
        s.queue_exit();
        let snap = s.snapshot();
        assert_eq!(snap.depth_samples, 6);
        assert_eq!(snap.depth_sum, 5);
        assert_eq!(snap.depth_zero_dips, 2);
        assert_eq!(snap.depth_max, 2);
    }

    #[test]
    fn reset_keeps_inflight_gauge_but_clears_trace() {
        let s = IoStats::new(1);
        s.queue_enter();
        s.reset();
        assert_eq!(s.snapshot().depth_samples, 0);
        // The request entered before the reset still exits cleanly
        // and is counted as a dip of the post-reset trace.
        s.queue_exit();
        let snap = s.snapshot();
        assert_eq!(snap.depth_samples, 1);
        assert_eq!(snap.depth_zero_dips, 1);
    }

    #[test]
    fn dedup_counters_roll_up_like_counters() {
        let s = IoStats::new(1);
        s.record_dedup(2, 8192);
        let before = s.snapshot();
        s.record_dedup(1, 4096);
        let after = s.snapshot();
        assert_eq!(after.dedup_hits, 3);
        assert_eq!(after.dedup_bytes, 12288);
        let d = after.delta_since(&before);
        assert_eq!(d.dedup_hits, 1);
        assert_eq!(d.dedup_bytes, 4096);
        let mut agg = before.clone();
        agg.absorb(&after);
        assert_eq!(agg.dedup_hits, 5, "absorb sums dedup counters");
        s.reset();
        assert_eq!(s.snapshot().dedup_hits, 0);
        assert_eq!(s.snapshot().dedup_bytes, 0);
    }
}
