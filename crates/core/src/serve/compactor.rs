//! Compaction: base + pending deltas rewritten into the next image
//! generation, by hand ([`GraphService::compact_with`]) or by the
//! background [`Compactor`]. This file owns **the cutover is one
//! critical section**: fold the log, swap the backend, bump the
//! generation — three assignments under `Live`'s lock, the lock every
//! pin and every ingest takes — so a pin sees (old image, its deltas)
//! or (new image, the rest), never a mix; and **a failed rewrite
//! changes nothing**: everything before the cutover works on a pin
//! like any query's, outside that lock (`compacting` alone serializes
//! the long rewrite, and is only ever taken before `Live`'s, never
//! inside it), so an error — or a panic, which the background thread
//! catches — leaves log and generation as they were, is counted
//! ([`Compactor::failures`]) and retried at the next poll. The rewrite
//! builds no graph: the writer (`fg_format::write_image_to`, one pass)
//! reads the old image through the old mount's streaming view, each
//! list merged with the pinned deltas as it goes
//! (`fg_format::ImageLists`), and the new image goes, in layout order,
//! to the next generation's own mount (`Safs::write`) before anything
//! can read it. So a cutover publishes a generation with its image
//! resident: neither the index load, which reads through the new
//! mount's streaming view, nor the queries and ingest batches that
//! follow read those pages from the device. The ledger counts the flips as
//! `delta.compactions` / `delta.generation`, what queued up between
//! them as `delta.pending_ops_peak`, times one rewrite as
//! `compact_s`; what a new mount still has to read shows in
//! `ingest_live`'s `device_bytes`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use fg_format::{
    load_index, required_capacity_with, write_image_to, ImageLists, ShardedIndex, WriteOptions,
};
use fg_safs::Safs;
use fg_ssdsim::SsdArray;
use fg_types::sync::{Condvar, Mutex};
use fg_types::{FgError, Result};

use super::backend::{Mounts, ServeBackend};
use super::GraphService;
use crate::shard::worker_panicked;

impl GraphService {
    /// Folds every pending delta into a fresh on-SSD image and
    /// atomically flips serving to it, returning the new generation.
    /// No `Graph` is built: the old image is streamed and merged list by
    /// list ([`fg_format::ImageLists`]). `provision` supplies a device of
    /// at least the requested capacity — the merged image with every
    /// block raw ([`fg_format::required_capacity_with`]); the image is
    /// written, and its index loaded back, through the new generation's
    /// mount, so neither goes to the device as far as the cache holds
    /// the image. The fold of the log and the swap of the image happen in one
    /// critical section, so concurrent admissions pin either (old
    /// image, its deltas) or (new image, what was ingested since) —
    /// never a mix. In-flight queries finish on their pinned
    /// generation; its mount dies with its last pin.
    ///
    /// Returns the current generation without rewriting anything when
    /// the log is empty.
    ///
    /// # Errors
    ///
    /// [`FgError::InvalidConfig`] on a service over more than one
    /// mount (per-shard compaction is future work), read-back/write
    /// errors from the image pass, and whatever `provision` returns.
    pub fn compact_with(&self, provision: impl FnOnce(u64) -> Result<SsdArray>) -> Result<u64> {
        let _guard = self.compacting.lock();
        // Pin like a query does; everything ingested after this
        // snapshot stays in the log for the next compaction.
        let (gen, backend, view) = self.live.lock().pin(None);
        let [safs] = backend.mounts() else {
            let why =
                "compaction rewrites a single-mount image; shard-wise compaction is not supported";
            return Err(FgError::InvalidConfig(why.into()));
        };
        if view.is_empty() {
            return Ok(gen);
        }
        let meta = &backend.metas()?[0];
        // Each pass sweeps a section of the old image under the streaming
        // policy: it uses what the cache holds and leaves the cache alone,
        // so queries pinned to this generation keep their hot set.
        let old = safs.streaming();
        let merged = ImageLists::new(&old, meta, backend.index.shard(0), Some(&view));
        let mut opts = WriteOptions::default().with_generation((gen + 1) as u32);
        opts.format = meta.format;
        if meta.skip_interval != 0 {
            opts.skip_interval = meta.skip_interval;
        }
        // The pieces go through the new mount in layout order rather than
        // the writer's (edges first, header last): where the image
        // overfills a cache set, the pages written last stay, and those
        // should be the edge pages the queries after the flip read, not
        // the index pages the load below reads once.
        let array = provision(required_capacity_with(&merged, &opts))?;
        let mut pieces = Vec::new();
        let mut collect = |offset, data: &[u8]| {
            pieces.push((offset, data.to_vec()));
            Ok(())
        };
        write_image_to(&merged, &opts, &mut collect, array.capacity())?;
        pieces.sort_unstable_by_key(|&(offset, _)| offset);
        let mut new_safs = Safs::new(*safs.config(), array)?;
        for (offset, data) in pieces {
            new_safs.write(offset, &data)?;
        }
        // The index loads from the pages just written, under the same
        // streaming policy: a resident page is used, a cold one read
        // without being inserted.
        let (new_meta, new_index) = load_index(&new_safs.streaming())?;
        let next = Arc::new(ServeBackend {
            mounts: Mounts::Single(Arc::new(new_safs)),
            index: Arc::new(ShardedIndex::new(vec![Arc::new(new_index)])),
            metas: OnceLock::from(vec![new_meta]),
        });
        // The cutover (see the module docs). The old backend is not
        // dropped in here: `backend` above still pins it.
        let mut live = self.live.lock();
        live.log.fold(view.watermark());
        live.backend = next;
        live.generation += 1;
        Ok(live.generation)
    }
}

/// A background compaction thread: polls the service's pending-delta
/// count and rewrites the image into the next generation whenever it
/// crosses the threshold. The flip is atomic; in-flight queries keep
/// serving from their pinned generation. Dropping (or
/// [`Compactor::stop`]ping) the handle signals the thread and joins
/// it.
pub struct Compactor {
    state: Arc<(Mutex<CompactorState>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// What the compactor thread and its handle share, under one lock.
#[derive(Default)]
struct CompactorState {
    stop: bool,
    /// Generations installed so far. Bumped (and waiters notified)
    /// after the flip, so whoever reads a count here also sees the
    /// generation it stands for.
    compactions: u64,
    /// Rewrites that returned an error or panicked (each is retried at
    /// the next poll), and the text of the latest one.
    failures: u64,
    last_error: Option<String>,
}

impl Compactor {
    /// Spawns a compactor over `svc` that rewrites whenever
    /// [`GraphService::pending_deltas`] reaches `threshold`, checking
    /// every `poll`. `provision` supplies a fresh device of at least
    /// the requested capacity for each rewrite (see
    /// [`GraphService::compact_with`]); a rewrite that fails or panics
    /// is counted ([`Compactor::failures`], [`Compactor::last_error`])
    /// and retried at the next poll.
    pub fn spawn(
        svc: Arc<GraphService>,
        threshold: u64,
        poll: Duration,
        provision: impl Fn(u64) -> Result<SsdArray> + Send + 'static,
    ) -> Self {
        let state = Arc::new((Mutex::new(CompactorState::default()), Condvar::new()));
        let handle = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || loop {
                let (lock, cv) = &*state;
                {
                    let st = lock.lock();
                    if st.stop {
                        break;
                    }
                    // A wake-up is a stop request or a waiter being
                    // notified of a compaction; either way the flag
                    // says which.
                    let st = cv.wait_timeout(st, poll);
                    if st.stop {
                        break;
                    }
                }
                if svc.pending_deltas() >= threshold.max(1) {
                    let before = svc.generation();
                    // A rewrite that panics (in `provision`, the merge, the
                    // write) is a failed rewrite like any other: nothing
                    // before the cutover has changed and `compacting`
                    // does not poison, so the next poll can retry.
                    let outcome = catch_unwind(AssertUnwindSafe(|| svc.compact_with(&provision)))
                        .unwrap_or_else(|panic| Err(worker_panicked(panic)));
                    let mut st = lock.lock();
                    match outcome {
                        Ok(g) if g > before => st.compactions += 1,
                        Ok(_) => continue,
                        Err(e) => {
                            st.failures += 1;
                            st.last_error = Some(e.to_string());
                        }
                    }
                    drop(st);
                    cv.notify_all();
                }
            })
        };
        Compactor {
            state,
            handle: Some(handle),
        }
    }

    /// Generations this compactor has installed so far.
    pub fn compactions(&self) -> u64 {
        let (lock, _) = &*self.state;
        lock.lock().compactions
    }

    /// Rewrites that failed (returned an error or panicked) so far. A
    /// failed rewrite leaves the log
    /// and the serving generation as they were and is retried at the
    /// next poll, so a count that keeps growing beside a
    /// [`GraphService::pending_deltas`] that never falls is a
    /// compactor that cannot make progress.
    pub fn failures(&self) -> u64 {
        let (lock, _) = &*self.state;
        lock.lock().failures
    }

    /// The error of the latest failed rewrite, kept across later
    /// successes; `None` while none has failed.
    pub fn last_error(&self) -> Option<String> {
        let (lock, _) = &*self.state;
        lock.lock().last_error.clone()
    }

    /// Blocks until this compactor has installed at least `n`
    /// generations or `timeout` passes, and returns the count. The
    /// count is published after the flip, under the lock this waits
    /// on: once it reads `n`, [`GraphService::generation`] has moved
    /// at least that far.
    pub fn wait_for_compactions(&self, n: u64, timeout: Duration) -> u64 {
        let (lock, cv) = &*self.state;
        let deadline = Instant::now() + timeout;
        let mut st = lock.lock();
        while st.compactions < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            st = cv.wait_timeout(st, left);
        }
        st.compactions
    }

    /// Signals the thread and joins it (also done on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let (lock, cv) = &*self.state;
        lock.lock().stop = true;
        cv.notify_all();
        let _ = handle.join();
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
