//! What a query runs against, and the one way it runs. A
//! [`ServeBackend`] is one image generation — its mounts, its index,
//! its headers — immutable once built and alive as long as anything
//! pins it. [`Live`] is everything that changes under a running
//! service: the generation number, the backend serving it, and the log
//! of runs applied on top of it, in one struct behind one mutex. This
//! file owns the invariant the write path rests on, **every operation
//! on `Live` is one critical section**: a pin ([`Live::pin`]), an
//! ingest (`ingest.rs`) and a cutover (`compactor.rs`) each lock it
//! once, take no other lock while they hold it, and leave it coherent
//! — the log's runs are exactly those the backend's image lacks — so
//! there is no order of two locks to get wrong. **Snapshot isolation**
//! follows: `serve` pins (backend, delta view) once, right after
//! admission, and hands the engine nothing else — whatever is ingested
//! or compacted while the run executes, it reads one image and one
//! view, and a generation's mounts die with its last pin.
//! Every public entry point (`run`, `run_opts`, `query`, `query_opts`)
//! is a shorthand for `serve`; the permit it holds is the gate's and
//! drops on unwind. The ledger prices the per-query engine this builds
//! as `engine.run_floor_us`, and the whole path as `serve_closed`'s
//! `queries_per_s` / `query_p50_ms` / `query_p95_ms`.
//!
//! The write path reaches image bytes the way queries do, page cache
//! first: `fg_format`'s readers take any `fg_ssdsim::ByteSource`, and a
//! mount is one. A header or a base list is a point read through the
//! mount itself (lookups booked, misses inserted); a compaction's
//! sweeps go through its streaming view, [`Safs::streaming`].

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fg_format::{read_meta, ImageMeta, ShardedIndex};
use fg_graph::{DeltaView, RunLog};
use fg_safs::{Safs, ShardSet};
use fg_types::{CancelCause, Result};

use super::{GraphService, QueryOpts};
use crate::engine::{Engine, Init};
use crate::program::VertexProgram;
use crate::stats::RunStats;

/// One generation of what the service serves from: k ≥ 1 mounts and
/// the index that routes over them (a single mount is one shard that
/// owns every vertex). `metas` holds the image header of each mount,
/// in shard order: set by the compaction that wrote the image, else
/// read through the mount by the first ingest or compaction that needs
/// it — once per generation either way.
pub(super) struct ServeBackend {
    pub(super) mounts: Mounts,
    pub(super) index: Arc<ShardedIndex>,
    pub(super) metas: OnceLock<Vec<ImageMeta>>,
}

/// What the service serves right now. Ingest appends to `log`; a
/// compaction's cutover folds `log`, swaps `backend` and bumps
/// `generation` in one go; in between, `log` holds exactly the runs
/// `backend`'s image does not.
pub(super) struct Live {
    /// Image generations installed so far (0 until a compaction).
    pub(super) generation: u64,
    pub(super) backend: Arc<ServeBackend>,
    /// Edge mutations not yet folded into an on-SSD image, relative to
    /// `backend`'s.
    pub(super) log: RunLog,
}

impl Live {
    /// The snapshot a query (or a compaction's rewrite) works from:
    /// the serving image and the view over it — the freshest, or with
    /// `as_of` the runs up to that watermark (time travel within the
    /// unfolded window). One call under the lock, so the view's floor
    /// is this generation's fold point whatever cutover comes next.
    pub(super) fn pin(&mut self, as_of: Option<u64>) -> (u64, Arc<ServeBackend>, Arc<DeltaView>) {
        let view = self.log.view(as_of.unwrap_or(u64::MAX));
        (self.generation, Arc::clone(&self.backend), view)
    }
}

/// The mount handles a generation was built from; everything but
/// [`ServeBackend::mounts`] sees them as a slice.
pub(super) enum Mounts {
    Single(Arc<Safs>),
    Sharded(Arc<ShardSet>),
}

impl ServeBackend {
    /// The mounts, in shard order.
    pub(super) fn mounts(&self) -> &[Safs] {
        match &self.mounts {
            Mounts::Single(safs) => std::slice::from_ref(safs),
            Mounts::Sharded(set) => set.as_slice(),
        }
    }

    /// This generation's image headers, one per mount.
    pub(super) fn metas(&self) -> Result<&[ImageMeta]> {
        if let Some(metas) = self.metas.get() {
            return Ok(metas);
        }
        let fresh = self.mounts().iter().map(read_meta).collect::<Result<_>>()?;
        Ok(self.metas.get_or_init(|| fresh))
    }
}

impl GraphService {
    /// Runs one query with the service's base engine configuration.
    ///
    /// Blocks while the admission gate is full; the wait is reported
    /// in the returned [`RunStats::queue_wait_ns`].
    ///
    /// # Errors
    ///
    /// Propagates engine errors (bad seeds, I/O failures).
    pub fn run<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
    ) -> Result<(Vec<P::State>, RunStats)> {
        self.run_opts(program, init, QueryOpts::new())
    }

    /// The full-control run: tenant attribution, priority,
    /// cancellation/deadline, engine override — see [`QueryOpts`].
    ///
    /// # Errors
    ///
    /// [`fg_types::FgError::Cancelled`] /
    /// [`fg_types::FgError::DeadlineExpired`] when the query's token
    /// fires while it waits for admission or between iterations of
    /// its run (the slot is released and all shared state is left at
    /// a consistent iteration boundary); engine errors otherwise.
    pub fn run_opts<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
        opts: QueryOpts,
    ) -> Result<(Vec<P::State>, RunStats)> {
        self.serve(opts, |engine, waited| {
            let (states, mut stats) = engine.run(program, init)?;
            stats.queue_wait_ns = waited.as_nanos() as u64;
            Ok((states, stats))
        })?
        .inspect_err(|e| {
            if let Some(cause) = cancel_cause_of(e) {
                self.book_abort(cause);
            }
        })
    }

    /// Admits one query and hands the closure a borrowed [`Engine`]
    /// over the shared backend — the escape hatch for app wrappers
    /// (`fg_apps`-style functions generic over [`crate::GraphEngine`])
    /// and multi-phase runs that need several `run_with_states` calls
    /// under a single admission.
    ///
    /// Because the closure's return type is opaque, any [`RunStats`]
    /// it produces keeps `queue_wait_ns == 0`; the admission wait is
    /// still accounted in the service-wide
    /// [`super::ServiceStatsSnapshot::queue_wait_ns`]. Use
    /// [`GraphService::run`] when the per-query wait matters.
    pub fn query<R>(&self, f: impl FnOnce(&Engine<'_>) -> R) -> R {
        self.query_opts(QueryOpts::new(), f)
            .expect("admission without a token cannot fail")
    }

    /// [`GraphService::query`] with full per-query options — the entry
    /// point of every kind of service: over k mounts the engine runs
    /// one shard per mount. The engine handed to the closure carries
    /// the query's token, so `engine.run(...)` calls inside it error
    /// with [`fg_types::FgError::Cancelled`] at the next iteration
    /// boundary once the token fires.
    ///
    /// # Errors
    ///
    /// [`fg_types::FgError::Cancelled`] /
    /// [`fg_types::FgError::DeadlineExpired`] when the token fires
    /// before admission (the closure then never runs).
    pub fn query_opts<R>(&self, opts: QueryOpts, f: impl FnOnce(&Engine<'_>) -> R) -> Result<R> {
        self.serve(opts, |engine, _waited| f(engine))
    }

    /// [`GraphService::query_opts`] under the name it had while
    /// sharded services needed an entry point of their own.
    #[doc(hidden)]
    pub fn query_sharded_opts<R>(
        &self,
        opts: QueryOpts,
        f: impl FnOnce(&Engine<'_>) -> R,
    ) -> Result<R> {
        self.query_opts(opts, f)
    }

    /// The one way in: admit, pin the view, build the engine, call,
    /// release. The closure gets the engine and the admission wait.
    fn serve<R>(&self, opts: QueryOpts, f: impl FnOnce(&Engine<'_>, Duration) -> R) -> Result<R> {
        let (permit, waited) = self.admit(&opts)?;
        // Snapshot isolation: pin (image generation, delta view) at
        // admission — the run sees exactly this pair no matter how
        // much is ingested or compacted while it executes.
        let (_, backend, view) = self.live.lock().pin(opts.as_of);
        let cfg = opts.engine.unwrap_or(self.cfg.engine);
        let engine = Engine::over_mounts(backend.mounts(), Arc::clone(&backend.index), cfg)
            .with_deltas(view)
            .with_cancel(opts.cancel.unwrap_or_default());
        let out = f(&engine, waited);
        drop(permit);
        Ok(out)
    }
}

/// The cancellation verdict inside an error, if that is what it is.
fn cancel_cause_of(e: &fg_types::FgError) -> Option<CancelCause> {
    match e {
        fg_types::FgError::Cancelled => Some(CancelCause::Cancelled),
        fg_types::FgError::DeadlineExpired => Some(CancelCause::DeadlineExpired),
        _ => None,
    }
}
