//! The write path's read side: the base an ingested batch is
//! canonicalized against. This file owns **the base is the one the log
//! sits on**: `ingest` is one critical section of `Live` — it takes the
//! lock, canonicalizes against `live.backend` and appends to `live.log`
//! — and the only thing that replaces either is a cutover, which is
//! another critical section of the same lock. A base taken outside it
//! could lack runs the log no longer holds either. A base read that
//! fails, or panics, leaves the log as it was (it is written after the
//! last read) and the lock usable: the service serves on. The lock is
//! held across the base reads on purpose; taking them out of it is a
//! performance change with its own claim. The ledger prices a batch as
//! `delta.apply_ns_per_op` and `ingest_live`'s `ingest_ops_per_s`; the
//! reads go through the mount, so they show in `device_bytes` too.

use fg_format::read_list;
use fg_graph::{BaseLists, DeltaBatch};
use fg_types::{EdgeDir, Result, VertexId};

use super::backend::{Live, ServeBackend};
use super::GraphService;

/// [`BaseLists`] over one image generation: ingest-time
/// canonicalization reads base adjacency through the generation's
/// mounts, one point read per touched source. The mount itself is the
/// byte source, so the reads take its insert policy and the page
/// cache absorbs them like any query's: a source whose pages are
/// resident costs no device read, and the lists a batch fetches warm
/// the cache for the queries that go on to read the vertices it
/// changed. After a compaction the new generation's mount already
/// holds the image it was written with, so a batch reads the device
/// only for pages the cache could not keep.
struct ImageBase<'a>(&'a ServeBackend);

#[cfg(test)]
thread_local! {
    /// Test seam: what this thread's next base read runs first — a
    /// place to stand between an ingest taking its base and reading it.
    pub(super) static BEFORE_BASE_READ: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

impl BaseLists for ImageBase<'_> {
    fn base_out_list(&self, v: VertexId) -> Result<Vec<u32>> {
        #[cfg(test)]
        if let Some(hook) = BEFORE_BASE_READ.take() {
            hook();
        }
        let backend = self.0;
        let (s, local) = backend.index.local(v);
        read_list(
            &backend.mounts()[s],
            &backend.metas()?[s],
            backend.index.shard(s),
            local,
            EdgeDir::Out,
        )
    }
}

impl GraphService {
    /// Ingests one batch of edge mutations under live serving and
    /// returns the new watermark. The batch becomes one atomic run:
    /// queries admitted before this call never see any of it, queries
    /// admitted after see all of it. Works over any mount count; the
    /// base adjacency needed to canonicalize the batch is read through the
    /// serving generation's mounts — page cache first, so a batch whose
    /// sources are resident reads nothing from the device.
    ///
    /// # Errors
    ///
    /// [`fg_types::FgError::VertexOutOfRange`] when an endpoint lies outside
    /// the image's fixed vertex set (the image cannot grow — ingest
    /// mutates edges, not the vertex space), and I/O errors from the
    /// base reads.
    pub fn ingest(&self, batch: &DeltaBatch) -> Result<u64> {
        let mut live = self.live.lock();
        let Live { backend, log, .. } = &mut *live;
        log.apply(&ImageBase(backend), batch)
    }
}
