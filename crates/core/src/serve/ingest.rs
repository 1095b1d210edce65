//! The write path's read side: the base an ingested batch is
//! canonicalized against. This file owns **the base is the one the log
//! sits on**: `DeltaLog::apply_with` calls `pin_base` under the log
//! lock, where no compaction's fold + flip can land between the pin and
//! the canonicalization — a base pinned outside it could lack runs the
//! log no longer holds either. A base read that fails, or panics,
//! leaves the log as it was (it is written after the last read) and
//! the lock usable: the service serves on. The ledger prices a batch as
//! `delta.apply_ns_per_op` and `ingest_live`'s `ingest_ops_per_s`; the
//! reads go through the mount, so they show in `device_bytes` too.

use std::sync::Arc;

use fg_format::read_list_from;
use fg_graph::{BaseLists, DeltaBatch};
use fg_types::{EdgeDir, Result, VertexId};

use super::backend::{mount_bytes, ServeBackend};
use super::GraphService;

/// [`BaseLists`] over one pinned image generation: ingest-time
/// canonicalization reads base adjacency through the generation's
/// mounts, one point read per touched source. The reads take the
/// normal insert policy, so the page cache absorbs them like any
/// query's: a source whose pages are resident costs no device read,
/// and the lists a batch fetches warm the cache for the queries that
/// go on to read the vertices it changed.
pub(super) struct ImageBase(Arc<ServeBackend>);

impl BaseLists for ImageBase {
    fn base_out_list(&self, v: VertexId) -> Result<Vec<u32>> {
        let backend = &*self.0;
        let (s, local) = backend.index.local(v);
        read_list_from(
            &mount_bytes(&backend.mounts()[s], false),
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
        self.delta.apply_with(|| self.pin_base(), batch)
    }

    /// The serving generation as a canonicalization base. Ingest calls
    /// this under the log lock: a compaction folds the log and flips
    /// the generation inside that lock, so a base pinned outside it
    /// could be the generation *before* a flip, read after the runs
    /// that flip absorbed have left the log — and an edge one of them
    /// added would look absent and be added twice.
    pub(super) fn pin_base(&self) -> Result<ImageBase> {
        let backend = self.live.pin().1;
        backend.metas()?;
        Ok(ImageBase(backend))
    }
}
