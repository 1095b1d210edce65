//! The striped SSD array.

use std::sync::Arc;

use fg_types::{FgError, Result};

use crate::config::ArrayConfig;
use crate::stats::IoStats;
use crate::store::{check_range, MemStore, PageStore};

/// A RAID-0-style array of simulated SSDs.
///
/// Logical byte space is striped across drives in units of
/// [`ArrayConfig::stripe_bytes`]. A request that spans stripe
/// boundaries is split into one sub-request per contiguous run on a
/// drive, and each sub-request pays its own setup cost in the
/// virtual-time ledger — exactly why FlashGraph's request merging only
/// helps for *adjacent* pages (§3.6).
///
/// Cloning is cheap: clones share the store, the ledger, and the
/// statistics.
#[derive(Clone)]
pub struct SsdArray {
    inner: Arc<Inner>,
}

struct Inner {
    cfg: ArrayConfig,
    store: Box<dyn PageStore>,
    stats: IoStats,
}

impl std::fmt::Debug for SsdArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdArray")
            .field("cfg", &self.inner.cfg)
            .field("capacity", &self.inner.store.capacity())
            .finish_non_exhaustive()
    }
}

/// One contiguous run of a logical request on a single drive.
#[derive(Debug, PartialEq, Eq)]
struct Extent {
    ssd: usize,
    logical_offset: u64,
    len: u64,
}

impl SsdArray {
    /// Creates an array over an in-memory store of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidConfig`] when `cfg` is invalid.
    pub fn new_mem(cfg: ArrayConfig, capacity: u64) -> Result<Self> {
        Self::with_store(cfg, Box::new(MemStore::new(capacity)))
    }

    /// Creates an array over any [`PageStore`].
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidConfig`] when `cfg` is invalid.
    pub fn with_store(cfg: ArrayConfig, store: Box<dyn PageStore>) -> Result<Self> {
        cfg.validate()?;
        let stats = IoStats::new(cfg.num_ssds);
        Ok(SsdArray {
            inner: Arc::new(Inner { cfg, store, stats }),
        })
    }

    /// The array's configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.inner.cfg
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.store.capacity()
    }

    /// Live statistics (shared with clones).
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// Reads `buf.len()` bytes at logical `offset`, charging virtual
    /// device time per drive touched.
    ///
    /// The charged page count is the number of *flash pages spanned*,
    /// so an unaligned 1-byte read still pays for a full page — the
    /// simulator, like hardware, has a 4 KB minimum transfer.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] for empty or out-of-bounds
    /// ranges.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_scatter(offset, buf.len() as u64, std::iter::once(buf))
    }

    /// [`SsdArray::read`] of `len` bytes scattered over consecutive
    /// buffers: `bufs` are filled in order (the last one used possibly
    /// only partly) until `len` bytes have landed. The ledger books the
    /// range exactly as one contiguous read — this is how SAFS fills a
    /// run of page buffers from a single device request without an
    /// intermediate copy.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] for empty or out-of-bounds
    /// ranges, and when `bufs` hold fewer than `len` bytes.
    pub fn read_scatter<'a>(
        &self,
        offset: u64,
        len: u64,
        bufs: impl IntoIterator<Item = &'a mut [u8]>,
    ) -> Result<()> {
        if len == 0 {
            return Err(FgError::InvalidRequest("zero-length read".into()));
        }
        for e in self.extents(offset, len)? {
            let pages = self.pages_spanned(e.logical_offset, e.len);
            let service = self.inner.cfg.spec.read_service_ns(pages);
            self.inner
                .stats
                .record_read(e.ssd, pages, pages * self.inner.cfg.page_bytes, service);
        }
        let mut cur = offset;
        let end = offset + len;
        for buf in bufs {
            if cur == end {
                break;
            }
            let take = (buf.len() as u64).min(end - cur) as usize;
            self.inner.store.read_at(cur, &mut buf[..take])?;
            cur += take as u64;
        }
        if cur < end {
            return Err(FgError::InvalidRequest(format!(
                "scatter buffers hold {} of {len} bytes",
                cur - offset
            )));
        }
        Ok(())
    }

    /// Writes `data` at logical `offset`; see [`SsdArray::read`] for
    /// the cost model (writes carry the configured penalty).
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] for empty or out-of-bounds
    /// ranges.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Err(FgError::InvalidRequest("zero-length write".into()));
        }
        for e in self.extents(offset, data.len() as u64)? {
            let pages = self.pages_spanned(e.logical_offset, e.len);
            let service = self.inner.cfg.spec.write_service_ns(pages);
            self.inner
                .stats
                .record_write(e.ssd, pages, pages * self.inner.cfg.page_bytes, service);
            let src = (e.logical_offset - offset) as usize;
            self.inner
                .store
                .write_at(e.logical_offset, &data[src..src + e.len as usize])?;
        }
        Ok(())
    }

    /// Number of flash pages the range `[offset, offset + len)` spans.
    fn pages_spanned(&self, offset: u64, len: u64) -> u64 {
        let pb = self.inner.cfg.page_bytes;
        let first = offset / pb;
        let last = (offset + len - 1) / pb;
        last - first + 1
    }

    /// Splits a logical range into per-drive extents.
    fn extents(&self, offset: u64, len: u64) -> Result<Vec<Extent>> {
        let end = check_range(self.capacity(), offset, len)?;
        let sb = self.inner.cfg.stripe_bytes();
        let n = self.inner.cfg.num_ssds as u64;
        let mut out = Vec::new();
        let mut cur = offset;
        while cur < end {
            let stripe = cur / sb;
            let ssd = (stripe % n) as usize;
            let stripe_end = (stripe + 1) * sb;
            let run = end.min(stripe_end) - cur;
            // Merge with previous extent when striping keeps us on the
            // same drive (single-drive arrays, consecutive stripes).
            match out.last_mut() {
                Some(Extent {
                    ssd: last_ssd,
                    logical_offset,
                    len,
                }) if *last_ssd == ssd && *logical_offset + *len == cur => {
                    *len += run;
                }
                _ => out.push(Extent {
                    ssd,
                    logical_offset: cur,
                    len: run,
                }),
            }
            cur += run;
        }
        Ok(out)
    }
}

/// A read-only, booked byte source: where a reader of an on-SSD image
/// gets its bytes. The [`SsdArray`] is one, reading the device with
/// every request charged to its ledger; a mount over it (`fg_safs`) is
/// another, reading through its page cache first. Unlike a
/// [`PageStore`], which sits *under* the ledger, every read of a
/// source is accounted somewhere.
pub trait ByteSource {
    /// Bytes the source holds.
    fn capacity(&self) -> u64;

    /// Fills `buf` with the `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// The source's own: out-of-range or empty reads, device failures.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
}

impl ByteSource for SsdArray {
    fn capacity(&self) -> u64 {
        SsdArray::capacity(self)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read(offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SsdArray {
        SsdArray::new_mem(ArrayConfig::small_test(), 1 << 20).unwrap()
    }

    #[test]
    fn read_write_round_trip() {
        let a = small();
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        a.write(4096, &data).unwrap();
        let mut buf = vec![0u8; 8192];
        a.read(4096, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn scatter_read_books_like_one_read() {
        let a = small();
        let data: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8).collect();
        a.write(0, &data).unwrap();
        a.stats().reset();
        let mut whole = vec![0u8; 2 * 4096 + 100];
        a.read(4096, &mut whole).unwrap();
        let one = a.stats().snapshot();
        a.stats().reset();
        let mut bufs = vec![vec![0u8; 4096]; 3];
        a.read_scatter(
            4096,
            whole.len() as u64,
            bufs.iter_mut().map(|b| &mut b[..]),
        )
        .unwrap();
        let scattered = a.stats().snapshot();
        assert_eq!(scattered.read_requests, one.read_requests);
        assert_eq!(scattered.bytes_read, one.bytes_read);
        assert_eq!(bufs.concat()[..whole.len()], whole[..]);
        assert_eq!(bufs[2][100..], [0u8; 4096 - 100], "tail left untouched");
        // Too few buffer bytes for the range is an error.
        let mut short = [0u8; 16];
        assert!(a.read_scatter(0, 32, [&mut short[..]]).is_err());
    }

    #[test]
    fn single_page_read_costs_one_setup() {
        let a = small();
        let mut buf = [0u8; 4096];
        a.read(0, &mut buf).unwrap();
        let s = a.stats().snapshot();
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.max_busy_ns, a.config().spec.read_service_ns(1));
    }

    #[test]
    fn unaligned_read_pays_full_pages() {
        let a = small();
        let mut buf = [0u8; 10];
        // 10 bytes straddling a page boundary: 2 pages charged.
        a.read(4090, &mut buf).unwrap();
        let s = a.stats().snapshot();
        assert_eq!(s.pages_read, 2);
        assert_eq!(s.bytes_read, 8192);
    }

    #[test]
    fn stripe_crossing_splits_request() {
        let a = small(); // stripe = 4 pages = 16 KB
        let mut buf = vec![0u8; 32 * 1024];
        a.read(0, &mut buf).unwrap();
        let s = a.stats().snapshot();
        // 32 KB spans 2 stripes on different drives -> 2 requests.
        assert_eq!(s.read_requests, 2);
        assert_eq!(s.pages_read, 8);
        // Each drive has busy time for a 4-page request.
        let busy: Vec<_> = s.per_ssd_busy_ns.iter().filter(|&&b| b > 0).collect();
        assert_eq!(busy.len(), 2);
    }

    #[test]
    fn merged_read_cheaper_than_split_reads() {
        let a = small();
        let mut big = vec![0u8; 16 * 1024];
        a.read(0, &mut big).unwrap();
        let merged = a.stats().snapshot().max_busy_ns;

        let b = small();
        let mut page = vec![0u8; 4096];
        for i in 0..4 {
            b.read(i * 4096, &mut page).unwrap();
        }
        let split = b.stats().snapshot().max_busy_ns;
        assert!(
            split > merged,
            "four 1-page reads ({split} ns) should cost more than one 4-page read ({merged} ns)"
        );
    }

    #[test]
    fn random_vs_sequential_bandwidth_gap() {
        // Read 4 MB sequentially in 64 KB requests vs randomly in
        // 4 KB requests; sequential must be 2-3x faster in busy time.
        let cfg = ArrayConfig {
            num_ssds: 1,
            stripe_pages: 1 << 20, // keep everything on one drive
            ..ArrayConfig::small_test()
        };
        let total: u64 = 4 << 20;
        let seq = SsdArray::new_mem(cfg, total).unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0;
        while off < total {
            seq.read(off, &mut buf).unwrap();
            off += buf.len() as u64;
        }
        let seq_ns = seq.stats().snapshot().max_busy_ns;

        let rnd = SsdArray::new_mem(cfg, total).unwrap();
        let mut page = vec![0u8; 4096];
        // Deterministic scatter order.
        let pages = total / 4096;
        for i in 0..pages {
            let p = (i * 2654435761) % pages;
            rnd.read(p * 4096, &mut page).unwrap();
        }
        let rnd_ns = rnd.stats().snapshot().max_busy_ns;
        let ratio = rnd_ns as f64 / seq_ns as f64;
        assert!(
            (1.8..3.2).contains(&ratio),
            "random/sequential busy ratio {ratio} outside the paper's 2-3x band"
        );
    }

    #[test]
    fn zero_length_and_oob_rejected() {
        let a = small();
        let mut empty: [u8; 0] = [];
        assert!(a.read(0, &mut empty).is_err());
        let mut buf = [0u8; 8];
        assert!(a.read(a.capacity(), &mut buf).is_err());
        assert!(a.write(a.capacity() - 4, &[0u8; 8]).is_err());
    }

    #[test]
    fn wear_tracked_for_writes() {
        let a = small();
        a.write(0, &[1u8; 4096]).unwrap();
        a.write(4096, &[2u8; 4096]).unwrap();
        assert_eq!(a.stats().snapshot().bytes_written, 8192);
    }

    #[test]
    fn clones_share_state() {
        let a = small();
        let b = a.clone();
        b.write(0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        a.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        assert_eq!(a.stats().snapshot().write_requests, 1);
    }

    #[test]
    fn striping_balances_round_robin() {
        let a = small(); // 4 drives, 16 KB stripes
        let mut buf = vec![0u8; 16 * 1024];
        for i in 0..8u64 {
            a.read(i * 16 * 1024, &mut buf).unwrap();
        }
        let s = a.stats().snapshot();
        // 8 stripes over 4 drives: each drive saw 2 requests.
        for b in &s.per_ssd_busy_ns {
            assert_eq!(*b, 2 * a.config().spec.read_service_ns(4));
        }
    }
}
