//! N independent SAFS mounts, one per shard of a sharded image.
//!
//! Sharded execution (ISSUE 7 / the ROADMAP scale-out item) runs one
//! engine per vertex-range shard, and each shard gets what a single
//! run used to monopolize: its own array, its own page cache, and its
//! own I/O threads. [`ShardSet`] owns those mounts. Nothing is shared
//! between them — aggregate device bandwidth is the point — so the
//! set is mostly a container, plus the roll-up statistics views the
//! sharded driver reports from.

use fg_ssdsim::{IoStatsSnapshot, SsdArray};
use fg_types::Result;

use crate::cache::CacheStatsSnapshot;
use crate::config::SafsConfig;
use crate::safs::Safs;

/// One SAFS mount per shard array. Dropping the set shuts every
/// mount's I/O threads down.
#[derive(Debug)]
pub struct ShardSet {
    mounts: Vec<Safs>,
}

impl ShardSet {
    /// Mounts each array under its own copy of `cfg` (same page size,
    /// cache budget, and I/O thread count per shard — the symmetric
    /// layout [`crate::Safs`] benchmarks use). The cache budget in
    /// `cfg` is *per shard*: N shards hold N caches of that size.
    ///
    /// # Errors
    ///
    /// Returns [`fg_types::FgError::InvalidConfig`] when `cfg` is
    /// invalid or `arrays` is empty.
    pub fn new(cfg: SafsConfig, arrays: Vec<SsdArray>) -> Result<Self> {
        if arrays.is_empty() {
            return Err(fg_types::FgError::InvalidConfig(
                "a shard set needs at least one array".into(),
            ));
        }
        let mounts = arrays
            .into_iter()
            .map(|a| Safs::new(cfg, a))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardSet { mounts })
    }

    /// The mounts in shard order.
    pub fn as_slice(&self) -> &[Safs] {
        &self.mounts
    }

    /// Resets cache and device statistics on every mount.
    pub fn reset_stats(&self) {
        for m in &self.mounts {
            m.reset_stats();
        }
    }

    /// Aggregate device statistics across all shard arrays
    /// (per-drive busy times concatenated in shard order).
    pub fn io_stats(&self) -> IoStatsSnapshot {
        let mut agg = self.mounts[0].array().stats().snapshot();
        for m in &self.mounts[1..] {
            agg.absorb(&m.array().stats().snapshot());
        }
        agg
    }

    /// Aggregate page-cache statistics across all shard caches.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        Self::cache_stats_of(&self.mounts)
    }

    /// [`ShardSet::cache_stats`] over any mounts — a lone mount seen
    /// as a slice of one aggregates like a set of one.
    ///
    /// # Panics
    ///
    /// Panics if `mounts` is empty.
    pub fn cache_stats_of(mounts: &[Safs]) -> CacheStatsSnapshot {
        let mut agg = mounts[0].cache_stats();
        for m in &mounts[1..] {
            agg.absorb(&m.cache_stats());
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_ssdsim::ArrayConfig;

    fn set_of(n: usize) -> ShardSet {
        let arrays = (0..n)
            .map(|_| SsdArray::new_mem(ArrayConfig::small_test(), 1 << 16).unwrap())
            .collect();
        ShardSet::new(SafsConfig::default(), arrays).unwrap()
    }

    #[test]
    fn mounts_are_independent() {
        let set = set_of(3);
        assert_eq!(set.as_slice().len(), 3);
        set.as_slice()[1].array().write(0, &[7u8; 4096]).unwrap();
        let span = set.as_slice()[1].read_sync(0, 16).unwrap();
        assert_eq!(span.window().to_vec(), vec![7u8; 16]);
        // Only shard 1's device saw traffic.
        let s0 = set.as_slice()[0].array().stats().snapshot();
        let s1 = set.as_slice()[1].array().stats().snapshot();
        assert_eq!(s0.read_requests, 0);
        assert!(s1.read_requests > 0);
        // ... and the aggregate sees exactly that one shard's reads.
        assert_eq!(set.io_stats().read_requests, s1.read_requests);
        assert!(set.cache_stats().misses > 0);
        set.reset_stats();
        assert_eq!(set.io_stats().read_requests, 0);
        assert_eq!(set.cache_stats().lookups, 0);
    }

    #[test]
    fn dedup_counters_sum_across_shards() {
        let set = set_of(3);
        set.as_slice()[0].array().stats().record_dedup(2, 8192);
        set.as_slice()[2].array().stats().record_dedup(1, 4096);
        let agg = set.io_stats();
        assert_eq!(agg.dedup_hits, 3);
        assert_eq!(agg.dedup_bytes, 12288);
        // And per-shard snapshots sum to exactly the mount total.
        let sum: u64 = set
            .as_slice()
            .iter()
            .map(|m| m.array().stats().snapshot().dedup_bytes)
            .sum();
        assert_eq!(sum, agg.dedup_bytes);
    }

    #[test]
    fn empty_set_rejected() {
        assert!(ShardSet::new(SafsConfig::default(), Vec::new()).is_err());
    }
}
