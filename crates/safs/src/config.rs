//! SAFS configuration.

use fg_types::{FgError, Result};

/// Tunables of a [`crate::Safs`] instance.
///
/// The two knobs the paper sweeps in its evaluation are here:
/// `page_bytes` (Figure 13: 4 KB wins; megabyte pages waste bandwidth)
/// and `cache_bytes` (Figure 14: graceful degradation down to small
/// caches). The I/O-thread count is not configured: a mount runs one
/// thread per simulated SSD, capped at the host's available parallelism
/// (`min(num_ssds, cores)`, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafsConfig {
    /// SAFS page size in bytes — the smallest unit FlashGraph reads
    /// from SSDs. Defaults to 4096, the flash page size.
    pub page_bytes: u64,
    /// Page-cache capacity in bytes. Zero disables caching entirely.
    pub cache_bytes: u64,
    /// Associativity of each cache set. The SA-cache paper uses 8.
    pub cache_ways: usize,
    /// Whether I/O threads sort-and-merge the requests waiting in
    /// their queue before hitting the device (the "merge in SAFS"
    /// configuration of Figure 12). Engine-level merging is separate
    /// and lives in the `flashgraph` crate.
    pub safs_merge: bool,
}

impl SafsConfig {
    /// Builder-style: sets the page size.
    pub fn with_page_bytes(mut self, bytes: u64) -> Self {
        self.page_bytes = bytes;
        self
    }

    /// Builder-style: sets the cache capacity.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Builder-style: toggles SAFS-side merging.
    pub fn with_safs_merge(mut self, on: bool) -> Self {
        self.safs_merge = on;
        self
    }

    /// Cache capacity in pages.
    pub fn cache_pages(&self) -> usize {
        (self.cache_bytes / self.page_bytes) as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidConfig`] for a non-power-of-two page
    /// size or zero associativity.
    pub fn validate(&self) -> Result<()> {
        if self.page_bytes == 0 || !self.page_bytes.is_power_of_two() {
            return Err(FgError::InvalidConfig(format!(
                "page_bytes {} must be a nonzero power of two",
                self.page_bytes
            )));
        }
        if self.cache_ways == 0 {
            return Err(FgError::InvalidConfig("cache_ways must be > 0".into()));
        }
        Ok(())
    }
}

/// 4 KB pages, a 64 MB cache of 8-way sets, SAFS merging on.
impl Default for SafsConfig {
    fn default() -> Self {
        SafsConfig {
            page_bytes: 4096,
            cache_bytes: 64 << 20,
            cache_ways: 8,
            safs_merge: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SafsConfig::default().validate().is_ok());
        assert_eq!(SafsConfig::default().page_bytes, 4096);
    }

    #[test]
    fn builder_chains() {
        let c = SafsConfig::default()
            .with_page_bytes(8192)
            .with_cache_bytes(1 << 20)
            .with_safs_merge(false);
        assert_eq!(c.page_bytes, 8192);
        assert_eq!(c.cache_pages(), 128);
        assert!(!c.safs_merge);
    }

    #[test]
    fn rejects_bad_page_size() {
        assert!(SafsConfig::default()
            .with_page_bytes(3000)
            .validate()
            .is_err());
        assert!(SafsConfig::default().with_page_bytes(0).validate().is_err());
    }

    #[test]
    fn rejects_zero_ways() {
        let c = SafsConfig {
            cache_ways: 0,
            ..SafsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_cache_means_zero_pages() {
        assert_eq!(SafsConfig::default().with_cache_bytes(0).cache_pages(), 0);
    }
}
