//! Simulator configuration.

use fg_types::{FgError, Result};

/// Performance model of one simulated SSD.
///
/// A request touching `p` pages is charged
/// `setup_ns + p * page_transfer_ns` of device busy time. With the
/// default parameters a random 4 KB read costs 20 µs (50 K IOPS per
/// drive) while large sequential reads approach 4 KB / 8 µs = 512 MB/s
/// — a 2.5× random-vs-sequential gap, inside the 2–3× band the paper
/// cites for commodity SSDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdSpec {
    /// Fixed cost charged to every request (command overhead, FTL
    /// lookup, flash read latency not overlapped by striping).
    pub setup_ns: u64,
    /// Marginal cost per 4 KB page transferred.
    pub page_transfer_ns: u64,
    /// Multiplier (in percent) applied to writes; flash programs are
    /// slower than reads.
    pub write_penalty_pct: u64,
}

impl SsdSpec {
    /// Model of a 2012-era consumer SATA SSD (OCZ Vertex 4 class).
    pub fn commodity_sata() -> Self {
        SsdSpec {
            setup_ns: 12_000,
            page_transfer_ns: 8_000,
            write_penalty_pct: 150,
        }
    }

    /// Service time of a read touching `pages` pages.
    #[inline]
    pub fn read_service_ns(&self, pages: u64) -> u64 {
        self.setup_ns + pages * self.page_transfer_ns
    }

    /// Service time of a write touching `pages` pages.
    #[inline]
    pub fn write_service_ns(&self, pages: u64) -> u64 {
        self.read_service_ns(pages) * self.write_penalty_pct / 100
    }
}

impl Default for SsdSpec {
    fn default() -> Self {
        SsdSpec::commodity_sata()
    }
}

/// Configuration of a striped SSD array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayConfig {
    /// Number of drives. The paper's testbed has 15.
    pub num_ssds: usize,
    /// Flash page size in bytes; the minimum I/O unit. 4 KB on real
    /// hardware (§5.5.2 shows 4 KB is also the best choice).
    pub page_bytes: u64,
    /// Stripe width in pages: consecutive runs of this many pages land
    /// on the same drive before striping moves to the next.
    pub stripe_pages: u64,
    /// Per-drive performance model.
    pub spec: SsdSpec,
}

impl ArrayConfig {
    /// The paper-scale array: 15 commodity SSDs, 4 KB pages, 64 KB
    /// stripes.
    pub fn paper_array() -> Self {
        ArrayConfig {
            num_ssds: 15,
            page_bytes: 4096,
            stripe_pages: 16,
            spec: SsdSpec::commodity_sata(),
        }
    }

    /// A small array for unit tests: 4 drives, 4 KB pages.
    pub fn small_test() -> Self {
        ArrayConfig {
            num_ssds: 4,
            page_bytes: 4096,
            stripe_pages: 4,
            spec: SsdSpec::commodity_sata(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidConfig`] when a field is zero or the
    /// page size is not a power of two.
    pub fn validate(&self) -> Result<()> {
        if self.num_ssds == 0 {
            return Err(FgError::InvalidConfig("num_ssds must be > 0".into()));
        }
        if self.page_bytes == 0 || !self.page_bytes.is_power_of_two() {
            return Err(FgError::InvalidConfig(format!(
                "page_bytes {} must be a nonzero power of two",
                self.page_bytes
            )));
        }
        if self.stripe_pages == 0 {
            return Err(FgError::InvalidConfig("stripe_pages must be > 0".into()));
        }
        if self.spec.page_transfer_ns == 0 {
            return Err(FgError::InvalidConfig(
                "page_transfer_ns must be > 0".into(),
            ));
        }
        Ok(())
    }

    /// Bytes per stripe.
    #[inline]
    pub fn stripe_bytes(&self) -> u64 {
        self.page_bytes * self.stripe_pages
    }
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig::paper_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random 4 KB reads per second of one drive of `s`.
    fn iops_4k(s: &SsdSpec) -> f64 {
        1e9 / s.read_service_ns(1) as f64
    }

    #[test]
    fn commodity_spec_matches_paper_band() {
        let s = SsdSpec::commodity_sata();
        let iops = iops_4k(&s);
        assert!((40_000.0..80_000.0).contains(&iops), "iops {iops}");
        // Asymptotic sequential bandwidth: one page per transfer time.
        let seq = 4096.0 * 1e9 / s.page_transfer_ns as f64;
        let rand_bw = iops * 4096.0;
        let ratio = seq / rand_bw;
        assert!(
            (2.0..3.0).contains(&ratio),
            "sequential/random ratio {ratio} outside the paper's 2-3x band"
        );
    }

    #[test]
    fn paper_array_near_900k_iops() {
        let a = ArrayConfig::paper_array();
        let iops = iops_4k(&a.spec) * a.num_ssds as f64;
        assert!((600_000.0..1_000_000.0).contains(&iops), "iops {iops}");
    }

    #[test]
    fn write_penalty_applies() {
        let s = SsdSpec::commodity_sata();
        assert!(s.write_service_ns(1) > s.read_service_ns(1));
    }

    #[test]
    fn service_time_linear_in_pages() {
        let s = SsdSpec::commodity_sata();
        let one = s.read_service_ns(1);
        let ten = s.read_service_ns(10);
        assert_eq!(ten - one, 9 * s.page_transfer_ns);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = ArrayConfig::small_test();
        c.num_ssds = 0;
        assert!(c.validate().is_err());
        let mut c = ArrayConfig::small_test();
        c.page_bytes = 3000;
        assert!(c.validate().is_err());
        let mut c = ArrayConfig::small_test();
        c.stripe_pages = 0;
        assert!(c.validate().is_err());
        assert!(ArrayConfig::small_test().validate().is_ok());
    }

    #[test]
    fn stripe_bytes_product() {
        let c = ArrayConfig::paper_array();
        assert_eq!(c.stripe_bytes(), 4096 * 16);
    }
}
