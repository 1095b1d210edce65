//! Seeded randomness and the process clock — plain `std`, no workspace
//! crates.

/// SplitMix64: every workload input (graph seed, roots, query order,
/// delta batches) is drawn from one of these, seeded from `--seed` and
/// a per-purpose tag, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, tag: &str) -> Rng {
        // FNV-1a over the tag keeps streams for different purposes
        // apart even for adjacent seeds.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Process CPU seconds so far (user + system, all threads, including
/// ones that have exited), from `/proc/self/stat`. The kernel reports
/// clock ticks of 1/100 s, so callers sum over a whole phase and
/// divide rather than timing single short operations. `None` where
/// procfs is missing.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are
    // positional only after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_tag_separated() {
        let a: Vec<u64> = {
            let mut r = Rng::new(12, "roots");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(12, "roots");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(12, "queries");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(13, "roots");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!((0..100).all(|_| Rng::new(1, "x").below(7) < 7));
    }

    #[test]
    fn cpu_clock_moves_forward() {
        let Some(before) = cpu_seconds() else { return };
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds().unwrap() >= before);
    }
}
