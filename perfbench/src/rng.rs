//! A seeded splitmix64 stream: the benchmark derives every input from the
//! `--seed` argument through it, so the same seed always yields the same
//! systems and operation lists.

/// Splitmix64 generator (Steele, Lea & Flood, 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi` (modulo bias is irrelevant at these
    /// ranges).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// An independent child stream, keyed by `label`.
    pub fn fork(&mut self, label: u64) -> Rng {
        Rng(self.next_u64() ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}
