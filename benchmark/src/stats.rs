//! Order statistics and the FNV-1a digest the determinism guard uses.

/// Median of `xs` (mean of the two middle values for an even count).
/// Sorts in place so no allocation lands inside a measured region.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Exact `q`-quantile (nearest rank) of an already sorted sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max - min) / median`: how far apart the passes of one run landed.
pub fn spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let med = median(&mut v);
    (v[v.len() - 1] - v[0]) / med
}

/// FNV-1a over 64-bit words, for instance and pass fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in, byte by byte.
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes the exact bit pattern of a float in.
    pub fn eat_f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }
}
