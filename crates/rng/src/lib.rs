//! Deterministic pseudo-random numbers, a property-test harness, and JSON.
//!
//! The workspace builds fully offline, so this crate replaces the external
//! `rand` and `proptest` dependencies with two small, well-known generators
//! and a `forall`-style test runner:
//!
//! * [`SplitMix64`] — Steele et al.'s 64-bit mixer; used to derive seeds and
//!   as a fast standalone generator;
//! * [`Pcg32`] — O'Neill's PCG-XSH-RR 64/32; the workhorse generator behind
//!   topology synthesis, gravity traffic, and the test harness;
//! * [`Fnv1a`] — the 64-bit FNV-1a hash behind every digest, fingerprint
//!   and name-derived seed in the workspace;
//! * [`check`] — a property-test runner with a fixed per-case seed corpus,
//!   an iteration cap, and shrinking-lite (caller-provided candidate
//!   shrinkers, greedily applied while the property still fails);
//! * [`json`] — the workspace's one JSON module: the wire parser and the
//!   writer behind every response and report.
//!
//! Everything is deterministic: the same seed always produces the same
//! stream on every platform, so failures reproduce bit-for-bit.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod check;
pub mod json;

pub use check::{forall, mutate_bytes, no_shrink, Config};

/// 64-bit FNV-1a (Fowler, Noll & Vo): xor each byte in, multiply by the
/// FNV prime. Not a cryptographic hash; it fingerprints plans, reports and
/// cache keys, and the result depends only on the byte sequence fed in.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` in order.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds the eight little-endian bytes of `x`.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, high-quality
/// 64-bit generator. Primarily used to expand one user seed into many
/// independent stream seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32 (O'Neill 2014): 64-bit state, 32-bit output, period
/// 2^64 per stream. Seeded through [`SplitMix64`] so that nearby seeds
/// yield uncorrelated streams.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Creates a generator from a 64-bit seed (default stream).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self::new(sm.next_u64(), sm.next_u64())
    }

    /// Creates a generator with an explicit state and stream selector.
    pub fn new(initstate: u64, initseq: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(initstate);
        rng.next_u32();
        rng
    }

    /// Next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64-bit output (two 32-bit draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, n)` via Lemire's widening-multiply method
    /// (debiased). Returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            // Reject the short final stripe to debias.
            if lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        lo + self.below((hi - lo) as u64 + 1) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A standard normal deviate (Box–Muller, cosine branch).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64().max(1e-12);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Uniformly chooses an element of a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        // Test vectors from the FNV reference distribution.
        assert_eq!(Fnv1a::new().finish(), 0xcbf29ce484222325);
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        let mut words = Fnv1a::new();
        words.write_u64(0x0807060504030201);
        let mut bytes = Fnv1a::new();
        bytes.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference sequence for seed 1234567 (from the public-domain
        // reference implementation).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn pcg_deterministic_across_clones() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Pcg32::seed_from_u64(43);
        let same = (0..100).filter(|_| a.next_u32() == c.next_u32()).count();
        assert!(
            same < 5,
            "different seeds should diverge ({same} collisions)"
        );
    }

    #[test]
    fn f64_in_unit_interval_and_well_spread() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Pcg32::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn range_helpers_respect_bounds() {
        let mut rng = Pcg32::seed_from_u64(11);
        for _ in 0..100 {
            let v = rng.range_usize(3, 9);
            assert!((3..9).contains(&v));
            let w = rng.range_usize_inclusive(3, 3);
            assert_eq!(w, 3);
            let x = rng.range_f64(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seed_from_u64(13);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_has_roughly_unit_variance() {
        let mut rng = Pcg32::seed_from_u64(17);
        let n = 20_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
