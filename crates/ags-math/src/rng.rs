//! A small deterministic PCG32 random number generator.
//!
//! Library code uses this generator (rather than an external crate) so results
//! are bit-stable across dependency upgrades — important because the
//! experiment harness compares against recorded paper-shaped numbers.

/// PCG-XSH-RR 64/32 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from a seed and stream id.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self { state: 0, inc: (stream << 1) | 1 };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator from a single seed (stream 0xda3e39cb94b95bdb).
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// The raw `(state, increment)` pair — checkpointing support.
    pub fn state_parts(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// Rebuilds a generator mid-sequence from [`Self::state_parts`].
    pub fn from_state_parts(state: u64, inc: u64) -> Self {
        Self { state, inc }
    }

    /// Next raw 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics when `bound == 0`.
    #[inline]
    pub fn range_u32(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "range_u32 bound must be positive");
        let mut x = self.next_u32();
        let mut m = (x as u64).wrapping_mul(bound as u64);
        let mut l = m as u32;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u32();
                m = (x as u64).wrapping_mul(bound as u64);
                l = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Uniform usize index in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.range_u32(bound as u32) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal_f32(&mut self) -> f32 {
        let u1 = self.next_f32().max(1e-12);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::seeded(42);
        let mut b = Pcg32::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn state_parts_resume_mid_sequence() {
        let mut a = Pcg32::seeded(99);
        for _ in 0..17 {
            a.next_u32();
        }
        let (state, inc) = a.state_parts();
        let mut b = Pcg32::from_state_parts(state, inc);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::seeded(1);
        let mut b = Pcg32::seeded(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = Pcg32::seeded(7);
        for _ in 0..1000 {
            let v = rng.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_u32_within_bound() {
        let mut rng = Pcg32::seeded(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.range_u32(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_u32_zero_panics() {
        Pcg32::seeded(0).range_u32(0);
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = Pcg32::seeded(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal_f32()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|&s| (s - mean) * (s - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seeded(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should change order with overwhelming probability");
    }
}
