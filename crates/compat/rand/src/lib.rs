//! # rand — offline stand-in
//!
//! This workspace builds in a hermetic environment with no crates-io
//! access, so the pieces of the `rand` API that ONION actually uses are
//! vendored here behind the same paths: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] and
//! [`Rng::gen_bool`].
//!
//! The generator is SplitMix64: deterministic for a given seed, fast,
//! and statistically far better than the test workloads need. Integer
//! sampling uses simple modulo reduction — fine for seeded test-data
//! generation, not for statistics-grade uniformity.
//!
//! If the workspace later moves to an environment with registry access,
//! delete `crates/compat/rand` and point `workspace.dependencies.rand`
//! at crates-io; every call site already matches the real 0.8 API.

#![forbid(unsafe_code)]

pub mod rngs;

/// The output side of a random generator: a stream of `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed. Only `seed_from_u64` is provided because
/// that is the only constructor the workspace uses.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value in `range` (`a..b`, `a..=b`, or a float `a..b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1], got {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Maps 64 random bits onto `[0, 1)` with 53 bits of precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range that knows how to draw one uniform sample of `T` from an rng.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + offset) as $t
            }
        }

        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let v = self.start + unit_f64(rng.next_u64()) as $t * (self.end - self.start);
                // Rounding (f32 narrowing, or the fma above) can land
                // exactly on the excluded end; keep the half-open
                // contract by folding that sliver onto start.
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}

float_sample_range!(f32, f64);

#[cfg(test)]
mod tests {
    use crate::rngs::StdRng;
    use crate::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(2usize..=3);
            assert!((2..=3).contains(&w));
            let f = rng.gen_range(100.0..50_000.0_f64);
            assert!((100.0..50_000.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).map(|_| rng.gen_bool(0.0)).any(|b| b));
        assert!((0..100).map(|_| rng.gen_bool(1.0)).all(|b| b));
    }
}
