//! Small deterministic pseudo-random number generator.
//!
//! The workspace needs randomness in two places: the simulated-annealing
//! floorplanner (`tsc-phydes`) and the randomized property tests that
//! fuzz solver invariants. Both need *reproducible* streams far more than
//! they need cryptographic quality, so this crate provides a SplitMix64
//! generator — a tiny, well-studied mixer with a full 2^64 period over
//! its counter, no bad seeds (even 0), and exact cross-platform
//! determinism. Keeping it in-repo also keeps the build hermetic: no
//! network access is needed to compile the workspace.
//!
//! ```
//! use tsc_rng::Rng64;
//! let mut rng = Rng64::seed_from_u64(42);
//! let a = rng.gen_range(0..10);
//! assert!(a < 10);
//! let f = rng.gen_f64();
//! assert!((0.0..1.0).contains(&f));
//! ```

// No crate outside tsc-thermal may contain `unsafe` (enforced
// statically here and by `cargo run -p tsc-analyze`).
#![forbid(unsafe_code)]

use core::ops::Range;

/// SplitMix64's state increment (the "golden gamma", 2^64 / phi).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer: the output for a state word that has
/// just taken its [`GAMMA`] step. [`Rng64::next_u64`] is this over a
/// private counter; a lock-free stream can run it over an atomic one.
#[must_use]
pub fn finalize(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of a raw output.
#[must_use]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64 pseudo-random generator.
///
/// Deterministic for a given seed, `Send`, and cheap to clone (16 bytes
/// of state would be xoshiro; SplitMix64 carries just 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seeds the generator. Every seed, including zero, is valid.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The raw generator word. Together with [`Rng64::from_state`] this
    /// lets checkpointing code persist a stream mid-sequence and resume
    /// it bitwise-identically.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator at an exact stream position captured by
    /// [`Rng64::state`]. Unlike [`Rng64::seed_from_u64`] this is a
    /// resume, not a fresh seed — the distinction only matters for
    /// reading checkpoint code.
    #[must_use]
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// Next raw 64-bit output (SplitMix64 step).
    #[allow(clippy::should_implement_trait)]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is below
    /// 2^-32 for any range this workspace uses, which is negligible next
    /// to the sampling noise of the tests that call it.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(
            range.start < range.end,
            "gen_range requires a non-empty range"
        );
        let span = (range.end - range.start) as u64;
        let hi = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start + hi as usize
    }

    /// Uniform `f64` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or either bound is non-finite.
    pub fn gen_range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(
            range.start.is_finite() && range.end.is_finite() && range.start < range.end,
            "gen_range_f64 requires a finite non-empty range"
        );
        range.start + self.gen_f64() * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    /// The stream every seeded workload and property test draws from;
    /// seed 0's first word is SplitMix64's published reference output.
    #[test]
    fn first_outputs_match_the_known_answers() {
        let known: [(u64, [u64; 4]); 2] = [
            (
                0,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                    0xF88B_B8A8_724C_81EC,
                ],
            ),
            (
                42,
                [
                    0xBDD7_3226_2FEB_6E95,
                    0x28EF_E333_B266_F103,
                    0x4752_6757_130F_9F52,
                    0x581C_E1FF_0E4A_E394,
                ],
            ),
        ];
        for (seed, words) in known {
            let mut rng = Rng64::seed_from_u64(seed);
            for (i, word) in words.into_iter().enumerate() {
                assert_eq!(rng.next_u64(), word, "seed {seed}, output {i}");
            }
        }
        let mut rng = Rng64::seed_from_u64(42);
        assert_eq!(
            rng.gen_f64().to_bits(),
            unit_f64(0xBDD7_3226_2FEB_6E95).to_bits()
        );
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = Rng64::seed_from_u64(0);
        for _ in 0..10_000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f), "{f} out of [0,1)");
        }
    }

    #[test]
    fn ranges_hit_all_values() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all range values reachable");
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = Rng64::seed_from_u64(11);
        for _ in 0..1_000 {
            let v = rng.gen_range_f64(-3.0..7.5);
            assert!((-3.0..7.5).contains(&v));
        }
    }

    #[test]
    fn mean_is_roughly_centred() {
        let mut rng = Rng64::seed_from_u64(99);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_f64()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut a = Rng64::seed_from_u64(19);
        for _ in 0..13 {
            let _ = a.next_u64();
        }
        let mut b = Rng64::from_state(a.state());
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn empty_range_panics() {
        let mut rng = Rng64::seed_from_u64(1);
        let _ = rng.gen_range(3..3);
    }
}
