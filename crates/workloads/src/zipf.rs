//! Zipfian sampling and analytic skew helpers.

use rambda_des::SimRng;

/// A Zipfian distribution over ranks `0..n` with exponent `theta`
/// (`theta = 0` degenerates to uniform; the evaluation uses 0.9).
///
/// Uses rejection-inversion sampling (W. Hörmann & G. Derflinger), O(1) per
/// sample with no per-rank tables, so 100 M-key workloads are cheap.
///
/// ```
/// use rambda_des::SimRng;
/// use rambda_workloads::Zipf;
///
/// let zipf = Zipf::new(1_000_000, 0.9);
/// let mut rng = SimRng::seed(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // Precomputed constants for rejection-inversion.
    h_half: f64,
    /// `H(n + 0.5)`, the top of the inversion interval.
    h_n: f64,
    s: f64,
}

/// `x.round()`, bit for bit, without the libm call it compiles to on
/// baseline x86-64. For `0 < x < 2^52` the remainder after truncation is
/// exact, so rounding half away from zero is one compare; every other input
/// takes `f64::round`.
#[inline]
fn round(x: f64) -> f64 {
    if x > 0.0 && x < 4_503_599_627_370_496.0 {
        let t = x as u64 as f64;
        if x - t >= 0.5 {
            t + 1.0
        } else {
            t
        }
    } else {
        x.round()
    }
}

impl Zipf {
    /// Creates a sampler over `0..n` with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `theta < 0`, or `theta >= 1` is not finite.
    /// (Exponents ≥ 1 are supported too; only NaN/negative are rejected.)
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(theta.is_finite() && theta >= 0.0, "bad exponent {theta}");
        let h = |x: f64| -> f64 { Self::h_static(x, theta) };
        let h_half = h(0.5);
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - Self::h_inv_static(h(2.5) - Self::pow_theta(2.0, theta), theta);
        Zipf { n, theta, h_half, h_n, s }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    fn pow_theta(x: f64, theta: f64) -> f64 {
        (-theta * x.ln()).exp()
    }

    /// H(x) = (x^(1-theta) - 1) / (1 - theta), with the log limit at 1.
    fn h_static(x: f64, theta: f64) -> f64 {
        let one_minus = 1.0 - theta;
        if one_minus.abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(one_minus) - 1.0) / one_minus
        }
    }

    fn h_inv_static(x: f64, theta: f64) -> f64 {
        let one_minus = 1.0 - theta;
        if one_minus.abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + one_minus * x).powf(1.0 / one_minus)
        }
    }

    fn h(&self, x: f64) -> f64 {
        Self::h_static(x, self.theta)
    }

    fn h_inv(&self, x: f64) -> f64 {
        Self::h_inv_static(x, self.theta)
    }

    /// Draws a rank in `0..n` (rank 0 is the hottest).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.n);
        }
        let n = self.n as f64;
        loop {
            let u = self.h_half + rng.f64() * (self.h_n - self.h_half);
            let x = self.h_inv(u);
            let k = round(x).clamp(1.0, n);
            // Acceptance test.
            if k - x <= self.s || u >= self.h(k + 0.5) - Self::pow_theta(k, self.theta) {
                return k as u64 - 1;
            }
        }
    }

    /// Analytic probability mass of the hottest `c` ranks: the expected hit
    /// rate of an LRU-ish cache holding `c` of the `n` items. Used to model
    /// the Smart NIC's 512 MB on-board cache under skew.
    pub fn hot_mass(&self, c: u64) -> f64 {
        let c = c.min(self.n);
        if c == 0 {
            return 0.0;
        }
        // Continuous approximation of generalized harmonic sums.
        let h = |x: f64| self.h(x + 0.5);
        let num = h(c as f64) - self.h(0.5);
        let den = h(self.n as f64) - self.h(0.5);
        (num / den).clamp(0.0, 1.0)
    }

    /// Mass of the `c` hottest items behaving uniformly (theta = 0): `c/n`.
    pub fn uniform_mass(n: u64, c: u64) -> f64 {
        (c.min(n) as f64) / (n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let zipf = Zipf::new(1000, 0.9);
        let mut rng = SimRng::seed(1);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let zipf = Zipf::new(100, 0.0);
        let mut rng = SimRng::seed(2);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max as f64 / (*min as f64) < 1.4, "min={min} max={max}");
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let zipf = Zipf::new(1_000_000, 0.9);
        let mut rng = SimRng::seed(3);
        let mut hot = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10_000 {
                hot += 1; // top 1% of keys
            }
        }
        let frac = hot as f64 / n as f64;
        // Zipf 0.9 over 1M keys puts roughly half the mass on the top 1%.
        assert!((0.4..0.75).contains(&frac), "frac={frac}");
        // And matches the analytic mass within a few percent.
        let analytic = zipf.hot_mass(10_000);
        assert!((frac - analytic).abs() < 0.05, "emp={frac} analytic={analytic}");
    }

    #[test]
    fn hot_mass_monotone_and_bounded() {
        let zipf = Zipf::new(1_000_000, 0.9);
        let mut last = 0.0;
        for c in [0u64, 10, 1000, 100_000, 1_000_000, 2_000_000] {
            let m = zipf.hot_mass(c);
            assert!((0.0..=1.0).contains(&m));
            assert!(m >= last);
            last = m;
        }
        assert_eq!(zipf.hot_mass(0), 0.0);
        assert!((zipf.hot_mass(1_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_mass_is_linear() {
        assert_eq!(Zipf::uniform_mass(100, 50), 0.5);
        assert_eq!(Zipf::uniform_mass(100, 200), 1.0);
    }

    #[test]
    fn kvs_cache_scenario_matches_paper_intuition() {
        // Smart NIC: 512MB cache over ~7GB of hash entries + pairs.
        // With uniform keys >90% of accesses go to the host (Sec. VI-B);
        // with Zipf 0.9 most hit the cache.
        let n = 100_000_000u64; // 100M pairs
        let cache_items = n / 14; // 512MB : 7GB
        let uniform = Zipf::uniform_mass(n, cache_items);
        assert!(uniform < 0.08);
        let zipf = Zipf::new(n, 0.9);
        let skewed = zipf.hot_mass(cache_items);
        assert!(skewed > 0.55, "skewed={skewed}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 0.9);
    }

    /// `Zipf::sample` before `H(n + 0.5)` moved into `new` and the inline
    /// rounding replaced `f64::round`: the reference stream.
    fn reference_sample(z: &Zipf, rng: &mut SimRng) -> u64 {
        if z.theta == 0.0 {
            return rng.gen_range(0..z.n);
        }
        let n = z.n as f64;
        let h_n = z.h(n + 0.5);
        loop {
            let u = z.h_half + rng.f64() * (h_n - z.h_half);
            let x = z.h_inv(u);
            let k = x.round().clamp(1.0, n);
            if k - x <= z.s || u >= z.h(k + 0.5) - Zipf::pow_theta(k, z.theta) {
                return k as u64 - 1;
            }
        }
    }

    #[test]
    fn round_matches_libm() {
        let two_52 = 4_503_599_627_370_496.0;
        let mut cases = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            2.5,
            two_52 - 0.5,
            two_52,
            two_52 + 2.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -2.5,
            f64::NAN,
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cases.push(f64::from_bits(x));
            cases.push((x >> 11) as f64 / (1u64 << 20) as f64);
        }
        for v in cases {
            assert_eq!(round(v).to_bits(), v.round().to_bits(), "{v:e}");
        }
    }

    proptest::proptest! {
        /// Sample streams equal the reference's for the uniform case, the
        /// paper's skews, and θ = 1 (the log branch of H).
        #[test]
        fn sample_stream_equals_reference(seed in proptest::prelude::any::<u64>(), n in 1u64..200_000_000) {
            for theta in [0.0, 0.5, 0.75, 0.8, 0.85, 0.9, 0.99, 1.0, 1.2] {
                let z = Zipf::new(n, theta);
                let (mut fast, mut reference) = (SimRng::seed(seed), SimRng::seed(seed));
                for _ in 0..256 {
                    proptest::prop_assert_eq!(z.sample(&mut fast), reference_sample(&z, &mut reference));
                }
                proptest::prop_assert_eq!(fast.gen_range(0..u64::MAX), reference.gen_range(0..u64::MAX));
            }
        }
    }

    #[test]
    fn dlrm_pair_stream_equals_reference() {
        // Each DLRM profile's pair sampler at paper scale (262 144 rows).
        for profile in crate::DlrmProfile::all() {
            let z = Zipf::new(131_072, profile.zipf_theta);
            let (mut fast, mut reference) = (SimRng::seed(21), SimRng::seed(21));
            for _ in 0..50_000 {
                assert_eq!(z.sample(&mut fast), reference_sample(&z, &mut reference), "{}", profile.name);
            }
        }
    }
}
