//! Standard-normal functions and Clark's max-of-Gaussians moments.
//!
//! Block-based SSTA reduces every timing computation to two kernels on
//! first-order Gaussian forms: `sum` (exact) and `max` (approximated by
//! moment matching). This module provides the scalar pieces:
//!
//! * `φ` ([`normal_pdf`]) and `Φ` ([`normal_cdf`]) of the standard normal,
//!   implemented with W. J. Cody's rational-Chebyshev `erf`/`erfc`
//!   approximations (double precision over the whole real line);
//! * `Φ⁻¹` ([`normal_quantile`]), Acklam's algorithm plus one Halley
//!   refinement step;
//! * [`clark_max`], the mean/variance/tightness-probability of
//!   `max{A, B}` for jointly Gaussian `A`, `B` (Clark, *Operations
//!   Research* 9(2), 1961 — equations (6)–(8) of the DATE'09 paper).

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// `1/sqrt(2π)`, the normalization constant of the standard normal pdf.
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// `1/sqrt(π)`, used by the asymptotic erfc expansion.
const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;

/// The error function `erf(x)`, accurate to full double precision.
///
/// Implementation: W. J. Cody's rational Chebyshev approximations
/// ("Rational Chebyshev approximation for the error function",
/// *Math. Comp.* 23, 1969), the same kernel used by most libm
/// implementations.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    if y <= 0.46875 {
        erf_small(x)
    } else {
        let e = erfc_large(y);
        if x >= 0.0 {
            1.0 - e
        } else {
            e - 1.0
        }
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Keeps full relative precision in the far right tail (where
/// `1 - erf(x)` would cancel catastrophically), which matters for tiny
/// edge criticalities.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    if y <= 0.46875 {
        1.0 - erf_small(x)
    } else if x >= 0.0 {
        erfc_large(y)
    } else {
        2.0 - erfc_large(y)
    }
}

/// Cody region 1: |x| <= 0.46875.
fn erf_small(x: f64) -> f64 {
    const A: [f64; 5] = [
        3.161_123_743_870_565_6e0,
        1.138_641_541_510_501_6e2,
        3.774_852_376_853_02e2,
        3.209_377_589_138_469_4e3,
        1.857_777_061_846_031_5e-1,
    ];
    const B: [f64; 4] = [
        2.360_129_095_234_412_2e1,
        2.440_246_379_344_441_7e2,
        1.282_616_526_077_372_3e3,
        2.844_236_833_439_171e3,
    ];
    let z = x * x;
    let mut num = A[4] * z;
    let mut den = z;
    for i in 0..3 {
        num = (num + A[i]) * z;
        den = (den + B[i]) * z;
    }
    x * (num + A[3]) / (den + B[3])
}

/// Cody regions 2 and 3: erfc(y) for y > 0.46875.
fn erfc_large(y: f64) -> f64 {
    if y <= 4.0 {
        const C: [f64; 9] = [
            5.641_884_969_886_701e-1,
            8.883_149_794_388_375,
            6.611_919_063_714_163e1,
            2.986_351_381_974_001e2,
            8.819_522_212_417_69e2,
            1.712_047_612_634_070_6e3,
            2.051_078_377_826_071_5e3,
            1.230_339_354_797_997_2e3,
            2.153_115_354_744_038_3e-8,
        ];
        const D: [f64; 8] = [
            1.574_492_611_070_983_5e1,
            1.176_939_508_913_125e2,
            5.371_811_018_620_099e2,
            1.621_389_574_566_690_2e3,
            3.290_799_235_733_459_6e3,
            4.362_619_090_143_247e3,
            3.439_367_674_143_721_6e3,
            1.230_339_354_803_749_4e3,
        ];
        let mut num = C[8] * y;
        let mut den = y;
        for i in 0..7 {
            num = (num + C[i]) * y;
            den = (den + D[i]) * y;
        }
        let r = (num + C[7]) / (den + D[7]);
        scaled_exp(y) * r
    } else if y < 26.5 {
        const P: [f64; 6] = [
            3.053_266_349_612_323_6e-1,
            3.603_448_999_498_044_5e-1,
            1.257_817_261_112_292_6e-1,
            1.608_378_514_874_227_5e-2,
            6.587_491_615_298_378e-4,
            1.631_538_713_730_209_7e-2,
        ];
        const Q: [f64; 5] = [
            2.568_520_192_289_822,
            1.872_952_849_923_460_4,
            5.279_051_029_514_285e-1,
            6.051_834_131_244_132e-2,
            2.335_204_976_268_691_8e-3,
        ];
        let z = 1.0 / (y * y);
        let mut num = P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + P[i]) * z;
            den = (den + Q[i]) * z;
        }
        let r = z * (num + P[4]) / (den + Q[4]);
        scaled_exp(y) * (FRAC_1_SQRT_PI - r) / y
    } else {
        0.0
    }
}

/// `exp(-y²)` computed with the split `y = hi + lo` trick to avoid losing
/// precision when `y²` is large.
fn scaled_exp(y: f64) -> f64 {
    let ysq = (y * 16.0).trunc() / 16.0;
    let del = (y - ysq) * (y + ysq);
    (-ysq * ysq).exp() * (-del).exp()
}

/// The standard normal probability density `φ(x)`.
///
/// # Example
///
/// ```
/// let at_zero = ssta_math::normal_pdf(0.0);
/// assert!((at_zero - 0.3989422804014327).abs() < 1e-15);
/// ```
pub fn normal_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// The standard normal cumulative distribution `Φ(x)`.
///
/// # Example
///
/// ```
/// assert!((ssta_math::normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((ssta_math::normal_cdf(1.959963984540054) - 0.975).abs() < 1e-12);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// The standard normal quantile `Φ⁻¹(p)` (inverse cdf).
///
/// Uses Acklam's rational approximation refined by one step of Halley's
/// method, giving full double precision for `p` in `(0, 1)`.
///
/// Returns `-∞` for `p == 0`, `+∞` for `p == 1` and `NaN` outside `[0, 1]`.
///
/// # Example
///
/// ```
/// let z = ssta_math::normal_quantile(0.975);
/// assert!((z - 1.959963984540054).abs() < 1e-12);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239e0,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838e0,
        -2.549_732_539_343_734e0,
        4.374_664_141_464_968e0,
        2.938_163_982_698_783e0,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996e0,
        3.754_408_661_907_416e0,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step drives the residual to machine precision.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Moment-matched parameters of `max{A, B}` for jointly Gaussian `A`, `B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxMoments {
    /// Mean of `max{A, B}` (equation (7) of the paper).
    pub mean: f64,
    /// Variance of `max{A, B}` (equation (8) of the paper), clamped at 0.
    pub variance: f64,
    /// Tightness probability `P{A ≥ B}` (equation (6) of the paper).
    pub tightness: f64,
}

/// Clark's formulas for the first two moments of `max{A, B}` where
/// `A ~ N(mean_a, var_a)`, `B ~ N(mean_b, var_b)` with covariance `cov`.
///
/// When `θ² = var_a + var_b − 2·cov` vanishes, `A − B` is deterministic and
/// the max degenerates to whichever operand has the larger mean; tightness
/// snaps to 1 (`A` wins ties, matching the paper's `P{A ≥ B}` convention).
///
/// # Example
///
/// ```
/// use ssta_math::clark_max;
///
/// // Two iid standard normals: E[max] = 1/sqrt(pi).
/// let m = clark_max(0.0, 1.0, 0.0, 1.0, 0.0);
/// assert!((m.mean - 0.5641895835477563).abs() < 1e-12);
/// assert!((m.tightness - 0.5).abs() < 1e-15);
/// ```
pub fn clark_max(mean_a: f64, var_a: f64, mean_b: f64, var_b: f64, cov: f64) -> MaxMoments {
    let theta_sq = var_a + var_b - 2.0 * cov;
    // Scale-aware degeneracy threshold: differences smaller than this are
    // numerically indistinguishable from perfectly correlated operands.
    let scale = var_a.abs().max(var_b.abs()).max(1e-300);
    if theta_sq <= 1e-12 * scale {
        return if mean_a >= mean_b {
            MaxMoments {
                mean: mean_a,
                variance: var_a.max(0.0),
                tightness: 1.0,
            }
        } else {
            MaxMoments {
                mean: mean_b,
                variance: var_b.max(0.0),
                tightness: 0.0,
            }
        };
    }
    let theta = theta_sq.sqrt();
    let alpha = (mean_a - mean_b) / theta;
    let tp = normal_cdf(alpha);
    let pdf = normal_pdf(alpha);

    let mean = tp * mean_a + (1.0 - tp) * mean_b + theta * pdf;
    let second_moment = tp * (var_a + mean_a * mean_a)
        + (1.0 - tp) * (var_b + mean_b * mean_b)
        + (mean_a + mean_b) * theta * pdf;
    let variance = (second_moment - mean * mean).max(0.0);

    MaxMoments {
        mean,
        variance,
        tightness: tp,
    }
}

/// The tightness probability `P{A ≥ B}` alone (equation (6) of the paper).
///
/// Cheaper than [`clark_max`] when only the probability is needed.
/// Always equals `normal_cdf(tightness_z(..))` bit for bit.
pub fn tightness_probability(mean_a: f64, var_a: f64, mean_b: f64, var_b: f64, cov: f64) -> f64 {
    normal_cdf(tightness_z(mean_a, var_a, mean_b, var_b, cov))
}

/// The standardized gap `z = (mean_a − mean_b) / θ` whose `Φ` is the
/// tightness probability `P{A ≥ B}`.
///
/// In the degenerate case (`θ²` negligible against the operand variances)
/// it returns `+∞` when `A` wins (ties included) and `−∞` otherwise, so
/// `normal_cdf` maps it to exactly 1 or 0. Split out so the criticality
/// engine can compare candidates in `z` and evaluate `Φ` only for those
/// that can raise a maximum.
pub fn tightness_z(mean_a: f64, var_a: f64, mean_b: f64, var_b: f64, cov: f64) -> f64 {
    let theta_sq = var_a + var_b - 2.0 * cov;
    let scale = var_a.abs().max(var_b.abs()).max(1e-300);
    if theta_sq <= 1e-12 * scale {
        return if mean_a >= mean_b {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    (mean_a - mean_b) / theta_sq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    #[test]
    fn erf_reference_values() {
        let cases = [
            (0.0, 0.0),
            (0.1, 0.1124629160182849),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 1e-14,
                "erf({x}) = {} != {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_tail_keeps_relative_precision() {
        // erfc(5) = 1.5374597944280348e-12 (mpmath).
        let got = erfc(5.0);
        let want = 1.5374597944280348e-12;
        assert!(((got - want) / want).abs() < 1e-10, "erfc(5) = {got}");
        // erfc(10) = 2.0884875837625448e-45.
        let got = erfc(10.0);
        let want = 2.088_487_583_762_545e-45;
        assert!(((got - want) / want).abs() < 1e-9, "erfc(10) = {got}");
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for &x in &[-8.0, -2.5, -0.3, 0.0, 0.2, 1.7, 4.0, 9.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14, "x = {x}");
        }
    }

    #[test]
    fn cdf_symmetry_and_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
        for &x in &[0.5, 1.0, 2.33, 4.7] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-14);
        }
        // Φ(1.6448536269514722) = 0.95.
        assert!((normal_cdf(1.6448536269514722) - 0.95).abs() < 1e-13);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[1e-10, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0 - 1e-6] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-13 * p.max(1.0 - p).max(1e-3),
                "round trip failed at p = {p}: x = {x}, cdf = {}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(-0.1).is_nan());
        assert!(normal_quantile(1.1).is_nan());
        assert!((normal_quantile(0.5)).abs() < 1e-15);
    }

    #[test]
    fn clark_max_iid_standard_normals() {
        // E[max(X,Y)] = 1/sqrt(pi), Var = 1 - 1/pi for iid N(0,1).
        let m = clark_max(0.0, 1.0, 0.0, 1.0, 0.0);
        assert!((m.mean - FRAC_1_SQRT_PI).abs() < 1e-12);
        assert!((m.variance - (1.0 - 1.0 / PI)).abs() < 1e-12);
        assert!((m.tightness - 0.5).abs() < 1e-15);
    }

    #[test]
    fn clark_max_dominant_operand() {
        // A is 10 sigma above B: max ≈ A.
        let m = clark_max(10.0, 1.0, 0.0, 1.0, 0.0);
        assert!((m.mean - 10.0).abs() < 1e-8);
        assert!((m.variance - 1.0).abs() < 1e-6);
        assert!(m.tightness > 1.0 - 1e-10);
    }

    #[test]
    fn clark_max_perfectly_correlated_degenerates() {
        let m = clark_max(1.0, 4.0, 3.0, 4.0, 4.0); // A = B - 2 surely
        assert_eq!(m.mean, 3.0);
        assert_eq!(m.variance, 4.0);
        assert_eq!(m.tightness, 0.0);

        let m = clark_max(3.0, 4.0, 1.0, 4.0, 4.0);
        assert_eq!(m.mean, 3.0);
        assert_eq!(m.tightness, 1.0);
    }

    #[test]
    fn clark_max_is_symmetric_in_distribution() {
        let m1 = clark_max(1.0, 2.0, 3.0, 4.0, 0.5);
        let m2 = clark_max(3.0, 4.0, 1.0, 2.0, 0.5);
        assert!((m1.mean - m2.mean).abs() < 1e-12);
        assert!((m1.variance - m2.variance).abs() < 1e-12);
        assert!((m1.tightness + m2.tightness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clark_max_exceeds_both_means() {
        // E[max{A,B}] >= max(E[A], E[B]) always holds for the exact max;
        // Clark's approximation preserves it.
        for &(ma, va, mb, vb, cov) in &[
            (0.0, 1.0, 0.0, 1.0, 0.0),
            (1.0, 0.5, 1.2, 2.0, 0.3),
            (-3.0, 1.0, -2.9, 1.0, 0.9),
        ] {
            let m = clark_max(ma, va, mb, vb, cov);
            assert!(m.mean >= ma.max(mb) - 1e-12);
        }
    }

    #[test]
    fn tightness_matches_clark() {
        let (ma, va, mb, vb, cov) = (1.0, 2.0, 1.5, 1.0, 0.4);
        let m = clark_max(ma, va, mb, vb, cov);
        let tp = tightness_probability(ma, va, mb, vb, cov);
        assert!((m.tightness - tp).abs() < 1e-15);
    }

    #[test]
    fn tightness_monte_carlo_cross_check() {
        // P{A >= B} with A ~ N(0.3, 1), B ~ N(0, 1), cov = 0.5:
        // A - B ~ N(0.3, 1 + 1 - 1 = 1)  =>  P = Φ(0.3).
        let tp = tightness_probability(0.3, 1.0, 0.0, 1.0, 0.5);
        assert!((tp - normal_cdf(0.3)).abs() < 1e-15);
    }

    #[test]
    fn tightness_probability_is_phi_of_tightness_z_bitwise() {
        let cases = [
            (1.0, 2.0, 1.5, 1.0, 0.4),
            (0.3, 1.0, 0.0, 1.0, 0.5),
            (-3.0, 1.0, -2.9, 1.0, 0.9),
            (50.0, 4.0, 40.0, 9.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.0),
            // Degenerate θ² (perfectly correlated operands): A wins ties.
            (3.0, 4.0, 1.0, 4.0, 4.0),
            (1.0, 4.0, 3.0, 4.0, 4.0),
            (2.0, 4.0, 2.0, 4.0, 4.0),
        ];
        for (ma, va, mb, vb, cov) in cases {
            let z = tightness_z(ma, va, mb, vb, cov);
            let tp = tightness_probability(ma, va, mb, vb, cov);
            assert_eq!(
                tp.to_bits(),
                normal_cdf(z).to_bits(),
                "case {ma} {va} {mb} {vb} {cov}"
            );
        }
        assert_eq!(tightness_z(3.0, 4.0, 1.0, 4.0, 4.0), f64::INFINITY);
        assert_eq!(tightness_z(2.0, 4.0, 2.0, 4.0, 4.0), f64::INFINITY);
        assert_eq!(tightness_z(1.0, 4.0, 3.0, 4.0, 4.0), f64::NEG_INFINITY);
        assert_eq!(normal_cdf(f64::INFINITY), 1.0);
        assert_eq!(normal_cdf(f64::NEG_INFINITY), 0.0);
    }

    /// `normal_cdf` is not ulp-monotone (it can drop by an ulp across a
    /// Cody region boundary), but the criticality engine only relies on
    /// `z1 < z2 − 1e-6 ⇒ Φ(z1) ≤ Φ(z2)` for `z2 ≤ 5`. Check that premise
    /// over a dense grid on `[−40, 5]` merged with ±10⁶-ulp walks around
    /// every region boundary (`|z| = 0.46875·√2, 4·√2, 26.5·√2`).
    #[test]
    fn normal_cdf_is_monotone_beyond_the_skip_margin() {
        const MARGIN: f64 = 1e-6;
        const WALK: i64 = 1_000_000;
        const STEP: f64 = 1e-5;
        let mut centers: Vec<f64> = [0.46875, 4.0, 26.5]
            .iter()
            .flat_map(|&y| [-y / FRAC_1_SQRT_2, y / FRAC_1_SQRT_2])
            .collect();
        centers.sort_by(f64::total_cmp);
        // Ascending ulp walk around `c` (for negative `c` larger bit
        // patterns are further from zero).
        let walk = |c: f64| {
            let bits = c.to_bits() as i64;
            let dir = if c > 0.0 { 1 } else { -1 };
            (-WALK..=WALK).map(move |k| f64::from_bits((bits + dir * k) as u64))
        };
        let walks = centers.into_iter().flat_map(walk);
        let n_grid = (45.0 / STEP) as usize;
        let grid = (0..=n_grid).map(|k| -40.0 + k as f64 * STEP);

        // Merge both ascending streams; keep the points within MARGIN of
        // the current one in a window and fold older ones into a running
        // maximum of Φ.
        let mut walks = walks.peekable();
        let mut grid = grid.peekable();
        let mut window = std::collections::VecDeque::new();
        let mut max_before = f64::NEG_INFINITY;
        let mut checked = 0usize;
        let mut prev = f64::NEG_INFINITY;
        loop {
            let z = match (grid.peek(), walks.peek()) {
                (Some(&g), Some(&w)) if g <= w => grid.next(),
                (Some(_), Some(_)) => walks.next(),
                (Some(_), None) => grid.next(),
                (None, _) => walks.next(),
            };
            let Some(z) = z else { break };
            assert!(z >= prev, "points must ascend: {prev} then {z}");
            prev = z;
            while let Some(&(w, phi)) = window.front() {
                if w < z - MARGIN {
                    max_before = f64::max(max_before, phi);
                    window.pop_front();
                } else {
                    break;
                }
            }
            let phi = normal_cdf(z);
            assert!(
                max_before <= phi,
                "Φ({z}) = {phi} below {max_before} reached more than {MARGIN} to its left"
            );
            window.push_back((z, phi));
            checked += 1;
        }
        assert_eq!(checked, n_grid + 1 + 6 * (2 * WALK as usize + 1));
    }
}
