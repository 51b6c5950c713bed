//! Special mathematical functions.
//!
//! Everything the distribution zoo needs, implemented from scratch:
//! log-gamma (Lanczos), digamma, the error function, the standard normal
//! CDF, and the regularized incomplete gamma function. Each
//! implementation cites the standard source of its coefficients and is
//! validated against high-precision reference values in the tests.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, n = 9 coefficients; Numerical Recipes /
/// Godfrey). Absolute error below `1e-13` over the tested range.
///
/// # Panics
///
/// Panics if `x <= 0` (the analysis only evaluates positive arguments; the
/// reflection formula is intentionally out of scope).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection for small x keeps precision near zero:
        // Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Recurrence to push the argument above 6, then the asymptotic series
/// (Abramowitz & Stegun 6.3.18). Absolute error below `1e-12`.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// The error function `erf(x)`.
///
/// Uses the relationship to the regularized incomplete gamma function for
/// accuracy: `erf(x) = P(1/2, x²)` for `x ≥ 0`, odd extension otherwise.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let v = lower_regularized_gamma(0.5, x * x);
    if x > 0.0 {
        v
    } else {
        -v
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, computed
/// without cancellation for large positive `x`.
pub fn erfc(x: f64) -> f64 {
    if x <= 0.0 {
        // No cancellation here: erf(x) ≤ 0 so the subtraction only adds.
        return 1.0 - erf(x);
    }
    upper_regularized_gamma(0.5, x * x)
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Lower regularized incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)` for
/// `a > 0`, `x ≥ 0`.
///
/// Series expansion for `x < a + 1`, Lentz continued fraction otherwise
/// (Numerical Recipes `gammp`).
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn lower_regularized_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "lower_regularized_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "lower_regularized_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_frac(a, x)
    }
}

/// Upper regularized incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn upper_regularized_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid arguments a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cont_frac(a, x)
    }
}

/// Series representation of `P(a, x)`, converges fast for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of `Q(a, x)` via modified Lentz.
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
        assert!(
            (actual - expected).abs() <= tol * expected.abs().max(1.0),
            "{what}: got {actual}, want {expected}"
        );
    }

    #[test]
    fn ln_gamma_reference_values() {
        // Γ(n) = (n-1)! exactly.
        assert_close(ln_gamma(1.0), 0.0, 1e-12, "lnΓ(1)");
        assert_close(ln_gamma(2.0), 0.0, 1e-12, "lnΓ(2)");
        assert_close(ln_gamma(5.0), 24f64.ln(), 1e-12, "lnΓ(5)");
        assert_close(ln_gamma(11.0), (3_628_800f64).ln(), 1e-12, "lnΓ(11)");
        // Γ(1/2) = √π.
        assert_close(
            ln_gamma(0.5),
            0.5 * std::f64::consts::PI.ln(),
            1e-12,
            "lnΓ(0.5)",
        );
        // lnΓ(100) = ln(99!), exactly known.
        assert_close(ln_gamma(100.0), 359.134_205_369_575_4, 1e-12, "lnΓ(100)");
        // Stirling cross-check at a non-integer argument.
        let x: f64 = 123.456;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x);
        assert_close(ln_gamma(x), stirling, 1e-7, "lnΓ(123.456) vs Stirling");
    }

    #[test]
    fn digamma_reference_values() {
        const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
        assert_close(digamma(1.0), -EULER_MASCHERONI, 1e-11, "ψ(1)");
        // ψ(2) = 1 − γ.
        assert_close(digamma(2.0), 1.0 - EULER_MASCHERONI, 1e-11, "ψ(2)");
        // ψ(0.5) = −γ − 2 ln 2.
        assert_close(
            digamma(0.5),
            -EULER_MASCHERONI - 2.0 * 2f64.ln(),
            1e-11,
            "ψ(0.5)",
        );
        // ψ(10) (Wolfram Alpha).
        assert_close(digamma(10.0), 2.251_752_589_066_721, 1e-11, "ψ(10)");
    }

    #[test]
    fn digamma_is_derivative_of_ln_gamma() {
        for &x in &[0.3f64, 1.0, 2.5, 7.7, 42.0] {
            let h = 1e-6 * x.max(1.0);
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert_close(digamma(x), numeric, 1e-5, "ψ vs numeric derivative");
        }
    }

    #[test]
    fn erf_reference_values() {
        assert_close(erf(0.0), 0.0, 1e-14, "erf(0)");
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-10, "erf(1)");
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-10, "erf(2)");
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10, "erf(-1)");
    }

    #[test]
    fn erfc_avoids_cancellation_in_the_tail() {
        assert_close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-8, "erfc(3)");
        assert_close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-7, "erfc(5)");
        assert_close(erfc(0.0), 1.0, 1e-14, "erfc(0)");
        assert_close(erfc(-1.0), 1.842_700_792_949_715, 1e-10, "erfc(-1)");
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert_close(std_normal_cdf(0.0), 0.5, 1e-14, "Φ(0)");
        assert_close(std_normal_cdf(1.96), 0.975_002_104_851_780, 1e-9, "Φ(1.96)");
        assert_close(std_normal_cdf(-1.0), 0.158_655_253_931_457, 1e-9, "Φ(-1)");
    }

    #[test]
    fn regularized_gamma_reference_values() {
        // P(1, x) = 1 − e^{-x}.
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert_close(
                lower_regularized_gamma(1.0, x),
                1.0 - (-x).exp(),
                1e-12,
                "P(1,x)",
            );
        }
        // P and Q are complementary on both branches.
        for &(a, x) in &[(0.5, 0.1), (2.0, 5.0), (10.0, 3.0), (10.0, 30.0)] {
            let p = lower_regularized_gamma(a, x);
            let q = upper_regularized_gamma(a, x);
            assert_close(p + q, 1.0, 1e-12, "P+Q=1");
        }
        // Wolfram Alpha: P(3, 2) = 0.3233235838169365.
        assert_close(
            lower_regularized_gamma(3.0, 2.0),
            0.323_323_583_816_936_5,
            1e-10,
            "P(3,2)",
        );
    }

    #[test]
    fn regularized_gamma_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = lower_regularized_gamma(4.2, x);
            assert!(p >= prev, "P(4.2, x) not monotone at x={x}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }
}
