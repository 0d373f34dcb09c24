//! Output analysis for simulation experiments.
//!
//! Implements the method of §4.2.2 of the paper (after Banks, *Output
//! Analysis Capabilities of Simulation Software*, 1996):
//!
//! 1. For `n` independent replications compute the sample mean `X̄` and the
//!    sample standard deviation `σ`.
//! 2. The half-width of the `c` confidence interval is
//!    `h = t(n−1, 1−α/2) · σ / √n` with `α = 1 − c`, `t` being the Student
//!    t-distribution quantile.
//! 3. A pilot study of `n = 10` replications determines the number of
//!    additional replications `n* = n · (h/h*)²` needed to reach the desired
//!    half-width `h*`. The paper found 100 replications always enough and
//!    fixed that count; so does the scenario runner (`replications`).
//!
//! The Student-t quantile is computed from scratch (regularised incomplete
//! beta + bisection) because no external statistics crate is sanctioned.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long runs; used for every observation-based
/// statistic in the kernel (waiting times, response times, I/O counts …).
#[derive(Clone, Debug, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Adds one observation.
    #[inline(always)]
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Time-weighted average of a piecewise-constant quantity (queue length,
/// resource utilisation, buffer occupancy …).
#[derive(Clone, Debug, Default)]
pub struct TimeWeighted {
    last_time: f64,
    last_value: f64,
    integral: f64,
    start: f64,
    started: bool,
}

impl TimeWeighted {
    /// Records that the tracked quantity takes `value` from instant `now`
    /// (in ms) onwards.
    ///
    /// Timestamps must be non-decreasing; a `now` earlier than the last
    /// recorded instant is clamped to it (the update applies "now" in
    /// accumulator time), so a misbehaving caller can never produce a
    /// negative weight that silently corrupts the integral.
    #[inline(always)]
    pub fn update(&mut self, now: f64, value: f64) {
        if !self.started {
            self.start = now;
            self.started = true;
        } else {
            let now = now.max(self.last_time);
            self.integral += self.last_value * (now - self.last_time);
        }
        self.last_time = self.last_time.max(now);
        self.last_value = value;
    }

    /// Time-weighted mean over `[start, now]`. A `now` earlier than the
    /// last recorded instant is clamped to it (see [`Self::update`]).
    pub fn mean(&self, now: f64) -> f64 {
        let now = now.max(self.last_time);
        if !self.started || now <= self.start {
            return 0.0;
        }
        let integral = self.integral + self.last_value * (now - self.last_time);
        integral / (now - self.start)
    }
}

/// ln Γ(x) by the Lanczos approximation (g = 7, n = 9), |error| < 1e-13 for
/// x > 0.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma: x must be positive, got {x}");
    #[allow(clippy::excessive_precision, reason = "published Lanczos constants")]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularised incomplete beta function I_x(a, b), by Lentz's continued
/// fraction (Numerical Recipes style).
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "incomplete_beta: a, b must be positive");
    assert!(
        (0.0..=1.0).contains(&x),
        "incomplete_beta: x must be in [0,1]"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use whichever side of the symmetry relation converges fast; both
    // branches evaluate the continued fraction directly (no recursion, which
    // could oscillate at the boundary x = (a+1)/(a+b+2)).
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-30;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the Student t-distribution with `df` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "student_t_cdf: df must be positive");
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let p = 0.5 * incomplete_beta(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Quantile (inverse CDF) of the Student t-distribution, by bisection on the
/// CDF. Accurate to ~1e-10, far beyond what output analysis needs.
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&p) && p > 0.0,
        "quantile: p must be in (0,1)"
    );
    assert!(df > 0.0, "quantile: df must be positive");
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Symmetric: solve for the upper tail and mirror.
    if p < 0.5 {
        return -student_t_quantile(1.0 - p, df);
    }
    let (mut lo, mut hi) = (0.0, 1e3);
    // Expand hi until it brackets (heavy tails for small df).
    while student_t_cdf(hi, df) < p {
        hi *= 2.0;
        if hi > 1e12 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// A confidence interval `mean ± half_width` at confidence `level`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean `X̄`.
    pub mean: f64,
    /// Half-interval width `h`.
    pub half_width: f64,
    /// Confidence level `c` (e.g. 0.95).
    pub level: f64,
    /// Number of replications the interval is based on.
    pub n: usize,
}

impl ConfidenceInterval {
    /// Computes the interval from replication samples at `level` confidence,
    /// exactly as §4.2.2: `h = t(n−1, 1−α/2) · σ / √n`.
    ///
    /// With fewer than two samples, the half-width is infinite.
    pub fn from_samples(samples: &[f64], level: f64) -> Self {
        assert!((0.0..1.0).contains(&level) && level > 0.0);
        let n = samples.len();
        let mut acc = Welford::default();
        for &s in samples {
            acc.add(s);
        }
        if n < 2 {
            return ConfidenceInterval {
                mean: acc.mean(),
                half_width: f64::INFINITY,
                level,
                n,
            };
        }
        let alpha = 1.0 - level;
        let t = student_t_quantile(1.0 - alpha / 2.0, (n - 1) as f64);
        ConfidenceInterval {
            mean: acc.mean(),
            half_width: t * acc.std_dev() / (n as f64).sqrt(),
            level,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.add(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::default();
        tw.update(0.0, 0.0); // value 0 on [0, 10)
        tw.update(10.0, 2.0); // value 2 on [10, 30)
        tw.update(30.0, 1.0); // value 1 on [30, 40]
        let mean = tw.mean(40.0);
        // (0*10 + 2*20 + 1*10)/40 = 50/40
        assert!((mean - 1.25).abs() < 1e-12);
        assert_eq!(tw.last_value, 1.0);
    }

    #[test]
    fn time_weighted_clamps_backwards_timestamps() {
        let mut tw = TimeWeighted::default();
        tw.update(0.0, 4.0); // value 4 on [0, 10)
        tw.update(10.0, 2.0); // value 2 on [10, 20]
                              // A non-monotonic update must not produce a negative weight: it
                              // is applied at the last recorded instant (10) instead of 5.
        tw.update(5.0, 8.0); // value 8 from 10 onwards
        let mean = tw.mean(20.0);
        // (4*10 + 8*10)/20 = 6.0 — the 2.0 segment got zero weight.
        assert!((mean - 6.0).abs() < 1e-12, "mean {mean}");
        assert_eq!(tw.last_value, 8.0);
        // Querying the mean before the last update is clamped too.
        assert!((tw.mean(3.0) - tw.mean(10.0)).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_boundaries_and_symmetry() {
        assert_eq!(incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(1,1) = x (uniform CDF).
        for x in [0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!((incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
        let v = incomplete_beta(2.5, 1.5, 0.3);
        let w = 1.0 - incomplete_beta(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-12);
    }

    #[test]
    fn student_t_cdf_reference_values() {
        // t=0 → 0.5 for any df.
        assert!((student_t_cdf(0.0, 7.0) - 0.5).abs() < 1e-14);
        // df → ∞ approaches the normal: CDF(1.96, 1e6) ≈ 0.975.
        assert!((student_t_cdf(1.959_963_985, 1e6) - 0.975).abs() < 1e-4);
        // Classic table value: t(0.975; 9) ≈ 2.262157.
        assert!((student_t_cdf(2.262_157_16, 9.0) - 0.975).abs() < 1e-6);
    }

    #[test]
    fn student_t_quantile_matches_tables() {
        // Values from standard t-tables (two-sided 95% → p = 0.975).
        let cases = [
            (1.0, 12.7062),
            (2.0, 4.30265),
            (5.0, 2.57058),
            (9.0, 2.26216),
            (29.0, 2.04523),
            (99.0, 1.98422),
        ];
        for (df, expected) in cases {
            let q = student_t_quantile(0.975, df);
            assert!(
                (q - expected).abs() < 1e-4,
                "df={df}: got {q}, expected {expected}"
            );
        }
        // Symmetry.
        assert!((student_t_quantile(0.025, 9.0) + student_t_quantile(0.975, 9.0)).abs() < 1e-9);
        assert_eq!(student_t_quantile(0.5, 3.0), 0.0);
    }

    #[test]
    fn confidence_interval_hand_computed() {
        // 10 samples, mean 10, known σ.
        let samples: Vec<f64> = (0..10).map(|i| 10.0 + (i as f64 - 4.5) * 0.2).collect();
        let ci = ConfidenceInterval::from_samples(&samples, 0.95);
        assert!((ci.mean - 10.0).abs() < 1e-12);
        let mut w = Welford::default();
        for &s in &samples {
            w.add(s);
        }
        let t = student_t_quantile(0.975, 9.0);
        let expected_h = t * w.std_dev() / 10f64.sqrt();
        assert!((ci.half_width - expected_h).abs() < 1e-12);
        assert!((10.0 - ci.mean).abs() <= ci.half_width);
        assert!(ci.mean + ci.half_width < 10.0 + 2.0 * expected_h);
    }

    #[test]
    fn ci_single_sample_is_infinite() {
        let ci = ConfidenceInterval::from_samples(&[5.0], 0.95);
        assert_eq!(ci.mean, 5.0);
        assert!(ci.half_width.is_infinite());
    }
}
