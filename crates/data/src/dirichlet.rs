//! Dirichlet sampling over [`SnapRng`]'s uniform draws: Gamma draws via the
//! Marsaglia–Tsang squeeze method, normalized to a simplex sample.

use fca_tensor::rng::SnapRng;

/// One standard-normal draw via Box–Muller.
fn randn(rng: &mut SnapRng) -> f64 {
    let u1 = rng.range_f64(f64::EPSILON, 1.0);
    let u2 = rng.range_f64(0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample `Gamma(shape, 1)` with Marsaglia–Tsang (2000).
///
/// For `shape < 1` uses the boost `Gamma(a) = Gamma(a+1) · U^(1/a)`.
pub fn sample_gamma(shape: f64, rng: &mut SnapRng) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive, got {shape}");
    if shape < 1.0 {
        let u = rng.range_f64(f64::EPSILON, 1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = randn(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.range_f64(f64::EPSILON, 1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Sample a symmetric `Dirichlet(α)` over `k` categories.
pub fn sample_dirichlet(alpha: f64, k: usize, rng: &mut SnapRng) -> Vec<f64> {
    assert!(k >= 1, "dirichlet needs at least one category");
    let mut draws: Vec<f64> = (0..k).map(|_| sample_gamma(alpha, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        // Vanishingly unlikely; fall back to uniform.
        return vec![1.0 / k as f64; k];
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = seeded_rng(201);
        for &shape in &[0.5f64, 1.0, 2.5, 8.0] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape}: sample mean {mean}"
            );
        }
    }

    #[test]
    fn gamma_variance_matches_shape() {
        let mut rng = seeded_rng(202);
        let shape = 3.0;
        let n = 6000;
        let xs: Vec<f64> = (0..n).map(|_| sample_gamma(shape, &mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - shape).abs() < 0.3 * shape, "variance {var}");
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = seeded_rng(203);
        for &alpha in &[0.1f64, 0.5, 5.0] {
            let p = sample_dirichlet(alpha, 10, &mut rng);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn small_alpha_concentrates_mass() {
        let mut rng = seeded_rng(204);
        // With α = 0.1 most draws put the bulk of mass on few categories.
        let mut max_share = 0.0;
        for _ in 0..50 {
            let p = sample_dirichlet(0.1, 10, &mut rng);
            max_share += p.iter().cloned().fold(0.0, f64::max);
        }
        max_share /= 50.0;
        assert!(
            max_share > 0.5,
            "mean max share {max_share} too uniform for α=0.1"
        );
    }

    #[test]
    fn large_alpha_approaches_uniform() {
        let mut rng = seeded_rng(205);
        let mut max_share = 0.0;
        for _ in 0..50 {
            let p = sample_dirichlet(100.0, 10, &mut rng);
            max_share += p.iter().cloned().fold(0.0, f64::max);
        }
        max_share /= 50.0;
        assert!(
            max_share < 0.15,
            "mean max share {max_share} not uniform for α=100"
        );
    }
}
