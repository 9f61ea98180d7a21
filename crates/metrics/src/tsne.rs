//! t-SNE (van der Maaten & Hinton 2008), implemented from scratch for the
//! paper's Figure 8 feature-space visualizations.
//!
//! Exact (non-Barnes-Hut) formulation: per-point bandwidths calibrated to
//! a target perplexity by binary search, symmetrized affinities with early
//! exaggeration, and momentum gradient descent on the Student-t embedding.

use fca_tensor::rng::seeded_rng;
use fca_tensor::Tensor;

/// t-SNE hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct TsneConfig {
    /// Target perplexity (effective neighbour count).
    pub perplexity: f32,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Iterations with early exaggeration (P × 12).
    pub exaggeration_iters: usize,
    /// RNG seed for the initial embedding.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            perplexity: 30.0,
            iterations: 400,
            learning_rate: 100.0,
            exaggeration_iters: 100,
            seed: 0,
        }
    }
}

/// Embed `x` (N×D) into 2-D.
///
/// Panics if `x` has fewer than 4 rows (perplexity calibration needs
/// neighbours to exist).
pub fn tsne(x: &Tensor, cfg: &TsneConfig) -> Tensor {
    let (n, _d) = x.shape().as_matrix();
    assert!(n >= 4, "t-SNE needs at least 4 points, got {n}");
    let perplexity = cfg.perplexity.min((n as f32 - 1.0) / 3.0).max(2.0);

    // Pairwise squared distances in input space.
    let d2 = pairwise_sq_dists(x);

    // Conditional affinities with per-point bandwidth (binary search on
    // log-perplexity), row by row.
    let target_entropy = perplexity.ln();
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| calibrate_row(&d2, i, n, target_entropy))
        .collect();

    // Symmetrize: p_ij = (p_{j|i} + p_{i|j}) / 2n, floored for stability.
    let mut p = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let v = (rows[i][j] + rows[j][i]) / (2.0 * n as f32);
            p[i * n + j] = v.max(1e-12);
        }
    }

    // Initialize the embedding with a small Gaussian.
    let mut rng = seeded_rng(cfg.seed);
    let mut y = Tensor::randn([n, 2], 1e-2, &mut rng);
    let mut velocity = Tensor::zeros([n, 2]);

    let mut grad = vec![0.0f32; n * 2];
    let mut q = vec![0.0f32; n * n];
    for iter in 0..cfg.iterations {
        let exaggeration = if iter < cfg.exaggeration_iters {
            12.0
        } else {
            1.0
        };
        let momentum = if iter < cfg.exaggeration_iters {
            0.5
        } else {
            0.8
        };

        // Student-t affinities in embedding space.
        let mut z = 0.0f32;
        for i in 0..n {
            let yi = y.row(i);
            for j in 0..n {
                if i == j {
                    q[i * n + j] = 0.0;
                    continue;
                }
                let yj = y.row(j);
                let dx = yi[0] - yj[0];
                let dy = yi[1] - yj[1];
                let w = 1.0 / (1.0 + dx * dx + dy * dy);
                q[i * n + j] = w;
                z += w;
            }
        }
        let zinv = 1.0 / z.max(1e-12);

        // Gradient: 4 Σ_j (p_ij·ex − q_ij) w_ij (y_i − y_j).
        grad.fill(0.0);
        for i in 0..n {
            let yi0 = y.row(i)[0];
            let yi1 = y.row(i)[1];
            let mut g0 = 0.0f32;
            let mut g1 = 0.0f32;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w = q[i * n + j];
                let qij = (w * zinv).max(1e-12);
                let coeff = 4.0 * (p[i * n + j] * exaggeration - qij) * w;
                g0 += coeff * (yi0 - y.row(j)[0]);
                g1 += coeff * (yi1 - y.row(j)[1]);
            }
            grad[i * 2] = g0;
            grad[i * 2 + 1] = g1;
        }

        // Momentum update.
        for (vi, &gi) in velocity.data_mut().iter_mut().zip(&grad) {
            *vi = momentum * *vi - cfg.learning_rate * gi;
        }
        let v = velocity.clone();
        y.add_assign(&v);

        // Re-center (translation invariance).
        let (my0, my1) = {
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            for i in 0..n {
                s0 += y.row(i)[0];
                s1 += y.row(i)[1];
            }
            (s0 / n as f32, s1 / n as f32)
        };
        for i in 0..n {
            let r = y.row_mut(i);
            r[0] -= my0;
            r[1] -= my1;
        }
    }
    y
}

fn pairwise_sq_dists(x: &Tensor) -> Vec<f32> {
    let (n, d) = x.shape().as_matrix();
    let mut out = vec![0.0f32; n * n];
    for (i, row) in out.chunks_mut(n).enumerate() {
        let xi = &x.data()[i * d..(i + 1) * d];
        for (j, rj) in row.iter_mut().enumerate() {
            let xj = &x.data()[j * d..(j + 1) * d];
            *rj = xi.iter().zip(xj).map(|(a, b)| (a - b) * (a - b)).sum();
        }
    }
    out
}

/// Binary-search the Gaussian bandwidth of row `i` so the conditional
/// distribution's entropy matches `target_entropy`; returns `p_{j|i}`.
fn calibrate_row(d2: &[f32], i: usize, n: usize, target_entropy: f32) -> Vec<f32> {
    let mut beta = 1.0f32; // 1 / (2σ²)
    let (mut lo, mut hi) = (0.0f32, f32::INFINITY);
    let mut probs = vec![0.0f32; n];
    for _ in 0..50 {
        // Row conditional distribution at the current beta.
        let mut sum = 0.0f32;
        for j in 0..n {
            probs[j] = if j == i {
                0.0
            } else {
                (-beta * d2[i * n + j]).exp()
            };
            sum += probs[j];
        }
        if sum <= 0.0 {
            beta *= 0.5;
            continue;
        }
        let mut entropy = 0.0f32;
        for pj in probs.iter_mut() {
            *pj /= sum;
            if *pj > 1e-12 {
                entropy -= *pj * pj.ln();
            }
        }
        let diff = entropy - target_entropy;
        if diff.abs() < 1e-4 {
            break;
        }
        if diff > 0.0 {
            lo = beta;
            beta = if hi.is_finite() {
                (beta + hi) / 2.0
            } else {
                beta * 2.0
            };
        } else {
            hi = beta;
            beta = (beta + lo) / 2.0;
        }
    }
    probs
}

/// Fraction of points whose nearest embedded neighbour shares their label —
/// the quantitative proxy for "same-label features cluster" in Figure 8.
pub fn nearest_neighbor_label_agreement(embedding: &Tensor, labels: &[usize]) -> f32 {
    let (n, _) = embedding.shape().as_matrix();
    assert_eq!(n, labels.len());
    if n < 2 {
        return 0.0;
    }
    let mut agree = 0usize;
    for i in 0..n {
        let yi = embedding.row(i);
        let mut best = f32::INFINITY;
        let mut best_j = 0;
        for j in 0..n {
            if j == i {
                continue;
            }
            let yj = embedding.row(j);
            let d: f32 = yi.iter().zip(yj).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < best {
                best = d;
                best_j = j;
            }
        }
        if labels[best_j] == labels[i] {
            agree += 1;
        }
    }
    agree as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    /// Two well-separated Gaussian blobs in 8-D.
    fn two_blobs(n_per: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            let center = if c == 0 { 4.0 } else { -4.0 };
            for _ in 0..n_per {
                let noise = Tensor::randn([1, 8], 0.3, &mut rng);
                data.extend(noise.data().iter().map(|v| v + center));
                labels.push(c);
            }
        }
        (Tensor::from_vec([2 * n_per, 8], data), labels)
    }

    #[test]
    fn separated_clusters_stay_separated() {
        let (x, labels) = two_blobs(20, 901);
        let cfg = TsneConfig {
            iterations: 250,
            seed: 1,
            ..Default::default()
        };
        let y = tsne(&x, &cfg);
        assert_eq!(y.dims(), &[40, 2]);
        assert!(!y.has_non_finite(), "embedding diverged");
        let agreement = nearest_neighbor_label_agreement(&y, &labels);
        assert!(
            agreement > 0.9,
            "cluster structure lost: agreement {agreement}"
        );
    }

    #[test]
    fn embedding_is_deterministic() {
        let (x, _) = two_blobs(10, 902);
        let cfg = TsneConfig {
            iterations: 50,
            seed: 7,
            ..Default::default()
        };
        let a = tsne(&x, &cfg);
        let b = tsne(&x, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn embedding_is_centered() {
        let (x, _) = two_blobs(10, 903);
        let cfg = TsneConfig {
            iterations: 60,
            seed: 2,
            ..Default::default()
        };
        let y = tsne(&x, &cfg);
        let mean0: f32 = (0..20).map(|i| y.row(i)[0]).sum::<f32>() / 20.0;
        assert!(mean0.abs() < 1e-3, "embedding not centered: {mean0}");
    }

    #[test]
    #[should_panic(expected = "at least 4 points")]
    fn rejects_tiny_inputs() {
        let x = Tensor::zeros([2, 4]);
        tsne(&x, &TsneConfig::default());
    }

    #[test]
    fn nn_agreement_on_perfect_split() {
        let y = Tensor::from_vec([4, 2], vec![0., 0., 0.1, 0., 5., 5., 5.1, 5.]);
        let labels = vec![0, 0, 1, 1];
        assert_eq!(nearest_neighbor_label_agreement(&y, &labels), 1.0);
    }
}
