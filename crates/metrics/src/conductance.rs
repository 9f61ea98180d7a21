//! Layer conductance (Dhamdhere et al. 2018) on the classifier layer —
//! the unit-attribution analysis behind the paper's Figure 9.
//!
//! Conductance of feature unit `i` for class `c` is the integrated-
//! gradients attribution of the classifier output `f_c` to the unit,
//! along the straight path from a baseline to the observed features:
//!
//! ```text
//! cond_i = (z_i − z⁰_i) · ∫₀¹ ∂f_c/∂z_i (z⁰ + α(z − z⁰)) dα
//! ```
//!
//! approximated with a Riemann sum. The paper converts the conductance
//! vector to *rank scores* and compares ranks across clients; we provide
//! the rank conversion and the Spearman rank-agreement statistic.

use fca_models::classifier::ClassifierWeights;

/// Conductance of each feature unit for class `target`, given the
/// classifier weights, an observed feature vector, and a baseline
/// (typically zeros).
///
/// `steps` is the Riemann-sum resolution. For a linear classifier the
/// integrand is constant, so any `steps ≥ 1` is exact — the sum is kept
/// for fidelity to the general method (and exercised by the completeness
/// test).
pub fn layer_conductance(
    classifier: &ClassifierWeights,
    features: &[f32],
    baseline: &[f32],
    target: usize,
    steps: usize,
) -> Vec<f32> {
    let (classes, dim) = classifier.weight.shape().as_matrix();
    assert!(target < classes, "target class {target} out of range");
    assert_eq!(features.len(), dim, "feature length mismatch");
    assert_eq!(baseline.len(), dim, "baseline length mismatch");
    let steps = steps.max(1);
    let w_row = classifier.weight.row(target);

    (0..dim)
        .map(|i| {
            // Average gradient along the path (constant = W[target, i] for
            // a linear head, but integrate anyway).
            let mut grad_sum = 0.0f32;
            for s in 0..steps {
                let _alpha = (s as f32 + 0.5) / steps as f32;
                grad_sum += w_row[i];
            }
            (features[i] - baseline[i]) * grad_sum / steps as f32
        })
        .collect()
}

/// Convert a score vector to rank scores: the smallest value gets rank 0,
/// the largest `n−1`. Ties break by index (deterministic).
pub fn rank_scores(values: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut ranks = vec![0usize; values.len()];
    for (rank, &i) in idx.iter().enumerate() {
        ranks[i] = rank;
    }
    ranks
}

/// Spearman rank correlation between two rank vectors
/// (`1 − 6Σd²/(n(n²−1))`).
pub fn spearman_from_ranks(a: &[usize], b: &[usize]) -> f32 {
    assert_eq!(a.len(), b.len(), "rank vector length mismatch");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let d2: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    (1.0 - 6.0 * d2 / (n as f64 * (n as f64 * n as f64 - 1.0))) as f32
}

/// Mean pairwise Spearman correlation across clients' conductance ranks —
/// the scalar summary of Figure 9's "units have similar attribution rank
/// scores across heterogeneous clients".
pub fn mean_pairwise_rank_agreement(rank_vectors: &[Vec<usize>]) -> f32 {
    let k = rank_vectors.len();
    if k < 2 {
        return 1.0;
    }
    let mut total = 0.0f32;
    let mut pairs = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            total += spearman_from_ranks(&rank_vectors[i], &rank_vectors[j]);
            pairs += 1;
        }
    }
    total / pairs as f32
}

/// Render rank vectors as an ASCII heat map (clients on the x-axis, units
/// on the y-axis, darker = higher rank) — the text analogue of Figure 9.
pub fn rank_heatmap(rank_vectors: &[Vec<usize>], max_units: usize) -> String {
    use std::fmt::Write as _;
    const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];
    let mut out = String::new();
    if rank_vectors.is_empty() {
        return out;
    }
    let units = rank_vectors[0].len().min(max_units);
    let n = rank_vectors[0].len().max(1);
    let _ = write!(out, "unit\\client |");
    for k in 0..rank_vectors.len() {
        let _ = write!(out, "{k:>3}");
    }
    let _ = writeln!(out);
    for u in 0..units {
        let _ = write!(out, "{u:>11} |");
        for ranks in rank_vectors {
            let shade = (ranks[u] * (SHADES.len() - 1)) / (n - 1).max(1);
            let _ = write!(out, "  {}", SHADES[shade]);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;
    use fca_tensor::Tensor;

    fn toy_classifier(seed: u64, dim: usize, classes: usize) -> ClassifierWeights {
        let mut rng = seeded_rng(seed);
        ClassifierWeights {
            weight: Tensor::randn([classes, dim], 1.0, &mut rng),
            bias: Tensor::zeros([classes]),
        }
    }

    #[test]
    fn conductance_satisfies_completeness() {
        let cls = toy_classifier(911, 16, 4);
        let mut rng = seeded_rng(912);
        let z = Tensor::randn([1, 16], 1.0, &mut rng);
        let baseline = vec![0.0f32; 16];
        let cond = layer_conductance(&cls, z.row(0), &baseline, 2, 8);
        let total: f32 = cond.iter().sum();
        // f_2(z) − f_2(baseline) for the linear head.
        let w = cls.weight.row(2);
        let delta: f32 = (0..16).map(|i| w[i] * (z.row(0)[i] - baseline[i])).sum();
        assert!(
            (total - delta).abs() < 1e-4,
            "completeness: {total} vs {delta}"
        );
    }

    #[test]
    fn conductance_zero_at_baseline() {
        let cls = toy_classifier(913, 8, 2);
        let z = vec![0.5f32; 8];
        let cond = layer_conductance(&cls, &z, &z, 0, 4);
        assert!(cond.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn rank_scores_order_values() {
        let ranks = rank_scores(&[0.3, -1.0, 2.0, 0.0]);
        assert_eq!(ranks, vec![2, 0, 3, 1]);
    }

    #[test]
    fn spearman_extremes() {
        let a = vec![0usize, 1, 2, 3];
        let rev = vec![3usize, 2, 1, 0];
        assert!((spearman_from_ranks(&a, &a) - 1.0).abs() < 1e-6);
        assert!((spearman_from_ranks(&a, &rev) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn identical_classifiers_agree_perfectly() {
        // The FedClassAvg setting: all clients share the classifier, so if
        // their features are similar the conductance ranks agree.
        let cls = toy_classifier(914, 12, 3);
        let mut rng = seeded_rng(915);
        let z = Tensor::randn([1, 12], 1.0, &mut rng);
        let baseline = vec![0.0f32; 12];
        let ranks: Vec<Vec<usize>> = (0..4)
            .map(|_| rank_scores(&layer_conductance(&cls, z.row(0), &baseline, 1, 4)))
            .collect();
        assert!((mean_pairwise_rank_agreement(&ranks) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn different_features_reduce_agreement() {
        let cls = toy_classifier(916, 12, 3);
        let mut rng = seeded_rng(917);
        let baseline = vec![0.0f32; 12];
        let ranks: Vec<Vec<usize>> = (0..4)
            .map(|_| {
                let z = Tensor::randn([1, 12], 1.0, &mut rng);
                rank_scores(&layer_conductance(&cls, z.row(0), &baseline, 1, 4))
            })
            .collect();
        let agreement = mean_pairwise_rank_agreement(&ranks);
        assert!(
            agreement < 0.9,
            "independent features should not agree: {agreement}"
        );
    }

    #[test]
    fn heatmap_renders() {
        let ranks = vec![vec![0usize, 1, 2], vec![2, 1, 0]];
        let map = rank_heatmap(&ranks, 3);
        assert_eq!(map.lines().count(), 4); // header + 3 units
        assert!(map.contains('█'));
    }
}
