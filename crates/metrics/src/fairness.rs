//! Client-fairness and per-class diagnostics.
//!
//! Personalized-FL papers (this one included, via its ± std columns)
//! care not just about mean accuracy but about its *distribution* across
//! clients: a method that lifts the mean by abandoning the weakest
//! clients is worse than the numbers suggest. These summaries quantify
//! that, plus per-class accuracy breakdowns for the label-skew analyses.

use fca_tensor::Tensor;

/// Distributional summary of per-client accuracies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FairnessSummary {
    /// Mean client accuracy.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Worst single client.
    pub min: f32,
    /// Best single client.
    pub max: f32,
    /// Mean of the worst decile (≥1 client) — the "left-behind" measure.
    pub worst_decile_mean: f32,
    /// Jain's fairness index `(Σx)²/(n·Σx²)` ∈ (0, 1], 1 = perfectly even.
    pub jain_index: f32,
}

/// Summarize per-client accuracies. Returns all-zero for empty input.
pub fn fairness_summary(accs: &[f32]) -> FairnessSummary {
    if accs.is_empty() {
        return FairnessSummary {
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
            worst_decile_mean: 0.0,
            jain_index: 0.0,
        };
    }
    let n = accs.len() as f32;
    let mean = accs.iter().sum::<f32>() / n;
    let var = accs.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / n;
    let mut sorted = accs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let decile = (accs.len() / 10).max(1);
    let worst_decile_mean = sorted[..decile].iter().sum::<f32>() / decile as f32;
    let sum: f32 = accs.iter().sum();
    let sum_sq: f32 = accs.iter().map(|a| a * a).sum();
    let jain_index = if sum_sq > 0.0 {
        (sum * sum) / (n * sum_sq)
    } else {
        0.0
    };
    FairnessSummary {
        mean,
        std: var.sqrt(),
        min: sorted[0],
        max: *sorted.last().expect("non-empty"),
        worst_decile_mean,
        jain_index,
    }
}

/// Per-class accuracy from logits: `result[c] = Some(acc)` for classes
/// present in `targets`, `None` otherwise.
pub fn per_class_accuracy(
    logits: &Tensor,
    targets: &[usize],
    num_classes: usize,
) -> Vec<Option<f32>> {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), targets.len(), "batch size mismatch");
    let mut correct = vec![0usize; num_classes];
    let mut total = vec![0usize; num_classes];
    for (&p, &t) in preds.iter().zip(targets) {
        assert!(t < num_classes, "target {t} out of range");
        total[t] += 1;
        if p == t {
            correct[t] += 1;
        }
    }
    correct
        .into_iter()
        .zip(total)
        .map(|(c, t)| {
            if t == 0 {
                None
            } else {
                Some(c as f32 / t as f32)
            }
        })
        .collect()
}

/// Expected calibration error with equal-width confidence bins: the mean
/// |confidence − accuracy| gap, weighted by bin occupancy. `probs` are
/// per-row probability distributions (e.g. from `softmax_rows`).
pub fn expected_calibration_error(probs: &Tensor, targets: &[usize], bins: usize) -> f32 {
    let (rows, _) = probs.shape().as_matrix();
    assert_eq!(rows, targets.len(), "batch size mismatch");
    assert!(bins >= 1);
    if rows == 0 {
        return 0.0;
    }
    let mut bin_conf = vec![0.0f64; bins];
    let mut bin_correct = vec![0usize; bins];
    let mut bin_count = vec![0usize; bins];
    for (r, &t) in targets.iter().enumerate() {
        let row = probs.row(r);
        let (pred, conf) = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, &v)| (i, v))
            .expect("non-empty row");
        let b = ((conf * bins as f32) as usize).min(bins - 1);
        bin_conf[b] += conf as f64;
        bin_count[b] += 1;
        if pred == t {
            bin_correct[b] += 1;
        }
    }
    let mut ece = 0.0f64;
    for b in 0..bins {
        if bin_count[b] == 0 {
            continue;
        }
        let conf = bin_conf[b] / bin_count[b] as f64;
        let acc = bin_correct[b] as f64 / bin_count[b] as f64;
        ece += (bin_count[b] as f64 / rows as f64) * (conf - acc).abs();
    }
    ece as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::ops::softmax_rows;

    #[test]
    fn summary_of_uniform_accuracies() {
        let s = fairness_summary(&[0.8, 0.8, 0.8, 0.8]);
        assert_eq!(s.mean, 0.8);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 0.8);
        assert!((s.jain_index - 1.0).abs() < 1e-6);
        assert_eq!(s.worst_decile_mean, 0.8);
    }

    #[test]
    fn summary_flags_abandoned_clients() {
        // One client at 0 accuracy drags the fairness measures down even
        // though the mean looks decent.
        let accs = [0.9f32, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.0];
        let s = fairness_summary(&accs);
        assert!(s.mean > 0.8);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.worst_decile_mean, 0.0);
        assert!(s.jain_index < 0.95);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = fairness_summary(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.jain_index, 0.0);
    }

    #[test]
    fn per_class_accuracy_splits_correctly() {
        // predictions: argmax rows → [0, 1, 0]; targets [0, 1, 1].
        let logits = Tensor::from_vec([3, 2], vec![2., 0., 0., 2., 2., 0.]);
        let pca = per_class_accuracy(&logits, &[0, 1, 1], 3);
        assert_eq!(pca[0], Some(1.0));
        assert_eq!(pca[1], Some(0.5));
        assert_eq!(pca[2], None);
    }

    #[test]
    fn ece_zero_for_perfectly_calibrated_hard_predictions() {
        // Confident and always right → ECE ≈ 0.
        let logits = Tensor::from_vec([2, 2], vec![50., 0., 0., 50.]);
        let probs = softmax_rows(&logits);
        let ece = expected_calibration_error(&probs, &[0, 1], 10);
        assert!(ece < 1e-3, "ece {ece}");
    }

    #[test]
    fn ece_large_for_confidently_wrong_predictions() {
        let logits = Tensor::from_vec([2, 2], vec![50., 0., 50., 0.]);
        let probs = softmax_rows(&logits);
        // Both predict class 0 confidently; second target is 1.
        let ece = expected_calibration_error(&probs, &[0, 1], 10);
        assert!(ece > 0.4, "ece {ece}");
    }

    #[test]
    fn ece_on_empty_batch_is_zero() {
        let probs = Tensor::zeros([0, 3]);
        assert_eq!(expected_calibration_error(&probs, &[], 10), 0.0);
    }
}
