//! Client-fairness diagnostics.
//!
//! Personalized-FL papers (this one included, via its ± std columns)
//! care not just about mean accuracy but about its *distribution* across
//! clients: a method that lifts the mean by abandoning the weakest
//! clients is worse than the numbers suggest. This summary quantifies
//! that.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
