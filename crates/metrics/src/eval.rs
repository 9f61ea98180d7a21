//! Evaluation helpers shared by the experiment harness: fleet feature
//! extraction (for t-SNE and conductance) and learning-curve rendering.

use fca_tensor::Tensor;
use fedclassavg::fleet::Fleet;
use fedclassavg::sim::RoundMetrics;

/// Features extracted from a client fleet on sampled test images.
pub struct FleetFeatures {
    /// Stacked feature rows, `(total, feature_dim)`.
    pub features: Tensor,
    /// Class label of each row.
    pub labels: Vec<usize>,
    /// Owning client of each row.
    pub client_ids: Vec<usize>,
}

/// Extract up to `per_client` test-image features from every client
/// (eval-mode forward through each client's own extractor) — the input to
/// the Figure 8 t-SNE. Paged fleets hydrate one client at a time, so the
/// extraction stays within the fleet's residency budget.
pub fn extract_fleet_features(fleet: &mut Fleet, per_client: usize) -> FleetFeatures {
    use fca_nn::Module as _;
    use fca_tensor::Workspace;
    let mut ws = Workspace::new();
    let mut parts: Vec<Tensor> = Vec::new();
    let mut labels = Vec::new();
    let mut client_ids = Vec::new();
    for k in 0..fleet.len() {
        fleet.with_client(k, |c| {
            let n = c.test_data.len().min(per_client);
            if n == 0 {
                return;
            }
            let idx: Vec<usize> = (0..n).collect();
            let (x, y) = c.test_data.gather_batch(&idx);
            let f = c.model.feature_extractor.forward(&x, false, &mut ws);
            parts.push(f);
            labels.extend(y);
            client_ids.extend(std::iter::repeat_n(c.id, n));
        });
    }
    assert!(!parts.is_empty(), "no client produced features");
    let refs: Vec<&Tensor> = parts.iter().collect();
    FleetFeatures {
        features: Tensor::concat_rows(&refs),
        labels,
        client_ids,
    }
}

/// Render a learning curve as a sparkline (one char per eval point) — the
/// terminal analogue of the paper's Figures 4–7.
pub fn curve_sparkline(curve: &[RoundMetrics]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    curve
        .iter()
        .map(|p| {
            let idx = ((p.mean_acc.clamp(0.0, 1.0)) * (BARS.len() - 1) as f32).round() as usize;
            BARS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclassavg::sim::test_support::tiny_fleet;

    #[test]
    fn fleet_features_have_expected_shape() {
        let (mut fleet, _net) = tiny_fleet(3, 921);
        let ff = extract_fleet_features(&mut fleet, 5);
        assert_eq!(ff.features.dims()[1], 8);
        assert_eq!(ff.features.dims()[0], ff.labels.len());
        assert_eq!(ff.labels.len(), ff.client_ids.len());
        assert!(ff.labels.len() <= 15);
        let mut ids = ff.client_ids.clone();
        ids.dedup();
        assert_eq!(ids.len(), 3, "each client should contribute a block");
    }

    #[test]
    fn sparkline_monotone_curve() {
        let curve: Vec<RoundMetrics> = (0..5)
            .map(|i| RoundMetrics {
                round: i,
                epochs: i,
                mean_acc: i as f32 / 4.0,
                std_acc: 0.0,
                ..Default::default()
            })
            .collect();
        let s = curve_sparkline(&curve);
        assert_eq!(s.chars().count(), 5);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }
}
