//! Streaming label-distribution drift: time-indexed re-partitioning.
//!
//! A drift scenario moves every client's label distribution from the
//! Dirichlet mix it started with toward a second, independently drawn
//! target mix. The interpolation position is a per-round scalar
//! `λ ∈ [0, 1]` carried as integer permille (the trace schema is
//! integer-only), supplied by the engine's drift schedule
//! (`FedConfig::drift` in fca-core).
//!
//! Determinism contract: [`drifted_splits`] is a **pure function of
//! `(seed, λ)`** — it consumes no ambient randomness and no state from
//! earlier rounds, so a resumed run re-derives the exact shards an
//! uninterrupted run saw, and replaying any single round needs nothing
//! but the config. At `λ = 0` it reproduces
//! [`Partitioner::Dirichlet`](crate::partition::Partitioner::Dirichlet)'s
//! split bit-for-bit, so the moment drift activates is not itself a
//! discontinuity.

use crate::dataset::Dataset;
use crate::dirichlet::sample_dirichlet;
use crate::partition::{largest_remainder_counts, split_by, ClientSplit};
use fca_tensor::rng::derived_rng;

/// RNG stream tag for client `k`'s drift *target* distribution. Disjoint
/// from the partitioner's per-client tag (`0xC11E + k`) so drawing the
/// target never perturbs the start distribution or the test sampling.
const DRIFT_TARGET_TAG: u64 = 0xD21F_0000_0000_0000;

/// Partition `train`/`test` into `num_clients` equal shards whose label
/// mixes sit `lambda_permille / 1000` of the way from each client's
/// `Dir(alpha)` start distribution to its independently drawn `Dir(alpha)`
/// drift target.
///
/// The mechanics are the stationary partitioner's own
/// ([`split_by`](crate::partition) — pool shuffle, largest-remainder
/// apportionment, deficit spill, distribution-matched test resampling);
/// only the desired per-class proportions are interpolated.
/// `lambda_permille` saturates at 1000 (= fully drifted).
pub fn drifted_splits(
    train: &Dataset,
    test: &Dataset,
    num_clients: usize,
    seed: u64,
    alpha: f64,
    lambda_permille: u64,
) -> Vec<ClientSplit> {
    let lambda = lambda_permille.min(1000) as f64;
    let num_classes = train.num_classes;
    split_by(train, test, num_clients, seed, |k, crng, share| {
        // Start distribution from the partitioner's own stream; target
        // from a disjoint one. Interpolate in permille (the apportionment
        // normalizes, so the 1000× scale cancels).
        let p_start = sample_dirichlet(alpha, num_classes, crng);
        let mut trng = derived_rng(seed, DRIFT_TARGET_TAG ^ k as u64);
        let p_end = sample_dirichlet(alpha, num_classes, &mut trng);
        let p: Vec<f64> = p_start
            .iter()
            .zip(&p_end)
            .map(|(&a, &b)| a * (1000.0 - lambda) + b * lambda)
            .collect();
        largest_remainder_counts(&p, share)
    })
}

/// Total-variation distance `½ Σ|p_c − q_c|` between the label histograms
/// of two index shards over the same parent dataset — the scenario
/// reports use it to show how far each client's distribution has moved.
pub fn label_shift(parent: &Dataset, before: &[usize], after: &[usize]) -> f64 {
    let hist = |idx: &[usize]| -> Vec<f64> {
        let mut h = vec![0.0f64; parent.num_classes];
        for &i in idx {
            h[parent.labels[i]] += 1.0;
        }
        let n: f64 = h.iter().sum();
        if n > 0.0 {
            for x in &mut h {
                *x /= n;
            }
        }
        h
    };
    let (p, q) = (hist(before), hist(after));
    p.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::synth::tiny_dataset;

    fn toy(classes: usize, n: usize) -> (Dataset, Dataset) {
        let d = tiny_dataset(classes, n, n / 2, 31);
        (d.train, d.test)
    }

    #[test]
    fn lambda_zero_matches_the_stationary_partitioner() {
        let (train, test) = toy(5, 200);
        let stationary = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &test, 8, 42);
        let drifted = drifted_splits(&train, &test, 8, 42, 0.5, 0);
        for (a, b) in stationary.iter().zip(&drifted) {
            assert_eq!(a.train_indices, b.train_indices, "client {}", a.client_id);
            assert_eq!(a.test_indices, b.test_indices, "client {}", a.client_id);
        }
    }

    #[test]
    fn drifted_splits_are_pure_in_seed_and_lambda() {
        let (train, test) = toy(5, 200);
        let a = drifted_splits(&train, &test, 6, 7, 0.5, 400);
        let b = drifted_splits(&train, &test, 6, 7, 0.5, 400);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.train_indices, y.train_indices);
            assert_eq!(x.test_indices, y.test_indices);
        }
        let c = drifted_splits(&train, &test, 6, 7, 0.5, 600);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.train_indices != y.train_indices),
            "λ = 0.4 and λ = 0.6 produced identical shards"
        );
    }

    #[test]
    fn full_drift_moves_label_mass() {
        let (train, test) = toy(5, 400);
        let start = drifted_splits(&train, &test, 4, 11, 0.3, 0);
        let end = drifted_splits(&train, &test, 4, 11, 0.3, 1000);
        let moved: f64 = start
            .iter()
            .zip(&end)
            .map(|(a, b)| label_shift(&train, &a.train_indices, &b.train_indices))
            .sum::<f64>()
            / start.len() as f64;
        // Independent Dir(0.3) draws over 5 classes are far apart with
        // overwhelming probability; the seed fixes the outcome anyway.
        assert!(moved > 0.1, "mean TV shift {moved} too small for α = 0.3");
    }

    #[test]
    fn every_shard_stays_full_and_nonempty_across_lambda() {
        let (train, test) = toy(3, 120);
        for lambda in [0, 250, 500, 750, 1000] {
            let splits = drifted_splits(&train, &test, 5, 9, 0.5, lambda);
            for s in &splits {
                assert_eq!(
                    s.train_indices.len(),
                    120 / 5,
                    "client {} at λ = {lambda}",
                    s.client_id
                );
                assert!(!s.test_indices.is_empty());
            }
        }
    }

    #[test]
    fn lambda_saturates_above_one() {
        let (train, test) = toy(4, 160);
        let full = drifted_splits(&train, &test, 4, 13, 0.5, 1000);
        let over = drifted_splits(&train, &test, 4, 13, 0.5, 4000);
        for (a, b) in full.iter().zip(&over) {
            assert_eq!(a.train_indices, b.train_indices);
        }
    }

    #[test]
    fn label_shift_is_zero_on_identical_shards_and_one_on_disjoint_classes() {
        let (train, _) = toy(2, 40);
        let class0: Vec<usize> = (0..train.len()).filter(|&i| train.labels[i] == 0).collect();
        let class1: Vec<usize> = (0..train.len()).filter(|&i| train.labels[i] == 1).collect();
        assert_eq!(label_shift(&train, &class0, &class0), 0.0);
        assert!((label_shift(&train, &class0, &class1) - 1.0).abs() < 1e-12);
    }
}
