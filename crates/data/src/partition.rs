//! Non-iid federated partitioners (paper §4.1, Figures 2–3).
//!
//! Two schemes, both producing **equal-size** client shards as the paper
//! specifies:
//!
//! * [`Partitioner::Dirichlet`] — each client's class mix is drawn from a
//!   symmetric `Dir(α)`; the paper uses `α = 0.5`.
//! * [`Partitioner::Skewed`] — each client holds exactly two classes.

use crate::dataset::Dataset;
use crate::dirichlet::sample_dirichlet;
use fca_tensor::rng::{derived_rng, SnapRng};

/// A non-iid partitioning scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Partitioner {
    /// Class proportions per client drawn from symmetric `Dir(alpha)`.
    Dirichlet {
        /// Dirichlet concentration; the paper uses 0.5.
        alpha: f64,
    },
    /// Each client holds examples of exactly `classes_per_client` classes
    /// (2 in the paper's "Skewed" setting).
    Skewed {
        /// Number of distinct classes per client.
        classes_per_client: usize,
    },
}

/// One client's shard: indices into the parent dataset.
#[derive(Clone, Debug)]
pub struct ClientSplit {
    /// Client id (0-based).
    pub client_id: usize,
    /// Training indices into the parent train set.
    pub train_indices: Vec<usize>,
    /// Test indices into the parent test set (label distribution matched
    /// to the client's training distribution, as the paper evaluates
    /// "test datasets consistent with local data distributions").
    pub test_indices: Vec<usize>,
}

impl Partitioner {
    /// Partition `train`/`test` into `num_clients` equal shards: train
    /// indices drawn without replacement toward this scheme's per-class
    /// counts, test indices drawn with replacement to mirror each client's
    /// realized label mix (the shard builder's docs have the details).
    pub fn split(
        &self,
        train: &Dataset,
        test: &Dataset,
        num_clients: usize,
        seed: u64,
    ) -> Vec<ClientSplit> {
        let num_classes = train.num_classes;
        split_by(
            train,
            test,
            num_clients,
            seed,
            |k, crng, share| match self {
                Partitioner::Dirichlet { alpha } => {
                    let p = sample_dirichlet(*alpha, num_classes, crng);
                    largest_remainder_counts(&p, share)
                }
                Partitioner::Skewed { classes_per_client } => {
                    let cpc = (*classes_per_client).clamp(1, num_classes);
                    let mut counts = vec![0usize; num_classes];
                    // Deterministic coverage: stride through classes so all
                    // classes appear across the fleet, as in Figure 3.
                    let base = (k * cpc) % num_classes;
                    let per = share / cpc;
                    for j in 0..cpc {
                        counts[(base + j) % num_classes] += per;
                    }
                    // Rounding remainder goes to the first class.
                    counts[base] += share - per * cpc;
                    counts
                }
            },
        )
    }
}

/// The one shard builder: `num_clients` equal shards of `train`/`test`,
/// client `k` wanting `desired_of(k, its stream, share)` examples per class.
///
/// Train indices are sampled without replacement from per-class pools;
/// when a client's desired class allocation exceeds availability the
/// deficit moves to the most-available classes, so all examples are
/// assigned at most once and shard sizes stay equal (±1 from rounding).
/// Test indices are sampled to mirror each client's realized training
/// label distribution (with replacement — test sets may overlap between
/// clients, matching per-client evaluation in the paper), from what is left
/// of the client's stream after `desired_of` drew from it.
pub(crate) fn split_by(
    train: &Dataset,
    test: &Dataset,
    num_clients: usize,
    seed: u64,
    mut desired_of: impl FnMut(usize, &mut SnapRng, usize) -> Vec<usize>,
) -> Vec<ClientSplit> {
    assert!(num_clients >= 1, "need at least one client");
    assert!(
        train.len() >= num_clients,
        "fewer training examples ({}) than clients ({num_clients})",
        train.len()
    );
    let num_classes = train.num_classes;
    let mut rng = derived_rng(seed, 0xD1D1);

    // Per-class index pools, shuffled.
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in train.labels.iter().enumerate() {
        pools[l].push(i);
    }
    for p in &mut pools {
        rng.shuffle(p);
    }
    let mut test_pools: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in test.labels.iter().enumerate() {
        test_pools[l].push(i);
    }

    let share = train.len() / num_clients;
    let test_share = (test.len() / num_clients).max(1);

    let mut splits = Vec::with_capacity(num_clients);
    for k in 0..num_clients {
        let mut crng = derived_rng(seed, 0xC11E + k as u64);
        let desired = desired_of(k, &mut crng, share);

        // Draw from pools; move deficits to the fullest pools.
        let mut train_indices = Vec::with_capacity(share);
        let mut realized = vec![0usize; num_classes];
        let mut deficit = 0usize;
        for (c, &want) in desired.iter().enumerate() {
            let take = want.min(pools[c].len());
            for _ in 0..take {
                train_indices.push(pools[c].pop().expect("pool sized above"));
            }
            realized[c] += take;
            deficit += want - take;
        }
        while deficit > 0 {
            let richest = (0..num_classes)
                .max_by_key(|&c| pools[c].len())
                .expect("at least one class");
            if pools[richest].is_empty() {
                break; // Dataset exhausted; shard stays short.
            }
            train_indices.push(pools[richest].pop().expect("checked non-empty"));
            realized[richest] += 1;
            deficit -= 1;
        }

        // Matching test distribution (with replacement).
        let total_realized: usize = realized.iter().sum();
        let mut test_indices = Vec::with_capacity(test_share);
        if total_realized > 0 {
            let test_counts = largest_remainder_counts(
                &realized
                    .iter()
                    .map(|&r| r as f64 / total_realized as f64)
                    .collect::<Vec<_>>(),
                test_share,
            );
            for (c, &want) in test_counts.iter().enumerate() {
                if test_pools[c].is_empty() {
                    continue;
                }
                for _ in 0..want {
                    test_indices.push(test_pools[c][crng.index(test_pools[c].len())]);
                }
            }
        }

        splits.push(ClientSplit {
            client_id: k,
            train_indices,
            test_indices,
        });
    }
    splits
}

/// Apportion `total` into integer counts proportional to `p` using the
/// largest-remainder method (exactly sums to `total`).
pub(crate) fn largest_remainder_counts(p: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = p.iter().sum();
    if sum <= 0.0 {
        let mut c = vec![0usize; p.len()];
        if !c.is_empty() {
            c[0] = total;
        }
        return c;
    }
    let quotas: Vec<f64> = p.iter().map(|&x| x / sum * total as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|&q| q.floor() as usize).collect();
    let mut assigned: usize = counts.iter().sum();
    let mut rema: Vec<(usize, f64)> = quotas
        .iter()
        .enumerate()
        .map(|(i, &q)| (i, q - q.floor()))
        .collect();
    rema.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut ri = 0;
    while assigned < total && !rema.is_empty() {
        counts[rema[ri % rema.len()].0] += 1;
        assigned += 1;
        ri += 1;
    }
    counts
}

/// Render the per-client label histogram as the text analogue of the
/// paper's Figures 2–3 (one row per client, one column per class).
pub fn histogram_table(train: &Dataset, splits: &[ClientSplit]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:>7} |", "client");
    for c in 0..train.num_classes {
        let _ = write!(out, "{c:>5}");
    }
    let _ = writeln!(out, " | total");
    for s in splits {
        let mut h = vec![0usize; train.num_classes];
        for &i in &s.train_indices {
            h[train.labels[i]] += 1;
        }
        let _ = write!(out, "{:>7} |", s.client_id);
        for &c in &h {
            let _ = write!(out, "{c:>5}");
        }
        let _ = writeln!(out, " | {:>5}", s.train_indices.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::tiny_dataset;

    fn toy(classes: usize, n: usize) -> (Dataset, Dataset) {
        let d = tiny_dataset(classes, n, n / 2, 31);
        (d.train, d.test)
    }

    #[test]
    fn dirichlet_conserves_and_never_duplicates() {
        let (train, test) = toy(5, 200);
        let splits = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &test, 8, 1);
        let mut all: Vec<usize> = splits
            .iter()
            .flat_map(|s| s.train_indices.clone())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate training indices across clients");
        assert!(n <= train.len());
    }

    #[test]
    fn shards_are_equal_size() {
        let (train, test) = toy(5, 200);
        let splits = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &test, 10, 2);
        for s in &splits {
            assert_eq!(
                s.train_indices.len(),
                20,
                "client {} shard size",
                s.client_id
            );
        }
    }

    #[test]
    fn skewed_limits_classes_per_client() {
        let (train, test) = toy(6, 240);
        let splits = Partitioner::Skewed {
            classes_per_client: 2,
        }
        .split(&train, &test, 6, 3);
        for s in &splits {
            let mut classes: Vec<usize> =
                s.train_indices.iter().map(|&i| train.labels[i]).collect();
            classes.sort_unstable();
            classes.dedup();
            assert!(
                classes.len() <= 3,
                "client {} saw classes {classes:?}",
                s.client_id
            );
            // Dominant two classes hold almost all the mass (pool spill may
            // add strays once pools drain).
            let mut h = vec![0usize; train.num_classes];
            for &i in &s.train_indices {
                h[train.labels[i]] += 1;
            }
            let mut sorted = h.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let top2: usize = sorted[..2].iter().sum();
            let total: usize = sorted.iter().sum();
            assert!(
                top2 as f64 >= 0.9 * total as f64,
                "client {}: {h:?}",
                s.client_id
            );
        }
    }

    #[test]
    fn dirichlet_is_skewed_relative_to_uniform() {
        let (train, test) = toy(5, 400);
        let splits = Partitioner::Dirichlet { alpha: 0.3 }.split(&train, &test, 8, 7);
        // At least one client should be visibly non-uniform.
        let mut found_skew = false;
        for s in &splits {
            let mut h = vec![0usize; train.num_classes];
            for &i in &s.train_indices {
                h[train.labels[i]] += 1;
            }
            let max = *h.iter().max().expect("non-empty histogram");
            let total: usize = h.iter().sum();
            if max as f64 > 0.45 * total as f64 {
                found_skew = true;
            }
        }
        assert!(found_skew, "α=0.3 split looks uniform");
    }

    #[test]
    fn test_indices_follow_train_distribution() {
        let (train, test) = toy(4, 200);
        let splits = Partitioner::Skewed {
            classes_per_client: 2,
        }
        .split(&train, &test, 4, 9);
        for s in &splits {
            let mut train_classes: Vec<usize> =
                s.train_indices.iter().map(|&i| train.labels[i]).collect();
            train_classes.sort_unstable();
            train_classes.dedup();
            for &ti in &s.test_indices {
                assert!(
                    train_classes.contains(&test.labels[ti]),
                    "client {} test label {} unseen in training",
                    s.client_id,
                    test.labels[ti]
                );
            }
            assert!(!s.test_indices.is_empty());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) = toy(5, 100);
        let a = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &test, 5, 42);
        let b = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &test, 5, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.train_indices, y.train_indices);
            assert_eq!(x.test_indices, y.test_indices);
        }
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        let p = vec![0.301, 0.299, 0.4];
        let c = largest_remainder_counts(&p, 10);
        assert_eq!(c.iter().sum::<usize>(), 10);
        assert_eq!(c[2], 4);
    }

    #[test]
    fn histogram_table_renders_all_clients() {
        let (train, test) = toy(3, 60);
        let splits = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &test, 4, 5);
        let table = histogram_table(&train, &splits);
        assert_eq!(table.lines().count(), 5); // header + 4 clients
    }
}
