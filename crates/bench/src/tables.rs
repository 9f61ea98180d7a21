//! Tables 2–4 as declarations: the paper's numbers, the settings and
//! methods that reproduce them, and the orderings the paper claims.
//! [`crate::experiments::reproduce`] runs them.

use crate::experiments::{DatasetKind, Method, Setting, Table};
use fca_data::partition::Partitioner;
use DatasetKind::{Cifar, Emnist, Fashion};

/// The paper's Dir(0.5) label distribution.
pub const DIR: Partitioner = Partitioner::Dirichlet { alpha: 0.5 };
/// The paper's two-classes-per-client label skew.
pub const SKEWED: Partitioner = Partitioner::Skewed {
    classes_per_client: 2,
};

const fn homogeneous(dataset: DatasetKind, clients: usize, sample_rate: f32) -> Setting {
    Setting {
        dataset,
        partitioner: DIR,
        clients: Some(clients),
        sample_rate,
        homogeneous: true,
    }
}

const CA: Method = Method::Ablation {
    contrastive: false,
    proximal: false,
};
const CA_PR: Method = Method::Ablation {
    contrastive: false,
    proximal: true,
};
const CA_CL: Method = Method::Ablation {
    contrastive: true,
    proximal: false,
};
const CA_PR_CL: Method = Method::Ablation {
    contrastive: true,
    proximal: true,
};

/// **Table 2**: average test accuracy ± std of 20 clients with
/// heterogeneous models (MicroResNet / MicroShuffleNet / MicroGoogLeNet /
/// MicroAlexNet) under Dir(0.5) and two-class skew. Its first seed's
/// curves are Figures 4 (Dir) and 5 (Skewed).
pub const TABLE2: Table = Table {
    title: "Table 2 — heterogeneous personalized FL",
    file: "table2_heterogeneous",
    settings: &[
        Setting::heterogeneous(Cifar, DIR),
        Setting::heterogeneous(Cifar, SKEWED),
        Setting::heterogeneous(Fashion, DIR),
        Setting::heterogeneous(Fashion, SKEWED),
        Setting::heterogeneous(Emnist, DIR),
        Setting::heterogeneous(Emnist, SKEWED),
    ],
    rows: &[
        (
            Method::Baseline,
            &[0.6894, 0.8871, 0.8840, 0.9430, 0.9149, 0.9671],
        ),
        (
            Method::FedProto,
            &[0.4742, 0.8359, 0.6042, 0.6364, 0.2249, 0.2183],
        ),
        (
            Method::KtPfl,
            &[0.6228, 0.8721, 0.9039, 0.9737, 0.9055, 0.9921],
        ),
        (
            Method::FedClassAvg,
            &[0.7670, 0.9202, 0.9303, 0.9800, 0.9305, 0.9957],
        ),
    ],
    orderings: &[
        (Method::FedClassAvg, Method::Baseline),
        (Method::FedClassAvg, Method::KtPfl),
        (Method::FedClassAvg, Method::FedProto),
    ],
    curves: Some((
        "fig4_5_curves",
        &[Method::Baseline, Method::KtPfl, Method::FedClassAvg],
    )),
};

/// **Table 3**: average test accuracy of homogeneous models under Dir(0.5)
/// for 20 clients (full participation) and 100 clients (sampling rate
/// 0.1). Its first seed's curves are Figures 6 (20 clients) and 7 (100).
pub const TABLE3: Table = Table {
    title: "Table 3 — homogeneous federated learning",
    file: "table3_homogeneous",
    settings: &[
        homogeneous(Cifar, 20, 1.0),
        homogeneous(Cifar, 100, 0.1),
        homogeneous(Fashion, 20, 1.0),
        homogeneous(Fashion, 100, 0.1),
        homogeneous(Emnist, 20, 1.0),
        homogeneous(Emnist, 100, 0.1),
    ],
    rows: &[
        (
            Method::FedAvg,
            &[0.7729, 0.6336, 0.8988, 0.7471, 0.9343, 0.8662],
        ),
        (
            Method::FedProx,
            &[0.8123, 0.6505, 0.9025, 0.7477, 0.9462, 0.8677],
        ),
        (
            Method::KtPfl,
            &[0.5433, 0.4777, 0.8954, 0.6114, 0.8505, 0.6589],
        ),
        (
            Method::KtPflWeight,
            &[0.6809, 0.5624, 0.9113, 0.8647, 0.6774, 0.8441],
        ),
        (
            Method::FedClassAvg,
            &[0.7653, 0.5096, 0.9294, 0.6712, 0.9361, 0.7097],
        ),
        (
            Method::FedClassAvgWeight,
            &[0.8546, 0.7817, 0.9361, 0.9057, 0.9464, 0.9166],
        ),
    ],
    orderings: &[(Method::FedClassAvgWeight, Method::FedAvg)],
    curves: Some((
        "fig6_7_homo_curves",
        &[
            Method::FedAvg,
            Method::KtPflWeight,
            Method::FedClassAvg,
            Method::FedClassAvgWeight,
        ],
    )),
};

/// **Table 4**: the ablation over FedClassAvg's building blocks —
/// classifier averaging alone (CA), with proximal regularization (+PR),
/// with the contrastive loss (+CL), and with both — on 20 heterogeneous
/// clients under Dir(0.5). The paper's claim: the full objective is best.
pub const TABLE4: Table = Table {
    title: "Table 4 — ablation (CA / PR / CL)",
    file: "table4_ablation",
    settings: &[
        Setting::heterogeneous(Cifar, DIR),
        Setting::heterogeneous(Fashion, DIR),
        Setting::heterogeneous(Emnist, DIR),
    ],
    rows: &[
        (CA, &[0.615, 0.8578, 0.915]),
        (CA_PR, &[0.6311, 0.8971, 0.8993]),
        (CA_CL, &[0.7509, 0.924, 0.9186]),
        (CA_PR_CL, &[0.7670, 0.9303, 0.9305]),
    ],
    orderings: &[(CA_PR_CL, CA), (CA_PR_CL, CA_PR), (CA_PR_CL, CA_CL)],
    curves: None,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_of_every_table_has_a_paper_value_and_the_paper_holds_each_ordering() {
        for table in [&TABLE2, &TABLE3, &TABLE4] {
            for (method, paper) in table.rows {
                assert_eq!(
                    paper.len(),
                    table.settings.len(),
                    "{}: {method:?} has {} paper values for {} settings",
                    table.file,
                    paper.len(),
                    table.settings.len()
                );
                assert!(paper.iter().all(|v| (0.0..=1.0).contains(v)));
            }
            let row = |m: Method| {
                table
                    .row(m)
                    .unwrap_or_else(|| panic!("{}: {m:?} is no row", table.file))
            };
            for &(better, worse) in table.orderings {
                let (b, w) = (table.rows[row(better)].1, table.rows[row(worse)].1);
                for (s, setting) in table.settings.iter().enumerate() {
                    assert!(
                        b[s] > w[s],
                        "{}: the paper does not put {better:?} over {worse:?} on {}",
                        table.file,
                        setting.name()
                    );
                }
            }
            for m in table.curves.iter().flat_map(|(_, methods)| *methods) {
                row(*m);
            }
            let mut names: Vec<String> = table.settings.iter().map(Setting::name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), table.settings.len(), "{}", table.file);
        }
    }

    #[test]
    fn setting_names_are_the_paper_columns() {
        let names = |t: &Table| t.settings.iter().map(Setting::name).collect::<Vec<_>>();
        assert_eq!(names(&TABLE2)[1], "CIFAR-10 Skewed");
        assert_eq!(names(&TABLE3)[3], "Fashion-MNIST 100 clients");
        assert_eq!(names(&TABLE4)[2], "EMNIST Dir(0.5)");
    }
}
