//! # fca-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the full index):
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `fig2_3_partitions`     | Figures 2–3 (non-iid label histograms) |
//! | `table1_hparams`        | Table 1 (hyperparameters) |
//! | `fig4_5_curves`         | Figures 4–5 (heterogeneous learning curves) |
//! | `table2_heterogeneous`  | Table 2 (heterogeneous accuracy ± std) |
//! | `table3_homogeneous`    | Table 3 (homogeneous accuracy, 20/100 clients) |
//! | `fig6_7_homo_curves`    | Figures 6–7 (homogeneous learning curves) |
//! | `table4_ablation`       | Table 4 (CA / +PR / +CL / +PR,CL ablation) |
//! | `fig8_tsne`             | Figure 8 (t-SNE of learned features) |
//! | `fig9_conductance`      | Figure 9 (classifier unit-attribution ranks) |
//! | `table5_comm_cost`      | Table 5 (per-round communication cost) |
//!
//! The binaries above run the full experiments and write JSON into
//! `results/`. Speed is measured by the workspace under `benchmark/`
//! (end-to-end federation rounds plus a traced per-layer run), not here.

pub mod experiments;
pub mod report;

pub use experiments::ExperimentContext;
