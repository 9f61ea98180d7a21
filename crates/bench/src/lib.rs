//! # fca-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the full index):
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `fig2_3_partitions`     | Figures 2–3 (non-iid label histograms) |
//! | `table1_hparams`        | Table 1 (hyperparameters) |
//! | `table2_heterogeneous`  | Table 2 (heterogeneous accuracy ± std) and Figures 4–5 (its learning curves) |
//! | `table3_homogeneous`    | Table 3 (homogeneous accuracy, 20/100 clients) and Figures 6–7 (its learning curves) |
//! | `table4_ablation`       | Table 4 (CA / +PR / +CL / +PR,CL ablation) |
//! | `fig8_tsne`             | Figure 8 (t-SNE of learned features) |
//! | `fig9_conductance`      | Figure 9 (classifier unit-attribution ranks) |
//! | `table5_comm_cost`      | Table 5 (per-round communication cost) |
//!
//! Tables 2–4 are declarations ([`tables`]) run by one paired multi-seed
//! loop ([`experiments::reproduce`]); the binaries write JSON into
//! `results/`. Speed is measured by the workspace under `benchmark/`
//! (end-to-end federation rounds plus a traced per-layer run), not here.

pub mod experiments;
pub mod report;
pub mod tables;

pub use experiments::ExperimentContext;
