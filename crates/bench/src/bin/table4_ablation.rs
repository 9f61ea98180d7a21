//! Reproduce **Table 4** ([`fca_bench::tables::TABLE4`]), the ablation over
//! FedClassAvg's building blocks.
//!
//! Usage: `cargo run --release -p fca-bench --bin table4_ablation
//! [--quick] [--seed N] [--setting NAME]`

fn main() -> std::process::ExitCode {
    fca_bench::report::reproduce_main(&fca_bench::tables::TABLE4)
}
