//! Reproduce **Table 3** ([`fca_bench::tables::TABLE3`]) and, from its
//! first seed's runs, the learning curves of **Figures 6–7**.
//!
//! Usage: `cargo run --release -p fca-bench --bin table3_homogeneous
//! [--quick] [--seed N] [--setting NAME]`

fn main() -> std::process::ExitCode {
    fca_bench::report::reproduce_main(&fca_bench::tables::TABLE3)
}
