//! Reproduce **Table 2** ([`fca_bench::tables::TABLE2`]) and, from its
//! first seed's runs, the learning curves of **Figures 4–5**.
//!
//! Usage: `cargo run --release -p fca-bench --bin table2_heterogeneous
//! [--quick] [--seed N] [--setting NAME]`

fn main() -> std::process::ExitCode {
    fca_bench::report::reproduce_main(&fca_bench::tables::TABLE2)
}
