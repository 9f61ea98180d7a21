//! `fca-benchmark`: the federation-round benchmark. See `benchmark/README.md`.
//!
//! ```text
//! fca-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fca-benchmark repeat --sets <n> --runs <n> [--baseline <file>]
//! ```
//!
//! There is no option for threads, estimator or work size: a record is only
//! comparable with another if those are the same, so they are constants.

// The repository's clippy.toml bans wall-clock reads outside trace and bench
// timing; this crate is the bench timing.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod endtoend;
mod probes;
mod repeat;
mod report;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;
mod traced;
mod workloads;

use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The value after `flag`, parsed; exits with a usage error otherwise.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("missing or malformed {flag}")))
}

fn usage(why: &str) -> ! {
    eprintln!("fca-benchmark: {why}");
    eprintln!("usage: fca-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       fca-benchmark repeat --sets <n> --runs <n> [--baseline <file>]");
    for w in Workload::ALL {
        eprintln!("  {:<16} {}", w.name(), w.why());
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One compute thread, fixed before any work: on shared vCPUs a second
    // thread's wall clock measures the neighbours (README, "Noise").
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the global pool is built once, here");

    if args.first().map(String::as_str) == Some("repeat") {
        let baseline = args
            .iter()
            .position(|a| a == "--baseline")
            .and_then(|i| args.get(i + 1));
        let ok = repeat::run(
            arg(&args, "--sets"),
            arg(&args, "--runs"),
            baseline.map(String::as_str),
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    let name: String = arg(&args, "--workload");
    let workload =
        Workload::parse(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let seed: u64 = arg(&args, "--seed");
    let seconds: u64 = arg(&args, "--seconds");
    let trace: u8 = arg(&args, "--trace");
    if !(1..=60).contains(&seconds) {
        usage("--seconds must be 1..=60");
    }
    let report = match trace {
        0 => endtoend::run(workload, seed, seconds),
        1 => traced::run(workload, seed, seconds),
        _ => usage("--trace must be 0 or 1"),
    };
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
