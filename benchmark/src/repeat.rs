//! `fca-benchmark repeat --sets <n> --runs <n>`: does the benchmark agree
//! with itself? Each run is a process of its own; run `i` of every set uses
//! seed `1000 + i`. The workloads take turns and so do the sets (the order
//! of the sets flips from one run to the next), so every set of every
//! workload is spread over the whole record and the machine's slow drift
//! falls on all of them alike. Per metric and workload it prints the
//! quartiles and spread (IQR ÷ median) of each set and the drift between the
//! sets' medians, and fails if any is beyond the metric's repeatability
//! target.

use crate::stats::{median, quartiles};
use crate::workloads::{Workload, RUN_SECONDS};
use serde_json::{Map, Value};
use std::process::Command;

/// The end-to-end metrics: `(name, unit, better, bound, target)`.
///
/// `bound` is what `BENCHMARK.json` states (a self-test holds the two
/// together): how far a later change may worsen the median before the driver
/// rejects it. The driver also refuses a benchmark whose own runs spread
/// wider than the bound, so the bound cannot be tighter than the machine's
/// noise. `target` is the repeatability the issue asked for, and what
/// `repeat` holds the benchmark to. For the two wall-clock metrics the two
/// differ: the target is 10 %, and sets of runs on this machine have spread
/// 7–21 % on `client_steps_per_s` and 7–19 % on `setup_s`, so the bound is
/// the widest the driver allows and `repeat` reports the target as missed
/// whenever it is (README, "Noise").
pub const END_TO_END: [(&str, &str, &str, f64, f64); 4] = [
    ("setup_s", "s", "lower", 0.25, 0.10),
    ("client_steps_per_s", "1/s", "higher", 0.25, 0.10),
    ("wire_bytes_per_client_round", "B", "lower", 0.01, 0.01),
    ("peak_heap_mb", "MiB", "lower", 0.05, 0.05),
];

/// One child run's summary line, parsed.
fn run_once(w: Workload, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let summary: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{} seed {seed}: last line is not a summary ({e}): {last}",
            w.name()
        )
    })?;
    if !out.status.success() || summary["correct"].as_bool() != Some(true) {
        return Err(format!("{} seed {seed}: not correct:\n{stdout}", w.name()));
    }
    Ok(summary)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

pub fn run(sets: usize, runs: usize, baseline_path: Option<&str>) -> bool {
    assert!(
        sets >= 1 && runs >= 2,
        "repeat needs --sets >= 1 and --runs >= 2"
    );
    // values[set][workload][metric] = one value per run
    let mut values =
        vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; Workload::ALL.len()]; sets];
    let mut stamp = Value::Null;
    let mut ok = true;
    for run in 0..runs {
        let seed = (1000 + run) as u64;
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            for turn in 0..sets {
                let set = if run % 2 == 0 { turn } else { sets - 1 - turn };
                eprintln!("run {} {} set {} seed {seed}", run + 1, w.name(), set + 1);
                match run_once(w, seed) {
                    Ok(summary) => {
                        for (mi, (name, ..)) in END_TO_END.iter().enumerate() {
                            let v = summary["metrics"][*name]["value"]
                                .as_f64()
                                .unwrap_or(f64::NAN);
                            values[set][wi][mi].push(v);
                        }
                        if stamp.is_null() {
                            stamp = crate::report::Stamp::new(false, 0, RUN_SECONDS).to_json();
                        }
                    }
                    Err(why) => {
                        eprintln!("{why}");
                        ok = false;
                    }
                }
            }
        }
    }
    // A run that failed is reported above and fails the whole; the tables
    // below still show the runs that did not.
    println!("# Repeatability of the benchmark against itself");
    println!();
    println!(
        "`fca-benchmark repeat --sets {sets} --runs {runs}`: {} runs of {RUN_SECONDS} s, each a process of its own, run `i` of every",
        sets * runs * Workload::ALL.len()
    );
    println!("set on seed `1000 + i`, workloads and sets taking turns. Spread is (Q3 − Q1) ÷ median of a set's runs,");
    println!("quartiles as Python's `statistics.quantiles(v, n=4)`; drift is how much worse a later set's median is");
    println!("than the first set's. `target` is the repeatability the issue asked for and what the last column and");
    println!("the exit code judge; `bound` is what `BENCHMARK.json` holds a later change to.");
    println!();
    println!("stamp: `{stamp}` (seed and trace flag vary per run)");
    println!();
    let mut baseline = Map::new();
    let mut beyond_bound = false;
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        println!("## {}", w.name());
        println!();
        println!("| metric | unit | set | Q1 | median | Q3 | spread | drift vs set 1 | target | bound | |");
        println!("|---|---|---|---|---|---|---|---|---|---|---|");
        let mut medians = Map::new();
        for (mi, (name, unit, better, bound, target)) in END_TO_END.iter().enumerate() {
            let first_set = &values[0][wi][mi];
            let first_median = if first_set.is_empty() {
                f64::NAN
            } else {
                median(first_set)
            };
            medians.insert((*name).into(), Value::from(first_median));
            for (set, set_values) in values.iter().enumerate() {
                let v = &set_values[wi][mi];
                if v.len() < 2 {
                    println!(
                        "| `{name}` | {unit} | {} | too few correct runs | | | | | | | OUT |",
                        set + 1
                    );
                    continue;
                }
                let [q1, q2, q3] = quartiles(v);
                let spread = (q3 - q1) / q2;
                let drift = worsening(better, first_median, median(v));
                let within = spread <= *target && drift <= *target;
                ok &= within;
                beyond_bound |= spread > *bound || drift > *bound;
                println!(
                    "| `{name}` | {unit} | {} | {q1:.6} | {q2:.6} | {q3:.6} | {:.2} % | {:+.2} % | {:.0} % | {:.0} % | {} |",
                    set + 1,
                    spread * 100.0,
                    drift * 100.0,
                    target * 100.0,
                    bound * 100.0,
                    if within { "ok" } else { "OUT" }
                );
            }
        }
        baseline.insert(w.name().into(), Value::Object(medians));
        println!();
    }
    println!(
        "{}",
        if ok {
            "every spread and drift is within its target"
        } else if beyond_bound {
            "TARGET MISSED, and a row is beyond its bound as well"
        } else {
            "TARGET MISSED: the rows marked OUT are beyond the issue's target; all are within `BENCHMARK.json`'s bounds"
        }
    );

    if let Some(path) = baseline_path {
        let mut doc = Map::new();
        doc.insert("stamp".into(), stamp);
        doc.insert(
            "what".into(),
            Value::from(format!(
                "medians of the first set of {runs} runs per workload"
            )),
        );
        doc.insert("workloads".into(), Value::Object(baseline));
        let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("a Value prints");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("baseline not written to {path}: {e}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
    }
}
