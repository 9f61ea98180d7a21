//! What a run prints: its stamp, every metric by name and unit, the checks,
//! and the one-line JSON summary the driver reads.

use crate::workloads::Workload;
use serde_json::{Map, Value};

/// Where and how a record was made. Records with different stamps (other
/// than seed and trace flag) are not comparable.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub compute_threads: usize,
    pub gemm_arm: &'static str,
    pub deps: String,
    pub trace: bool,
    pub seed: u64,
    pub run_seconds: u64,
}

impl Stamp {
    /// `commit` and `deps` come from `benchmark/run.sh`, which knows the
    /// checkout and which crates it built against; run by hand, the binary
    /// says `unknown`.
    pub fn new(trace: bool, seed: u64, run_seconds: u64) -> Stamp {
        let from_env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Stamp {
            commit: from_env("FCA_BENCH_COMMIT"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            compute_threads: rayon::current_num_threads(),
            gemm_arm: fca_tensor::simd::active().as_str(),
            deps: from_env("FCA_BENCH_DEPS"),
            trace,
            seed,
            run_seconds,
        }
    }

    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("commit".into(), Value::from(self.commit.as_str()));
        m.insert("nproc".into(), Value::from(self.nproc));
        m.insert("compute_threads".into(), Value::from(self.compute_threads));
        m.insert("gemm_arm".into(), Value::from(self.gemm_arm));
        m.insert("deps".into(), Value::from(self.deps.as_str()));
        m.insert("trace".into(), Value::from(self.trace));
        m.insert("seed".into(), Value::from(self.seed));
        m.insert("run_seconds".into(), Value::from(self.run_seconds));
        Value::Object(m)
    }
}

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A finished run.
pub struct Report {
    pub workload: Workload,
    pub stamp: Stamp,
    pub metrics: Vec<Metric>,
    /// Lines for the human reader: rounds/s, rep counts, the fingerprint.
    pub notes: Vec<String>,
    /// Why the run is not `correct`; empty when it is.
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The last line of standard output.
    pub fn summary_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut entry = Map::new();
            entry.insert("value".into(), Value::from(m.value));
            entry.insert("unit".into(), Value::from(m.unit));
            metrics.insert(m.name.clone(), Value::Object(entry));
        }
        let mut line = Map::new();
        line.insert("correct".into(), Value::from(self.correct()));
        line.insert("attempted".into(), Value::from(self.attempted.max(1)));
        line.insert("failed".into(), Value::from(self.failed));
        line.insert("metrics".into(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(line)).expect("a Value prints")
    }

    pub fn print(&self) {
        println!("workload {}", self.workload.name());
        println!("stamp {}", self.stamp.to_json());
        for m in &self.metrics {
            println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            println!("{note}");
        }
        for v in &self.violations {
            println!("VIOLATION {v}");
        }
        println!("{}", self.summary_line());
    }
}
