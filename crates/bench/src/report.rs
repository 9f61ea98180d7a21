//! Report rendering: paper-vs-measured tables and JSON artifacts.

use fedclassavg::sim::RoundMetrics;
use serde_json::Value;
use std::path::Path;

/// A JSON object from `(key, value)` pairs.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An `f32` as the JSON number its shortest decimal form names (`0.7125`,
/// not the `0.7124999761581421` that widening to `f64` would print).
pub fn num(v: f32) -> Value {
    Value::from(v.to_string().parse::<f64>().unwrap_or(f64::NAN))
}

/// Numeric member `key` of a record built by [`object`] (NaN when absent).
pub fn field(record: &Value, key: &str) -> f64 {
    record[key].as_f64().unwrap_or(f64::NAN)
}

/// An accuracy curve as `[epochs, mean_acc, std_acc]` triples.
pub fn curve_points(curve: &[RoundMetrics]) -> Value {
    Value::Array(
        curve
            .iter()
            .map(|p| Value::Array(vec![p.epochs.into(), num(p.mean_acc), num(p.std_acc)]))
            .collect(),
    )
}

/// A single table cell comparison: the paper's number next to ours.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Row label (method name).
    pub method: String,
    /// Column label (dataset / setting).
    pub setting: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Optional measured spread (±).
    pub measured_std: Option<f64>,
}

impl Comparison {
    /// The row as it is written to `results/*.json`.
    pub fn to_value(&self) -> Value {
        object([
            ("method", self.method.as_str().into()),
            ("setting", self.setting.as_str().into()),
            ("paper", self.paper.into()),
            ("measured", self.measured.into()),
            (
                "measured_std",
                self.measured_std.map_or(Value::Null, Value::from),
            ),
        ])
    }
}

/// The rows of a comparison table as one JSON array.
pub fn comparisons_value(rows: &[Comparison]) -> Value {
    Value::Array(rows.iter().map(Comparison::to_value).collect())
}

/// Render comparisons grouped by setting.
pub fn comparison_table(title: &str, rows: &[Comparison]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<28} {:<22} {:>10} {:>10} {:>8}",
        "method", "setting", "paper", "measured", "±"
    );
    for r in rows {
        let std = r
            .measured_std
            .map(|s| format!("{s:.4}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<28} {:<22} {:>10.4} {:>10.4} {:>8}",
            r.method, r.setting, r.paper, r.measured, std
        );
    }
    out
}

/// Check that our measurements preserve the paper's *ordering* between two
/// methods in a setting (the reproduction criterion — absolute numbers
/// come from different substrates).
pub fn ordering_holds(
    rows: &[Comparison],
    better: &str,
    worse: &str,
    setting: &str,
) -> Option<bool> {
    let find = |m: &str| {
        rows.iter()
            .find(|r| r.method == m && r.setting == setting)
            .map(|r| r.measured)
    };
    Some(find(better)? > find(worse)?)
}

/// Write a result as pretty-printed JSON under `results/`.
pub fn write_json(name: &str, value: &Value) -> std::io::Result<std::path::PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("a Value always prints");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> std::path::PathBuf {
    // The binaries run from the workspace root via `cargo run`; walk up
    // from the crate dir when invoked from elsewhere.
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    for candidate in [cwd.clone(), cwd.join(".."), cwd.join("../..")] {
        if candidate.join("Cargo.toml").exists() && candidate.join("crates").is_dir() {
            return candidate.join("results");
        }
    }
    Path::new("results").to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Comparison> {
        vec![
            Comparison {
                method: "Proposed".into(),
                setting: "CIFAR Dir(0.5)".into(),
                paper: 0.767,
                measured: 0.71,
                measured_std: Some(0.05),
            },
            Comparison {
                method: "KT-pFL".into(),
                setting: "CIFAR Dir(0.5)".into(),
                paper: 0.6228,
                measured: 0.62,
                measured_std: None,
            },
        ]
    }

    #[test]
    fn table_renders_all_rows() {
        let t = comparison_table("Table 2", &rows());
        assert_eq!(t.lines().count(), 4);
        assert!(t.contains("Proposed"));
        assert!(t.contains("0.7100"));
    }

    #[test]
    fn ordering_detection() {
        let r = rows();
        assert_eq!(
            ordering_holds(&r, "Proposed", "KT-pFL", "CIFAR Dir(0.5)"),
            Some(true)
        );
        assert_eq!(
            ordering_holds(&r, "KT-pFL", "Proposed", "CIFAR Dir(0.5)"),
            Some(false)
        );
        assert_eq!(
            ordering_holds(&r, "Missing", "KT-pFL", "CIFAR Dir(0.5)"),
            None
        );
    }

    #[test]
    fn json_artifact_written() {
        let path = write_json("test_artifact", &comparisons_value(&rows())).expect("write");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(path).ok();
        let parsed = serde_json::from_str::<Value>(&body).expect("the artifact is JSON");
        let items = parsed.as_array().expect("an array of rows");
        assert_eq!(items.len(), 2);
        for (item, row) in items.iter().zip(rows()) {
            let keys: Vec<&str> = item
                .as_object()
                .expect("a row object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                ["measured", "measured_std", "method", "paper", "setting"]
            );
            assert_eq!(item["method"].as_str(), Some(row.method.as_str()));
            assert_eq!(item["setting"].as_str(), Some(row.setting.as_str()));
            assert_eq!(item["paper"].as_f64(), Some(row.paper));
            assert_eq!(item["measured"].as_f64(), Some(row.measured));
            assert_eq!(item["measured_std"].as_f64(), row.measured_std);
        }
        assert!(items[1]["measured_std"].is_null());
        assert_eq!(
            serde_json::to_string(&num(0.7125)).expect("prints"),
            "0.7125"
        );
    }
}
