//! Self-tests that hold `BENCHMARK.json`, the code's metric lists and what
//! the runs really emit together.

use crate::repeat::END_TO_END;
use crate::traced::per_layer_names;
use crate::workloads::{Workload, RUN_SECONDS};
use crate::{endtoend, traced};
use serde_json::{Map, Value};
use std::collections::BTreeSet;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn object(pairs: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert((*k).to_string(), v.clone());
    }
    Value::Object(m)
}

/// `BENCHMARK.json` as the code defines it.
fn expected() -> Value {
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| object(&[("name", w.name().into()), ("why", w.why().into())]))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound, _target)| {
            object(&[
                ("name", (*name).into()),
                ("unit", (*unit).into()),
                ("better", (*better).into()),
                ("bound", (*bound).into()),
            ])
        })
        .collect();
    let per_layer: Vec<Value> = per_layer_names()
        .iter()
        .map(|(name, unit, better)| {
            object(&[
                ("name", name.as_str().into()),
                ("unit", (*unit).into()),
                ("better", (*better).into()),
            ])
        })
        .collect();
    object(&[
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        ("workloads", workloads.into()),
        ("end_to_end", end_to_end.into()),
        ("per_layer", per_layer.into()),
    ])
}

fn committed() -> Value {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| m["name"].as_str().expect("a metric name").to_string())
        .collect()
}

/// Regenerate the file after changing a metric list:
/// `cargo test --offline -- --ignored write_benchmark_json`.
#[test]
#[ignore = "writes BENCHMARK.json"]
fn write_benchmark_json() {
    let text = serde_json::to_string_pretty(&expected()).expect("a Value prints");
    std::fs::write(BENCHMARK_JSON, text + "\n").expect("BENCHMARK.json is writable");
}

#[test]
fn benchmark_json_is_what_the_code_defines_and_within_the_contract() {
    let doc = committed();
    assert_eq!(
        doc,
        expected(),
        "regenerate with the ignored test write_benchmark_json"
    );

    let valid_name = |n: &str| {
        (1..=64).contains(&n.len())
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let valid_unit = |u: &str| {
        (1..=16).contains(&u.len())
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let workloads = doc["workloads"].as_array().expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let why = w["why"].as_str().expect("why");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    assert_eq!(doc["end_to_end"].as_array().expect("end_to_end").len(), 4);
    assert!(doc["per_layer"].as_array().expect("per_layer").len() <= 128);
    assert!((1..=60).contains(&doc["run_seconds"].as_u64().expect("run_seconds")));

    let mut seen = BTreeSet::new();
    let all = names(&doc["workloads"])
        .into_iter()
        .chain(names(&doc["end_to_end"]))
        .chain(names(&doc["per_layer"]));
    for name in all {
        assert!(valid_name(&name), "bad name {name}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
    }
    for list in ["end_to_end", "per_layer"] {
        for m in doc[list].as_array().expect("metrics") {
            assert!(
                valid_unit(m["unit"].as_str().expect("unit")),
                "bad unit in {m}"
            );
            assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
        }
    }
    let bounds: Vec<f64> = doc["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .map(|m| m["bound"].as_f64().expect("bound"))
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    let setup = doc["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (setup["unit"].as_str(), setup["better"].as_str()),
        (Some("s"), Some("lower"))
    );
    assert!(
        bounds
            .iter()
            .all(|b| *b <= setup["bound"].as_f64().expect("bound")),
        "setup_s has the largest bound"
    );
}

/// One short run of each kind per workload. They share the process-wide
/// journal and write to `benchmark/out/`, so they live in one test.
#[test]
fn every_declared_name_is_emitted_by_the_matching_run_and_nothing_else() {
    let doc = committed();
    for w in Workload::ALL {
        let plain = endtoend::run(w, 1, 1);
        let emitted: Vec<String> = plain.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, names(&doc["end_to_end"]), "{} --trace 0", w.name());
        assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.violations);
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "an end-to-end metric is never 0"
        );

        let traced = traced::run(w, 1, 1);
        let emitted: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, names(&doc["per_layer"]), "{} --trace 1", w.name());
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.violations);
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));

        let line: Value =
            serde_json::from_str(&traced.summary_line()).expect("the summary line is JSON");
        let keys: Vec<&String> = line.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}
