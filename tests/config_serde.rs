//! `FedConfig`'s serialized form: it round-trips through JSON, and a config
//! written before a field existed still loads with that field's old meaning.
//! These need the published `serde`/`serde_json` (the offline stand-ins
//! derive marker impls only), so they live here, in the umbrella crate, and
//! `fedclassavg`'s own unit tests build with no dev-dependency.

use fedclassavg_suite::fed::config::{
    Aggregation, DriftSchedule, FedConfig, HyperParams, TransportKind,
};
use fedclassavg_suite::tensor::quant::Precision;

#[test]
fn config_serializes() {
    let cfg = FedConfig::paper_20_clients(HyperParams::paper_cifar10(), 5, 1);
    let json = serde_json::to_string(&cfg).expect("serialize");
    assert!(json.contains("\"num_clients\":20"));
}

#[test]
fn config_without_faults_field_deserializes() {
    // Configs serialized before fault injection existed must load.
    let json = r#"{"num_clients":4,"sample_rate":1.0,"rounds":2,
                   "feature_dim":8,"eval_every":1,"seed":7,
                   "hp":{"lr":0.002,"batch_size":32,"rho":0.1,
                         "local_epochs":1,"temperature":0.5,
                         "optimizer":"Adam"}}"#;
    let cfg: FedConfig = serde_json::from_str(json).expect("deserialize");
    assert!(cfg.faults.is_none());
    cfg.validate();
}

#[test]
fn config_without_eval_sample_field_deserializes_as_full_sweep() {
    // Configs serialized before eval subsampling existed must load and
    // keep their old meaning (evaluate every client).
    let json = r#"{"num_clients":4,"sample_rate":1.0,"rounds":2,
                   "feature_dim":8,"eval_every":1,"seed":7,
                   "hp":{"lr":0.002,"batch_size":32,"rho":0.1,
                         "local_epochs":1,"temperature":0.5,
                         "optimizer":"Adam"}}"#;
    let cfg: FedConfig = serde_json::from_str(json).expect("deserialize");
    assert_eq!(cfg.eval_sample, 0);
    let subsampled = cfg.with_eval_sample(128);
    assert_eq!(subsampled.eval_sample, 128);
    subsampled.validate();
}

#[test]
fn config_without_eval_precision_field_deserializes_as_f32() {
    // Configs serialized before the quantized eval path existed must
    // load and keep their old meaning (exact f32 evaluation).
    let json = r#"{"num_clients":4,"sample_rate":1.0,"rounds":2,
                   "feature_dim":8,"eval_every":1,"seed":7,
                   "hp":{"lr":0.002,"batch_size":32,"rho":0.1,
                         "local_epochs":1,"temperature":0.5,
                         "optimizer":"Adam"}}"#;
    let cfg: FedConfig = serde_json::from_str(json).expect("deserialize");
    assert_eq!(cfg.eval_precision, Precision::F32);
    let quantized = cfg.with_eval_precision(Precision::Int8);
    assert_eq!(quantized.eval_precision, Precision::Int8);
    quantized.validate();
}

#[test]
fn config_without_transport_field_deserializes_as_in_process() {
    // Configs serialized before pluggable transports existed must load
    // and keep their old meaning (in-process channels).
    let json = r#"{"num_clients":4,"sample_rate":1.0,"rounds":2,
                   "feature_dim":8,"eval_every":1,"seed":7,
                   "hp":{"lr":0.002,"batch_size":32,"rho":0.1,
                         "local_epochs":1,"temperature":0.5,
                         "optimizer":"Adam"}}"#;
    let cfg: FedConfig = serde_json::from_str(json).expect("deserialize");
    assert_eq!(cfg.transport, TransportKind::InProcess);
    assert_eq!(cfg.transport.as_str(), "channel");
    let socketed = cfg.with_transport(TransportKind::UnixSocket);
    assert_eq!(socketed.transport.as_str(), "unix");
    socketed.validate();
}

#[test]
fn config_without_aggregation_field_deserializes_as_sync() {
    // Configs serialized before buffered aggregation existed must load
    // and keep their old meaning (the synchronous round barrier).
    let json = r#"{"num_clients":4,"sample_rate":1.0,"rounds":2,
                   "feature_dim":8,"eval_every":1,"seed":7,
                   "hp":{"lr":0.002,"batch_size":32,"rho":0.1,
                         "local_epochs":1,"temperature":0.5,
                         "optimizer":"Adam"}}"#;
    let cfg: FedConfig = serde_json::from_str(json).expect("deserialize");
    assert_eq!(cfg.aggregation, Aggregation::Sync);
    assert!(!cfg.aggregation.is_buffered());
    let buffered = cfg.with_aggregation(Aggregation::Buffered {
        goal_k: 2,
        max_staleness: 3,
    });
    assert!(buffered.aggregation.is_buffered());
    buffered.validate();
}

#[test]
fn config_without_drift_field_deserializes_as_stationary() {
    // Configs serialized before drift schedules existed must load and
    // keep their old meaning (a stationary partition).
    let json = r#"{"num_clients":4,"sample_rate":1.0,"rounds":2,
                   "feature_dim":8,"eval_every":1,"seed":7,
                   "hp":{"lr":0.002,"batch_size":32,"rho":0.1,
                         "local_epochs":1,"temperature":0.5,
                         "optimizer":"Adam"}}"#;
    let cfg: FedConfig = serde_json::from_str(json).expect("deserialize");
    assert!(!cfg.drift.is_active());
    assert_eq!(cfg.drift.lambda_permille(1_000_000), 0);
    let drifting = cfg.with_drift(DriftSchedule::over(2, 6));
    assert!(drifting.drift.is_active());
    drifting.validate();
}
