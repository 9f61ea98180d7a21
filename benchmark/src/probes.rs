//! The traced run's probes: each layer priced from outside by timing calls
//! into the crates' public functions on the workload's own shapes.
//!
//! A probe row is the median of `calls` samples (30 in a full-length run).
//! Calls that last microseconds are timed `inner` at a time and divided, so
//! the clock's own cost stays out of the number.

use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{shape, Inputs, Shape};
use bytes::{Bytes, BytesMut};
use fca_data::augment::AugmentConfig;
use fca_data::drift::drifted_splits;
use fca_data::partition::Partitioner;
use fca_data::Dataset;
use fca_models::classifier::ClassifierWeights;
use fca_models::{build_model, ClientModel, ModelArch};
use fca_nn::loss::{cross_entropy, kl_distillation, prototype_loss, supervised_contrastive};
use fca_nn::prelude::{Adam, BatchNorm2d, MaxPool2d, Module, Optimizer, Relu};
use fca_tensor::rng::{seeded_rng, SnapRng};
use fca_tensor::serialize::{decode_tensor, encode_tensor, encoded_len};
use fca_tensor::{Tensor, Workspace};
use fedclassavg::client::{gather_images, Client, LocalObjective};
use fedclassavg::comm::WireMessage;
use fedclassavg::sim::{build_fleet, build_fleet_paged};
use fedclassavg::transport::{ChannelTransport, LoopbackSocketTransport, Transport};
use std::hint::black_box;
use std::time::{Duration, Instant};

const DIRICHLET: Partitioner = Partitioner::Dirichlet { alpha: 0.5 };
/// Back-to-back calls per sample for calls that last microseconds.
const FAST: usize = 64;
/// The four architectures of the heterogeneous rotation, by metric suffix.
pub const ARCHS: [(&str, ModelArch); 4] = [
    ("resnet", ModelArch::MicroResNet),
    ("shufflenet", ModelArch::MicroShuffleNet),
    ("googlenet", ModelArch::MicroGoogLeNet),
    ("alexnet", ModelArch::MicroAlexNet),
];
/// The local-update kinds `client.local_update_ms.<kind>` reports.
pub const UPDATE_KINDS: [&str; 5] = [
    "fedclassavg",
    "supervised",
    "fedprox",
    "fedproto",
    "distill",
];
/// The transports `transport.*.<backend>` report.
pub const BACKENDS: [&str; 3] = ["channel", "tcp", "unix"];
/// How long a transport probe waits for a frame before giving up.
const WAIT: Duration = Duration::from_secs(5);

/// Collects probe rows; every probe is one span with its calls inside.
pub struct Prober<'a> {
    pub spans: &'a mut Spans,
    pub calls: usize,
    pub metrics: Vec<Metric>,
}

impl Prober<'_> {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Median of `calls` samples; `sample` returns the seconds it measured,
    /// so it can leave preparation outside its own timer. One sample runs
    /// first and is thrown away.
    fn median_of(&mut self, name: &str, mut sample: impl FnMut() -> f64) -> f64 {
        let calls = self.calls;
        let (secs, _) = self.spans.time(name, |_| {
            sample();
            (0..calls).map(|_| sample()).collect::<Vec<f64>>()
        });
        median(&secs)
    }

    /// Median seconds per call of `f`, timed `inner` calls at a time.
    fn secs<R>(&mut self, name: &str, inner: usize, mut f: impl FnMut() -> R) -> f64 {
        self.median_of(name, || {
            let started = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            started.elapsed().as_secs_f64() / inner as f64
        })
    }

    fn us<R>(&mut self, name: &str, inner: usize, f: impl FnMut() -> R) {
        let s = self.secs(name, inner, f);
        self.push(name, s * 1e6, "us");
    }

    fn ms<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        let s = self.secs(name, 1, f);
        self.push(name, s * 1e3, "ms");
    }
}

/// Seconds `f` takes, once.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

pub fn run(inp: &Inputs, p: &mut Prober) {
    let full = shape(inp, false);
    let capped = shape(inp, true);
    data_layer(inp, &full, &capped, p);
    tensor_and_comm_layers(&capped, p);
    nn_layer(&capped, p);
    models_layer(&capped, p);
    client_layer(&capped, p);
    fleet_layer(&full, &capped, p);
    transport_layer(&capped, p);
}

/// Client 0's shard and its first training batch, on the workload's shapes.
struct Batch {
    shard: Dataset,
    indices: Vec<usize>,
    x: Tensor,
    y: Vec<usize>,
    image: (usize, usize, usize),
    classes: usize,
}

fn first_batch(shape: &Shape) -> Batch {
    let Shape { data, cfg, .. } = shape;
    let splits = DIRICHLET.split(&data.train, &data.test, cfg.num_clients, cfg.seed);
    let shard = data.train.subset(&splits[0].train_indices);
    let indices = shard
        .batch_indices(cfg.hp.batch_size, &mut SnapRng::seed_from(cfg.seed))
        .remove(0);
    let (x, y) = shard.gather_batch(&indices);
    Batch {
        image: shard.image_shape(),
        classes: shard.num_classes,
        shard,
        indices,
        x,
        y,
    }
}

fn data_layer(inp: &Inputs, full: &Shape, capped: &Shape, p: &mut Prober) {
    let Shape { data, cfg, .. } = full;
    let n = cfg.num_clients;
    p.ms("data.synth_generate_ms", || shape(inp, false).data);
    p.ms("data.partition_split_ms", || {
        DIRICHLET.split(&data.train, &data.test, n, cfg.seed)
    });
    p.ms("data.drifted_splits_ms", || {
        drifted_splits(&data.train, &data.test, n, cfg.seed, 0.5, 500)
    });

    let batch = first_batch(capped);
    let mut rng = SnapRng::seed_from(cfg.seed);
    let bs = cfg.hp.batch_size;
    p.us("data.batch_indices_us", FAST, || {
        batch.shard.batch_indices(bs, &mut rng)
    });
    p.us("data.gather_batch_us", FAST, || {
        batch.shard.gather_batch(&batch.indices)
    });
    let (c, h, w) = batch.image;
    let augment = AugmentConfig::for_image(c, h, w);
    p.us("data.two_views_us", 8, || {
        augment.two_views(&batch.x, &mut rng)
    });
}

/// The model client 0 of the workload trains, freshly built.
fn first_model(shape: &Shape) -> ClientModel {
    build_model(
        (shape.arch_of)(0),
        shape.data.train.image_shape(),
        shape.cfg.feature_dim,
        shape.data.train.num_classes,
        shape.cfg.seed,
    )
}

fn tensor_and_comm_layers(shape: &Shape, p: &mut Prober) {
    let mut model = first_model(shape);
    let state = model.full_state();
    let bytes: usize = state.iter().map(encoded_len).sum();
    let encode = |state: &[Tensor]| {
        let mut buf = BytesMut::with_capacity(bytes);
        for t in state {
            encode_tensor(t, &mut buf).expect("a model tensor encodes");
        }
        buf.freeze()
    };
    let s = p.secs("tensor.encode_mb_s", 1, || encode(&state));
    p.push("tensor.encode_mb_s", bytes as f64 / 1e6 / s, "MB/s");
    let frozen = encode(&state);
    let s = p.secs("tensor.decode_mb_s", 1, || {
        let mut cursor = frozen.clone();
        (0..state.len())
            .map(|_| decode_tensor(&mut cursor).expect("an encoded tensor decodes"))
            .collect::<Vec<Tensor>>()
    });
    p.push("tensor.decode_mb_s", bytes as f64 / 1e6 / s, "MB/s");

    let messages = [
        (
            "classifier",
            WireMessage::Classifier(model.classifier.weights()),
        ),
        ("full_model", WireMessage::FullModel(state)),
    ];
    for (kind, msg) in &messages {
        let inner = if *kind == "classifier" { FAST } else { 1 };
        p.us(&format!("comm.encode_us.{kind}"), inner, || {
            msg.encode().expect("a message encodes")
        });
        let wire = msg.encode().expect("a message encodes");
        p.us(&format!("comm.decode_us.{kind}"), inner, || {
            WireMessage::decode(wire.clone()).expect("an encoded message decodes")
        });
    }
}

fn nn_layer(shape: &Shape, p: &mut Prober) {
    let batch = first_batch(shape);
    let (b, views) = (batch.y.len(), 2 * batch.y.len());
    let (_, h, w) = batch.image;
    let fd = shape.cfg.feature_dim;
    let mut rng = seeded_rng(shape.cfg.seed);
    let mut ws = Workspace::new();

    // The MicroResNet first block sees `[2B, 16, h, w]`.
    let act = Tensor::randn([views, 16, h, w], 1.0, &mut rng);
    let mut bn = BatchNorm2d::new(16);
    p.us("nn.batchnorm_fwd_us", 1, || {
        let out = bn.forward(&act, true, &mut ws);
        ws.recycle(out);
    });
    p.us("nn.batchnorm_bwd_us", 1, || {
        let dx = bn.backward(&act, &mut ws);
        ws.recycle(dx);
    });
    let mut relu = Relu::new();
    p.us("nn.relu_us", 1, || {
        let out = relu.forward(&act, true, &mut ws);
        let dx = relu.backward(&out, &mut ws);
        ws.recycle(out);
        ws.recycle(dx);
    });
    let mut pool = MaxPool2d::new(2, 2);
    p.us("nn.maxpool_us", 1, || {
        let out = pool.forward(&act, true, &mut ws);
        let dx = pool.backward(&out, &mut ws);
        ws.recycle(out);
        ws.recycle(dx);
    });

    let features = Tensor::randn([views, fd], 1.0, &mut rng);
    let labels2: Vec<usize> = batch.y.iter().chain(&batch.y).copied().collect();
    let temperature = shape.cfg.hp.temperature;
    p.us("nn.supcon_us", 8, || {
        supervised_contrastive(&features, &labels2, temperature)
    });
    let logits = Tensor::randn([b, batch.classes], 1.0, &mut rng);
    p.us("nn.cross_entropy_us", FAST, || {
        cross_entropy(&logits, &batch.y)
    });
    let teacher = Tensor::full([b, batch.classes], 1.0 / batch.classes as f32);
    p.us("nn.kl_distill_us", FAST, || {
        kl_distillation(&logits, &teacher, 2.0)
    });
    let view1 = features.rows(0, b);
    let prototypes: Vec<Option<Tensor>> = (0..batch.classes)
        .map(|_| Some(Tensor::randn([fd], 1.0, &mut rng)))
        .collect();
    p.us("nn.prototype_loss_us", FAST, || {
        prototype_loss(&view1, &batch.y, &prototypes)
    });

    let mut model = first_model(shape);
    let global = ClassifierWeights::zeros(fd, batch.classes);
    let rho = shape.cfg.hp.rho;
    p.us("nn.proximal_us", FAST, || {
        model.classifier.accumulate_proximal(&global, rho)
    });
    let mut adam = Adam::new(shape.cfg.hp.lr);
    p.us("nn.adam_step_us", 1, || adam.step(&mut model.params_mut()));
}

fn models_layer(shape: &Shape, p: &mut Prober) {
    let batch = first_batch(shape);
    let (b, classes) = (batch.y.len(), batch.classes);
    let fd = shape.cfg.feature_dim;
    let mut rng = seeded_rng(shape.cfg.seed);
    // A training step forwards both augmented views: 2B images.
    let x2 = Tensor::concat_rows(&[
        &batch.x.reshaped([b, batch.x.numel() / b]),
        &batch.x.reshaped([b, batch.x.numel() / b]),
    ])
    .reshape([2 * b, batch.image.0, batch.image.1, batch.image.2]);
    let d_features = Tensor::randn([2 * b, fd], 0.01, &mut rng);
    for (tag, arch) in ARCHS {
        let build = || build_model(arch, batch.image, fd, classes, shape.cfg.seed);
        p.us(&format!("models.build_us.{tag}"), 1, build);
        let mut model = build();
        let mut ws = Workspace::new();
        p.us(&format!("models.fwd_train_us.{tag}"), 1, || {
            let f = model.forward_features(&x2, true, &mut ws);
            ws.recycle(f);
        });
        // Each backward follows a forward of its own, outside the timer.
        let s = p.median_of(&format!("models.bwd_us.{tag}"), || {
            let f = model.forward_features(&x2, true, &mut ws);
            ws.recycle(f);
            timed(|| model.backward_features_only(&d_features, &mut ws))
        });
        p.push(format!("models.bwd_us.{tag}"), s * 1e6, "us");
        p.us(&format!("models.predict_us.{tag}"), 1, || {
            let logits = model.predict(&batch.x, &mut ws);
            ws.recycle(logits);
        });
    }
}

/// One FedClassAvg step re-assembled from public calls, each under a span of
/// its own; returns the step's seconds. `client.step_unattributed_pct` holds
/// the sum of these children against `local_update_fedclassavg` itself.
#[allow(clippy::too_many_arguments)]
fn replica_step(
    spans: &mut Spans,
    c: &mut Client,
    ws: &mut Workspace,
    opt: &mut Adam,
    rng: &mut SnapRng,
    global: &ClassifierWeights,
    temperature: f32,
    rho: f32,
    batch_size: usize,
) -> f64 {
    let (_, secs) = spans.time("client.step_replica", |s| {
        let batches = s
            .time("replica.batch_indices", |_| {
                c.train_data.batch_indices(batch_size, rng)
            })
            .0;
        for batch in batches {
            let (x, y) = s
                .time("replica.gather_batch", |_| {
                    c.train_data.gather_batch(&batch)
                })
                .0;
            let b = y.len();
            c.model.zero_grad();
            let (v1, v2) = s
                .time("replica.two_views", |_| c.augment.two_views(&x, rng))
                .0;
            let both = Tensor::concat_rows(&[
                &v1.reshaped([b, v1.numel() / b]),
                &v2.reshaped([b, v2.numel() / b]),
            ]);
            let (_, ch, h, w) = x.shape().as_nchw();
            let both = both.reshape([2 * b, ch, h, w]);
            let features = s
                .time("replica.forward_features", |_| {
                    c.model.forward_features(&both, true, ws)
                })
                .0;
            let feats1 = features.rows(0, b);
            let logits = s
                .time("replica.classifier_forward", |_| {
                    c.model.classifier.forward(&feats1, true, ws)
                })
                .0;
            let (_, d_logits) = s
                .time("replica.cross_entropy", |_| cross_entropy(&logits, &y))
                .0;
            ws.recycle(logits);
            let labels2: Vec<usize> = y.iter().chain(y.iter()).copied().collect();
            let (_, mut d_feat) = s
                .time("replica.supervised_contrastive", |_| {
                    supervised_contrastive(&features, &labels2, temperature)
                })
                .0;
            ws.recycle(features);
            let d_feat_ce = s
                .time("replica.classifier_backward", |_| {
                    c.model.classifier.backward(&d_logits, ws)
                })
                .0;
            for r in 0..b {
                for (di, &si) in d_feat.row_mut(r).iter_mut().zip(d_feat_ce.row(r)) {
                    *di += si;
                }
            }
            ws.recycle(d_feat_ce);
            s.time("replica.accumulate_proximal", |_| {
                c.model.classifier.accumulate_proximal(global, rho)
            });
            s.time("replica.backward_features", |_| {
                c.model.backward_features_only(&d_feat, ws)
            });
            s.time("replica.optimizer_step", |_| {
                opt.step(&mut c.model.params_mut())
            });
        }
    });
    secs
}

fn client_layer(shape: &Shape, p: &mut Prober) {
    let Shape {
        data, cfg, arch_of, ..
    } = shape;
    let hp = cfg.hp;
    let mut fleet = build_fleet(data, DIRICHLET, cfg, arch_of);
    let classes = data.train.num_classes;
    let global = ClassifierWeights::zeros(cfg.feature_dim, classes);
    let objective = LocalObjective {
        contrastive: true,
        rho: hp.rho,
    };
    let public_ids: Vec<usize> = (0..data.train.len().min(8)).collect();
    let public = gather_images(&data.train.images, &public_ids);
    let targets = Tensor::full([public_ids.len(), classes], 1.0 / classes as f32);
    let c = fleet.client_mut(0);

    let whole = p.secs("client.local_update_ms.fedclassavg", 1, || {
        c.local_update_fedclassavg(Some(&global), &hp, objective)
    });
    p.push("client.local_update_ms.fedclassavg", whole * 1e3, "ms");
    p.ms("client.local_update_ms.supervised", || {
        c.local_update_supervised(1, &hp)
    });
    // FedProx pulls every parameter toward a reference of the same layout.
    let reference: Vec<Tensor> = c
        .model
        .params_mut()
        .iter()
        .map(|q| q.value.clone())
        .collect();
    p.ms("client.local_update_ms.fedprox", || {
        c.local_update_fedprox(&reference, 0.1, &hp)
    });
    let prototypes = c.compute_prototypes();
    p.ms("client.local_update_ms.fedproto", || {
        c.local_update_fedproto(&prototypes, 1.0, &hp)
    });
    p.ms("client.local_update_ms.distill", || {
        c.distill(&public, &targets, 2.0, 4, 32)
    });

    let mut ws = Workspace::new();
    let mut opt = Adam::new(hp.lr);
    let mut rng = SnapRng::seed_from(cfg.seed);
    let calls = p.calls;
    // One warm-up, as every probe has.
    replica_step(
        p.spans,
        c,
        &mut ws,
        &mut opt,
        &mut rng,
        &global,
        hp.temperature,
        hp.rho,
        hp.batch_size,
    );
    let children_before = replica_children(p.spans);
    let steps: Vec<f64> = (0..calls)
        .map(|_| {
            replica_step(
                p.spans,
                c,
                &mut ws,
                &mut opt,
                &mut rng,
                &global,
                hp.temperature,
                hp.rho,
                hp.batch_size,
            )
        })
        .collect();
    let attributed = (replica_children(p.spans) - children_before) / calls as f64;
    p.push("client.step_replica_ms", median(&steps) * 1e3, "ms");
    p.push(
        "client.step_unattributed_pct",
        100.0 * (whole - attributed) / whole,
        "%",
    );

    p.ms("client.evaluate_ms", || c.evaluate());
    p.us("client.snapshot_us", 1, || c.snapshot_blob());
    let blob = c.snapshot_blob();
    p.us("client.restore_us", 1, || c.restore_snapshot(&blob));
    p.push("client.snapshot_bytes", blob.len() as f64, "B");
}

/// Seconds inside the public calls of every replica step so far.
fn replica_children(spans: &Spans) -> f64 {
    spans.total("client.step_replica") - spans.self_time("client.step_replica")
}

fn fleet_layer(full: &Shape, capped: &Shape, p: &mut Prober) {
    p.ms("fleet.build_ms", || full.fleet());
    let Shape {
        data, cfg, arch_of, ..
    } = capped;
    let ids: Vec<usize> = (0..cfg.num_clients).collect();
    let mut cold = build_fleet_paged(data, DIRICHLET, cfg, 8, arch_of);
    // Page a cold client in and out again around a no-op.
    p.us("fleet.page_cycle_us", 1, || cold.with_client(0, |_| ()));
    p.ms("fleet.evaluate_ids_ms", || cold.evaluate_ids(&ids));
    let mut resident = build_fleet(data, DIRICHLET, cfg, arch_of);
    p.ms("fleet.evaluate_ids_resident_ms", || {
        resident.evaluate_ids(&ids)
    });
    let mut lambda = 0;
    p.ms("fleet.drift_to_ms", || {
        // A new position every call, or the fleet has nothing to move.
        lambda = lambda % 1000 + 1;
        resident.drift_to(cfg.seed, 0.5, lambda)
    });
}

fn transport_layer(shape: &Shape, p: &mut Prober) {
    let n = shape.cfg.num_clients;
    let state = first_model(shape).full_state();
    let big = WireMessage::FullModel(state)
        .encode()
        .expect("a full model encodes");
    let small = Bytes::from(vec![0xA5u8; 64]);
    type Build = fn(usize) -> Box<dyn Transport>;
    let builders: [Build; 3] = [
        |n| Box::new(ChannelTransport::new(n)),
        |n| Box::new(LoopbackSocketTransport::tcp(n).expect("a TCP loopback federation")),
        |n| Box::new(LoopbackSocketTransport::unix(n).expect("a Unix-socket loopback federation")),
    ];
    for (backend, build) in BACKENDS.iter().zip(builders) {
        p.ms(&format!("transport.setup_ms.{backend}"), || build(n));
        let t = build(n);
        let round_trip = |frame: &Bytes| {
            t.send_to_client(0, frame.clone()).expect("downlink send");
            // The channel backend reports an empty mailbox at once; a
            // socket needs the frame to cross the kernel first.
            let down = loop {
                if let Some(f) = t.recv_at_client(0, WAIT).expect("downlink receive") {
                    break f;
                }
            };
            t.send_to_server(0, down).expect("uplink send");
            t.recv_at_server(WAIT)
                .expect("uplink receive")
                .expect("the frame comes back")
        };
        p.us(&format!("transport.rtt_us_p50.{backend}"), 8, || {
            round_trip(&small)
        });
        let s = p.secs(&format!("transport.frame_mb_s.{backend}"), 1, || {
            round_trip(&big)
        });
        p.push(
            format!("transport.frame_mb_s.{backend}"),
            2.0 * big.len() as f64 / 1e6 / s,
            "MB/s",
        );
    }
}
