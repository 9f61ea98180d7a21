//! Multi-process federation: one server process and two shard processes
//! speak the length-prefixed frame protocol over TCP loopback, then the
//! orchestrator proves the distributed run bit-identical to the
//! in-process reference at the same seed — the acceptance bar the socket
//! transport is held to.
//!
//! ```sh
//! cargo run --release --example socket_federation
//! ```
//!
//! The binary re-executes itself in three roles:
//!
//! * **orchestrator** (no flags) — runs the in-process reference, spawns
//!   the server and shard children, and diffs the checksums; then
//!   demonstrates checkpoint/resume on the same federation.
//! * `--role server` — binds a TCP listener, prints `LISTEN <addr>`,
//!   accepts the shard rendezvous, and drives the unmodified
//!   `FedClassAvg::round` loop. Its local fleet never trains: every
//!   client looks offline from the server process, while the genuine
//!   uplinks arrive from the shards over the wire.
//! * `--role shard <addr> <lo> <hi>` — hosts clients `lo..hi`, mirroring
//!   the client region of the round (receive classifier, local update,
//!   upload classifier).
//!
//! Every process rebuilds the same fleet from the same seed, so data
//! shares (the aggregation weights) agree without any extra exchange.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::{SynthConfig, SynthDataset};
use fedclassavg_suite::fed::algo::{Algorithm, FedClassAvg};
use fedclassavg_suite::fed::checkpoint::Checkpoint;
use fedclassavg_suite::fed::client::LocalObjective;
use fedclassavg_suite::fed::comm::{Network, WireMessage};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::fleet::Fleet;
use fedclassavg_suite::fed::sim::{build_fleet, run_federation, run_federation_from, RunState};
use fedclassavg_suite::fed::transport::{SocketListener, SocketTransport};
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::ModelArch;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

const SEED: u64 = 42;
const CLIENTS: usize = 8;
const SHARDS: usize = 2;
const ROUNDS: usize = 3;
/// Generous real-time safety net: local training sits between a shard's
/// receive and the server's collect.
const BUDGET: Duration = Duration::from_secs(120);

fn config() -> FedConfig {
    FedConfig {
        feature_dim: 32,
        ..FedConfig::new(CLIENTS, HyperParams::micro_default(), ROUNDS, SEED)
    }
}

fn dataset() -> SynthDataset {
    SynthConfig::synth_fashion(SEED)
        .with_sizes(600, 200)
        .generate()
}

/// The same fleet in every process: seed-determined data, partition, and
/// model initialization.
fn fleet(cfg: &FedConfig) -> Fleet {
    build_fleet(
        &dataset(),
        Partitioner::Dirichlet { alpha: 0.5 },
        cfg,
        &ModelArch::heterogeneous_rotation,
    )
}

fn algo(cfg: &FedConfig) -> FedClassAvg {
    FedClassAvg::new(cfg.feature_dim, 10, cfg.seed)
}

/// FNV-1a over the classifier's exact f32 bit patterns.
fn checksum(cw: &ClassifierWeights) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in [&cw.weight, &cw.bias] {
        for &x in t.data() {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// Drive the server side of the round loop over `net` (whatever backend
/// it wraps) and return the final global classifier checksum.
fn drive_server(net: &mut Network, cfg: &FedConfig) -> u64 {
    let mut fleet = fleet(cfg);
    let mut algo = algo(cfg);
    let all: Vec<usize> = (0..cfg.num_clients).collect();
    for round in 1..=cfg.rounds {
        net.begin_round(round, &all);
        algo.round(round, &mut fleet, &all, net, &cfg.hp);
    }
    checksum(algo.global_classifier())
}

fn role_server() {
    let cfg = config();
    let listener = SocketListener::tcp("127.0.0.1:0").expect("bind listener");
    println!("LISTEN {}", listener.local_addr().expect("listener addr"));
    std::io::stdout().flush().expect("flush LISTEN line");
    let transport = listener
        .accept_federation(cfg.num_clients, SHARDS)
        .expect("shard rendezvous");
    let mut net = Network::over(Box::new(transport)).with_collect_budget(BUDGET);
    let sum = drive_server(&mut net, &cfg);
    println!("CHECKSUM {sum:016x}");
}

fn role_shard(addr: &str, lo: usize, hi: usize) {
    let cfg = config();
    let owned: Vec<usize> = (lo..hi).collect();
    let transport =
        SocketTransport::connect_tcp(addr, cfg.num_clients, &owned).expect("connect to server");
    let net = Network::over(Box::new(transport)).with_collect_budget(BUDGET);
    let mut fleet = fleet(&cfg);
    let hp = cfg.hp;
    // The client region of FedClassAvg::round, verbatim: the server's
    // broadcast for round r+1 only follows its round-r collect, so the
    // shard never needs to know round boundaries — it just answers
    // broadcasts.
    let obj = LocalObjective {
        contrastive: true,
        rho: hp.rho,
    };
    for _round in 1..=cfg.rounds {
        fleet.for_sampled_parallel(&owned, |c| {
            let Some(WireMessage::Classifier(global)) = net.client_recv(c.id) else {
                return;
            };
            c.model.classifier.set_weights(&global);
            c.local_update_fedclassavg(Some(&global), &hp, obj);
            let _ =
                net.send_to_server(c.id, &WireMessage::Classifier(c.model.classifier.weights()));
        });
    }
}

fn orchestrate() {
    let cfg = config();

    // 1. In-process reference, same round loop over the channel backend.
    let mut net = Network::over(Box::new(
        fedclassavg_suite::fed::transport::ChannelTransport::new(cfg.num_clients),
    ))
    .with_collect_budget(BUDGET);
    let reference = drive_server(&mut net, &cfg);
    println!("in-process reference checksum {reference:016x}");

    // 2. The same federation as three OS processes.
    let exe = std::env::current_exe().expect("own executable path");
    let mut server = Command::new(&exe)
        .args(["--role", "server"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server process");
    let mut server_out = BufReader::new(server.stdout.take().expect("server stdout"));
    let mut line = String::new();
    server_out.read_line(&mut line).expect("read LISTEN line");
    let addr = line
        .strip_prefix("LISTEN ")
        .expect("server handshake line")
        .trim()
        .to_string();
    println!("server listening on {addr}; spawning {SHARDS} shards");

    let split = CLIENTS / SHARDS;
    let shards: Vec<_> = (0..SHARDS)
        .map(|s| {
            let (lo, hi) = (
                s * split,
                if s + 1 == SHARDS {
                    CLIENTS
                } else {
                    (s + 1) * split
                },
            );
            Command::new(&exe)
                .args(["--role", "shard", &addr, &lo.to_string(), &hi.to_string()])
                .spawn()
                .expect("spawn shard process")
        })
        .collect();

    line.clear();
    server_out.read_line(&mut line).expect("read CHECKSUM line");
    let distributed = u64::from_str_radix(
        line.strip_prefix("CHECKSUM ")
            .expect("server checksum line")
            .trim(),
        16,
    )
    .expect("parse checksum");
    assert!(
        server.wait().expect("server exit").success(),
        "server failed"
    );
    for mut shard in shards {
        assert!(shard.wait().expect("shard exit").success(), "shard failed");
    }
    println!("distributed checksum          {distributed:016x}");
    assert_eq!(
        distributed, reference,
        "socket federation diverged from the in-process run"
    );
    println!("multi-process run is bit-identical to the in-process run\n");

    // 3. Checkpoint/resume on the same federation: stop after round 1,
    //    persist everything, restore into fresh objects, finish — and land
    //    on the exact bits of the uninterrupted run.
    let mut f_full = fleet(&cfg);
    let mut a_full = algo(&cfg);
    let uninterrupted = run_federation(&mut f_full, &mut a_full, &cfg);

    let mut cfg_prefix = cfg.clone();
    cfg_prefix.rounds = 1;
    let mut f_seg = fleet(&cfg);
    let mut a_seg = algo(&cfg);
    let (_, state) = run_federation_from(&mut f_seg, &mut a_seg, &cfg_prefix, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut f_seg, &a_seg, &cfg, &state).expect("capture checkpoint");
    let path = std::env::temp_dir().join(format!("fca-socket-fed-{}.ckpt", std::process::id()));
    ckpt.save(&path).expect("save checkpoint");
    println!(
        "checkpoint after round 1: {} B at {}",
        std::fs::metadata(&path).expect("checkpoint metadata").len(),
        path.display()
    );

    let loaded = Checkpoint::load(&path).expect("load checkpoint");
    let _ = std::fs::remove_file(&path);
    let mut f_res = fleet(&cfg);
    let mut a_res = algo(&cfg);
    let state = loaded
        .restore(&mut f_res, &mut a_res, &cfg)
        .expect("restore checkpoint");
    let (resumed, _) = run_federation_from(&mut f_res, &mut a_res, &cfg, state);

    assert_eq!(
        resumed.final_mean.to_bits(),
        uninterrupted.final_mean.to_bits(),
        "resumed run diverged from the uninterrupted run"
    );
    assert_eq!(resumed.curve.len(), uninterrupted.curve.len());
    for (a, b) in resumed.curve.iter().zip(&uninterrupted.curve) {
        assert_eq!(a.mean_acc.to_bits(), b.mean_acc.to_bits());
        assert_eq!(a.std_acc.to_bits(), b.std_acc.to_bits());
    }
    println!(
        "resume after restart is bit-identical: final accuracy {:.4} over {} rounds",
        resumed.final_mean, cfg.rounds
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => orchestrate(),
        Some("--role") => match args.get(1).map(String::as_str) {
            Some("server") => role_server(),
            Some("shard") => {
                let addr = args.get(2).expect("shard needs <addr> <lo> <hi>");
                let lo: usize = args[3].parse().expect("lo client id");
                let hi: usize = args[4].parse().expect("hi client id");
                role_shard(addr, lo, hi);
            }
            other => panic!("unknown role {other:?} (server|shard)"),
        },
        Some(flag) => {
            panic!("unknown flag {flag} (usage: socket_federation [--role server|shard ...])")
        }
    }
}
