//! The `--trace 1` run: the per-layer numbers. It times nothing the
//! end-to-end metrics use; it runs a few reps with the `fca-trace` journal
//! on an in-memory writer (reading probes the program already has), a few
//! without, a few on two threads, and the outside probes of `probes.rs`.

use crate::endtoend::{check_reps, prepare, rep, Sample};
use crate::probes::{self, Prober, ARCHS, BACKENDS, UPDATE_KINDS};
use crate::report::{Metric, Report, Stamp};
use crate::spans::Spans;
use crate::stats::{median, percentile, spread};
use crate::workloads::{Inputs, RepOutcome, Workload, MIX_LEGS, RUN_SECONDS};
use fca_trace::Event;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Share of `--seconds` spent on journal-on/journal-off reps.
const REPS_SHARE: f64 = 0.30;
/// Reps on the two-thread pool for `fleet.speedup_2t`.
const TWO_THREAD_REPS: usize = 6;
/// The layer rows of the journal: everything else it times (GEMM pack and
/// kernel, im2col, col2im) runs inside one of these.
const LAYER_OPS: [&str; 4] = [
    "conv_forward",
    "conv_backward",
    "linear_forward",
    "linear_backward",
];

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// exactly these, and every traced run emits exactly these; a layer the
/// workload never enters reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| out.push((name.to_string(), unit, better));
    for n in [
        "synth_generate_ms",
        "partition_split_ms",
        "drifted_splits_ms",
    ] {
        add(&format!("data.{n}"), "ms", "lower");
    }
    for n in ["batch_indices_us", "gather_batch_us", "two_views_us"] {
        add(&format!("data.{n}"), "us", "lower");
    }
    add("tensor.gemm_pack_us", "us", "lower");
    add("tensor.gemm_kernel_us", "us", "lower");
    add("tensor.gemm_gflops", "GF/s", "higher");
    add("tensor.encode_mb_s", "MB/s", "higher");
    add("tensor.decode_mb_s", "MB/s", "higher");
    add("tensor.ws_allocations_per_step", "count", "lower");
    add("tensor.ws_peak_bytes", "B", "lower");
    for n in [
        "conv_forward",
        "conv_backward",
        "im2col",
        "col2im",
        "linear_forward",
        "linear_backward",
        "batchnorm_fwd",
        "batchnorm_bwd",
        "relu",
        "maxpool",
        "supcon",
        "cross_entropy",
        "proximal",
        "adam_step",
        "kl_distill",
        "prototype_loss",
    ] {
        add(&format!("nn.{n}_us"), "us", "lower");
    }
    for row in ["build_us", "fwd_train_us", "bwd_us", "predict_us"] {
        for (arch, _) in ARCHS {
            add(&format!("models.{row}.{arch}"), "us", "lower");
        }
    }
    for kind in UPDATE_KINDS {
        add(&format!("client.local_update_ms.{kind}"), "ms", "lower");
    }
    add("client.step_replica_ms", "ms", "lower");
    add("client.step_unattributed_pct", "%", "lower");
    add("client.evaluate_ms", "ms", "lower");
    add("client.snapshot_us", "us", "lower");
    add("client.restore_us", "us", "lower");
    add("client.snapshot_bytes", "B", "lower");
    add("fleet.build_ms", "ms", "lower");
    add("fleet.page_cycle_us", "us", "lower");
    for n in ["page_ins_per_step", "page_outs_per_step"] {
        add(&format!("fleet.{n}"), "count", "lower");
    }
    add("fleet.page_bytes_per_step", "B", "lower");
    add("fleet.pool_created", "count", "lower");
    add("fleet.pool_high_water", "count", "lower");
    for n in ["evaluate_ids_ms", "evaluate_ids_resident_ms", "drift_to_ms"] {
        add(&format!("fleet.{n}"), "ms", "lower");
    }
    add("fleet.speedup_2t", "x", "higher");
    for dir in ["encode_us", "decode_us"] {
        for kind in ["classifier", "full_model"] {
            add(&format!("comm.{dir}.{kind}"), "us", "lower");
        }
    }
    add("comm.downlink_bytes_per_round", "B", "lower");
    add("comm.uplink_bytes_per_round", "B", "lower");
    for n in ["dropped", "corrupt", "stale", "expired"] {
        add(&format!("comm.{n}"), "count", "lower");
    }
    for backend in BACKENDS {
        add(&format!("transport.setup_ms.{backend}"), "ms", "lower");
        add(&format!("transport.rtt_us_p50.{backend}"), "us", "lower");
        add(&format!("transport.frame_mb_s.{backend}"), "MB/s", "higher");
    }
    for n in [
        "broadcast_us",
        "local_train_us",
        "collect_us",
        "aggregate_us",
        "evaluate_us",
    ] {
        add(&format!("sim.{n}"), "us", "lower");
    }
    add("sim.round_ms_p50", "ms", "lower");
    add("sim.round_ms_p90", "ms", "lower");
    add("sim.final_acc", "ratio", "higher");
    for leg in MIX_LEGS {
        add(&format!("algo.round_ms.{leg}"), "ms", "lower");
    }
    for n in ["capture_ms", "encode_ms", "decode_ms", "restore_ms"] {
        add(&format!("checkpoint.{n}"), "ms", "lower");
    }
    add("checkpoint.bytes", "B", "lower");
    add("trace.overhead_pct", "%", "lower");
    add("trace.local_train_coverage_pct", "%", "higher");
    add("trace.evaluate_coverage_pct", "%", "higher");
    add("trace.journal_bytes_per_round", "B", "lower");
    add("bench.rep_ms_p50", "ms", "lower");
    add("bench.rep_ms_p90", "ms", "lower");
    add("bench.rep_iqr_pct", "%", "lower");
    add("bench.reps", "count", "higher");
    add("bench.steal_pct", "%", "lower");
    add("proc.cpu_ms_per_client_step", "ms", "lower");
    add("proc.minor_faults_per_rep", "count", "lower");
    add("proc.peak_rss_mb", "MiB", "lower");
    out
}

/// A cloneable in-memory journal sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("the journal buffer's only writers do not panic")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the journals of the traced reps add up to.
#[derive(Default)]
struct Journal {
    /// op name → (total µs, flops)
    ops: BTreeMap<String, (u64, u64)>,
    /// phase name → total µs
    phases: BTreeMap<String, u64>,
    round_us: Vec<f64>,
    bytes: usize,
    /// Layer-row µs and phase µs over flushes that hold only `local_train`
    /// (no evaluation), and only `evaluate` (the round-0 sweep).
    train_only: (u64, u64),
    eval_only: (u64, u64),
}

impl Journal {
    /// One flush of the collector is its phase rows, then its op rows.
    fn close_flush(&mut self, phases: &mut BTreeMap<String, u64>, layer_us: &mut u64) {
        let train = phases.get("local_train").copied();
        let eval = phases.get("evaluate").copied();
        match (train, eval) {
            (Some(t), None) => {
                self.train_only.0 += *layer_us;
                self.train_only.1 += t;
            }
            (None, Some(e)) => {
                self.eval_only.0 += *layer_us;
                self.eval_only.1 += e;
            }
            _ => {}
        }
        phases.clear();
        *layer_us = 0;
    }

    fn absorb(&mut self, text: &str, violations: &mut Vec<String>) {
        self.bytes += text.len();
        let mut flush_phases = BTreeMap::new();
        let mut flush_layer_us = 0u64;
        let mut in_ops = false;
        for line in text.lines() {
            let event = match Event::parse(line) {
                Ok(e) => e,
                Err(e) => {
                    violations.push(format!("journal line does not parse: {e}: {line}"));
                    continue;
                }
            };
            match event {
                Event::Phase {
                    phase, total_us, ..
                } => {
                    if in_ops {
                        self.close_flush(&mut flush_phases, &mut flush_layer_us);
                        in_ops = false;
                    }
                    *self.phases.entry(phase.clone()).or_default() += total_us;
                    *flush_phases.entry(phase).or_default() += total_us;
                }
                Event::Op {
                    op,
                    total_us,
                    flops,
                    ..
                } => {
                    in_ops = true;
                    if LAYER_OPS.contains(&op.as_str()) {
                        flush_layer_us += total_us;
                    }
                    let row = self.ops.entry(op).or_default();
                    row.0 += total_us;
                    row.1 += flops;
                }
                other => {
                    self.close_flush(&mut flush_phases, &mut flush_layer_us);
                    in_ops = false;
                    if let Event::Round { dur_us, .. } = other {
                        self.round_us.push(dur_us as f64);
                    }
                }
            }
        }
        self.close_flush(&mut flush_phases, &mut flush_layer_us);
    }

    fn op_us(&self, name: &str) -> f64 {
        self.ops.get(name).map_or(0.0, |r| r.0 as f64)
    }
}

/// One rep with the journal installed on an in-memory writer.
fn journal_rep(inp: &Inputs, journal: &mut Journal, violations: &mut Vec<String>) -> Sample {
    let ready = prepare(inp);
    let buf = SharedBuf::default();
    let guard = fca_trace::install_writer(
        Box::new(buf.clone()),
        inp.workload.name(),
        fca_tensor::simd::active().as_str(),
        "f32",
    )
    .expect("no other journal is installed in this process");
    let sample = rep(inp.workload, ready);
    drop(guard);
    let bytes = std::mem::take(&mut *buf.0.lock().expect("journal writers do not panic"));
    journal.absorb(&String::from_utf8_lossy(&bytes), violations);
    sample
}

/// Fields of `/proc/self/stat` and `/proc/stat` the `bench.*`/`proc.*` rows
/// use; zeros where `/proc` is not there.
#[derive(Clone, Copy, Default)]
struct ProcPoint {
    cpu_ticks: u64,
    minor_faults: u64,
    steal: u64,
    all_cpu: u64,
}

fn proc_point() -> ProcPoint {
    let mut p = ProcPoint::default();
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name, which may hold spaces.
        let rest: Vec<&str> = stat
            .rsplit(')')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        let field = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        p.minor_faults = field(7);
        p.cpu_ticks = field(11) + field(12);
    }
    if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
        if let Some(cpu) = stat.lines().next() {
            let v: Vec<u64> = cpu
                .split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect();
            p.all_cpu = v.iter().take(8).sum();
            p.steal = v.get(7).copied().unwrap_or(0);
        }
    }
    p
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linux reports process CPU time in ticks of 1/100 s on every supported
/// configuration (`USER_HZ`).
const MS_PER_TICK: f64 = 10.0;

/// `benchmark/out/` of the checkout the run was started from, which `run.sh`
/// names; run by hand, of the checkout the binary was built in.
fn out_dir() -> PathBuf {
    std::env::var_os("FCA_BENCH_OUT").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Report {
    let started = Instant::now();
    let inp = Inputs::new(w, seed);
    let mut violations = Vec::new();
    let mut spans = Spans::new();
    let mut m: Vec<Metric> = Vec::new();
    let push = |m: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str| {
        m.push(Metric::new(name, value, unit))
    };

    // Warm-up, as in the end-to-end run.
    spans.time("warm_up", |_| rep(w, prepare(&inp)));

    // Journal off and on, alternating, in one process.
    let before = proc_point();
    let mut journal = Journal::default();
    let (mut off, mut on): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let reps_until = started.elapsed().as_secs_f64() + REPS_SHARE * seconds as f64;
    while off.len() < 2 || started.elapsed().as_secs_f64() < reps_until {
        spans.set_rep((off.len() + on.len()) as u32);
        off.push(spans.time("rep.journal_off", |_| rep(w, prepare(&inp))).0);
        spans.set_rep((off.len() + on.len()) as u32);
        on.push(
            spans
                .time("rep.journal_on", |_| {
                    journal_rep(&inp, &mut journal, &mut violations)
                })
                .0,
        );
    }
    let after = proc_point();

    // The same rep on a pool of two threads: `paged_fleet` only, where the
    // fleet pages clients in parallel; the other workloads read 0.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = if nproc >= 2 && w == Workload::PagedFleet {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("a two-thread pool");
        let two: Vec<f64> = (0..TWO_THREAD_REPS.min(off.len()))
            .map(|_| {
                let ready = prepare(&inp);
                spans
                    .time("rep.two_threads", |_| pool.install(|| rep(w, ready)))
                    .0
                    .rep_s
            })
            .collect();
        median(&off.iter().map(|s| s.rep_s).collect::<Vec<_>>()) / median(&two)
    } else {
        0.0
    };

    let calls = if seconds >= RUN_SECONDS {
        30
    } else {
        (seconds as usize).max(3)
    };
    let mut prober = Prober {
        spans: &mut spans,
        calls,
        metrics: Vec::new(),
    };
    probes::run(&inp, &mut prober);
    m.append(&mut prober.metrics);

    // Rows from the reps.
    let outcomes: Vec<&RepOutcome> = off.iter().chain(&on).map(|s| &s.outcome).collect();
    let failed = check_reps(w, &outcomes, &mut violations);
    let steps = w.client_steps_per_rep() as f64;
    let rounds = w.rounds_per_rep() as f64;
    let traced_steps = steps * on.len() as f64;
    let traced_rounds = rounds * on.len() as f64;
    let first = outcomes[0];

    push(
        &mut m,
        "tensor.gemm_pack_us",
        journal.op_us("gemm_pack") / traced_steps,
        "us",
    );
    push(
        &mut m,
        "tensor.gemm_kernel_us",
        journal.op_us("gemm_kernel") / traced_steps,
        "us",
    );
    let kernel = journal.ops.get("gemm_kernel").copied().unwrap_or((0, 0));
    push(
        &mut m,
        "tensor.gemm_gflops",
        if kernel.0 > 0 {
            kernel.1 as f64 / (kernel.0 as f64 * 1e3)
        } else {
            0.0
        },
        "GF/s",
    );
    push(
        &mut m,
        "tensor.ws_allocations_per_step",
        first.workspace.allocations as f64 / steps,
        "count",
    );
    push(
        &mut m,
        "tensor.ws_peak_bytes",
        first.workspace.peak_bytes as f64,
        "B",
    );
    for op in [
        "conv_forward",
        "conv_backward",
        "im2col",
        "col2im",
        "linear_forward",
        "linear_backward",
    ] {
        push(
            &mut m,
            &format!("nn.{op}_us"),
            journal.op_us(op) / traced_steps,
            "us",
        );
    }
    push(
        &mut m,
        "fleet.page_ins_per_step",
        first.paging.page_ins as f64 / steps,
        "count",
    );
    push(
        &mut m,
        "fleet.page_outs_per_step",
        first.paging.page_outs as f64 / steps,
        "count",
    );
    push(
        &mut m,
        "fleet.page_bytes_per_step",
        first.paging.page_bytes as f64 / steps,
        "B",
    );
    push(
        &mut m,
        "fleet.pool_created",
        first.pool.created as f64,
        "count",
    );
    push(
        &mut m,
        "fleet.pool_high_water",
        first.pool.high_water as f64,
        "count",
    );
    push(&mut m, "fleet.speedup_2t", speedup, "x");

    let sum = |f: &dyn Fn(&crate::workloads::LegOutcome) -> u64| -> f64 {
        first.legs.iter().map(f).sum::<u64>() as f64
    };
    push(
        &mut m,
        "comm.downlink_bytes_per_round",
        sum(&|l| l.result.downlink_bytes) / rounds,
        "B",
    );
    push(
        &mut m,
        "comm.uplink_bytes_per_round",
        sum(&|l| l.result.uplink_bytes) / rounds,
        "B",
    );
    push(&mut m, "comm.dropped", sum(&|l| l.result.dropped), "count");
    push(&mut m, "comm.corrupt", sum(&|l| l.result.corrupt), "count");
    push(&mut m, "comm.stale", sum(&|l| l.result.stale), "count");
    push(&mut m, "comm.expired", sum(&|l| l.result.expired), "count");

    for (phase, name) in [
        ("broadcast", "sim.broadcast_us"),
        ("local_train", "sim.local_train_us"),
        ("collect", "sim.collect_us"),
        ("aggregate", "sim.aggregate_us"),
        ("evaluate", "sim.evaluate_us"),
    ] {
        let us = journal.phases.get(phase).copied().unwrap_or(0) as f64;
        push(&mut m, name, us / traced_rounds, "us");
    }
    push(
        &mut m,
        "sim.round_ms_p50",
        median(&journal.round_us) / 1e3,
        "ms",
    );
    push(
        &mut m,
        "sim.round_ms_p90",
        percentile(&journal.round_us, 90.0) / 1e3,
        "ms",
    );
    let last_leg = first.legs.last().expect("a rep has a leg");
    push(
        &mut m,
        "sim.final_acc",
        f64::from(last_leg.result.final_mean),
        "ratio",
    );

    // Medians over the journal-off reps; 0 where the workload has no such leg
    // or takes no checkpoint.
    let over_off = |f: &dyn Fn(&RepOutcome) -> Option<f64>| -> f64 {
        let v: Vec<f64> = off.iter().filter_map(|s| f(&s.outcome)).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    for leg in MIX_LEGS {
        let ms = over_off(&|o| {
            o.legs
                .iter()
                .find(|l| l.name == leg)
                .map(|l| l.secs / l.rounds as f64 * 1e3)
        });
        push(&mut m, &format!("algo.round_ms.{leg}"), ms, "ms");
    }
    push(
        &mut m,
        "checkpoint.capture_ms",
        over_off(&|o| o.checkpoint.map(|c| c.capture_s * 1e3)),
        "ms",
    );
    push(
        &mut m,
        "checkpoint.encode_ms",
        over_off(&|o| o.checkpoint.map(|c| c.encode_s * 1e3)),
        "ms",
    );
    push(
        &mut m,
        "checkpoint.decode_ms",
        over_off(&|o| o.checkpoint.map(|c| c.decode_s * 1e3)),
        "ms",
    );
    push(
        &mut m,
        "checkpoint.restore_ms",
        over_off(&|o| o.checkpoint.map(|c| c.restore_s * 1e3)),
        "ms",
    );
    push(
        &mut m,
        "checkpoint.bytes",
        over_off(&|o| o.checkpoint.map(|c| c.bytes as f64)),
        "B",
    );

    let off_s: Vec<f64> = off.iter().map(|s| s.rep_s).collect();
    let on_s: Vec<f64> = on.iter().map(|s| s.rep_s).collect();
    push(
        &mut m,
        "trace.overhead_pct",
        100.0 * (median(&on_s) - median(&off_s)) / median(&off_s),
        "%",
    );
    let coverage = |(layers, phase): (u64, u64)| {
        if phase > 0 {
            100.0 * layers as f64 / phase as f64
        } else {
            0.0
        }
    };
    push(
        &mut m,
        "trace.local_train_coverage_pct",
        coverage(journal.train_only),
        "%",
    );
    push(
        &mut m,
        "trace.evaluate_coverage_pct",
        coverage(journal.eval_only),
        "%",
    );
    push(
        &mut m,
        "trace.journal_bytes_per_round",
        journal.bytes as f64 / traced_rounds,
        "B",
    );

    push(&mut m, "bench.rep_ms_p50", median(&off_s) * 1e3, "ms");
    push(
        &mut m,
        "bench.rep_ms_p90",
        percentile(&off_s, 90.0) * 1e3,
        "ms",
    );
    push(&mut m, "bench.rep_iqr_pct", spread(&off_s) * 100.0, "%");
    push(&mut m, "bench.reps", off_s.len() as f64, "count");
    let all_cpu = (after.all_cpu - before.all_cpu).max(1) as f64;
    push(
        &mut m,
        "bench.steal_pct",
        100.0 * (after.steal - before.steal) as f64 / all_cpu,
        "%",
    );
    let section_reps = (off.len() + on.len()) as f64;
    push(
        &mut m,
        "proc.cpu_ms_per_client_step",
        (after.cpu_ticks - before.cpu_ticks) as f64 * MS_PER_TICK / (section_reps * steps),
        "ms",
    );
    push(
        &mut m,
        "proc.minor_faults_per_rep",
        (after.minor_faults - before.minor_faults) as f64 / section_reps,
        "count",
    );
    push(&mut m, "proc.peak_rss_mb", peak_rss_mb(), "MiB");

    // Emit exactly the declared names, in the declared order.
    let declared = per_layer_names();
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit, _) in &declared {
        match m.iter().find(|x| &x.name == name) {
            Some(found) => {
                if found.unit != *unit {
                    violations.push(format!(
                        "{name} measured in {}, declared in {unit}",
                        found.unit
                    ));
                }
                metrics.push(found.clone());
            }
            None => violations.push(format!("declared metric {name} was not measured")),
        }
    }
    for x in &m {
        if !declared.iter().any(|(name, ..)| name == &x.name) {
            violations.push(format!("measured metric {} is not declared", x.name));
        }
    }

    let spans_path = out_dir().join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    let mut notes = vec![format!(
        "reps {} journal-off + {} journal-on; probes are medians of {calls} calls",
        off.len(),
        on.len()
    )];
    match spans.write_jsonl(&spans_path) {
        Ok(()) => notes.push(format!("spans written to {}", spans_path.display())),
        // The spans are for the reader; the metrics do not come from the file.
        Err(e) => notes.push(format!(
            "spans not written to {}: {e}",
            spans_path.display()
        )),
    }
    notes.push(format!("fingerprint {:016x}", first.fingerprint()));
    notes.push(format!("wall {:.1} s", started.elapsed().as_secs_f64()));
    violations.truncate(20);

    Report {
        workload: w,
        stamp: Stamp::new(true, seed, seconds),
        metrics,
        notes,
        violations,
        attempted: (steps as u64) * outcomes.len() as u64,
        failed,
    }
}
