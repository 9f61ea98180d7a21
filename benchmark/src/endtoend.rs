//! The `--trace 0` run: warm up, then repeat fresh-set-up-plus-rep until the
//! time is spent, and report medians.

use crate::alloc;
use crate::report::{Metric, Report, Stamp};
use crate::stats::{median, percentile, spread};
use crate::workloads::{
    learning_check, run_rep, set_up, Inputs, Prepared, RepOutcome, Workload, LEARN_FLOOR_GAIN,
    MIN_REP_SECS, MIN_SETUP_SECS, MIN_TIMED_REPS, RUN_SECONDS, WARMUP_REPS,
};
use std::time::Instant;

/// The products of one timed set-up sample, ready for a rep.
pub struct Ready {
    /// Seconds per set-up: the sample's wall time over its set-ups.
    pub setup_s: f64,
    /// Wall time of the whole sample; must clear `MIN_SETUP_SECS`.
    pub setup_sample_s: f64,
    first: Prepared,
    spare: Option<Prepared>,
}

/// One timed set-up sample and the rep run on its product.
pub struct Sample {
    pub setup_s: f64,
    pub setup_sample_s: f64,
    pub rep_s: f64,
    pub outcome: RepOutcome,
}

/// `setups_per_sample` set-ups back to back under one timer. The first
/// `setups_per_rep` products are kept for the rep; the others are dropped as
/// they are built, so they never add to the heap's high-water mark.
pub fn prepare(inp: &Inputs) -> Ready {
    let w = inp.workload;
    let started = Instant::now();
    let mut kept: Vec<Prepared> = Vec::with_capacity(w.setups_per_rep());
    for i in 0..w.setups_per_sample() {
        let product = set_up(inp);
        if i < w.setups_per_rep() {
            kept.push(product);
        }
    }
    let setup_sample_s = started.elapsed().as_secs_f64();
    let spare = (kept.len() > 1).then(|| kept.pop().expect("two products kept"));
    Ready {
        setup_s: setup_sample_s / w.setups_per_sample() as f64,
        setup_sample_s,
        first: kept.pop().expect("one product kept"),
        spare,
    }
}

/// One rep under its own timer: the whole `run_federation` wall clock.
pub fn rep(w: Workload, ready: Ready) -> Sample {
    let started = Instant::now();
    let outcome = run_rep(w, ready.first, ready.spare);
    Sample {
        setup_s: ready.setup_s,
        setup_sample_s: ready.setup_sample_s,
        rep_s: started.elapsed().as_secs_f64(),
        outcome,
    }
}

pub fn sample(inp: &Inputs) -> Sample {
    rep(inp.workload, prepare(inp))
}

/// What every rep of a run must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Identity {
    pub fingerprint: u64,
    pub wire_bytes: u64,
    pub client_steps: u64,
}

impl Identity {
    pub fn of(o: &RepOutcome) -> Identity {
        Identity {
            fingerprint: o.fingerprint(),
            wire_bytes: o.wire_bytes(),
            client_steps: o.client_steps(),
        }
    }
}

/// Checks shared by the plain and the traced run: the reps agree with each
/// other, with the workload's declared size and with the fault plan.
pub fn check_reps(w: Workload, outcomes: &[&RepOutcome], violations: &mut Vec<String>) -> u64 {
    let reference = Identity::of(outcomes[0]);
    if reference.client_steps != w.client_steps_per_rep() {
        violations.push(format!(
            "a rep ran {} client steps, the workload declares {}",
            reference.client_steps,
            w.client_steps_per_rep()
        ));
    }
    let mut failed = 0;
    for (i, o) in outcomes.iter().enumerate() {
        let id = Identity::of(o);
        if id != reference {
            violations.push(format!(
                "rep {i} differs from rep 0: {id:?} vs {reference:?}"
            ));
        }
        failed += o.failures.len() as u64;
        for why in &o.failures {
            violations.push(format!("rep {i}: {why}"));
        }
    }
    failed
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Report {
    let started = Instant::now();
    let inp = Inputs::new(w, seed);
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    let warmups: Vec<Sample> = (0..WARMUP_REPS).map(|_| sample(&inp)).collect();
    if w == Workload::HeteroTrain {
        let (before, after) = learning_check(seed);
        notes.push(format!(
            "learning check: accuracy {before:.4} -> {after:.4}"
        ));
        if after < before + LEARN_FLOOR_GAIN {
            violations.push(format!(
                "learning check: final accuracy {after:.4} is not {LEARN_FLOOR_GAIN} above round 0 ({before:.4})"
            ));
        }
    }
    alloc::reset_peak();

    // Stop when another sample as long as the longest so far would overrun
    // `--seconds`: a run is as long on a slow commit as on a fast one.
    let mut longest = warmups
        .iter()
        .map(|s| s.setup_sample_s + s.rep_s)
        .fold(0.0, f64::max);
    let budget = seconds as f64;
    let mut timed: Vec<Sample> = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 1.25 * longest + 0.2 >= budget {
            break;
        }
        let s = sample(&inp);
        longest = longest.max(s.setup_sample_s + s.rep_s);
        timed.push(s);
    }
    let peak_heap = alloc::peak_bytes();

    // The protocol's floors say how good the measurement is, not whether the
    // program's outputs are right: a neighbour on the host can take them from
    // a run of unchanged code. They are printed, and `correct` ignores them.
    if seconds >= RUN_SECONDS && timed.len() < MIN_TIMED_REPS {
        notes.push(format!(
            "PROTOCOL {} timed reps, {MIN_TIMED_REPS} wanted",
            timed.len()
        ));
    }
    if timed.is_empty() {
        timed = warmups;
        violations.push("no time left after warm-up: metrics come from warm-up reps".into());
    }
    let short_reps = timed.iter().filter(|s| s.rep_s < MIN_REP_SECS).count();
    if short_reps > 0 {
        notes.push(format!(
            "PROTOCOL {short_reps} reps lasted under {MIN_REP_SECS} s: re-size the workload"
        ));
    }
    let short_setups = timed
        .iter()
        .filter(|s| s.setup_sample_s < MIN_SETUP_SECS)
        .count();
    if short_setups > 0 {
        notes.push(format!(
            "PROTOCOL {short_setups} set-up samples lasted under {MIN_SETUP_SECS} s: raise setups_per_sample"
        ));
    }
    let outcomes: Vec<&RepOutcome> = timed.iter().map(|s| &s.outcome).collect();
    let failed = check_reps(w, &outcomes, &mut violations);
    violations.truncate(20);

    let rep_s: Vec<f64> = timed.iter().map(|s| s.rep_s).collect();
    let setup_s: Vec<f64> = timed.iter().map(|s| s.setup_s).collect();
    let id = Identity::of(outcomes[0]);
    let rep_median = median(&rep_s);
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "client_steps_per_s",
            id.client_steps as f64 / rep_median,
            "1/s",
        ),
        Metric::new(
            "wire_bytes_per_client_round",
            id.wire_bytes as f64 / id.client_steps as f64,
            "B",
        ),
        Metric::new(
            "peak_heap_mb",
            peak_heap as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
    ];
    notes.push(format!(
        "rounds/s {:.4} (client_steps_per_s over {} clients per round)",
        w.rounds_per_rep() as f64 / rep_median,
        w.clients_per_round()
    ));
    notes.push(format!(
        "reps {} timed + {WARMUP_REPS} warm-up; rep ms p50 {:.2} p90 {:.2} iqr {:.2}%; set-up ms p50 {:.3} ({} per sample)",
        timed.len(),
        rep_median * 1e3,
        percentile(&rep_s, 90.0) * 1e3,
        if rep_s.len() > 1 { spread(&rep_s) * 100.0 } else { 0.0 },
        median(&setup_s) * 1e3,
        w.setups_per_sample()
    ));
    notes.push(format!(
        "fingerprint {:016x} (same seed, same arithmetic: same value)",
        id.fingerprint
    ));
    if outcomes[0].legs.len() > 1 {
        let legs: Vec<String> = outcomes[0]
            .legs
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let secs: Vec<f64> = outcomes.iter().map(|o| o.legs[i].secs).collect();
                format!("{} {:.1}", l.name, median(&secs) * 1e3)
            })
            .collect();
        notes.push(format!("leg ms p50: {}", legs.join(", ")));
    }
    notes.push(format!("wall {:.1} s", started.elapsed().as_secs_f64()));

    Report {
        workload: w,
        stamp: Stamp::new(false, seed, seconds),
        metrics,
        notes,
        violations,
        attempted: id.client_steps * timed.len() as u64,
        failed,
    }
}
