//! The live collector: lock-free counter cells, the journal sink, and the
//! install/uninstall lifecycle.
//!
//! Concurrency model: the hot path ([`clock`]/[`op`]/[`phase`]) touches one
//! relaxed [`AtomicBool`] and, when a sink is installed, a few relaxed
//! atomic adds on a static cell — callable from inside rayon regions with
//! no lock. Only the cold path (install, per-round flush, guard drop)
//! takes the sink mutex.

use crate::event::{Event, SCHEMA_VERSION};
use crate::ids::{OpId, PhaseId};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// True while a journal sink is installed. Relaxed loads on the hot path.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// One op/phase accumulator. Relaxed adds commute exactly over u64, so the
/// flushed `calls`/`flops` totals are deterministic for a deterministic
/// workload regardless of thread interleaving (times, of course, vary).
struct Cell {
    calls: AtomicU64,
    nanos: AtomicU64,
    flops: AtomicU64,
}

#[expect(
    clippy::declare_interior_mutable_const,
    reason = "const used only as array-repeat seed"
)]
const ZERO_CELL: Cell = Cell {
    calls: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
    flops: AtomicU64::new(0),
};

static OPS: [Cell; OpId::COUNT] = [ZERO_CELL; OpId::COUNT];
static PHASES: [Cell; PhaseId::COUNT] = [ZERO_CELL; PhaseId::COUNT];

struct Sink {
    writer: Box<dyn Write + Send>,
    rounds: u64,
    /// Set on the first write error; later writes are skipped so a full
    /// disk cannot turn into a panic inside a training loop.
    errored: bool,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Start a span: `Some(now)` when tracing is active, `None` otherwise.
///
/// The `None` case is the entire inactive-path cost (one relaxed atomic
/// load), and the returned value must be handed back to [`op`]/[`phase`]
/// unchanged. Timers observe only — no caller may branch on the observed
/// duration, which is what keeps traced runs bit-identical to untraced
/// ones (see DESIGN.md §7.4).
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the trace clock is the sanctioned timing source"
)]
pub fn clock() -> Option<Instant> {
    if ACTIVE.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Whether a journal sink is currently installed.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Close an op span opened by [`clock`]. No-op when `started` is `None`.
#[inline]
pub fn op(id: OpId, started: Option<Instant>) {
    op_flops(id, started, 0)
}

/// [`op`] plus a flop count attributed to the span.
#[inline]
pub fn op_flops(id: OpId, started: Option<Instant>, flops: u64) {
    let Some(t0) = started else { return };
    let cell = &OPS[id as usize];
    cell.calls.fetch_add(1, Ordering::Relaxed);
    cell.nanos
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if flops > 0 {
        cell.flops.fetch_add(flops, Ordering::Relaxed);
    }
}

/// Close a phase span opened by [`clock`]. No-op when `started` is `None`.
#[inline]
pub fn phase(id: PhaseId, started: Option<Instant>) {
    let Some(t0) = started else { return };
    let cell = &PHASES[id as usize];
    cell.calls.fetch_add(1, Ordering::Relaxed);
    cell.nanos
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Write `ev` to the journal; does nothing when no sink is installed.
///
/// The one journal writer: every event the engine records (`round`,
/// `drift`, `workspace`, `pool`, `transport`, `checkpoint`, and the flushed
/// `phase`/`op` rows) is built by its caller with named fields and handed
/// here.
pub fn emit(ev: Event) {
    if !is_active() {
        return;
    }
    let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
    let Some(sink) = guard.as_mut() else { return };
    if matches!(ev, Event::Round { .. }) {
        sink.rounds += 1;
    }
    if !sink.errored && writeln!(sink.writer, "{}", ev.to_json()).is_err() {
        sink.errored = true;
    }
}

/// Drain every non-zero op/phase cell into `Phase`/`Op` events tagged with
/// `round`. Called by the round loop after each round (and after the
/// round-0 and final evaluations); cells reset to zero so the next round
/// starts clean.
pub fn flush_ops(round: u64) {
    if !is_active() {
        return;
    }
    for (cell, id) in PHASES.iter().zip(PhaseId::ALL) {
        let calls = cell.calls.swap(0, Ordering::Relaxed);
        let nanos = cell.nanos.swap(0, Ordering::Relaxed);
        cell.flops.store(0, Ordering::Relaxed);
        if calls > 0 {
            emit(Event::Phase {
                round,
                phase: id.as_str().into(),
                calls,
                total_us: nanos / 1000,
            });
        }
    }
    for (cell, id) in OPS.iter().zip(OpId::ALL) {
        let calls = cell.calls.swap(0, Ordering::Relaxed);
        let nanos = cell.nanos.swap(0, Ordering::Relaxed);
        let flops = cell.flops.swap(0, Ordering::Relaxed);
        if calls > 0 {
            emit(Event::Op {
                round,
                op: id.as_str().into(),
                calls,
                total_us: nanos / 1000,
                flops,
                // No op counts bytes today; the key stays in the schema.
                bytes: 0,
            });
        }
    }
}

/// Uninstalls the sink on drop: deactivates the probes, writes the
/// `run_end` line, flushes the writer, and zeroes every counter cell so a
/// later install starts from a clean slate.
#[must_use = "dropping the guard immediately would end the trace at once"]
pub struct TraceGuard {
    started: Instant,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(mut sink) = guard.take() {
            let ev = Event::RunEnd {
                rounds: sink.rounds,
                wall_us: self.started.elapsed().as_micros() as u64,
            };
            if !sink.errored {
                let _ = writeln!(sink.writer, "{}", ev.to_json());
                let _ = sink.writer.flush();
            }
        }
        drop(guard);
        // Probes may still race past the deactivation for a moment; zero
        // the cells *after* releasing the sink so leftovers cannot leak
        // into a future journal's first flush.
        for cell in OPS.iter().chain(PHASES.iter()) {
            cell.calls.store(0, Ordering::Relaxed);
            cell.nanos.store(0, Ordering::Relaxed);
            cell.flops.store(0, Ordering::Relaxed);
        }
    }
}

/// Install `writer` as the journal sink and write its `run_start` line.
/// `kernel` and `precision` record the process-wide compute configuration
/// (the resolved GEMM kernel arm and eval precision — this crate sits
/// below `fca-tensor`, so callers pass the strings).
///
/// Errors with `AlreadyExists` if a sink is already installed — the
/// journal is a process-wide singleton, so tests that trace must serialize
/// themselves (the repo keeps all traced test logic in one `#[test]`).
#[expect(
    clippy::disallowed_methods,
    reason = "stamps the run's start for the run_end duration"
)]
pub fn install_writer(
    writer: Box<dyn Write + Send>,
    label: &str,
    kernel: &str,
    precision: &str,
) -> io::Result<TraceGuard> {
    let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
    if guard.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "a trace sink is already installed",
        ));
    }
    let mut sink = Sink {
        writer,
        rounds: 0,
        errored: false,
    };
    writeln!(
        sink.writer,
        "{}",
        Event::RunStart {
            schema: SCHEMA_VERSION,
            label: label.into(),
            kernel: kernel.into(),
            precision: precision.into(),
        }
        .to_json()
    )?;
    *guard = Some(sink);
    ACTIVE.store(true, Ordering::SeqCst);
    Ok(TraceGuard {
        started: Instant::now(),
    })
}

/// [`install_writer`] targeting a freshly created file (parent directories
/// are created; an existing file is truncated).
pub fn install_file(
    path: impl AsRef<Path>,
    label: &str,
    kernel: &str,
    precision: &str,
) -> io::Result<TraceGuard> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    install_writer(Box::new(io::BufWriter::new(file)), label, kernel, precision)
}
