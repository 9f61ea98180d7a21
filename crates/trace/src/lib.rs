//! # fca-trace
//!
//! Lightweight span/counter instrumentation for the FedClassAvg
//! reproduction: lock-free per-op timers and FLOP counters (GEMM packing
//! vs. kernel, im2col/col2im, layer forward/backward), per-round phase
//! spans (the [`PhaseId`] registry), and a versioned JSONL run journal
//! under `results/trace/`.
//!
//! Design rules, in order:
//!
//! 1. **Determinism** — timers observe, they never branch. A traced run is
//!    bit-identical to an untraced run at the same seed; the e2e test
//!    `trace_e2e` proves it. Nothing in this crate returns a measured
//!    value to the instrumented code.
//! 2. **Hot-path cost** — with no sink installed, a probe is one relaxed
//!    atomic load.
//! 3. **Thread safety** — probes run inside rayon regions; counter cells
//!    are static atomics, and only cold paths (install/flush/drop) lock.
//!
//! Typical wiring (the round loop in `fca-core::sim` does exactly this):
//!
//! ```
//! use fca_trace::{clock, op, phase, OpId, PhaseId};
//!
//! let span = clock();                 // None when tracing is inactive
//! // ... do the work being measured ...
//! op(OpId::GemmKernel, span);         // adds to the op's counter cell
//!
//! let span = clock();
//! // ... broadcast to clients ...
//! phase(PhaseId::Broadcast, span);
//! // later, once per round: fca_trace::flush_ops(round);
//! ```
//!
//! The journal schema lives in [`event`], one declaration per event kind;
//! DESIGN.md §7.4 documents every event kind, field, and unit, plus the
//! version-bump rule.

#![warn(missing_docs)]

pub mod event;
mod ids;

pub use event::{Event, SCHEMA_VERSION};
pub use ids::{OpId, PhaseId};

mod collector;
pub use collector::{
    clock, emit, flush_ops, install_file, install_writer, is_active, op, op_flops, phase,
    TraceGuard,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// Cloneable in-memory writer so tests can read back what the sink
    /// wrote after the guard drops.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Shared {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().expect("buffer").clone()).expect("utf-8 journal")
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The collector is a process-wide singleton, so every assertion that
    /// installs a sink lives in this ONE test function — parallel test
    /// threads must never race on the global tracer.
    #[test]
    fn live_collector_lifecycle() {
        // Inactive: clock is None and probes are inert.
        assert!(!is_active());
        assert!(clock().is_none());
        op(OpId::GemmKernel, clock());
        flush_ops(0); // no sink: must not panic
        emit(Event::Drift {
            round: 0,
            lambda_permille: 0,
            clients: 0,
        }); // no sink: dropped

        let buf = Shared::default();
        let guard = install_writer(Box::new(buf.clone()), "unit \"quoted\"", "avx2_fma", "f32")
            .expect("install");
        assert!(is_active());

        // Second install while active must fail.
        let second = install_writer(Box::new(Shared::default()), "dup", "scalar", "f32");
        assert!(second.is_err(), "double install accepted");

        // Record spans from a few threads, then flush round 1.
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10 {
                        op_flops(OpId::GemmKernel, clock(), 1000);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        phase(PhaseId::Broadcast, clock());
        phase(PhaseId::LocalTrain, clock());
        flush_ops(1);
        emit(Event::Workspace {
            round: 1,
            clients: 4,
            allocations: 2,
            reuses: 98,
            peak_bytes: 4096,
        });
        emit(Event::Pool {
            round: 1,
            resident: 0,
            high_water: 7,
            checkouts: 42,
            page_ins: 42,
            page_outs: 42,
            page_bytes: 8192,
        });
        emit(Event::Round {
            round: 1,
            dur_us: 10,
            downlink_bytes: 100,
            uplink_bytes: 50,
            downlink_physical_bytes: 20,
            uplink_physical_bytes: 58,
            dropped: 1,
            corrupt: 0,
            stale: 2,
            expired: 0,
        });
        emit(Event::Drift {
            round: 1,
            lambda_permille: 250,
            clients: 4,
        });
        drop(guard);
        assert!(!is_active());
        assert!(clock().is_none());

        // Every line must parse; the shape must match what we recorded.
        let body = buf.contents();
        let events: Vec<Event> = body
            .lines()
            .map(|l| Event::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        assert!(
            matches!(
                &events[0],
                Event::RunStart { schema, label, kernel, precision }
                    if *schema == SCHEMA_VERSION && label == "unit \"quoted\""
                        && kernel == "avx2_fma" && precision == "f32"
            ),
            "journal must open with run_start: {:?}",
            events[0]
        );
        assert!(
            matches!(events.last(), Some(Event::RunEnd { rounds: 1, .. })),
            "journal must close with run_end counting 1 round: {:?}",
            events.last()
        );
        let kernel = events
            .iter()
            .find_map(|e| match e {
                Event::Op {
                    op, calls, flops, ..
                } if op == "gemm_kernel" => Some((*calls, *flops)),
                _ => None,
            })
            .expect("gemm_kernel op event");
        assert_eq!(kernel, (40, 40_000), "atomic op totals are exact");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::Phase { phase, .. } => Some(phase.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(phases, ["broadcast", "local_train"]);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Workspace { reuses: 98, .. })));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Pool {
                high_water: 7,
                page_ins: 42,
                page_bytes: 8192,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Round {
                dropped: 1,
                stale: 2,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Drift {
                lambda_permille: 250,
                clients: 4,
                ..
            }
        )));

        // A fresh install after drop starts from zeroed cells.
        let buf2 = Shared::default();
        let guard2 =
            install_writer(Box::new(buf2.clone()), "second", "scalar", "f16").expect("reinstall");
        flush_ops(9);
        drop(guard2);
        let events2: Vec<Event> = buf2
            .contents()
            .lines()
            .map(|l| Event::parse(l).expect("line"))
            .collect();
        assert_eq!(
            events2.len(),
            2,
            "leftover counters leaked into a fresh journal: {events2:?}"
        );
    }
}
