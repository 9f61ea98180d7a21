//! `trace_report` — fold an `fca-trace` JSONL journal into human tables.
//!
//! Usage: `trace_report [PATH] [--check]`
//!
//! With no `PATH`, reads the most recently modified `*.jsonl` under
//! `results/trace/` (write one with `--example quickstart -- --trace`).
//!
//! `--check` only validates the journal — strict per-line schema, a
//! `run_start` carrying the supported schema version first, `run_end`
//! last, and a `round` event count matching `run_end`'s — and exits
//! non-zero on any violation. `scripts/ci.sh` runs it against a traced
//! quickstart as the observability smoke test.
//!
//! The report renders six tables (see DESIGN.md §7.4 for field
//! semantics): per-round phase timings, per-op totals with achieved
//! GFLOP/s, workspace counters per evaluation point, pool occupancy with
//! paging traffic, the drift schedule's λ positions (if the run streamed
//! one), and per-round wire traffic next to the fault and staleness
//! counters.

use fca_bench::report::results_dir;
use fca_trace::{Event, OpId, PhaseId, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The most recently modified `*.jsonl` under `results/trace/`.
fn latest_journal() -> Option<PathBuf> {
    let dir = results_dir().join("trace");
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(&dir).ok()?.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
            continue;
        };
        if best.as_ref().is_none_or(|(t, _)| modified > *t) {
            best = Some((modified, path));
        }
    }
    best.map(|(_, p)| p)
}

/// Structural validation beyond per-line parsing: framing and counts.
fn validate(events: &[Event]) -> Result<(), String> {
    match events.first() {
        None => return Err("journal is empty".into()),
        Some(Event::RunStart { schema, .. }) if *schema == SCHEMA_VERSION => {}
        Some(Event::RunStart { schema, .. }) => {
            return Err(format!(
                "journal schema v{schema}, this binary reads v{SCHEMA_VERSION}"
            ));
        }
        Some(_) => return Err("journal does not begin with run_start".into()),
    }
    let Some(Event::RunEnd { rounds, .. }) = events.last() else {
        return Err("journal does not end with run_end (truncated run?)".into());
    };
    let seen = events
        .iter()
        .filter(|e| matches!(e, Event::Round { .. }))
        .count() as u64;
    if seen != *rounds {
        return Err(format!(
            "run_end reports {rounds} rounds but the journal has {seen} round events"
        ));
    }
    let interior = &events[1..events.len() - 1];
    if interior
        .iter()
        .any(|e| matches!(e, Event::RunStart { .. } | Event::RunEnd { .. }))
    {
        return Err("run_start/run_end inside the journal body".into());
    }
    Ok(())
}

fn fmt_ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1e3)
}

fn render(events: &[Event]) {
    if let Some(Event::RunStart {
        label,
        kernel,
        precision,
        ..
    }) = events.first()
    {
        println!("run: {label} (gemm kernel: {kernel}, eval precision: {precision})");
    }
    for ev in events {
        match ev {
            Event::Transport { backend, clients } => {
                println!("transport: {backend} ({clients} clients)");
            }
            Event::Checkpoint {
                dir,
                round,
                bytes,
                clients,
            } => {
                println!("checkpoint {dir}: next round {round}, {bytes} B, {clients} clients");
            }
            _ => {}
        }
    }

    // Per-round phase timings (µs summed per (round, phase)).
    let mut phases: BTreeMap<u64, [u64; PhaseId::COUNT]> = BTreeMap::new();
    for ev in events {
        if let Event::Phase {
            round,
            phase,
            total_us,
            ..
        } = ev
        {
            if let Some(ix) = PhaseId::ALL.iter().position(|p| p.as_str() == phase) {
                phases.entry(*round).or_default()[ix] += total_us;
            }
        }
    }
    if !phases.is_empty() {
        println!("\n== per-round phase timings (ms) ==");
        print!("{:>6}", "round");
        for p in PhaseId::ALL {
            print!(" {:>12}", p.as_str());
        }
        println!();
        for (round, row) in &phases {
            print!("{round:>6}");
            for cell in row {
                print!(" {:>12}", fmt_ms(*cell));
            }
            println!();
        }
    }

    // Per-op totals across the whole run, in the registry's order.
    let mut ops: BTreeMap<usize, (u64, u64, u64, u64)> = BTreeMap::new();
    for ev in events {
        if let Event::Op {
            op,
            calls,
            total_us,
            flops,
            bytes,
            ..
        } = ev
        {
            if let Some(ix) = OpId::ALL.iter().position(|o| o.as_str() == op) {
                let cell = ops.entry(ix).or_default();
                cell.0 += calls;
                cell.1 += total_us;
                cell.2 += flops;
                cell.3 += bytes;
            }
        }
    }
    if !ops.is_empty() {
        println!("\n== per-op totals ==");
        println!(
            "{:<16} {:>10} {:>12} {:>16} {:>14} {:>8}",
            "op", "calls", "total ms", "flops", "bytes", "GFLOP/s"
        );
        for (ix, (calls, total_us, flops, bytes)) in &ops {
            let gflops = if *total_us > 0 && *flops > 0 {
                format!("{:.2}", *flops as f64 / (*total_us as f64 * 1e3))
            } else {
                "-".into()
            };
            println!(
                "{:<16} {:>10} {:>12} {:>16} {:>14} {:>8}",
                OpId::ALL[*ix].as_str(),
                calls,
                fmt_ms(*total_us),
                flops,
                bytes,
                gflops
            );
        }
    }

    // Workspace counters at each evaluation point.
    let ws: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Workspace { .. }))
        .collect();
    if !ws.is_empty() {
        println!("\n== workspace (fleet-wide) ==");
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>14}",
            "round", "clients", "allocs", "reuses", "peak bytes"
        );
        for ev in ws {
            if let Event::Workspace {
                round,
                clients,
                allocations,
                reuses,
                peak_bytes,
            } = ev
            {
                println!("{round:>6} {clients:>8} {allocations:>12} {reuses:>12} {peak_bytes:>14}");
            }
        }
    }

    // Workspace-pool occupancy and paging traffic at each evaluation point
    // (all zeros on fully resident fleets).
    let pool: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Pool { .. }))
        .collect();
    if !pool.is_empty() {
        println!("\n== workspace pool / paging ==");
        println!(
            "{:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "round", "resident", "high", "checkouts", "page ins", "page outs", "page bytes"
        );
        for ev in pool {
            if let Event::Pool {
                round,
                resident,
                high_water,
                checkouts,
                page_ins,
                page_outs,
                page_bytes,
            } = ev
            {
                println!(
                    "{round:>6} {resident:>9} {high_water:>10} {checkouts:>10} {page_ins:>10} {page_outs:>10} {page_bytes:>14}"
                );
            }
        }
    }

    // Drift re-shards, if the run streamed a label-distribution schedule.
    let drifts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::Drift { .. }))
        .collect();
    if !drifts.is_empty() {
        println!("\n== drift schedule ==");
        println!("{:>6} {:>10} {:>8}", "round", "lambda ‰", "clients");
        for ev in drifts {
            if let Event::Drift {
                round,
                lambda_permille,
                clients,
            } = ev
            {
                println!("{round:>6} {lambda_permille:>10} {clients:>8}");
            }
        }
    }

    // Per-round wall time, traffic, and fault/staleness counters.
    println!("\n== rounds ==");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8}",
        "round",
        "dur ms",
        "down bytes",
        "up bytes",
        "down physical",
        "up physical",
        "dropped",
        "corrupt",
        "stale",
        "expired"
    );
    let (mut down, mut up) = (0u64, 0u64);
    let (mut down_physical, mut up_physical) = (0u64, 0u64);
    for ev in events {
        if let Event::Round {
            round,
            dur_us,
            downlink_bytes,
            uplink_bytes,
            downlink_physical_bytes,
            uplink_physical_bytes,
            dropped,
            corrupt,
            stale,
            expired,
        } = ev
        {
            down += downlink_bytes;
            up += uplink_bytes;
            down_physical += downlink_physical_bytes;
            up_physical += uplink_physical_bytes;
            println!(
                "{:>6} {:>12} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8}",
                round,
                fmt_ms(*dur_us),
                downlink_bytes,
                uplink_bytes,
                downlink_physical_bytes,
                uplink_physical_bytes,
                dropped,
                corrupt,
                stale,
                expired
            );
        }
    }
    if let Some(Event::RunEnd { rounds, wall_us }) = events.last() {
        println!(
            "\ntotal: {rounds} rounds, {} ms wall, {down} B down / {up} B up paid for, \
             {down_physical} B down / {up_physical} B up written",
            fmt_ms(*wall_us)
        );
    }
}

fn main() -> ExitCode {
    let mut check = false;
    let mut path: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                println!("usage: trace_report [PATH] [--check]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other} (usage: trace_report [PATH] [--check])");
                return ExitCode::FAILURE;
            }
            other => path = Some(PathBuf::from(other)),
        }
    }
    let Some(path) = path.or_else(latest_journal) else {
        eprintln!(
            "no journal under {} — pass a path, or produce one with \
             `cargo run --release --example quickstart -- --quick --trace`",
            results_dir().join("trace").display()
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse(line) {
            Ok(ev) => events.push(ev),
            Err(e) => {
                eprintln!("{}:{}: invalid event: {e}", path.display(), i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = validate(&events) {
        eprintln!("{}: invalid journal: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if check {
        println!(
            "ok: {} ({} events, schema v{SCHEMA_VERSION})",
            path.display(),
            events.len()
        );
        return ExitCode::SUCCESS;
    }
    render(&events);
    ExitCode::SUCCESS
}
