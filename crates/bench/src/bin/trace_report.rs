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
//! The report prints one table per event kind, in the order each kind
//! first appears in the journal (see DESIGN.md §7.4 for field semantics).
//! Two kinds are folded: `phase` into per-round phase timings and `op`
//! into per-op run totals with achieved GFLOP/s. Every other kind prints
//! one row per event and one column per field, straight from
//! [`Event::fields`], so a field added to the schema shows up here with no
//! edit to this file.

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
    let mut kinds: Vec<&str> = Vec::new();
    for ev in events {
        if !kinds.contains(&ev.kind()) {
            kinds.push(ev.kind());
        }
    }
    for kind in kinds {
        let of_kind = events.iter().filter(|e| e.kind() == kind);
        match kind {
            "phase" => phase_table(of_kind),
            "op" => op_table(of_kind),
            _ => {
                println!("\n== {kind} ==");
                field_table(of_kind);
            }
        }
    }
}

/// Per-round phase timings: `total_us` summed per (round, phase), in ms.
fn phase_table<'a>(events: impl Iterator<Item = &'a Event>) {
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

/// Per-op totals across the whole run, in the registry's order.
fn op_table<'a>(events: impl Iterator<Item = &'a Event>) {
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

/// One row per event and one column per field, headed by the field names
/// and each column as wide as its widest cell.
fn field_table<'a>(events: impl Iterator<Item = &'a Event>) {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for ev in events {
        let fields = ev.fields();
        if rows.is_empty() {
            rows.push(fields.iter().map(|(name, _)| name.to_string()).collect());
        }
        rows.push(fields.iter().map(|(_, value)| value.to_string()).collect());
    }
    let mut widths = vec![0; rows.first().map_or(0, Vec::len)];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    for row in &rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
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
