//! No-op twin of `collector.rs`, compiled when the `enabled` feature is
//! off. Every probe inlines to nothing, [`clock`] is a constant `None`
//! (so the `Option<Instant>` plumbing folds away), and [`TraceGuard`] is a
//! zero-sized type — the compile-out contract is pinned by this crate's
//! `--no-default-features` tests.

use crate::ids::{OpId, PhaseId};
use crate::RoundRecord;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Always `None` without the `enabled` feature; spans built on it vanish.
#[inline(always)]
pub fn clock() -> Option<Instant> {
    None
}

/// Always `false` without the `enabled` feature.
#[inline(always)]
pub fn is_active() -> bool {
    false
}

/// No-op.
#[inline(always)]
pub fn op(_id: OpId, _started: Option<Instant>) {}

/// No-op.
#[inline(always)]
pub fn op_flops(_id: OpId, _started: Option<Instant>, _flops: u64) {}

/// No-op.
#[inline(always)]
pub fn phase(_id: PhaseId, _started: Option<Instant>) {}

/// No-op.
#[inline(always)]
pub fn flush_ops(_round: u64) {}

/// No-op.
#[inline(always)]
pub fn emit_round(_rec: &RoundRecord) {}

/// No-op.
#[inline(always)]
pub fn emit_drift(_round: u64, _lambda_permille: u64, _clients: u64) {}

/// No-op.
#[inline(always)]
pub fn emit_workspace(
    _round: u64,
    _clients: u64,
    _allocations: u64,
    _reuses: u64,
    _peak_bytes: u64,
) {
}

/// No-op.
#[inline(always)]
pub fn emit_pool(
    _round: u64,
    _resident: u64,
    _high_water: u64,
    _checkouts: u64,
    _page_ins: u64,
    _page_outs: u64,
    _page_bytes: u64,
) {
}

/// No-op.
#[inline(always)]
pub fn emit_transport(_backend: &str, _clients: u64) {}

/// No-op.
#[inline(always)]
pub fn emit_checkpoint(_dir: &str, _round: u64, _bytes: u64, _clients: u64) {}

/// Zero-sized stand-in for the live guard; dropping it does nothing.
#[must_use = "dropping the guard immediately would end the trace at once"]
pub struct TraceGuard {
    _private: (),
}

/// Accepts and discards the writer; no journal is produced.
pub fn install_writer(
    _writer: Box<dyn Write + Send>,
    _label: &str,
    _kernel: &str,
    _precision: &str,
) -> io::Result<TraceGuard> {
    Ok(TraceGuard { _private: () })
}

/// Accepts the path without touching the filesystem; no journal is
/// produced.
pub fn install_file(
    _path: impl AsRef<Path>,
    _label: &str,
    _kernel: &str,
    _precision: &str,
) -> io::Result<TraceGuard> {
    Ok(TraceGuard { _private: () })
}
