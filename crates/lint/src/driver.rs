//! Workspace walking and the end-to-end lint pass shared by the binary
//! and the integration tests.

use crate::baseline::{self, Baseline};
use crate::engine::{FileLint, Finding};
use crate::parser::{self, ItemTree};
use crate::rules;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `benchmark` is a workspace of its
/// own: a harness whose job is to read the clock, and the dependency stand-ins.
const SKIP_DIRS: &[&str] = &["target", "results", "node_modules", "benchmark"];

/// Path suffix (relative, forward slashes) of the lint crate's own test
/// fixtures: those files violate the rules **on purpose** and must never
/// count against the workspace.
const FIXTURES: &str = "crates/lint/tests/fixtures";

/// Aggregated result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Active findings (not suppressed, not baselined), position-sorted.
    pub findings: Vec<Finding>,
    /// Findings silenced by `allow` directives.
    pub suppressed: usize,
    /// Findings subtracted by the baseline.
    pub baselined: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Recursively collect `.rs` files under `root`, sorted for deterministic
/// output, skipping build/output directories, hidden directories, and the
/// lint crate's violation fixtures.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            if normalize(&path).ends_with(FIXTURES) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Forward-slash string form of a path.
fn normalize(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// The path string the rules' policies match: `file` relative to `root`
/// when possible, the path as given otherwise.
pub fn policy_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    normalize(rel)
}

/// Lint every file in `files` (policy paths computed against `root`),
/// subtracting `baseline` when given.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    baseline: Option<&Baseline>,
) -> io::Result<Report> {
    let mut lints: Vec<FileLint> = Vec::with_capacity(files.len());
    for file in files {
        let source = fs::read_to_string(file)?;
        lints.push(FileLint::new(&policy_path(root, file), &source));
    }
    Ok(lint_workspace(&lints, baseline))
}

/// Lint in-memory `(policy path, source)` pairs as one workspace, with no
/// baseline. This is the entry point the unit and fixture tests use to
/// exercise the full two-pass analysis.
pub fn lint_sources(sources: &[(&str, &str)]) -> Report {
    let lints: Vec<FileLint> = sources
        .iter()
        .map(|(path, src)| FileLint::new(path, src))
        .collect();
    lint_workspace(&lints, None)
}

/// The two-pass workspace lint.
///
/// Pass 1 parses every file into an item tree ([`parser::parse`]); pass 2
/// runs the per-file token rules plus the workspace rules (call-graph
/// `P1`, cross-file `S1`/`V1` — [`rules::check_workspace`]) and routes
/// every finding back to its owning file, so one `allow` directive
/// discipline governs both kinds.
pub fn lint_workspace(lints: &[FileLint], baseline: Option<&Baseline>) -> Report {
    let mut report = Report {
        files_scanned: lints.len(),
        ..Report::default()
    };
    let trees: Vec<ItemTree> = lints.iter().map(parser::parse).collect();
    let mut raw_by_file: Vec<Vec<Finding>> = lints.iter().map(rules::check_file).collect();
    let by_path: BTreeMap<&str, usize> = lints
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    for finding in rules::check_workspace(lints, &trees) {
        if let Some(&i) = by_path.get(finding.path.as_str()) {
            raw_by_file[i].push(finding);
        }
    }
    let mut all: Vec<Finding> = Vec::new();
    for (lint, raw) in lints.iter().zip(raw_by_file) {
        let (findings, suppressed) = lint.apply_directives(raw);
        report.suppressed += suppressed;
        all.extend(findings);
    }
    all.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    if let Some(base) = baseline {
        let fps = baseline::fingerprints(&all);
        for (finding, fp) in all.into_iter().zip(fps) {
            if base.contains(&fp) {
                report.baselined += 1;
            } else {
                report.findings.push(finding);
            }
        }
    } else {
        report.findings = all;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_path_is_root_relative_and_forward_slashed() {
        let root = Path::new("/repo");
        let file = Path::new("/repo/crates/core/src/comm.rs");
        assert_eq!(policy_path(root, file), "crates/core/src/comm.rs");
    }
}
