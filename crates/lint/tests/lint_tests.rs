//! End-to-end tests for the `fca-lint` binary and library over the
//! committed fixture trees. The `violations/` tree mirrors real workspace
//! paths (so the path policies engage) and violates every rule on
//! purpose; the `clean/` tree exercises the same policies plus the lexer
//! traps and must produce zero findings.

use fca_lint::baseline::Baseline;
use fca_lint::driver::{collect_rs_files, lint_files};
use fca_lint::engine::FileLint;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fca-lint"))
}

fn lint_fixture(root: &Path) -> Vec<fca_lint::engine::Finding> {
    let files = collect_rs_files(root).expect("walk fixture");
    assert!(
        !files.is_empty(),
        "fixture tree {} is empty",
        root.display()
    );
    lint_files(root, &files, None)
        .expect("lint fixture")
        .findings
}

#[test]
fn violations_tree_trips_every_rule() {
    let findings = lint_fixture(&fixture("violations"));
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    for rule in ["D1", "P1", "S1", "C1", "V1", "U1", "W1", "LINT"] {
        assert!(
            rules.contains(&rule),
            "no {rule} finding; got {findings:#?}"
        );
    }
}

#[test]
fn workspace_rules_carry_correct_positions() {
    let findings = lint_fixture(&fixture("violations"));
    let has = |rule: &str, path: &str, line: u32| {
        findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line)
    };
    // S1: the colliding tags — inline in sampler.rs (line 5), `let`-bound
    // in shuffle.rs (line 5) — plus the untagged derivation (line 10).
    assert!(has("S1", "crates/core/src/sampler.rs", 5), "{findings:#?}");
    assert!(has("S1", "crates/core/src/shuffle.rs", 5), "{findings:#?}");
    assert!(has("S1", "crates/core/src/shuffle.rs", 10), "{findings:#?}");
    // C1: `payload.len() as u8` line 11, `num_clients as u32` line 12.
    let c = "crates/core/src/checkpoint.rs";
    assert!(has("C1", c, 11), "{findings:#?}");
    assert!(has("C1", c, 12), "{findings:#?}");
    // V1: both uncovered versioned-format constants.
    assert!(has("V1", c, 4), "{findings:#?}");
    assert!(has("V1", c, 5), "{findings:#?}");
}

#[test]
fn p1_reaches_panics_two_hops_below_the_round_loop() {
    let findings = lint_fixture(&fixture("violations"));
    let hit = findings
        .iter()
        .find(|f| f.rule == "P1" && f.path == "crates/core/src/pool.rs")
        .expect("no P1 finding in pool.rs");
    assert_eq!(hit.line, 7, "{hit:#?}");
    assert!(
        hit.message.contains("Deep::round → stage_one → refill"),
        "call chain missing from message: {}",
        hit.message
    );
    // The old per-file engine scoped P1 to a fixed file list and never
    // looked at pool.rs: linting the file alone still finds nothing —
    // only the workspace pass can connect it to the round loop.
    let src = std::fs::read_to_string(fixture("violations").join("crates/core/src/pool.rs"))
        .expect("read pool.rs");
    let solo = fca_lint::driver::lint_sources(&[("crates/core/src/pool.rs", &src)]);
    assert!(
        solo.findings.is_empty(),
        "per-file pass should not flag pool.rs: {:#?}",
        solo.findings
    );
}

#[test]
fn findings_and_chains_are_deterministic() {
    let key =
        |f: &fca_lint::engine::Finding| (f.path.clone(), f.line, f.col, f.rule, f.message.clone());
    let a: Vec<_> = lint_fixture(&fixture("violations"))
        .iter()
        .map(key)
        .collect();
    let b: Vec<_> = lint_fixture(&fixture("violations"))
        .iter()
        .map(key)
        .collect();
    assert_eq!(a, b, "two identical runs disagreed");
}

#[test]
fn violations_carry_correct_positions() {
    let findings = lint_fixture(&fixture("violations"));
    let has = |rule: &str, path: &str, line: u32| {
        findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line)
    };
    // bad_round.rs: unwrap line 5, expect line 6, panic! line 8.
    let p = "crates/core/src/algo/bad_round.rs";
    assert!(has("P1", p, 5), "unwrap at {p}:5: {findings:#?}");
    assert!(has("P1", p, 6), "expect at {p}:6");
    assert!(has("P1", p, 8), "panic! at {p}:8");
    // comm.rs: every HashMap mention is flagged (import line 4, return
    // type line 7, constructor line 9), plus Instant::now and the expect.
    let c = "crates/core/src/comm.rs";
    assert!(has("D1", c, 4), "HashMap import at {c}:4");
    assert!(has("D1", c, 8), "Instant::now at {c}:8");
    assert!(has("D1", c, 9), "HashMap::new at {c}:9");
    assert!(has("P1", c, 17), "expect at {c}:17");
    // bad_unsafe.rs: undocumented unsafe at line 4.
    assert!(has("U1", "crates/tensor/src/bad_unsafe.rs", 4));
}

#[test]
fn test_modules_are_exempt_from_p1() {
    let findings = lint_fixture(&fixture("violations"));
    let in_tests = findings
        .iter()
        .filter(|f| f.path.ends_with("bad_round.rs") && f.line >= 13)
        .count();
    assert_eq!(in_tests, 0, "P1 flagged inside #[cfg(test)]: {findings:#?}");
}

#[test]
fn w1_flags_hot_bodies_only() {
    let findings = lint_fixture(&fixture("violations"));
    let w1: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "W1")
        .map(|f| f.line)
        .collect();
    // Vec::new line 8, .to_vec line 10, vec! line 16 — and nothing from
    // the allocation in `not_hot` (line 22).
    assert_eq!(w1, vec![8, 10, 16], "{findings:#?}");
}

#[test]
fn directive_hygiene_becomes_lint_findings() {
    let findings = lint_fixture(&fixture("violations"));
    let lint_msgs: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == "LINT")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        lint_msgs
            .iter()
            .any(|m| m.contains("missing its mandatory")),
        "missing-reason directive not reported: {lint_msgs:?}"
    );
    assert!(
        lint_msgs.iter().any(|m| m.contains("unknown rule")),
        "unknown-rule directive not reported: {lint_msgs:?}"
    );
    assert!(
        lint_msgs.iter().any(|m| m.contains("suppresses nothing")),
        "unused directive not reported: {lint_msgs:?}"
    );
    // Rejected directives must NOT suppress: the unwraps under the
    // malformed and unknown-rule directives still fire.
    let p1_in_bad_directives = findings
        .iter()
        .filter(|f| f.rule == "P1" && f.path.ends_with("bad_directives.rs"))
        .count();
    assert_eq!(p1_in_bad_directives, 2, "{findings:#?}");
}

#[test]
fn clean_tree_produces_zero_findings() {
    let root = fixture("clean");
    let files = collect_rs_files(&root).expect("walk fixture");
    let report = lint_files(&root, &files, None).expect("lint fixture");
    assert!(
        report.findings.is_empty(),
        "clean fixtures flagged: {:#?}",
        report.findings
    );
    // The two reasoned suppressions in good_round.rs were exercised.
    assert_eq!(report.suppressed, 2);
}

#[test]
fn lexer_survives_edge_cases_without_false_findings() {
    // Directly lint a nasty source under an in-scope path.
    let src = r##"
pub fn tricky() -> usize {
    let raw = r#"nested "quotes" and .unwrap() and unsafe { }"#;
    let s = "escaped \" quote then .expect(\"x\")";
    let lifetime: &'static str = "panic!(\"not real\")";
    /* outer /* inner panic!("nested") */ still outer .unwrap() */
    raw.len() + s.len() + lifetime.len()
}
"##;
    let lint = FileLint::new("crates/core/src/algo/tricky.rs", src);
    let (findings, _) = lint.check();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn binary_deny_exits_2_on_violations_and_0_on_clean() {
    let out = bin()
        .args(["--root"])
        .arg(fixture("violations"))
        .args(["--deny", "--no-baseline"])
        .output()
        .expect("run fca-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(
        stdout.contains("crates/core/src/algo/bad_round.rs:5"),
        "file:line missing from output: {stdout}"
    );

    let out = bin()
        .args(["--root"])
        .arg(fixture("clean"))
        .args(["--deny", "--no-baseline"])
        .output()
        .expect("run fca-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
}

#[test]
fn binary_json_output_is_structured() {
    let out = bin()
        .args(["--root"])
        .arg(fixture("violations"))
        .args(["--json", "--no-baseline"])
        .output()
        .expect("run fca-lint");
    // Report-only (no --deny): findings exist but exit is 0.
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\": \"P1\""), "{stdout}");
    assert!(stdout.contains("\"path\": \"crates/core/src/comm.rs\""));
    assert!(stdout.contains("\"findings\": ["));
}

#[test]
fn baseline_grandfathers_existing_findings() {
    let tmp = std::env::temp_dir().join(format!("fca-lint-baseline-{}.json", std::process::id()));
    let status = bin()
        .args(["--root"])
        .arg(fixture("violations"))
        .args(["--write-baseline", "--baseline"])
        .arg(&tmp)
        .status()
        .expect("write baseline");
    assert!(status.success());

    // With every current finding baselined, --deny passes...
    let out = bin()
        .args(["--root"])
        .arg(fixture("violations"))
        .args(["--deny", "--baseline"])
        .arg(&tmp)
        .output()
        .expect("run with baseline");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean"), "{stdout}");

    // ...and the library agrees the entries round-trip.
    let base = Baseline::parse(&std::fs::read_to_string(&tmp).expect("read baseline"));
    assert!(!base.is_empty());
    std::fs::remove_file(&tmp).ok();
}

#[test]
fn committed_workspace_baseline_is_empty() {
    // Policy: the repo's own baseline stays empty — violations are fixed
    // or carry reasoned allow directives, never grandfathered.
    let repo_baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fca-lint.baseline.json");
    let base = Baseline::parse(&std::fs::read_to_string(repo_baseline).expect("read baseline"));
    assert!(base.is_empty(), "workspace baseline must stay empty");
}

#[test]
fn the_benchmark_workspace_is_not_walked() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(root.join("benchmark/src/main.rs").is_file());
    let files = collect_rs_files(&root).expect("walk workspace");
    assert!(files
        .iter()
        .any(|f| f.ends_with("crates/lint/src/driver.rs")));
    let walked: Vec<&PathBuf> = files
        .iter()
        .filter(|f| f.components().any(|c| c.as_os_str() == "benchmark"))
        .collect();
    assert!(walked.is_empty(), "{walked:?}");
}

#[test]
fn list_rules_names_every_rule() {
    let out = bin().arg("--list-rules").output().expect("run fca-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ["D1", "F1", "K1", "P1", "S1", "C1", "V1", "U1", "W1", "LINT"] {
        assert!(stdout.contains(rule), "{stdout}");
    }
    assert!(stdout.contains("--explain"), "{stdout}");
}

#[test]
fn explain_prints_contract_and_rejects_unknown_rules() {
    let out = bin()
        .args(["--explain", "P1"])
        .output()
        .expect("run fca-lint");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CONTRACT"), "{stdout}");
    assert!(stdout.contains("call graph"), "{stdout}");

    let out = bin()
        .args(["--explain", "Z9"])
        .output()
        .expect("run fca-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown rule"),
        "{out:?}"
    );
}
