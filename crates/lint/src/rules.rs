//! The rules and their path policies.
//!
//! Each rule encodes one of the contracts DESIGN.md §7 states in prose:
//!
//! | rule | contract | scope |
//! |------|----------|-------|
//! | `D1` | determinism: no wall-clock reads outside the observability and bench crates; no iteration-order-dependent containers in aggregation or wire code | workspace minus `crates/trace`, `crates/bench`, `tests/`; hash-container check on `fca-core` algo/comm/sim only |
//! | `F1` | fleet virtualization: no dense-fleet iteration (`.clients()`/`.clients_mut()`) outside the pool module — a paged fleet keeps almost nothing resident, so O(fleet) walks must go through the paging-aware entry points | `crates/core/src/` minus `fleet.rs` |
//! | `K1` | kernel confinement: `std::arch`/`core::arch` intrinsics and `is_x86_feature_detected!` live only in the dispatch module, so every other file stays portable and the scalar oracle stays the single source of truth for numerics | whole workspace minus `crates/tensor/src/simd.rs` |
//! | `P1` | panic-freedom: no `unwrap`/`expect`/`panic!`/subtraction-indexing *reachable in the call graph* from an `Algorithm::round` impl, `run_federation*`, or the wire/checkpoint entry points | call graph over `crates/core/src/` |
//! | `U1` | unsafe hygiene: every `unsafe` is preceded by a `// SAFETY:` comment (or a `# Safety` doc section) stating its bounds argument | whole workspace |
//! | `W1` | workspace discipline: `forward`/`backward` bodies allocate through the `Workspace`, never ad hoc | `crates/nn/src/` |
//! | `S1` | seed-tag uniqueness: every `derived_rng` call site carries a unique `0x…` tag constant (inline or via a `let` binding); tag collisions and untagged derivations are findings | `crates/core/src/` |
//! | `C1` | checked-cast discipline: no truncating `as u8/u16/u32` on lengths, counts, or ids in wire/checkpoint/blob codec paths | `crates/core/src/{comm,transport,checkpoint,client}.rs` + `crates/tensor/src/serialize.rs` |
//! | `V1` | schema-version coupling: every `*VERSION`/`*MAGIC` constant is referenced by at least one test, so a version bump without decode-rejection coverage fails lint | constants in `crates/{core,trace}/src/`, references anywhere in test code |
//!
//! Test modules (`#[cfg(test)]`) are exempt from `D1`, `P1`, `S1`, `C1`,
//! and `W1`; `U1` applies everywhere; `V1` *requires* test code. The
//! `LINT` pseudo-rule (directive hygiene) is implemented by the engine.
//!
//! `D1`, `F1`, `K1`, `U1`, `W1`, and `C1` are per-file token rules
//! ([`check_file`]). `P1`, `S1`, and `V1` need cross-file state — the
//! item trees and call graph of the whole workspace — and run in
//! [`check_workspace`].

use crate::callgraph::{CallGraph, Node};
use crate::engine::{match_brace, FileLint, Finding};
use crate::lexer::TokKind;
use crate::parser::{match_bracket, ItemTree};
use std::collections::{BTreeMap, BTreeSet};

/// Rule ids with one-line summaries (drives `--list-rules` and directive
/// validation).
pub const RULES: &[(&str, &str)] = &[
    (
        "D1",
        "determinism: no Instant::now/SystemTime::now outside crates/{trace,bench}; no HashMap/HashSet in fca-core aggregation or wire modules",
    ),
    (
        "F1",
        "fleet virtualization: no .clients()/.clients_mut() dense iteration in fca-core outside fleet.rs; use for_sampled_parallel/evaluate_ids/with_client",
    ),
    (
        "K1",
        "kernel confinement: no std::arch/core::arch or is_x86_feature_detected! outside crates/tensor/src/simd.rs; ISA-specific code lives behind the dispatch module",
    ),
    (
        "P1",
        "panic-freedom: no unwrap/expect/panic!/subtraction-indexing reachable in the call graph from Algorithm::round impls, run_federation*, or the wire/checkpoint entry points",
    ),
    (
        "S1",
        "seed-tag uniqueness: every derived_rng call site in fca-core carries a unique 0x… tag constant; collisions and untagged derivations are findings",
    ),
    (
        "C1",
        "checked-cast discipline: no truncating `as u8/u16/u32` on lengths/counts/ids in wire, checkpoint, or blob codec paths; use try_into/checked conversions",
    ),
    (
        "V1",
        "schema-version coupling: every *VERSION/*MAGIC constant in fca-core/fca-trace must be referenced by at least one test (decode-rejection coverage)",
    ),
    (
        "U1",
        "unsafe hygiene: every `unsafe` must be justified by a preceding // SAFETY: comment or # Safety doc section",
    ),
    (
        "W1",
        "workspace discipline: no Vec::new/vec!/.to_vec() inside fca-nn forward/backward bodies; allocate through the Workspace",
    ),
    ("LINT", "directive hygiene: well-formed, reasoned, effective allow directives"),
];

/// How many lines above an `unsafe` token a SAFETY justification may end.
const SAFETY_REACH: u32 = 4;

/// Run every per-file rule against one file. Cross-file rules (`P1`,
/// `S1`, `V1`) live in [`check_workspace`].
pub fn check_file(f: &FileLint) -> Vec<Finding> {
    let mut out = Vec::new();
    d1_time(f, &mut out);
    d1_hash(f, &mut out);
    f1_dense_fleet(f, &mut out);
    k1_isa_confinement(f, &mut out);
    c1_casts(f, &mut out);
    u1_unsafe(f, &mut out);
    w1_workspace(f, &mut out);
    out
}

/// Run the workspace-wide rules over parsed item trees. `files` and
/// `trees` are parallel; findings are routed back to their owning file by
/// path before directive application.
pub fn check_workspace(files: &[FileLint], trees: &[ItemTree]) -> Vec<Finding> {
    let mut out = Vec::new();
    p1_reachability(files, trees, &mut out);
    s1_seed_tags(files, &mut out);
    v1_version_coupling(files, &mut out);
    out
}

fn in_d1_time_scope(path: &str) -> bool {
    !(path.starts_with("crates/trace/")
        || path.starts_with("crates/bench/")
        || path.starts_with("tests/"))
}

fn in_d1_hash_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/algo/")
        || path == "crates/core/src/comm.rs"
        || path == "crates/core/src/sim.rs"
}

fn in_f1_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") && path != "crates/core/src/fleet.rs"
}

fn in_k1_scope(path: &str) -> bool {
    path != "crates/tensor/src/simd.rs"
}

/// Files whose every non-test fn is a P1 reachability *root*: the wire
/// encode/decode/collect paths and the algorithms. Beyond these, roots are
/// `run_federation*` and `Algorithm::round` impls wherever they live.
fn is_p1_root_file(path: &str) -> bool {
    path == "crates/core/src/comm.rs"
        || path == "crates/core/src/transport.rs"
        || path == "crates/core/src/checkpoint.rs"
        || path.starts_with("crates/core/src/algo/")
}

fn is_p1_root(n: &Node) -> bool {
    is_p1_root_file(n.path)
        || n.item.name.starts_with("run_federation")
        || (n.item.name == "round" && n.item.impl_trait.as_deref() == Some("Algorithm"))
}

fn in_s1_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
}

fn in_c1_scope(path: &str) -> bool {
    path == "crates/core/src/comm.rs"
        || path == "crates/core/src/transport.rs"
        || path == "crates/core/src/checkpoint.rs"
        || path == "crates/core/src/client.rs"
        || path == "crates/tensor/src/serialize.rs"
}

fn in_v1_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/trace/src/")
}

fn in_w1_scope(path: &str) -> bool {
    path.starts_with("crates/nn/src/")
}

/// D1 (time half): seeded runs must not read wall clocks outside the
/// crates whose whole job is timing. (An ambient RNG cannot be named at
/// all: no crate in the graph defines one, and `scripts/ci.sh` pins the
/// graph.)
fn d1_time(f: &FileLint, out: &mut Vec<Finding>) {
    if !in_d1_time_scope(&f.path) {
        return;
    }
    for ci in 0..f.code.len() {
        let tok = f.code_tok(ci);
        if f.in_test_code(tok.line) {
            continue;
        }
        let call = if f.code_matches(ci, &["Instant", ":", ":", "now"]) {
            Some("Instant::now()")
        } else if f.code_matches(ci, &["SystemTime", ":", ":", "now"]) {
            Some("SystemTime::now()")
        } else {
            None
        };
        if let Some(call) = call {
            out.push(f.finding(
                "D1",
                tok,
                format!(
                    "{call} outside crates/{{trace,bench}}: wall-clock reads \
                     break run-for-run reproducibility"
                ),
            ));
        }
    }
}

/// D1 (container half): `HashMap`/`HashSet` iteration order is
/// randomized per process, so any aggregation or wire code that iterates
/// one can leak nondeterminism into results. Use `BTreeMap`/`BTreeSet`
/// or sorted vectors.
fn d1_hash(f: &FileLint, out: &mut Vec<Finding>) {
    if !in_d1_hash_scope(&f.path) {
        return;
    }
    for ci in 0..f.code.len() {
        let tok = f.code_tok(ci);
        if f.in_test_code(tok.line) {
            continue;
        }
        if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
            out.push(f.finding(
                "D1",
                tok,
                format!(
                    "{} in an aggregation/wire module: iteration order is randomized and \
                     can leak into results; use BTreeMap/BTreeSet or a sorted Vec",
                    tok.text
                ),
            ));
        }
    }
}

/// F1: the fleet is virtualized — only the clients a round samples are
/// resident; the rest live as compact snapshot blobs. `.clients()` /
/// `.clients_mut()` iterate *live* clients only, so production code that
/// reaches for them either silently skips the cold majority or assumes a
/// fully resident fleet. Both break at 100k clients; route through the
/// paging-aware entry points (`for_sampled_parallel`, `evaluate_ids`,
/// `with_client`) or the always-resident `metas()` instead.
fn f1_dense_fleet(f: &FileLint, out: &mut Vec<Finding>) {
    if !in_f1_scope(&f.path) {
        return;
    }
    for ci in 0..f.code.len() {
        let tok = f.code_tok(ci);
        if f.in_test_code(tok.line) {
            continue;
        }
        let call = if f.code_matches(ci, &[".", "clients", "("]) {
            Some(".clients()")
        } else if f.code_matches(ci, &[".", "clients_mut", "("]) {
            Some(".clients_mut()")
        } else {
            None
        };
        if let Some(call) = call {
            let anchor = f.code_tok(ci + 1);
            out.push(f.finding(
                "F1",
                anchor,
                format!(
                    "{call} outside the pool module iterates only the live clients and \
                     skips every paged-out one; use for_sampled_parallel/evaluate_ids/\
                     with_client (or metas() for always-resident data)"
                ),
            ));
        }
    }
}

/// K1: ISA-specific intrinsics are confined to the one module whose job is
/// runtime dispatch. Anywhere else, `std::arch` imports or ad hoc feature
/// probes fork the numerics away from the scalar oracle and dodge the
/// resolve-once policy (`FCA_GEMM_KERNEL`, trace stamping). Applies to
/// test code too — bit-exactness tests compare *kernels via the dispatch
/// API*, not hand-rolled intrinsics.
fn k1_isa_confinement(f: &FileLint, out: &mut Vec<Finding>) {
    if !in_k1_scope(&f.path) {
        return;
    }
    for ci in 0..f.code.len() {
        let tok = f.code_tok(ci);
        let what = if f.code_matches(ci, &["std", ":", ":", "arch"])
            || f.code_matches(ci, &["core", ":", ":", "arch"])
        {
            Some("std::arch / core::arch")
        } else if f.code_matches(ci, &["is_x86_feature_detected"]) {
            Some("is_x86_feature_detected!")
        } else {
            None
        };
        if let Some(what) = what {
            out.push(f.finding(
                "K1",
                tok,
                format!(
                    "{what} outside crates/tensor/src/simd.rs: ISA-specific code must go \
                     through the dispatch module so kernel selection stays resolve-once \
                     and the scalar oracle stays authoritative"
                ),
            ));
        }
    }
}

/// Call heads whose result is a length/count (`xs.len() as u32`).
const C1_CALLS: &[&str] = &["len", "rank", "numel", "count", "capacity"];

/// Identifier vocabulary that names a length, count, dimension, or id.
fn c1_count_ish(name: &str) -> bool {
    matches!(
        name,
        "n" | "k"
            | "d"
            | "id"
            | "client"
            | "count"
            | "total"
            | "rank"
            | "dim"
            | "dims"
            | "size"
            | "idx"
            | "len"
            | "rounds"
            | "round"
    ) || name.starts_with("num_")
        || name.starts_with("n_")
        || name.ends_with("_len")
        || name.ends_with("_count")
        || name.ends_with("_id")
        || name.ends_with("_idx")
        || name.ends_with("_size")
        || name.ends_with("_clients")
}

/// C1: a truncating `as` cast on a length, count, or id silently wraps at
/// the type boundary — the classic way a >64 KiB payload writes a tiny
/// frame header that decode then trusts. Codec paths must use
/// `try_from`/`try_into` (propagating an encode/decode error) or an
/// explicitly checked conversion. Masked bit-twiddling casts
/// (`(bits >> 13) as u16`) are out of scope by construction: the operand
/// before `as` is a parenthesized expression, not a count-valued call or
/// identifier.
fn c1_casts(f: &FileLint, out: &mut Vec<Finding>) {
    if !in_c1_scope(&f.path) {
        return;
    }
    for ci in 0..f.code.len() {
        let tok = f.code_tok(ci);
        if !tok.is_ident("as") || f.in_test_code(tok.line) {
            continue;
        }
        let Some(target) = f.code.get(ci + 1).map(|_| f.code_tok(ci + 1)) else {
            continue;
        };
        if !(target.is_ident("u8") || target.is_ident("u16") || target.is_ident("u32")) {
            continue;
        }
        // Pattern (a): `name ( ) as ty` — a count-returning call.
        let call_cast = ci >= 3
            && f.code_tok(ci - 1).is_punct(')')
            && f.code_tok(ci - 2).is_punct('(')
            && C1_CALLS.contains(&f.code_tok(ci - 3).text.as_str());
        // Pattern (b): `ident as ty` — a count/id-named local.
        let ident_cast = ci >= 1
            && f.code_tok(ci - 1).kind == TokKind::Ident
            && c1_count_ish(&f.code_tok(ci - 1).text);
        if call_cast || ident_cast {
            let src = if call_cast {
                format!("{}()", f.code_tok(ci - 3).text)
            } else {
                f.code_tok(ci - 1).text.clone()
            };
            out.push(f.finding(
                "C1",
                tok,
                format!(
                    "truncating `as {}` on `{src}` in a wire/blob codec path: oversize \
                     values wrap silently and decode trusts the result; use \
                     `{}::try_from(…)` with an encode/decode error, or a checked conversion",
                    target.text, target.text
                ),
            ));
        }
    }
}

/// P1: the round loop and wire paths treat failure as an outcome. A panic
/// on a malformed-but-decodable message or a dead channel would turn one
/// faulty peer into a crashed federation. v2 is a reachability analysis:
/// roots are every non-test fn in the wire/algo files plus
/// `run_federation*` and `Algorithm::round` impls anywhere in `fca-core`,
/// and any `unwrap`/`expect`/`panic!` — or slice index computed by
/// subtraction, the underflow-on-short-input class — in a fn the call
/// graph can reach from a root is a finding, with the chain in the
/// message.
fn p1_reachability(files: &[FileLint], trees: &[ItemTree], out: &mut Vec<Finding>) {
    let core: Vec<(usize, &str, &ItemTree)> = files
        .iter()
        .zip(trees)
        .enumerate()
        .filter(|(_, (f, _))| f.path.starts_with("crates/core/src/"))
        .map(|(i, (f, t))| (i, f.path.as_str(), t))
        .collect();
    if core.is_empty() {
        return;
    }
    let g = CallGraph::build(&core);
    let roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| is_p1_root(&g.nodes[i]))
        .collect();
    let parent = g.reach(&roots);
    // Nested fn items share tokens with their enclosing fn's body; dedup
    // by position so each token is reported once, from the first node (in
    // sorted order) that reaches it.
    let mut seen: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for (i, node) in g.nodes.iter().enumerate() {
        if parent[i].is_none() {
            continue;
        }
        let Some((open, close)) = node.item.body else {
            continue;
        };
        let f = &files[node.file];
        let chain = g.chain(&parent, i);
        let via = if chain.contains('→') {
            format!(" (reached via {chain})")
        } else {
            String::new()
        };
        for ci in open + 1..close {
            let hit = if f.code_matches(ci, &[".", "unwrap", "("]) {
                Some((".unwrap()", 1))
            } else if f.code_matches(ci, &[".", "expect", "("]) {
                Some((".expect(…)", 1))
            } else if f.code_matches(ci, &["panic", "!"]) {
                Some(("panic!", 0))
            } else if is_subtraction_index(f, ci, close) {
                Some(("slice index computed by subtraction", 0))
            } else {
                None
            };
            let Some((what, anchor_off)) = hit else {
                continue;
            };
            let anchor = f.code_tok(ci + anchor_off);
            if !seen.insert((node.file, anchor.line, anchor.col)) {
                continue;
            }
            out.push(f.finding(
                "P1",
                anchor,
                format!(
                    "{what} reachable from a federation entry point{via}: client/peer \
                     failure must be an outcome (skip or propagate an error), not a crash"
                ),
            ));
        }
    }
}

/// Is the `[` at code index `ci` a slice/array subscript whose index
/// expression contains a subtraction? `xs[n - 2]` panics on short input;
/// `xs[1..]` and `xs[i]` do not carry that class of bug and stay legal.
fn is_subtraction_index(f: &FileLint, ci: usize, limit: usize) -> bool {
    if !f.code_tok(ci).is_punct('[') || ci == 0 {
        return false;
    }
    // Indexing follows a value: an identifier, a call/paren close, or a
    // previous subscript. Attributes (`#[…]`), array types/literals, and
    // generic positions follow punctuation and are skipped.
    let prev = f.code_tok(ci - 1);
    let is_index = prev.kind == TokKind::Ident && !prev.is_ident("as")
        || prev.is_punct(')')
        || prev.is_punct(']');
    if !is_index {
        return false;
    }
    let end = match_bracket(f, ci).min(limit);
    (ci + 1..end).any(|k| f.code_tok(k).is_punct('-'))
}

/// Index (in code tokens) of the `)` matching the `(` at code index
/// `open`. Returns the last code token on unbalanced input.
fn match_paren(f: &FileLint, open: usize) -> usize {
    let mut depth = 0usize;
    for ci in open..f.code.len() {
        let t = f.code_tok(ci);
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return ci;
            }
        }
    }
    f.code.len().saturating_sub(1)
}

/// Normalize a hex literal for collision checks: `0xB0_FF` ≡ `0xb0ff`.
fn normalize_tag(text: &str) -> String {
    let lower: String = text
        .to_ascii_lowercase()
        .chars()
        .filter(|c| *c != '_')
        .collect();
    let digits = lower.trim_start_matches("0x").trim_start_matches('0');
    if digits.is_empty() {
        "0x0".to_string()
    } else {
        format!("0x{digits}")
    }
}

/// S1: every derived RNG stream is identified by a unique tag constant —
/// two streams sharing a tag draw identical randomness, which silently
/// correlates what must be independent (fault fates vs admission delays,
/// sampling vs eval). Each `derived_rng(…)` call site must carry a `0x…`
/// literal, either inline or via a `let` binding in the same file; the
/// same normalized tag at two distinct definition sites is a collision.
fn s1_seed_tags(files: &[FileLint], out: &mut Vec<Finding>) {
    // tag -> deduped definition sites (file idx, line, col, display text).
    let mut registry: BTreeMap<String, Vec<(usize, u32, u32, String)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if !in_s1_scope(&f.path) {
            continue;
        }
        for ci in 0..f.code.len() {
            let tok = f.code_tok(ci);
            if !tok.is_ident("derived_rng")
                || !f
                    .code
                    .get(ci + 1)
                    .is_some_and(|_| f.code_tok(ci + 1).is_punct('('))
            {
                continue;
            }
            if f.in_test_code(tok.line) {
                continue;
            }
            // `fn derived_rng(` is the definition, not a derivation site.
            if ci > 0 && f.code_tok(ci - 1).is_ident("fn") {
                continue;
            }
            let close = match_paren(f, ci + 1);
            match find_tag(f, ci + 2, close) {
                Some((line, col, text)) => {
                    let sites = registry.entry(normalize_tag(&text)).or_default();
                    if !sites.iter().any(|&(sf, sl, _, _)| sf == fi && sl == line) {
                        sites.push((fi, line, col, text));
                    }
                }
                None => out.push(
                    f.finding(
                        "S1",
                        tok,
                        "derived_rng call without a resolvable 0x… tag constant: every \
                     derived stream needs a unique, greppable tag (inline hex literal \
                     or a `let`-bound one in this file)"
                            .to_string(),
                    ),
                ),
            }
        }
    }
    for sites in registry.values() {
        if sites.len() < 2 {
            continue;
        }
        for (fi, line, col, text) in sites {
            let others: Vec<String> = sites
                .iter()
                .filter(|(of, ol, _, _)| (of, ol) != (fi, line))
                .map(|(of, ol, _, _)| format!("{}:{}", files[*of].path, ol))
                .collect();
            out.push(files[*fi].finding_at(
                "S1",
                *line,
                *col,
                format!(
                    "seed tag {text} also derives a stream at {}: tag collisions make \
                     \"independent\" randomness identical; pick a fresh tag",
                    others.join(", ")
                ),
            ));
        }
    }
}

/// Find the tag literal for a `derived_rng` argument range: the first hex
/// literal inline, else the first hex literal in the nearest preceding
/// `let` binding of an identifier argument. Returns its (line, col, text).
fn find_tag(f: &FileLint, start: usize, end: usize) -> Option<(u32, u32, String)> {
    for ci in start..end {
        let t = f.code_tok(ci);
        if t.kind == TokKind::Num && t.text.to_ascii_lowercase().starts_with("0x") {
            return Some((t.line, t.col, t.text.clone()));
        }
    }
    // No inline hex: resolve identifier args through `let` bindings above.
    for ci in start..end {
        let t = f.code_tok(ci);
        if t.kind != TokKind::Ident || t.is_ident("self") {
            continue;
        }
        let name = t.text.clone();
        // Nearest preceding `let <name>` in this file.
        let binding = (0..start.saturating_sub(1))
            .rev()
            .find(|&j| f.code_tok(j).is_ident("let") && f.code_tok(j + 1).is_ident(&name));
        let Some(j) = binding else {
            continue;
        };
        let mut k = j + 2;
        while k < f.code.len() && !f.code_tok(k).is_punct(';') {
            let t = f.code_tok(k);
            if t.kind == TokKind::Num && t.text.to_ascii_lowercase().starts_with("0x") {
                return Some((t.line, t.col, t.text.clone()));
            }
            k += 1;
        }
    }
    None
}

/// V1: the wire and journal formats are versioned (`FCKP`, `FCH1`, the
/// trace `SCHEMA_VERSION`); a version bump that ships without a
/// decode-rejection test is exactly how silent compat breaks happen. Every
/// `*VERSION`/`*MAGIC` constant defined in non-test code of fca-core or
/// fca-trace must be referenced by name from at least one test (a
/// `#[cfg(test)]` region or a `tests/` file).
fn v1_version_coupling(files: &[FileLint], out: &mut Vec<Finding>) {
    let mut consts: Vec<(usize, u32, u32, String)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if !in_v1_scope(&f.path) {
            continue;
        }
        for ci in 0..f.code.len() {
            if !f.code_tok(ci).is_ident("const") {
                continue;
            }
            let Some(name_tok) = f.code.get(ci + 1).map(|_| f.code_tok(ci + 1)) else {
                continue;
            };
            if name_tok.kind != TokKind::Ident
                || !f
                    .code
                    .get(ci + 2)
                    .is_some_and(|_| f.code_tok(ci + 2).is_punct(':'))
            {
                continue;
            }
            let name = &name_tok.text;
            if !(name.ends_with("VERSION") || name.ends_with("MAGIC")) {
                continue;
            }
            if f.in_test_code(name_tok.line) {
                continue;
            }
            consts.push((fi, name_tok.line, name_tok.col, name.clone()));
        }
    }
    for (fi, line, col, name) in consts {
        let referenced = files.iter().any(|f2| {
            let tests_file = f2.path.starts_with("tests/") || f2.path.contains("/tests/");
            f2.code.iter().any(|&ti| {
                let t = &f2.tokens[ti];
                t.is_ident(&name)
                    && (tests_file || f2.in_test_code(t.line))
                    && !(f2.path == files[fi].path && t.line == line)
            })
        });
        if !referenced {
            out.push(files[fi].finding_at(
                "V1",
                line,
                col,
                format!(
                    "versioned-format constant `{name}` is never referenced by a test: \
                     add a decode-rejection test that corrupts this field via the \
                     constant, so version bumps cannot ship without compat coverage"
                ),
            ));
        }
    }
}

/// U1: every `unsafe` (block, fn, or impl) must carry its bounds argument
/// in a `// SAFETY:` comment ending at most [`SAFETY_REACH`] lines above
/// it (a `# Safety` rustdoc section also qualifies).
fn u1_unsafe(f: &FileLint, out: &mut Vec<Finding>) {
    let comments: Vec<(u32, bool)> = f
        .tokens
        .iter()
        .filter(|t| t.is_comment())
        .map(|t| {
            let justifies = t.text.contains("SAFETY:") || t.text.contains("# Safety");
            (t.end_line, justifies)
        })
        .collect();
    for &ti in &f.code {
        let tok = &f.tokens[ti];
        if !tok.is_ident("unsafe") {
            continue;
        }
        let justified = comments.iter().any(|&(end_line, justifies)| {
            justifies && end_line <= tok.line && end_line + SAFETY_REACH >= tok.line
        });
        if !justified {
            out.push(
                f.finding(
                    "U1",
                    tok,
                    "`unsafe` without a preceding // SAFETY: comment stating the bounds \
                 argument it relies on"
                        .to_string(),
                ),
            );
        }
    }
}

/// W1: PR 1 routed every per-batch allocation in `fca-nn` through the
/// `Workspace`; ad hoc allocation inside `forward`/`backward` bodies
/// reintroduces the per-batch allocator traffic it removed.
fn w1_workspace(f: &FileLint, out: &mut Vec<Finding>) {
    if !in_w1_scope(&f.path) {
        return;
    }
    let mut ci = 0usize;
    while ci + 1 < f.code.len() {
        let is_hot_fn = f.code_tok(ci).is_ident("fn")
            && (f.code_tok(ci + 1).is_ident("forward") || f.code_tok(ci + 1).is_ident("backward"));
        if !is_hot_fn || f.in_test_code(f.code_tok(ci).line) {
            ci += 1;
            continue;
        }
        let fn_name = f.code_tok(ci + 1).text.clone();
        // Find the body: first `{` before any `;` (a `;` first means a
        // trait-method declaration with no body).
        let mut j = ci + 2;
        let mut body: Option<(usize, usize)> = None;
        while j < f.code.len() {
            let t = f.code_tok(j);
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                body = Some((j, match_brace(&f.tokens, &f.code, j)));
                break;
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            ci = j + 1;
            continue;
        };
        for k in open..=close {
            let tok = f.code_tok(k);
            let what = if f.code_matches(k, &["Vec", ":", ":", "new"]) {
                Some("Vec::new()")
            } else if f.code_matches(k, &["vec", "!"]) {
                Some("vec![…]")
            } else if f.code_matches(k, &[".", "to_vec", "("]) {
                Some(".to_vec()")
            } else {
                None
            };
            if let Some(what) = what {
                out.push(f.finding(
                    "W1",
                    tok,
                    format!(
                        "{what} inside `fn {fn_name}`: per-batch allocation in a hot path; \
                         draw the buffer from the Workspace instead"
                    ),
                ));
            }
        }
        ci = close + 1;
    }
}

/// The full contract, rationale, and an example fix for one rule
/// (drives `fca-lint --explain <RULE>`).
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1" => {
            "\
D1 — determinism

CONTRACT
  No `Instant::now()` or `SystemTime::now()` outside crates/trace and
  crates/bench; no `HashMap`/`HashSet` in fca-core's
  aggregation, wire, or round-engine modules (algo/, comm.rs, sim.rs).
  Test modules are exempt.

RATIONALE
  Every run is a pure function of (config, seed): PAPER.md's experiments
  are replayed bit-for-bit, faults and drift come from seeded streams,
  and CI diffs metrics byte-wise across transports. One wall-clock read
  in a decision path, or one iteration over a randomized-order hash
  container during aggregation, silently breaks all of that.

EXAMPLE FIX
  - let deadline = Instant::now() + budget;      // D1
  + let deadline_round = cfg.straggler_rounds;   // count rounds, not time
  - let mut acc: HashMap<ClientId, f32> = …;     // D1
  + let mut acc: BTreeMap<ClientId, f32> = …;    // deterministic order
"
        }
        "F1" => {
            "\
F1 — fleet virtualization

CONTRACT
  No `.clients()` / `.clients_mut()` dense-fleet iteration in fca-core
  outside fleet.rs. Use the paging-aware entry points:
  `for_sampled_parallel`, `evaluate_ids`, `with_client`, or `metas()`
  for always-resident metadata.

RATIONALE
  The fleet is virtualized: at 100k+ clients almost everyone is a cold
  snapshot blob, and the live-client iterators see only the resident
  minority. Code that walks them either silently skips the cold majority
  or assumes a fully resident fleet; both break at scale.

EXAMPLE FIX
  - for c in fleet.clients_mut() { c.apply(&global); }        // F1
  + fleet.for_sampled_parallel(&ids, |c| c.apply(&global));   // pages waves
"
        }
        "K1" => {
            "\
K1 — kernel confinement

CONTRACT
  `std::arch` / `core::arch` and `is_x86_feature_detected!` appear only
  in crates/tensor/src/simd.rs. Applies to test code too.

RATIONALE
  Kernel selection is resolve-once (FCA_GEMM_KERNEL, trace-stamped), and
  the scalar kernel is the bit-exactness oracle every SIMD arm must
  match. Intrinsics or ad hoc feature probes anywhere else fork the
  numerics away from the oracle and dodge the dispatch policy.

EXAMPLE FIX
  - use std::arch::x86_64::_mm256_fmadd_ps;   // K1, in some other module
  + // call through fca_tensor's gemm_* API; the dispatch module picks
  + // the microkernel once per process and the trace records which.
"
        }
        "P1" => {
            "\
P1 — panic-freedom (call-graph reachability)

CONTRACT
  No `.unwrap()`, `.expect(…)`, `panic!`, or slice index computed by
  subtraction (`xs[n - 2]`) in any fca-core function the call graph can
  reach from a federation entry point. Roots: every non-test fn in
  comm.rs, transport.rs, checkpoint.rs, and algo/; any `run_federation*`;
  any `round` in an `impl Algorithm for …`. Test modules are exempt;
  `assert!` is sanctioned (it states an invariant, not a decode).

RATIONALE
  One malformed-but-decodable message, short state vector, or dead
  channel must cost one client one round — never the federation. The
  v1 rule only scanned a fixed file list; real panics hide two calls
  below the round loop in fleet paging or snapshot decode, so v2 walks
  an approximate intra-crate call graph and prints the chain it used
  (e.g. `FedClassAvg::round → stage_one → refill`).

EXAMPLE FIX
  - let n = state.len();
  - let w = &state[n - 2];                  // P1: panics when n < 2
  + let [.., w, b] = &state[..] else {
  +     return;                            // short state: skip the update
  + };
"
        }
        "S1" => {
            "\
S1 — seed-tag uniqueness

CONTRACT
  Every `derived_rng(…)` call site in crates/core/src/ carries a `0x…`
  tag constant — inline, or via a `let` binding in the same file — and
  no two distinct sites use the same tag (normalized: `0xB0_FF` ≡
  `0xb0ff`). Untagged derivations are findings too.

RATIONALE
  Independent randomness (fault fates vs admission delays, sampling vs
  eval draws) is manufactured by deriving per-purpose RNG streams from
  one seed, keyed by tag. Two streams sharing a tag draw *identical*
  values: correlations appear that no test asserts against, and replay
  stays bit-identical so nothing catches it. Tags also make streams
  greppable when debugging a divergence.

EXAMPLE FIX
  - let mut rng = derived_rng(seed, 0xB0FF_0000);  // S1: admission's tag
  + let mut rng = derived_rng(seed, 0x5C3D_0001);  // fresh, grep-unique
"
        }
        "C1" => {
            "\
C1 — checked-cast discipline

CONTRACT
  No truncating `as u8` / `as u16` / `as u32` on lengths, counts,
  dimensions, or ids in the codec paths: comm.rs, transport.rs,
  checkpoint.rs, client.rs (snapshot blobs), and
  crates/tensor/src/serialize.rs. Use `try_from`/`try_into` with an
  encode/decode error, or a checked conversion. Test modules are exempt;
  masked bit-twiddling (`(bits >> 13) as u16`) is out of scope.

RATIONALE
  `payload.len() as u32` wraps at 4 GiB and `rank() as u8` at 256 — the
  header then lies, and the decoder trusts the header. PR 8 hardened
  decode into `WireError` for exactly this class; encode must not
  reintroduce it from the other side.

EXAMPLE FIX
  - buf.extend(&(payload.len() as u32).to_le_bytes());   // C1
  + let len = u32::try_from(payload.len())
  +     .map_err(|_| WireError::FrameTooLarge(payload.len()))?;
  + buf.extend(&len.to_le_bytes());
"
        }
        "V1" => {
            "\
V1 — schema-version coupling

CONTRACT
  Every `*VERSION` / `*MAGIC` constant defined in non-test code of
  crates/core/src/ or crates/trace/src/ (checkpoint FCKP magic +
  version, transport FCH1 hello, trace SCHEMA_VERSION, snapshot blob
  version) must be referenced by name from at least one test — a
  #[cfg(test)] region or a tests/ file.

RATIONALE
  A version bump is a compat decision; the test that corrupts the field
  *via the constant* is what forces the decision to be made. Tests that
  flip raw bytes at hard-coded offsets keep passing when the constant
  moves or widens — coupling the test to the constant is the point.

EXAMPLE FIX
  + #[test]
  + fn decode_rejects_other_versions() {
  +     let mut bytes = encode(&ckpt);
  +     bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
  +     assert!(matches!(decode(&bytes), Err(WireError::Version { .. })));
  + }
"
        }
        "U1" => {
            "\
U1 — unsafe hygiene

CONTRACT
  Every `unsafe` token (block, fn, impl) is preceded — within 4 lines —
  by a `// SAFETY:` comment (or a `# Safety` rustdoc section) stating
  the bounds argument it relies on. Applies everywhere, tests included.

RATIONALE
  The SIMD microkernels are the only unsafe in the workspace, and each
  one's correctness hangs on an alignment/length/ISA argument that the
  type system cannot see. The argument must live next to the code so a
  reviewer can falsify it.

EXAMPLE FIX
  + // SAFETY: caller guarantees a/b/c point to at least MR*KC floats
  + // (asserted in the dispatch wrapper) and AVX2 is detected once.
    unsafe { kernel_8x16_avx2(a, b, c, k) }
"
        }
        "W1" => {
            "\
W1 — workspace discipline

CONTRACT
  No `Vec::new()`, `vec![…]`, or `.to_vec()` inside `forward`/`backward`
  bodies in crates/nn/src/. Buffers come from the threaded `Workspace`
  arena (keyed slots + recycle pool).

RATIONALE
  PR 1 made steady-state training zero-allocation; one ad hoc Vec in a
  hot body reintroduces per-batch allocator traffic on every client of
  every round, which is exactly what the arena removed.

EXAMPLE FIX
  - let mut col = vec![0.0; k * n];                    // W1
  + let col = ws.take(Slot::Im2Col, k * n);            // arena-recycled
"
        }
        "LINT" => {
            "\
LINT — directive hygiene

CONTRACT
  Suppressions are `// fca-lint: allow(RULE, reason = \"…\")` with a
  non-empty reason and a known rule id, and every directive must
  actually suppress a finding. Malformed, unknown-rule, reasonless, and
  unused directives are themselves findings.

RATIONALE
  A suppression is a claim (\"this unwrap cannot fire because …\") that
  should rot loudly: when the code it excused goes away, the directive
  becomes a finding instead of lingering as false documentation.

EXAMPLE FIX
  - // fca-lint: allow(P1)
  + // fca-lint: allow(P1, reason = \"guarded by the assert! above; a
  + // fleet always has at least one sampled client\")
"
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::lint_sources;

    /// Run the full workspace pass over one in-memory file.
    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_sources(&[(path, src)]).findings
    }

    #[test]
    fn d1_flags_instant_now_outside_trace_and_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(run("crates/core/src/sim.rs", src).len(), 1);
        assert!(run("crates/trace/src/collector.rs", src).is_empty());
        assert!(run("crates/bench/src/bin/probe.rs", src).is_empty());
        assert!(run("tests/e2e.rs", src).is_empty());
    }

    #[test]
    fn d1_flags_hash_containers_only_in_core_scopes() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/core/src/algo/ktpfl.rs", src).len(), 1);
        assert_eq!(run("crates/core/src/comm.rs", src).len(), 1);
        assert!(run("crates/tensor/src/workspace.rs", src).is_empty());
    }

    #[test]
    fn f1_flags_dense_fleet_iteration_only_in_core_outside_pool() {
        let src = "fn f(fleet: &mut Fleet) { for c in fleet.clients_mut() { c.touch(); } }\n";
        assert_eq!(run("crates/core/src/sim.rs", src).len(), 1);
        assert_eq!(run("crates/core/src/algo/fedmd.rs", src).len(), 1);
        assert!(run("crates/core/src/fleet.rs", src).is_empty());
        assert!(run("crates/metrics/src/eval.rs", src).is_empty());
        let read = "fn g(fleet: &Fleet) { let n = fleet.clients().count(); }\n";
        assert_eq!(run("crates/core/src/client.rs", read).len(), 1);
        // The sanctioned alternatives don't trip it.
        let ok = "fn h(fleet: &mut Fleet) { let w: f32 = fleet.metas().iter().map(|m| m.weight).sum(); }\n";
        assert!(run("crates/core/src/sim.rs", ok).is_empty());
    }

    #[test]
    fn f1_exempts_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(fleet: &mut Fleet) { for c in fleet.clients_mut() {} }\n}\n";
        assert!(run("crates/core/src/algo/fedproto.rs", src).is_empty());
    }

    #[test]
    fn k1_flags_isa_use_outside_dispatch_module() {
        let arch = "use std::arch::x86_64::_mm256_fmadd_ps;\n";
        assert_eq!(run("crates/tensor/src/gemm.rs", arch).len(), 1);
        assert_eq!(run("crates/nn/src/conv.rs", arch).len(), 1);
        assert!(run("crates/tensor/src/simd.rs", arch).is_empty());
        let core_arch = "use core::arch::x86_64::__m256;\n";
        assert_eq!(run("crates/tensor/src/pack.rs", core_arch).len(), 1);
        let probe = "fn f() -> bool { is_x86_feature_detected!(\"avx2\") }\n";
        assert_eq!(run("crates/bench/src/lib.rs", probe).len(), 1);
        assert!(run("crates/tensor/src/simd.rs", probe).is_empty());
    }

    #[test]
    fn k1_ignores_lookalikes_and_applies_in_tests() {
        // `arch` as a field/ident and strings don't trip it.
        let ok = "fn f(m: &Model) { let a = m.arch; let s = \"std::arch\"; }\n";
        assert!(run("crates/models/src/model.rs", ok).is_empty());
        // No test-module exemption: kernels are compared via the dispatch
        // API, never via hand-rolled intrinsics.
        let test_src = "#[cfg(test)]\nmod tests {\n  use std::arch::x86_64::_mm256_add_ps;\n}\n";
        assert_eq!(run("crates/tensor/src/gemm.rs", test_src).len(), 1);
    }

    #[test]
    fn p1_flags_panics_but_not_lookalikes() {
        let path = "crates/core/src/algo/fedavg.rs";
        assert_eq!(run(path, "fn f() { x.unwrap(); }").len(), 1);
        assert_eq!(run(path, "fn f() { x.expect(\"msg\"); }").len(), 1);
        assert_eq!(run(path, "fn f() { panic!(\"boom\"); }").len(), 1);
        assert!(run(path, "fn f() { x.unwrap_or(0); }").is_empty());
        assert!(run(path, "fn f() { expect_count(2); }").is_empty());
        assert!(run(path, "fn f() { let s = \"x.unwrap()\"; }").is_empty());
    }

    #[test]
    fn p1_covers_the_wire_layer_modules() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(run("crates/core/src/transport.rs", src).len(), 1);
        assert_eq!(run("crates/core/src/checkpoint.rs", src).len(), 1);
        assert_eq!(run("crates/core/src/comm.rs", src).len(), 1);
        // An *unreachable* fn elsewhere in core is not a P1 concern.
        assert!(run("crates/core/src/sim.rs", src).is_empty());
    }

    #[test]
    fn p1_exempts_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        assert!(run("crates/core/src/algo/fedavg.rs", src).is_empty());
    }

    #[test]
    fn p1_follows_the_call_graph_out_of_the_root_files() {
        let sources = [
            (
                "crates/core/src/algo/a.rs",
                "struct A;\nimpl Algorithm for A {\n    fn round(&mut self) { crate::sched::stage_one(); }\n}\n",
            ),
            (
                "crates/core/src/sched.rs",
                "pub fn stage_one() { crate::pool::refill(); }\n",
            ),
            (
                "crates/core/src/pool.rs",
                "pub fn refill() { CACHE.lock().unwrap(); }\npub fn dormant() { x.unwrap(); }\n",
            ),
        ];
        let findings = lint_sources(&sources).findings;
        // The unwrap two hops below the round loop is found, with the
        // chain; the unreachable one in the same file is not.
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|x| x.path == "crates/core/src/pool.rs")
            .collect();
        assert_eq!(hits.len(), 1, "findings: {findings:?}");
        assert_eq!(hits[0].rule, "P1");
        assert!(
            hits[0].message.contains("A::round → stage_one → refill"),
            "chain missing: {}",
            hits[0].message
        );
    }

    #[test]
    fn p1_run_federation_is_a_root_anywhere_in_core() {
        let sources = [(
            "crates/core/src/sim.rs",
            "pub fn run_federation(cfg: &Cfg) { boot(cfg); }\nfn boot(cfg: &Cfg) { cfg.check().expect(\"bad config\"); }\n",
        )];
        let findings = lint_sources(&sources).findings;
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert!(findings[0].message.contains("run_federation → boot"));
    }

    #[test]
    fn p1_flags_subtraction_indexing_but_not_plain_indexing() {
        let path = "crates/core/src/algo/fedavg.rs";
        let bad = "fn round_body(xs: &[f32]) { let n = xs.len(); let w = xs[n - 2]; }\n";
        let findings = run(path, bad);
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert!(findings[0].message.contains("subtraction"));
        assert!(run(path, "fn f(xs: &[f32]) { let w = xs[0]; }").is_empty());
        assert!(run(path, "fn f(xs: &[f32]) { let w = &xs[1..]; }").is_empty());
        assert!(run(
            path,
            "fn f() { let a = [0.0; 4]; let s: [f32; 2] = [1.0, 2.0]; }"
        )
        .is_empty());
    }

    #[test]
    fn c1_flags_truncating_count_casts_in_codec_paths_only() {
        let len_cast = "fn f(xs: &[u8]) { let n = xs.len() as u32; }\n";
        assert_eq!(run("crates/core/src/transport.rs", len_cast).len(), 1);
        assert_eq!(run("crates/tensor/src/serialize.rs", len_cast).len(), 1);
        assert!(run("crates/core/src/sim.rs", len_cast).is_empty());
        let id_cast = "fn f(client: usize) { let c = client as u32; }\n";
        assert_eq!(run("crates/core/src/comm.rs", id_cast).len(), 1);
        let named = "fn f(num_clients: usize) { let c = num_clients as u32; }\n";
        assert_eq!(run("crates/core/src/checkpoint.rs", named).len(), 1);
    }

    #[test]
    fn c1_spares_widening_masked_and_test_casts() {
        let path = "crates/core/src/transport.rs";
        assert!(run(path, "fn f(xs: &[u8]) { let n = xs.len() as u64; }\n").is_empty());
        assert!(run(path, "fn f(bits: u32) { let h = (bits >> 13) as u16; }\n").is_empty());
        assert!(run(path, "fn f(x: f32) { let q = x as u8; }\n").is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n  fn t(xs: &[u8]) { let n = xs.len() as u32; }\n}\n";
        assert!(run(path, test_src).is_empty());
    }

    #[test]
    fn s1_flags_tag_collisions_across_files() {
        let sources = [
            (
                "crates/core/src/algo/a.rs",
                "fn f(seed: u64) { let r = derived_rng(seed, 0xAB_CDEF); }\n",
            ),
            (
                "crates/core/src/fleet.rs",
                "fn g(seed: u64) { let r = derived_rng(seed, 0xABCDEF); }\n",
            ),
        ];
        let findings = lint_sources(&sources).findings;
        assert_eq!(findings.len(), 2, "one finding per site: {findings:?}");
        assert!(findings.iter().all(|x| x.rule == "S1"));
        assert!(findings[0].message.contains("crates/core/src/fleet.rs:1"));
    }

    #[test]
    fn s1_resolves_let_bound_tags_and_flags_untagged_sites() {
        let ok = "fn f(seed: u64, k: u64) {\n    let tag = 0xFEED_0001 ^ k;\n    let r = derived_rng(seed, tag);\n}\n";
        assert!(run("crates/core/src/comm.rs", ok).is_empty());
        let bad = "fn f(seed: u64, t: u64) { let r = derived_rng(seed, t); }\n";
        let findings = run("crates/core/src/comm.rs", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("without a resolvable"));
    }

    #[test]
    fn s1_shared_binding_is_one_site_and_tests_are_exempt() {
        let src = "fn f(seed: u64) {\n    let tag = 0xD00D_0001;\n    let a = derived_rng(seed, tag);\n    let b = derived_rng(seed ^ 1, tag);\n}\n";
        assert!(run("crates/core/src/comm.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n  fn t(s: u64) { let r = derived_rng(s, untagged); }\n}\n";
        assert!(run("crates/core/src/comm.rs", test_src).is_empty());
    }

    #[test]
    fn v1_requires_a_test_reference_for_version_constants() {
        let bare = "pub const SCHEMA_VERSION: u64 = 5;\n";
        let findings = run("crates/trace/src/event.rs", bare);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "V1");
        let covered = "pub const SCHEMA_VERSION: u64 = 5;\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn reject() { assert_ne!(SCHEMA_VERSION, 4); }\n}\n";
        assert!(run("crates/trace/src/event.rs", covered).is_empty());
    }

    #[test]
    fn v1_sees_references_from_integration_test_files() {
        let sources = [
            (
                "crates/core/src/checkpoint.rs",
                "pub const MAGIC: [u8; 4] = *b\"FCKP\";\n",
            ),
            ("tests/checkpoint_resume.rs", "fn t() { let m = MAGIC; }\n"),
        ];
        assert!(lint_sources(&sources).findings.is_empty());
        // Plain consts never trip it; out-of-scope crates never trip it.
        assert!(run(
            "crates/core/src/sim.rs",
            "const DEFAULT_ROUNDS: usize = 10;\n"
        )
        .is_empty());
        assert!(run("crates/nn/src/conv.rs", "const IM2COL_VERSION: u8 = 1;\n").is_empty());
    }

    #[test]
    fn u1_requires_safety_comment() {
        let bad = "fn f(p: *mut f32) { unsafe { *p = 0.0; } }\n";
        assert_eq!(run("crates/tensor/src/gemm.rs", bad).len(), 1);
        let good = "fn f(p: *mut f32) {\n    // SAFETY: p is valid per caller contract\n    unsafe { *p = 0.0; }\n}\n";
        assert!(run("crates/tensor/src/gemm.rs", good).is_empty());
        let doc = "/// Does things.\n///\n/// # Safety\n///\n/// p must be valid.\nunsafe fn f(p: *mut f32) { *p = 0.0; }\n";
        assert!(run("crates/tensor/src/gemm.rs", doc).is_empty());
    }

    #[test]
    fn u1_ignores_unsafe_in_strings_and_comments() {
        let src = "fn f() { let s = \"unsafe\"; let r = r#\"unsafe\"#; }\n// unsafe in prose\n";
        assert!(run("crates/tensor/src/gemm.rs", src).is_empty());
    }

    #[test]
    fn w1_flags_allocation_only_in_hot_bodies() {
        let hot = "impl M { fn forward(&mut self) { let v = vec![0.0; 4]; } }\n";
        assert_eq!(run("crates/nn/src/conv.rs", hot).len(), 1);
        let hot2 = "impl M { fn backward(&mut self) { let v: Vec<f32> = Vec::new(); } }\n";
        assert_eq!(run("crates/nn/src/conv.rs", hot2).len(), 1);
        let hot3 = "impl M { fn backward(&mut self, x: &[f32]) { let v = x.to_vec(); } }\n";
        assert_eq!(run("crates/nn/src/conv.rs", hot3).len(), 1);
        let cold = "impl M { fn params(&mut self) { let v = vec![0.0; 4]; } }\n";
        assert!(run("crates/nn/src/conv.rs", cold).is_empty());
        let decl = "trait M { fn forward(&mut self); }\nfn other() { let v = vec![1]; }\n";
        assert!(run("crates/nn/src/module.rs", decl).is_empty());
        let elsewhere = "impl M { fn forward(&mut self) { let v = vec![0.0; 4]; } }\n";
        assert!(run("crates/tensor/src/ops.rs", elsewhere).is_empty());
    }

    #[test]
    fn suppression_directive_silences_a_finding() {
        let src = "fn f() {\n    // fca-lint: allow(P1, reason = \"invariant: replies non-empty\")\n    x.unwrap();\n}\n";
        let report = lint_sources(&[("crates/core/src/algo/fedavg.rs", src)]);
        assert!(
            report.findings.is_empty(),
            "unexpected: {:?}",
            report.findings
        );
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for (id, _) in RULES {
            assert!(explain(id).is_some(), "no --explain text for {id}");
        }
        assert!(explain("Z9").is_none());
    }
}
