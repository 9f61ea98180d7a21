//! `fca-lint` — a workspace-aware static-analysis pass for the FedClassAvg
//! reproduction.
//!
//! The simulator makes three promises that ordinary tests cannot police:
//! bit-exact determinism across runs and thread counts, panic-freedom on
//! every path that handles bytes from the (simulated) wire, and documented
//! safety arguments for every `unsafe` block. This crate enforces those
//! promises as lint rules over the source text itself, with no dependency
//! on `syn`, `rustc` internals, or the network: a hand-written
//! comment/string-aware lexer ([`lexer`]), an item-tree parser that
//! recovers modules, `fn`/`impl` items, spans, and attributes ([`parser`]),
//! an approximate intra-crate call graph ([`callgraph`]), a rule engine
//! with per-file and workspace-wide passes ([`engine`], [`rules`],
//! [`driver`]), a committed-findings baseline ([`baseline`]), and
//! table/JSON renderers ([`output`]).
//!
//! Rules (run `fca-lint --explain <RULE>` for the full contract):
//!
//! - **D1** determinism — no wall-clock reads outside the
//!   trace/bench crates; no iteration-order-unstable `HashMap`/`HashSet`
//!   in aggregation or wire code.
//! - **F1** fleet virtualization — no dense-fleet iteration outside the
//!   pool module; O(fleet) walks go through the paging-aware entry points.
//! - **K1** kernel confinement — ISA intrinsics only in the dispatch
//!   module.
//! - **P1** panic-freedom — no `unwrap`/`expect`/`panic!`/subtraction
//!   indexing *reachable in the call graph* from an `Algorithm::round`
//!   impl, `run_federation*`, or the wire/checkpoint entry points; the
//!   report prints the call chain (test modules exempt).
//! - **S1** seed-tag uniqueness — every `derived_rng` call site carries a
//!   unique `0x…` tag constant; collisions and untagged derivations are
//!   findings.
//! - **C1** checked-cast discipline — no truncating `as u8/u16/u32` on
//!   lengths/counts/ids in wire, checkpoint, or blob codec paths.
//! - **V1** schema-version coupling — every `*VERSION`/`*MAGIC` constant
//!   must be referenced by at least one test, so a version bump cannot
//!   ship without decode-rejection coverage.
//! - **U1** unsafe hygiene — every `unsafe` token is preceded by a
//!   `// SAFETY:` comment within four lines.
//! - **W1** workspace discipline — no fresh `Vec` allocation inside
//!   `forward`/`backward` bodies in `fca-nn`; buffers come from the
//!   threaded [`Workspace`] (PR 1's contract).
//! - **LINT** — malformed, unknown-rule, or unused `allow` directives.
//!
//! `D1`/`F1`/`K1`/`C1`/`U1`/`W1` are per-file token rules; `P1`/`S1`/`V1`
//! need cross-file state and run in the workspace pass
//! ([`driver::lint_workspace`]): every file is parsed into an item tree,
//! a call graph is built over `crates/core/src/`, and workspace findings
//! are routed back to their owning file before suppression directives
//! apply — so one directive discipline governs both kinds.
//!
//! Violations that are deliberate carry an inline
//! `// fca-lint: allow(RULE, reason = "…")` directive; the reason is
//! mandatory and unused directives are themselves findings, so
//! suppressions cannot rot silently.
//!
//! [`Workspace`]: https://docs.rs/fca-nn

pub mod baseline;
pub mod callgraph;
pub mod driver;
pub mod engine;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;
