//! The trace event schema: one JSON object per journal line.
//!
//! Each event kind is declared once, in the `journal_schema!` invocation
//! below: its variant, journal name, and fields in journal order. The
//! macro derives the enum, [`Event::kind`], the [`Event::fields`] view,
//! and the strict parser from that one list, and [`Event::to_json`] is one
//! loop over `fields()`, so the encoder, the parser and every reader that
//! walks `fields()` (the `trace_report` tables) cannot disagree about a
//! field. Events are encoded by hand (no serde dependency — this crate
//! sits below everything else in the workspace) and parsed back by a
//! strict, flat-object JSON reader, so a journal round-trips exactly:
//! `Event::parse(&ev.to_json()) == Ok(ev)` for every variant. The schema is
//! documented field-by-field in DESIGN.md §7.4; [`SCHEMA_VERSION`] is
//! bumped whenever a field or variant is added, removed, or changes
//! meaning, and readers reject journals from a different version.

use std::fmt::Write as _;

/// Version stamped into every journal's `run_start` event.
///
/// Bump on **any** schema change — new/removed variants, new/removed
/// fields, or a change in a field's unit or meaning. Readers (the
/// `trace_report` bin, the CI smoke check) refuse other versions rather
/// than guessing.
pub const SCHEMA_VERSION: u64 = 6;

/// One field value as a journal line carries it: journals hold only
/// unsigned integers and strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value<'a> {
    /// An unsigned integer field.
    Num(u64),
    /// A string field.
    Str(&'a str),
}

impl std::fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(n) => n.fmt(f),
            Value::Str(s) => s.fmt(f),
        }
    }
}

/// The two Rust types an event field may have, and how each maps to and
/// from the journal.
trait Field: Sized {
    fn value(&self) -> Value<'_>;
    fn from_json(json: Json, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn value(&self) -> Value<'_> {
        Value::Num(*self)
    }

    fn from_json(json: Json, key: &str) -> Result<Self, String> {
        match json {
            Json::Num(n) => Ok(n),
            Json::Str(_) => Err(format!("field {key:?} must be an integer")),
        }
    }
}

impl Field for String {
    fn value(&self) -> Value<'_> {
        Value::Str(self)
    }

    fn from_json(json: Json, key: &str) -> Result<Self, String> {
        match json {
            Json::Str(s) => Ok(s),
            Json::Num(_) => Err(format!("field {key:?} must be a string")),
        }
    }
}

/// Declares [`Event`] from one list of `Variant = "journal_name" { fields }`
/// and derives `kind`, `fields` and the strict per-kind field reader from
/// that same list. A field's position in the list is its position in the
/// journal line.
macro_rules! journal_schema {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl Event {
            /// The journal name of this event's kind (its `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind, )*
                }
            }

            /// Every field but `ev`, as `(name, value)` in journal order.
            pub fn fields(&self) -> Vec<(&'static str, Value<'_>)> {
                match self {
                    $(
                        Event::$variant { $($field),* } => {
                            vec![$( (stringify!($field), Field::value($field)) ),*]
                        }
                    )*
                }
            }

            /// Build the `kind` event by taking each of its fields out of
            /// `fields`; whatever is left over is the caller's to reject.
            fn take_fields(kind: &str, fields: &mut Vec<(String, Json)>) -> Result<Event, String> {
                Ok(match kind {
                    $(
                        $kind => Event::$variant {
                            $( $field: take(fields, stringify!($field))?, )*
                        },
                    )*
                    other => return Err(format!("unknown event kind {other:?}")),
                })
            }
        }
    };
}

journal_schema! {
    /// One journal line. See DESIGN.md §7.4 for units and emission points.
    ///
    /// All durations are integer microseconds; all byte counts are bytes.
    /// `round` is 0 for work before the first communication round (the
    /// untrained round-0 evaluation).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Event {
        /// First line of every journal: schema version, a free-form label, and
        /// the process-wide compute configuration (resolved GEMM kernel arm and
        /// eval precision), so every downstream number is attributable to a
        /// kernel.
        RunStart = "run_start" {
            /// The writer's [`SCHEMA_VERSION`].
            schema: u64,
            /// Free-form run label chosen at install time.
            label: String,
            /// Resolved GEMM kernel arm (`scalar` / `avx2_fma` / `avx512`).
            kernel: String,
            /// Compute precision (`f32`, the only one there is).
            precision: String,
        },
        /// Accumulated time inside one round phase (a [`crate::PhaseId`]).
        /// `calls` counts span activations — two-stage algorithms like
        /// FedMD enter local training twice per round.
        Phase = "phase" {
            /// Communication round the phase ran in.
            round: u64,
            /// Phase name (one of [`crate::PhaseId`]'s strings).
            phase: String,
            /// Number of span activations folded into this event.
            calls: u64,
            /// Total time inside the phase, microseconds.
            total_us: u64,
        },
        /// Accumulated time/work of one instrumented operation over a round.
        /// Op timers run inside data-parallel regions, so `total_us` sums
        /// *per-thread* time and can exceed the round's wall clock.
        Op = "op" {
            /// Communication round the work happened in.
            round: u64,
            /// Operation name (one of [`crate::OpId`]'s strings).
            op: String,
            /// Number of timed invocations.
            calls: u64,
            /// Total time across invocations (summed over threads), µs.
            total_us: u64,
            /// Floating-point operations attributed to this op (0 when the op
            /// does not count flops).
            flops: u64,
            /// Bytes moved/produced by this op (0 when the op does not count
            /// bytes — no op does today; the key is kept for the schema).
            bytes: u64,
        },
        /// Fleet-wide workspace allocator counters at an evaluation point
        /// (cumulative since run start; see `fca_tensor::WorkspaceStats`).
        Workspace = "workspace" {
            /// Round of the evaluation point.
            round: u64,
            /// Number of client workspaces aggregated.
            clients: u64,
            /// Total hand-outs that touched the heap allocator.
            allocations: u64,
            /// Total hand-outs served from already-owned capacity.
            reuses: u64,
            /// Largest single-client capacity high-water mark, bytes.
            peak_bytes: u64,
        },
        /// Resident-pool and paging counters at an evaluation point
        /// (cumulative since run start; see `fca_tensor::PoolStats`). Occupancy
        /// numbers (`resident`, `high_water`) depend on worker scheduling but
        /// are bounded by the fleet's residency cap; training results are not
        /// affected.
        Pool = "pool" {
            /// Round of the evaluation point.
            round: u64,
            /// Workspaces currently checked out of the pool.
            resident: u64,
            /// Most workspaces ever simultaneously checked out.
            high_water: u64,
            /// Total pool checkouts.
            checkouts: u64,
            /// Cold clients hydrated (blob/pristine → live model).
            page_ins: u64,
            /// Live clients dehydrated back to snapshot blobs.
            page_outs: u64,
            /// Total bytes of snapshot blobs written by page-outs.
            page_bytes: u64,
        },
        /// One communication round: wall time, traffic deltas, fault counts.
        Round = "round" {
            /// Communication round (1-based).
            round: u64,
            /// Wall-clock duration of the round, µs (evaluation included on
            /// eval rounds).
            dur_us: u64,
            /// Server→client bytes sent during this round, per recipient (the
            /// logical tally: Table 5's unit).
            downlink_bytes: u64,
            /// Client→server bytes sent during this round (logical).
            uplink_bytes: u64,
            /// Server→client bytes handed to transport writes this round,
            /// framing included: a broadcast counts once per connection.
            downlink_physical_bytes: u64,
            /// Client→server bytes handed to transport writes this round.
            uplink_physical_bytes: u64,
            /// Uplinks lost to dropout/stragglers this round.
            dropped: u64,
            /// Uplinks discarded as corrupt this round.
            corrupt: u64,
            /// Buffered straggler updates folded into this round's aggregate
            /// with staleness-decayed weight (0 under sync aggregation).
            stale: u64,
            /// Buffered updates discarded this round for exceeding the
            /// configured `max_staleness`.
            expired: u64,
        },
        /// The drift scenario re-sharded the fleet before this round
        /// (emitted only on rounds where the interpolation coefficient
        /// actually moved).
        Drift = "drift" {
            /// Round the re-sharded data first trains in.
            round: u64,
            /// Interpolation coefficient λ in integer permille (0..=1000).
            lambda_permille: u64,
            /// Number of clients re-sharded (the whole fleet).
            clients: u64,
        },
        /// The transport backend the round loop constructed for this run —
        /// emitted once, before the first round, so every traffic number in
        /// the journal is attributable to a wire path.
        Transport = "transport" {
            /// Backend name (`channel` / `tcp` / `unix`).
            backend: String,
            /// Number of clients the transport addresses.
            clients: u64,
        },
        /// A federation checkpoint was captured (`dir` = `save`) or restored
        /// (`dir` = `load`).
        Checkpoint = "checkpoint" {
            /// Direction: `save` or `load`.
            dir: String,
            /// The round the checkpoint resumes from (its `next_round`).
            round: u64,
            /// Encoded checkpoint size in bytes.
            bytes: u64,
            /// Number of client entries the checkpoint carries.
            clients: u64,
        },
        /// Last line of every journal, written when the guard drops.
        RunEnd = "run_end" {
            /// Number of `round` events the journal carries.
            rounds: u64,
            /// Wall time from install to guard drop, µs.
            wall_us: u64,
        },
    }
}

impl Event {
    /// Encode as one JSON object (no trailing newline), suitable for a
    /// JSONL journal line: `ev` first, then [`Event::fields`] in order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ev\":");
        push_json_string(&mut s, self.kind());
        for (name, value) in self.fields() {
            let _ = write!(s, ",\"{name}\":");
            match value {
                Value::Num(n) => {
                    let _ = write!(s, "{n}");
                }
                Value::Str(v) => push_json_string(&mut s, v),
            }
        }
        s.push('}');
        s
    }

    /// Strictly parse one journal line.
    ///
    /// Rejects unknown event kinds, missing fields, *extra* fields, nested
    /// values, and malformed JSON — `--check` mode of `trace_report` leans
    /// on this strictness, and the round-trip property test pins it.
    pub fn parse(line: &str) -> Result<Event, String> {
        let mut fields = parse_flat_object(line)?;
        let ev: String = take(&mut fields, "ev")?;
        let event = Event::take_fields(&ev, &mut fields)?;
        if let Some((k, _)) = fields.first() {
            return Err(format!("unexpected field {k:?} on {ev:?} event"));
        }
        Ok(event)
    }
}

/// Append `v` to `out` as a JSON string literal with escaping.
fn push_json_string(out: &mut String, v: &str) {
    out.push('"');
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed flat JSON value: journals only carry strings and unsigned
/// integers.
enum Json {
    Str(String),
    Num(u64),
}

/// Parse a single-level JSON object of string/u64 values. Nested arrays or
/// objects, floats, booleans, and trailing content are errors.
fn parse_flat_object(s: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field {key:?}"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = match p.peek() {
                Some(b'"') => Json::Str(p.string()?),
                Some(c) if c.is_ascii_digit() => Json::Num(p.number()?),
                Some(c) => return Err(format!("unsupported value starting with {:?}", c as char)),
                None => return Err("truncated object".into()),
            };
            fields.push((key, value));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.i += 1,
                Some(b'}') => {
                    p.i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }
    p.skip_ws();
    if p.i != p.b.len() {
        return Err("trailing content after object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Track a pending multi-byte char by decoding from the raw str.
        let s = std::str::from_utf8(&self.b[self.i..]).map_err(|_| "invalid utf-8".to_string())?;
        let mut chars = s.char_indices();
        while let Some((off, ch)) = chars.next() {
            match ch {
                '"' => {
                    self.i += off + 1;
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or("truncated escape")?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                                code = code * 16
                                    + h.to_digit(16).ok_or_else(|| {
                                        format!("bad hex digit {h:?} in \\u escape")
                                    })?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unsupported escape \\{other}")),
                    }
                }
                c if (c as u32) < 0x20 => return Err("unescaped control char".into()),
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err("only unsigned integers are allowed".into());
        }
        std::str::from_utf8(&self.b[start..self.i])
            .expect("digits are ascii")
            .parse::<u64>()
            .map_err(|e| format!("bad integer: {e}"))
    }
}

/// Remove `key` from `fields` and convert it to the field's type.
fn take<T: Field>(fields: &mut Vec<(String, Json)>, key: &str) -> Result<T, String> {
    let pos = fields
        .iter()
        .position(|(k, _)| k == key)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    T::from_json(fields.remove(pos).1, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative of every variant — extend when the schema grows.
    fn samples() -> Vec<Event> {
        vec![
            Event::RunStart {
                schema: SCHEMA_VERSION,
                label: "quickstart".into(),
                kernel: "avx2_fma".into(),
                precision: "f32".into(),
            },
            Event::Phase {
                round: 3,
                phase: "broadcast".into(),
                calls: 1,
                total_us: 412,
            },
            Event::Op {
                round: 3,
                op: "gemm_kernel".into(),
                calls: 1024,
                total_us: 88_210,
                flops: 3_221_225_472,
                bytes: 0,
            },
            Event::Op {
                round: 3,
                op: "gemm_pack".into(),
                calls: 64,
                total_us: 1_800,
                flops: 0,
                bytes: 8_388_608,
            },
            Event::Workspace {
                round: 3,
                clients: 8,
                allocations: 0,
                reuses: 65_536,
                peak_bytes: 4_194_304,
            },
            Event::Pool {
                round: 3,
                resident: 0,
                high_water: 16,
                checkouts: 320,
                page_ins: 320,
                page_outs: 320,
                page_bytes: 52_428_800,
            },
            Event::Round {
                round: 3,
                dur_us: 1_500_000,
                downlink_bytes: 1120,
                uplink_bytes: 1120,
                downlink_physical_bytes: 160,
                uplink_physical_bytes: 1176,
                dropped: 1,
                corrupt: 0,
                stale: 2,
                expired: 1,
            },
            Event::Drift {
                round: 5,
                lambda_permille: 250,
                clients: 20,
            },
            Event::Transport {
                backend: "unix".into(),
                clients: 20,
            },
            Event::Checkpoint {
                dir: "save".into(),
                round: 8,
                bytes: 1_048_576,
                clients: 20,
            },
            Event::RunEnd {
                rounds: 12,
                wall_us: 18_000_000,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in samples() {
            let line = ev.to_json();
            let back = Event::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "round trip changed {line}");
        }
    }

    #[test]
    fn labels_with_specials_round_trip() {
        for label in [
            "quote \" backslash \\ tab \t newline \n",
            "unicode λ→∞ ok",
            "",
            "\u{1}\u{1f}",
        ] {
            let ev = Event::RunStart {
                schema: 1,
                label: label.into(),
                kernel: "scalar".into(),
                precision: "f32".into(),
            };
            assert_eq!(Event::parse(&ev.to_json()), Ok(ev));
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"ev":"phase"}"#,             // missing fields
            r#"{"ev":"mystery","round":1}"#, // unknown kind
            r#"{"ev":"run_end","rounds":1,"wall_us":2,"extra":3}"#, // extra field
            r#"{"ev":"run_end","rounds":-1,"wall_us":2}"#, // negative
            r#"{"ev":"run_end","rounds":1.5,"wall_us":2}"#, // float
            r#"{"ev":"run_end","rounds":"1","wall_us":2}"#, // wrong type
            r#"{"ev":"run_end","rounds":1,"rounds":1,"wall_us":2}"#, // duplicate
            r#"{"ev":"run_end","rounds":1,"wall_us":2} trailing"#,
            r#"{"ev":"run_end","rounds":{},"wall_us":2}"#, // nested
        ] {
            assert!(Event::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn journals_from_other_schema_versions_are_detectable() {
        let ev = Event::parse(
            r#"{"ev":"run_start","schema":999,"label":"x","kernel":"scalar","precision":"f32"}"#,
        )
        .expect("parses");
        let Event::RunStart { schema, .. } = ev else {
            panic!("wrong variant")
        };
        assert_ne!(schema, SCHEMA_VERSION);
    }
}
