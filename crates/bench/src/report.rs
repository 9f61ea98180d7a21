//! Report rendering: paper-vs-measured tables, paired verdicts on the
//! paper's orderings, and JSON artifacts.

use crate::experiments::{reproduce, ExperimentContext, Method, Reproduction, Setting, Table};
use fca_data::partition::Partitioner;
use fca_metrics::eval::curve_sparkline;
use fca_tensor::rng::derived_rng;
use fedclassavg::sim::{RoundMetrics, RunResult};
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// A JSON object from `(key, value)` pairs.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An `f32` as the JSON number its shortest decimal form names (`0.7125`,
/// not the `0.7124999761581421` that widening to `f64` would print).
pub fn num(v: f32) -> Value {
    Value::from(v.to_string().parse::<f64>().unwrap_or(f64::NAN))
}

/// Numeric member `key` of a record built by [`object`] (NaN when absent).
pub fn field(record: &Value, key: &str) -> f64 {
    record[key].as_f64().unwrap_or(f64::NAN)
}

/// An accuracy curve as `[epochs, mean_acc, std_acc]` triples.
pub fn curve_points(curve: &[RoundMetrics]) -> Value {
    Value::Array(
        curve
            .iter()
            .map(|p| Value::Array(vec![p.epochs.into(), num(p.mean_acc), num(p.std_acc)]))
            .collect(),
    )
}

/// Per-seed outcomes of a paired comparison. A tie (equal mean accuracy)
/// counts for neither side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WinCount {
    /// Seeds the better-claimed method won.
    pub wins: usize,
    /// Seeds with equal means.
    pub ties: usize,
    /// Seeds it lost.
    pub losses: usize,
}

impl WinCount {
    /// Count the signs of per-seed mean differences.
    pub fn of(diffs: &[f64]) -> WinCount {
        let mut c = WinCount::default();
        for d in diffs {
            match d.partial_cmp(&0.0) {
                Some(std::cmp::Ordering::Greater) => c.wins += 1,
                Some(std::cmp::Ordering::Less) => c.losses += 1,
                _ => c.ties += 1,
            }
        }
        c
    }
}

/// Bootstrap resamples behind [`bootstrap_ci`].
const BOOTSTRAP_DRAWS: usize = 2000;

/// Seeded two-level bootstrap 95 % interval of the mean of `diffs[seed][client]`:
/// each draw resamples the seeds, then the clients within each drawn seed.
pub fn bootstrap_ci(diffs: &[Vec<f64>], seed: u64) -> (f64, f64) {
    let mut rng = derived_rng(seed, 0xB007);
    let mut means: Vec<f64> = (0..BOOTSTRAP_DRAWS)
        .map(|_| {
            let (mut sum, mut n) = (0.0, 0);
            for _ in 0..diffs.len() {
                let clients = &diffs[rng.index(diffs.len())];
                for _ in 0..clients.len() {
                    sum += clients[rng.index(clients.len())];
                }
                n += clients.len();
            }
            sum / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    let tail = BOOTSTRAP_DRAWS / 40;
    (means[tail], means[BOOTSTRAP_DRAWS - 1 - tail])
}

/// The evidence on one ordering in one setting.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// The row the paper puts ahead.
    pub better: Method,
    /// The row it beats.
    pub worse: Method,
    /// Index into the table's settings.
    pub setting: usize,
    /// Per-seed wins, ties and losses of `better` over `worse`.
    pub count: WinCount,
    /// Mean paired per-client difference, `better − worse`.
    pub mean: f64,
    /// Its bootstrap 95 % interval.
    pub ci: (f64, f64),
}

impl Verdict {
    /// The claim is reproduced when the whole interval lies above 0.
    pub fn reproduced(&self) -> bool {
        self.ci.0 > 0.0
    }
}

/// Per-client accuracy differences `a − b` of two runs on one fleet.
fn paired(a: &RunResult, b: &RunResult) -> Vec<f64> {
    assert_eq!(
        a.per_client_acc.len(),
        b.per_client_acc.len(),
        "unpaired runs"
    );
    a.per_client_acc
        .iter()
        .zip(&b.per_client_acc)
        .map(|(a, b)| f64::from(*a) - f64::from(*b))
        .collect()
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len() as f64;
    xs.sum::<f64>() / n
}

/// Mean over seeds of each run's mean accuracy and of its across-client std.
fn seed_means(runs: &[RunResult]) -> (f64, f64) {
    (
        mean(runs.iter().map(|r| f64::from(r.final_mean))),
        mean(runs.iter().map(|r| f64::from(r.final_std))),
    )
}

/// The paper figure plotting a setting's curves: 4–5 the heterogeneous
/// Dir/Skewed columns, 6–7 the homogeneous full/sampled participation ones.
fn figure(s: &Setting) -> u8 {
    let second = matches!(s.partitioner, Partitioner::Skewed { .. }) || s.sample_rate < 1.0;
    let first = if s.homogeneous { 6 } else { 4 };
    first + u8::from(second)
}

impl Reproduction<'_> {
    fn row(&self, method: Method) -> usize {
        self.table
            .row(method)
            .expect("a table's orderings and curves name its rows")
    }

    /// One verdict per setting × ordering.
    pub fn verdicts(&self) -> Vec<Verdict> {
        let mut out = Vec::new();
        for (si, &setting) in self.settings.iter().enumerate() {
            for &(better, worse) in self.table.orderings {
                let diffs: Vec<Vec<f64>> = self.runs[si][self.row(better)]
                    .iter()
                    .zip(&self.runs[si][self.row(worse)])
                    .map(|(b, w)| paired(b, w))
                    .collect();
                let per_seed: Vec<f64> = diffs.iter().map(|d| mean(d.iter().copied())).collect();
                out.push(Verdict {
                    better,
                    worse,
                    setting,
                    count: WinCount::of(&per_seed),
                    mean: mean(per_seed.iter().copied()),
                    ci: bootstrap_ci(&diffs, self.seeds[0]),
                });
            }
        }
        out
    }

    /// The first seed's runs of the table's curve methods, by figure.
    fn curve_runs(&self) -> Vec<(u8, &Setting, Method, &RunResult)> {
        let Some((_, methods)) = self.table.curves else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (si, &s) in self.settings.iter().enumerate() {
            let setting = &self.table.settings[s];
            for &m in methods {
                out.push((figure(setting), setting, m, &self.runs[si][self.row(m)][0]));
            }
        }
        out.sort_by_key(|&(fig, ..)| fig);
        out
    }

    /// The table as written to `results/<table.file>.json`.
    pub fn to_value(&self) -> Value {
        let mut rows = Vec::new();
        for (si, &s) in self.settings.iter().enumerate() {
            for ((method, paper), runs) in self.table.rows.iter().zip(&self.runs[si]) {
                let per_seed = runs
                    .iter()
                    .map(|r| Value::Array(vec![num(r.final_mean), num(r.final_std)]))
                    .collect();
                let (measured, measured_std) = seed_means(runs);
                rows.push(object([
                    ("method", method.name().into()),
                    ("setting", self.table.settings[s].name().into()),
                    ("paper", paper[s].into()),
                    ("measured", measured.into()),
                    ("measured_std", measured_std.into()),
                    ("per_seed", Value::Array(per_seed)),
                ]));
            }
        }
        let orderings = self
            .verdicts()
            .iter()
            .map(|v| {
                object([
                    ("better", v.better.name().into()),
                    ("worse", v.worse.name().into()),
                    ("setting", self.table.settings[v.setting].name().into()),
                    ("wins", v.count.wins.into()),
                    ("ties", v.count.ties.into()),
                    ("losses", v.count.losses.into()),
                    ("mean_diff", v.mean.into()),
                    ("ci_low", v.ci.0.into()),
                    ("ci_high", v.ci.1.into()),
                    ("reproduced", v.reproduced().into()),
                ])
            })
            .collect();
        object([
            ("seeds", self.seeds.clone().into()),
            ("rows", Value::Array(rows)),
            ("orderings", Value::Array(orderings)),
        ])
    }

    /// The first seed's learning curves, as written to the table's curve
    /// file: one record per figure × setting × method.
    pub fn curves_value(&self) -> Value {
        let records = self
            .curve_runs()
            .into_iter()
            .map(|(fig, setting, method, run)| {
                let column = match setting.clients {
                    Some(n) => ("clients", n.into()),
                    None => ("distribution", setting.distribution().into()),
                };
                object([
                    ("figure", fig.into()),
                    ("dataset", setting.dataset.name().into()),
                    column,
                    ("method", method.name().into()),
                    ("points", curve_points(&run.curve)),
                ])
            });
        Value::Array(records.collect())
    }
}

/// The table, the verdict on each ordering, and the curves' sparklines.
pub fn render(rep: &Reproduction) -> String {
    let table = rep.table;
    let mut out = String::new();
    let (first, last) = (rep.seeds[0], rep.seeds[rep.seeds.len() - 1]);
    let _ = writeln!(out, "== {} (seeds {first}–{last}) ==", table.title);
    let _ = writeln!(
        out,
        "{:<26} {:<25} {:>7} {:>9} {:>7}  per seed",
        "method", "setting", "paper", "measured", "±"
    );
    for (si, &s) in rep.settings.iter().enumerate() {
        for ((method, paper), runs) in table.rows.iter().zip(&rep.runs[si]) {
            let per_seed: Vec<String> = runs
                .iter()
                .map(|r| format!("{:.4}", r.final_mean))
                .collect();
            let (measured, measured_std) = seed_means(runs);
            let _ = writeln!(
                out,
                "{:<26} {:<25} {:>7.4} {:>9.4} {:>7.4}  {}",
                method.name(),
                table.settings[s].name(),
                paper[s],
                measured,
                measured_std,
                per_seed.join(" ")
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{:<38} {:<25} {:>6} {:>9}  {:<20} verdict",
        "ordering (paired, seeds × clients)", "setting", "W-T-L", "mean diff", "95 % CI"
    );
    for v in rep.verdicts() {
        let claim = format!("{} > {}", v.better.name(), v.worse.name());
        let _ = writeln!(
            out,
            "{claim:<38} {:<25} {:>6} {:>+9.4}  [{:+.4}, {:+.4}]   {}",
            table.settings[v.setting].name(),
            format!("{}-{}-{}", v.count.wins, v.count.ties, v.count.losses),
            v.mean,
            v.ci.0,
            v.ci.1,
            if v.reproduced() {
                "reproduced"
            } else {
                "not reproduced"
            }
        );
    }
    let curves = rep.curve_runs();
    if !curves.is_empty() {
        let _ = writeln!(out, "\nlearning curves, seed {first} (x = local epochs):");
    }
    for (fig, setting, method, run) in curves {
        let _ = writeln!(
            out,
            "Figure {fig}  {:<25} {:<26} {}",
            setting.name(),
            method.name(),
            curve_sparkline(&run.curve)
        );
    }
    out
}

/// A table binary's `main`: run the declaration at the command line's
/// scale, print it, and — unless a `--setting` filter narrowed it — write
/// its results and curve files.
pub fn reproduce_main(table: &Table) -> ExitCode {
    let ctx = ExperimentContext::from_env();
    let rep = match reproduce(&ctx, table) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", render(&rep));
    if ctx.filter.is_some() {
        println!("filtered run: results/ left untouched");
        return ExitCode::SUCCESS;
    }
    let mut files = vec![(table.file, rep.to_value())];
    if let Some((file, _)) = table.curves {
        files.push((file, rep.curves_value()));
    }
    for (name, value) in files {
        match write_json(name, &value) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                eprintln!("could not write results/{name}.json: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Write a result as pretty-printed JSON under `results/`.
pub fn write_json(name: &str, value: &Value) -> std::io::Result<std::path::PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("a Value always prints");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> std::path::PathBuf {
    // The binaries run from the workspace root via `cargo run`; walk up
    // from the crate dir when invoked from elsewhere.
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    for candidate in [cwd.clone(), cwd.join(".."), cwd.join("../..")] {
        if candidate.join("Cargo.toml").exists() && candidate.join("crates").is_dir() {
            return candidate.join("results");
        }
    }
    Path::new("results").to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_count_for_neither_side() {
        let c = WinCount::of(&[0.1, 0.0, -0.2, 0.3, 0.0]);
        assert_eq!(
            c,
            WinCount {
                wins: 2,
                ties: 2,
                losses: 1
            }
        );
    }

    #[test]
    fn bootstrap_ci_is_seeded_and_separates_a_shift_from_noise() {
        // Three seeds × eight clients of symmetric, zero-mean noise.
        let noise: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                (0..8)
                    .map(|k| (if k % 2 == 0 { 1.0 } else { -1.0 }) * 0.02 * (1 + k / 2 + s) as f64)
                    .collect()
            })
            .collect();
        let shifted: Vec<Vec<f64>> = noise
            .iter()
            .map(|d| d.iter().map(|x| x + 0.1).collect())
            .collect();

        let (lo, hi) = bootstrap_ci(&noise, 5);
        assert!(
            lo < 0.0 && 0.0 < hi,
            "zero-mean noise excluded 0: [{lo}, {hi}]"
        );
        let (lo, hi) = bootstrap_ci(&shifted, 5);
        assert!(0.0 < lo && lo < 0.1 && 0.1 < hi, "+0.1 shift: [{lo}, {hi}]");
        assert_eq!(bootstrap_ci(&shifted, 5), (lo, hi));
        assert_ne!(bootstrap_ci(&noise, 6), bootstrap_ci(&noise, 5));
    }

    #[test]
    fn figures_follow_the_paper_numbering() {
        use crate::tables::{TABLE2, TABLE3};
        let figs = |t: &Table| t.settings.iter().map(figure).collect::<Vec<_>>();
        assert_eq!(figs(&TABLE2), [4, 5, 4, 5, 4, 5]);
        assert_eq!(figs(&TABLE3), [6, 7, 6, 7, 6, 7]);
    }

    #[test]
    fn json_artifact_written() {
        let value = object([("method", "Proposed".into()), ("measured", num(0.7125))]);
        let path = write_json("test_artifact", &value).expect("write");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(path).ok();
        let parsed = serde_json::from_str::<Value>(&body).expect("the artifact is JSON");
        assert_eq!(parsed["method"].as_str(), Some("Proposed"));
        assert_eq!(field(&parsed, "measured"), 0.7125);
        assert!(field(&parsed, "missing").is_nan());
        assert_eq!(
            serde_json::to_string(&num(0.7125)).expect("prints"),
            "0.7125"
        );
    }
}
