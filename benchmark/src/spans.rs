//! The traced run's own spans: name, start, end, parent and rep id, kept in
//! memory and written out when the run ends. They wrap the benchmark's
//! calls into each layer; spans inside the program are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
    rep: u32,
}

/// An in-memory span log with a stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Spans recorded from now on carry this rep id.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Time `work` as a child of whatever span is open; returns its result
    /// and its duration in seconds.
    pub fn time<R>(&mut self, name: &str, work: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let started = Instant::now();
        let out = work(self);
        let secs = started.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        (out, secs)
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        let us: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum();
        us as f64 / 1e6
    }

    /// A span's self time: its duration minus what its children cover.
    /// Summed over every span called `name`, in seconds.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut total = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| c.end_us - c.start_us)
                    .sum();
                total += (s.end_us - s.start_us).saturating_sub(children);
            }
        }
        total as f64 / 1e6
    }

    /// One JSON object per line: `{"id","name","start_us","end_us","parent","rep"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"rep\":{}}}",
                serde_json::Value::from(s.name.as_str()),
                s.start_us,
                s.end_us,
                s.rep
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut spans = Spans::new();
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        let outer = spans.spans[0].end_us - spans.spans[0].start_us;
        assert!(outer >= 20_000);
        assert!(spans.self_time("outer") < 0.015, "self time kept the child");
        assert!(spans.self_time("inner") >= 0.020);
    }
}
