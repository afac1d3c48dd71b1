//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Spans are kept in memory while a workload runs and written out once at
//! the end, as JSON lines, so writing them never lands inside a timed
//! region.

use crate::json;
use std::io::Write as _;
use std::path::PathBuf;

/// One timed interval. Spans of one request share `id`; `parent` names the
/// span that encloses this one (empty for a root).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Request or run identifier.
    pub id: u64,
    /// Layer boundary this span covers.
    pub name: &'static str,
    /// Name of the enclosing span, or `""`.
    pub parent: &'static str,
    /// Start, in seconds from the workload's reference instant.
    pub start_s: f64,
    /// End, in seconds from the workload's reference instant.
    pub end_s: f64,
}

/// An in-memory span log.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends one span.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        start_s: f64,
        end_s: f64,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start_s,
            end_s,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log to `perfbench/traces/<workload>-seed<seed>.jsonl`
    /// under the current directory and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("perfbench").join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"span\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}}}",
                s.id,
                json::string(s.name),
                json::string(s.parent),
                json::number(s.start_s),
                json::number(s.end_s)
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}
