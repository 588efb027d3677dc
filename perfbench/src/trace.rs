//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and the id of the view
//! (or write operation) it belongs to. Spans stay in memory while the
//! benchmark runs; [`Recorder::write_csv`] writes them out at exit. A span's
//! self time is its duration minus the time its child spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub view: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink of one thread (merge several with [`Recorder::absorb`]). A
/// disabled recorder runs the timed closures and records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`]. Returns its id
    /// (`None` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, view: u64) -> Option<usize> {
        self.open_at(name, parent, view, Instant::now())
    }

    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        view: u64,
        at: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.nanos(at);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            view,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        self.close_at(id, Instant::now());
    }

    pub fn close_at(&mut self, id: Option<usize>, at: Instant) {
        if let Some(id) = id {
            let end = self.nanos(at);
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        view: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open(name, parent, view);
        let out = f();
        self.close(id);
        out
    }

    /// Drops every span recorded so far.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Moves `other`'s spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Writes every span as one CSV line: id, name, start, end, parent, view.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,view")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{id},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.view
            )?;
        }
        out.flush()
    }
}

/// Self time of every span (duration minus the time its children cover).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "view",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                view: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                view: 1,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                view: 1,
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }
}
