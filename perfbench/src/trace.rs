//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, the span that caused it and the job
//! it belongs to. Spans are kept in memory and written out as JSON lines
//! when the run ends. A span's self time is its duration minus the time
//! its child spans cover; the per-layer busy times are sums of self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `sim.narrow.stuck`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created (`NaN` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job this span belongs to.
    pub job: u64,
}

/// Span recorder for one traced run (single-threaded, properly nested).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) {
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced enter/exit is a bug in
    /// the benchmark).
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, job);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *out.entry(span.name).or_default() += (span.end - span.start) - children;
        }
        out
    }

    /// Number of spans per name.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name).or_default() += 1;
        }
        out
    }

    /// Durations (seconds) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
                json::quote(span.name),
                json::number(span.start),
                json::number(span.end),
                span.job,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.enter("job", 1);
        t.leaf("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.leaf("b", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times();
        let total = spans[0].end - spans[0].start;
        let sum: f64 = selfs.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the root");
        assert!(selfs["a"] >= 0.02 && selfs["b"] >= 0.01);
        assert!(selfs["job"] < selfs["b"]);
        assert_eq!(t.counts()["a"], 1);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
