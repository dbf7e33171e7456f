//! The benchmark's own spans, recorded around each call it makes into a
//! layer of the program.
//!
//! A span has a name, a start, an end and the span that caused it; every
//! span of one operation shares the operation's id. Spans stay in memory
//! and are written out once, when the run ends. Recording costs two clock
//! reads and one push per call, against calls of a millisecond or more,
//! so it stays on in untraced runs too and both runs time the same code.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gst_bench::json::{count, num, s, Json};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: its slot in the tracer.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span caused by `parent`. A span without a parent starts a
    /// new operation; a child joins its parent's.
    pub fn begin(&mut self, name: &'static str, parent: Option<Open>) -> Open {
        let op = match parent {
            Some(p) => self.spans[p.0].op,
            None => {
                self.ops += 1;
                self.ops - 1
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    /// Close a span; returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        Duration::from_nanos(span.dur_ns())
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(name, parent);
        let r = f();
        (r, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus what its children cover. Children
    /// of one span run one after another on the client thread, so their
    /// durations add without overlap (checked by [`Tracer::nesting_errors`]).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Spans that do not nest inside their parent, belong to another
    /// operation than their parent, or overlap an earlier sibling.
    pub fn nesting_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut last_child_end: BTreeMap<usize, u64> = BTreeMap::new();
        for (k, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.op != parent.op || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                errors.push(format!(
                    "span {k} ({}) escapes parent {p} ({})",
                    s.name, parent.name
                ));
            }
            let prev = last_child_end.insert(p, s.end_ns).unwrap_or(0);
            if s.start_ns < prev {
                errors.push(format!("span {k} ({}) overlaps an earlier sibling", s.name));
            }
        }
        errors
    }

    /// Share of the root spans named `root` that no child span covers:
    /// Σ self time / Σ duration.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let (mut gap, mut total) = (0u64, 0u64);
        for (s, self_ns) in self.spans.iter().zip(own) {
            if s.name == root && s.parent.is_none() {
                gap += self_ns;
                total += s.dur_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            gap as f64 / total as f64
        }
    }

    /// The span file: every span, plus total self time per span name.
    pub fn export(&self) -> Json {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
        }
        let spans = self
            .spans
            .iter()
            .map(|sp| {
                Json::obj(vec![
                    ("op", count(sp.op)),
                    ("name", s(sp.name)),
                    ("parent", sp.parent.map_or(Json::Null, |p| count(p as u64))),
                    ("start_ns", count(sp.start_ns)),
                    ("end_ns", count(sp.end_ns)),
                ])
            })
            .collect();
        let totals = by_name
            .into_iter()
            .map(|(name, (n, total, own))| {
                Json::obj(vec![
                    ("name", s(name)),
                    ("count", count(n)),
                    ("total_ms", num(total as f64 / 1e6)),
                    ("self_ms", num(own as f64 / 1e6)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("by_name", Json::Arr(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("op", None);
        t.time("child", Some(root), || {
            std::thread::sleep(Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(2));
        t.end(root);
        assert!(t.nesting_errors().is_empty());
        let own = t.self_ns();
        assert_eq!(own[0] + t.spans()[1].dur_ns(), t.spans()[0].dur_ns());
        let gap = t.unattributed_frac("op");
        assert!(gap > 0.0 && gap < 1.0, "{gap}");
    }

    #[test]
    fn escaping_child_is_reported() {
        let mut t = Tracer::new();
        let root = t.begin("op", None);
        t.end(root);
        let child = t.begin("child", Some(root));
        std::thread::sleep(Duration::from_millis(1));
        t.end(child);
        assert_eq!(t.nesting_errors().len(), 1);
    }
}
