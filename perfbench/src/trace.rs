//! In-memory span recording for the traced replay.
//!
//! Spans are opened and closed explicitly around each call into a layer.
//! Every span has a name (`<layer>.<step>`), start and end times relative
//! to one shared origin, and the index of the span that caused it. Spans
//! stay in memory until the run ends, when [`Profile`] aggregates them.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records the spans of one thread. Worker threads get their own tracer
/// sharing the parent's origin; [`Tracer::adopt`] merges them back.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends the closed spans of a worker's tracer, re-parenting its
    /// root spans under this tracer's innermost open span.
    pub fn adopt(&mut self, worker: Tracer) {
        assert!(worker.open.is_empty(), "worker tracer has open spans");
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f`, inside a span named `name` when there is a tracer.
pub fn within<R>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Profile {
    by_name: BTreeMap<&'static str, SpanTotals>,
}

impl Profile {
    pub fn of(spans: &[Span]) -> Profile {
        // Children may run in parallel (the shards of a batch), so a
        // parent's covered time is the union of its children's intervals.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, mut kids) in spans.iter().zip(children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let t = by_name.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        Profile { by_name }
    }

    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the spans named `name`, in milliseconds (0 when
    /// the workload never makes that call).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64 / 1e6
        }
    }

    /// Total self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_adopted_spans_nest() {
        let mut t = Tracer::new(Instant::now());
        let op = t.enter("op");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mut worker = Tracer::new(t.origin());
        worker.span("worker", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.adopt(worker);
        t.exit(op);
        let p = Profile::of(t.spans());
        let op = p.get("op");
        assert_eq!(op.count, 1);
        let covered = p.get("child").total_ns + p.get("worker").total_ns;
        assert_eq!(op.self_ns, op.total_ns - covered);
        assert_eq!(t.spans()[2].parent, Some(0));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            start_ns,
            end_ns,
        };
        // Two shards running side by side under one runner span.
        let spans = [
            span("runner", None, 0, 100),
            span("shard", Some(0), 10, 60),
            span("shard", Some(0), 20, 90),
            span("leaf", Some(1), 10, 30),
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.get("runner").self_ns, 100 - 80);
        assert_eq!(p.get("shard").total_ns, 50 + 70);
        assert_eq!(p.get("shard").self_ns, 30 + 70);
        assert_eq!(p.mean_ms("shard"), 60.0 / 1e6);
        assert_eq!(p.mean_ms("absent"), 0.0);
    }
}
