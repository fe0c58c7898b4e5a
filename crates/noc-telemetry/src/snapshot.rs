//! The global metric registry and point-in-time snapshots.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::counter::{Counter, MaxGauge};
use crate::events::push_json_str;
use crate::histogram::Histogram;

/// A registered metric. Metrics self-register on first recorded touch, so
/// the registry holds exactly the metrics that have seen traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Metric {
    Counter(&'static Counter),
    Gauge(&'static MaxGauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

pub(crate) fn register(metric: Metric) {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(metric);
}

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// One high-water-mark gauge in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Highest recorded value at snapshot time.
    pub value: u64,
}

/// One histogram in a [`Snapshot`], pre-digested into the quantiles the
/// serving layer reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Upper-bound estimate of the median, in nanoseconds.
    pub p50_ns: u64,
    /// Upper-bound estimate of the 95th percentile, in nanoseconds.
    pub p95_ns: u64,
    /// Exact maximum observation, in nanoseconds.
    pub max_ns: u64,
    /// `(inclusive upper bound, count)` of every non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of every touched metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All touched counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All touched gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All touched histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// `true` when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of the counter (or gauge) named `name`, if touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .or_else(|| self.gauges.iter().find(|g| g.name == name).map(|g| g.value))
    }

    /// The histogram named `name`, if touched.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as a compact single-line JSON object: counters
    /// and gauges as `"name": value`, histograms as
    /// `"name": {"count": …, "p50_ns": …, "p95_ns": …, "max_ns": …}`.
    ///
    /// This is the `metrics` block embedded in `query_server`'s one-line
    /// record; use [`Snapshot::to_json_pretty`] for the full dump with
    /// buckets.
    pub fn to_inline_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for c in &self.counters {
            sep(&mut out, &mut first);
            push_json_str(&mut out, c.name);
            let _ = write!(out, ": {}", c.value);
        }
        for g in &self.gauges {
            sep(&mut out, &mut first);
            push_json_str(&mut out, g.name);
            let _ = write!(out, ": {}", g.value);
        }
        for h in &self.histograms {
            sep(&mut out, &mut first);
            push_json_str(&mut out, h.name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}}}",
                h.count, h.p50_ns, h.p95_ns, h.max_ns
            );
        }
        out.push('}');
        out
    }

    /// Renders the snapshot as an indented JSON object (counters, gauges,
    /// and histograms with their full bucket arrays), `indent` spaces deep.
    pub fn to_json_pretty(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        let mut sections = Vec::new();
        let mut counters = String::new();
        let _ = write!(counters, "{inner}\"counters\": {{");
        let mut first = true;
        for c in self
            .counters
            .iter()
            .map(|c| (c.name, c.value))
            .chain(self.gauges.iter().map(|g| (g.name, g.value)))
        {
            sep(&mut counters, &mut first);
            push_json_str(&mut counters, c.0);
            let _ = write!(counters, ": {}", c.1);
        }
        counters.push('}');
        sections.push(counters);
        let mut hists = String::new();
        let _ = write!(hists, "{inner}\"histograms\": {{");
        let mut first = true;
        for h in &self.histograms {
            sep(&mut hists, &mut first);
            push_json_str(&mut hists, h.name);
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(upper, n)| format!("[{upper}, {n}]"))
                .collect();
            let _ = write!(
                hists,
                ": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}, \
                 \"buckets\": [{}]}}",
                h.count,
                h.p50_ns,
                h.p95_ns,
                h.max_ns,
                buckets.join(", ")
            );
        }
        hists.push('}');
        sections.push(hists);
        out.push_str(&sections.join(",\n"));
        let _ = write!(out, "\n{pad}}}");
        out
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(", ");
    }
}

/// Snapshots every metric touched so far, sorted by name within each
/// section. Untouched metrics (and all metrics, while telemetry is
/// disabled) are absent.
pub fn snapshot() -> Snapshot {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = Snapshot::default();
    for metric in registry.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push(CounterSnapshot {
                name: c.name(),
                value: c.get(),
            }),
            Metric::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                name: g.name(),
                value: g.get(),
            }),
            Metric::Histogram(h) => snap.histograms.push(HistogramSnapshot {
                name: h.name(),
                count: h.count(),
                p50_ns: h.quantile(0.5).unwrap_or(0),
                p95_ns: h.quantile(0.95).unwrap_or(0),
                max_ns: h.max_ns(),
                buckets: h.nonzero_buckets(),
            }),
        }
    }
    snap.counters.sort_by_key(|c| c.name);
    snap.gauges.sort_by_key(|g| g.name);
    snap.histograms.sort_by_key(|h| h.name);
    snap
}

/// Zeroes every registered metric and clears the event sink. Registration
/// survives (names keep appearing in snapshots with zero values); intended
/// for tests and for binaries isolating per-phase measurements.
pub fn reset_all() {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for metric in registry.iter() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
    drop(registry);
    let _ = crate::events::drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    static SNAP_A: Counter = Counter::new("test.snap.a");
    static SNAP_HIST: Histogram = Histogram::new("test.snap.hist_ns");
    static SNAP_GAUGE: MaxGauge = MaxGauge::new("test.snap.hwm");

    #[test]
    fn snapshot_reports_touched_metrics_and_renders_json() {
        let _gate = crate::test_gate();
        crate::set_enabled(true);
        SNAP_A.reset();
        SNAP_HIST.reset();
        SNAP_GAUGE.reset();
        SNAP_A.add(5);
        SNAP_GAUGE.record(17);
        SNAP_HIST.record_ns(1000);
        let snap = snapshot();
        assert_eq!(snap.counter("test.snap.a"), Some(5));
        assert_eq!(snap.counter("test.snap.hwm"), Some(17));
        let h = snap.histogram("test.snap.hist_ns").expect("touched");
        assert_eq!(h.count, 1);
        assert_eq!(h.max_ns, 1000);
        let inline = snap.to_inline_json();
        assert!(inline.contains("\"test.snap.a\": 5"));
        assert!(inline.contains("\"count\": 1"));
        let pretty = snap.to_json_pretty(2);
        assert!(pretty.contains("\"counters\""));
        assert!(pretty.contains("\"buckets\": [[1023, 1]]"));
        crate::set_enabled(false);
        SNAP_A.reset();
        SNAP_HIST.reset();
        SNAP_GAUGE.reset();
    }
}
