//! The metrics subsystem: a registry of named counters, gauges, and
//! log-scale histograms, plus a bounded per-cycle snapshot ring so a run
//! yields *curves*, not just totals.
//!
//! Design mirrors [`crate::trace`]'s discipline exactly:
//!
//! - [`Metrics`] is a cheap cloneable handle. Disabled (the default), it
//!   holds no registry and [`Metrics::with`] returns before running its
//!   closure — the hot path is one branch, no locking, no allocation.
//! - Enabled, the handle shares one [`MetricsRegistry`] behind an
//!   `Arc<Mutex<..>>` so the engine, the CLI, and tests all observe the
//!   same registry (lock poisoning is absorbed, as for trace sinks).
//! - Registry updates are allocation-free: counters and gauges are a
//!   single `u64` slot, histograms a fixed array of power-of-two buckets.
//!
//! Counters that have an existing single source of truth (`RunStats`,
//! `MatchStats`, `SoiStats`) are *sampled* into the registry at snapshot
//! time rather than incremented independently — the same single-sourcing
//! rule that keeps `SoiStats` and `MatchStats` from drifting. A registry
//! counter therefore cannot disagree with the stats it mirrors.
//!
//! Rendering is dependency-free: [`MetricsRegistry::render_prometheus`]
//! emits the Prometheus text exposition format (`# HELP`/`# TYPE` lines,
//! labels, cumulative histogram buckets), and each snapshot is one
//! hand-rolled JSON object suitable for a JSONL stream.

use crate::hash::FxHashMap;
use crate::push_json_string;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as IoWrite};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` holds observations `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 holds `v = 0`). At nanosecond scale the
/// top finite bucket covers ~9 minutes; anything larger lands in `+Inf`.
pub const HIST_BUCKETS: usize = 40;

/// Default snapshot-ring capacity (snapshots kept in memory; the JSONL
/// stream, when installed, still receives every snapshot).
pub const DEFAULT_SNAPSHOT_CAPACITY: usize = 4096;

/// Handle to one registered metric. Obtained from the registration
/// methods; passing it to `add`/`set`/`observe` is O(1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricId(u32);

/// What kind of series a metric is (drives the `# TYPE` line and the
/// snapshot/exposition rendering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing count. By convention families end in
    /// `_total`. Counters sampled from an external single source are
    /// written with [`MetricsRegistry::set`]; monotonicity is inherited
    /// from the source.
    Counter,
    /// Point-in-time value that may go up or down (sizes, bytes).
    Gauge,
    /// Log-scale distribution of `u64` observations (nanoseconds, sizes).
    Histogram,
}

impl MetricKind {
    fn type_label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Fixed-bucket histogram state (log₂ buckets, see [`HIST_BUCKETS`]).
#[derive(Clone, Debug)]
struct HistData {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl HistData {
    fn new() -> HistData {
        HistData {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    fn observe(&mut self, v: u64) {
        let bits = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bits.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }
}

struct Metric {
    family: &'static str,
    help: &'static str,
    kind: MetricKind,
    /// Optional single `name="value"` label pair.
    label: Option<(&'static str, &'static str)>,
    /// Flat key used in JSON snapshots: `family` or `family.labelvalue`.
    key: String,
    value: u64,
    hist: Option<Box<HistData>>,
}

impl Metric {
    /// `family{name="value"}` (or just `family`), for exposition lines.
    fn series(&self, family_suffix: &str) -> String {
        match self.label {
            Some((n, v)) => format!("{}{}{{{}=\"{}\"}}", self.family, family_suffix, n, v),
            None => format!("{}{}", self.family, family_suffix),
        }
    }
}

/// One retained per-cycle snapshot: the cycle number and the rendered
/// JSON object (one JSONL line, without the trailing newline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Recognise–act cycle the snapshot was taken at.
    pub cycle: u64,
    /// The full JSON object, e.g. `{"cycle":3,"sorete_firings_total":2,...}`.
    pub json: String,
}

/// Buffered JSONL writer for metric snapshots. Mirrors
/// [`crate::trace::JsonlSink`]: I/O errors after creation are swallowed
/// (metrics must never fail a run), and the buffer is flushed on
/// [`SnapshotWriter::flush`] *and* on drop, so files are complete even
/// when the engine halts or errors out mid-run.
pub struct SnapshotWriter {
    out: BufWriter<File>,
    written: u64,
}

impl SnapshotWriter {
    /// Create (truncate) the file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<SnapshotWriter> {
        Ok(SnapshotWriter {
            out: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Snapshot lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    fn write_line(&mut self, line: &str) {
        if writeln!(self.out, "{}", line).is_ok() {
            self.written += 1;
        }
    }

    /// Flush buffered lines to the file.
    pub fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Byte-level memory accounting for one named region of a matcher or
/// store (alpha memories, beta tokens, γ-memories, index buckets, table
/// heaps, ...).
///
/// Methodology: **live-set accounting** — live entries × element size
/// plus their live heap payload. Allocator capacity slack, tombstoned
/// entries awaiting compaction, and container headers are excluded, so
/// the figure is a deterministic lower bound that tracks the *logical*
/// state: it grows as matches accumulate and shrinks after retracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryRegion {
    /// Region name (becomes the `region` label of the byte/entry gauges).
    pub name: &'static str,
    /// Estimated live bytes.
    pub bytes: u64,
    /// Live entry count (tokens, WMEs, rows, buckets — region-defined).
    pub entries: u64,
}

/// A set of [`MemoryRegion`]s: one point-in-time memory walk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// The regions, in the producer's preferred display order.
    pub regions: Vec<MemoryRegion>,
}

impl MemoryReport {
    /// Append a region.
    pub fn push(&mut self, name: &'static str, bytes: u64, entries: u64) {
        self.regions.push(MemoryRegion {
            name,
            bytes,
            entries,
        });
    }

    /// Sum of every region's bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Look a region up by name.
    pub fn region(&self, name: &str) -> Option<MemoryRegion> {
        self.regions.iter().copied().find(|r| r.name == name)
    }
}

/// The metric registry: definitions, current values, and the snapshot
/// ring. Usually reached through a [`Metrics`] handle.
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    by_key: FxHashMap<(&'static str, &'static str), MetricId>,
    ring: VecDeque<Snapshot>,
    capacity: usize,
    stream: Option<SnapshotWriter>,
    last_line: Option<Snapshot>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Empty registry with the default ring capacity.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            metrics: Vec::new(),
            by_key: FxHashMap::default(),
            ring: VecDeque::new(),
            capacity: DEFAULT_SNAPSHOT_CAPACITY,
            stream: None,
            last_line: None,
        }
    }

    /// Bound the snapshot ring (oldest snapshots are dropped first). A
    /// capacity of 0 keeps no snapshots in memory (streaming still works).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.ring.len() > capacity {
            self.ring.pop_front();
        }
    }

    /// Stream every future snapshot to `writer` as JSONL.
    pub fn stream_to(&mut self, writer: SnapshotWriter) {
        self.stream = Some(writer);
    }

    /// Snapshot lines written to the stream so far (0 when no stream).
    pub fn stream_written(&self) -> u64 {
        self.stream.as_ref().map_or(0, |w| w.written())
    }

    /// Flush the snapshot stream, if any.
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.stream {
            w.flush();
        }
    }

    fn register(
        &mut self,
        kind: MetricKind,
        family: &'static str,
        help: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> MetricId {
        let map_key = (family, label.map_or("", |(_, v)| v));
        if let Some(&id) = self.by_key.get(&map_key) {
            debug_assert_eq!(self.metrics[id.0 as usize].kind, kind);
            return id;
        }
        let id = MetricId(self.metrics.len() as u32);
        let key = match label {
            Some((_, v)) => format!("{}.{}", family, v),
            None => family.to_string(),
        };
        self.metrics.push(Metric {
            family,
            help,
            kind,
            label,
            key,
            value: 0,
            hist: (kind == MetricKind::Histogram).then(|| Box::new(HistData::new())),
        });
        self.by_key.insert(map_key, id);
        id
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&mut self, family: &'static str, help: &'static str) -> MetricId {
        self.register(MetricKind::Counter, family, help, None)
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&mut self, family: &'static str, help: &'static str) -> MetricId {
        self.register(MetricKind::Gauge, family, help, None)
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&mut self, family: &'static str, help: &'static str) -> MetricId {
        self.register(MetricKind::Histogram, family, help, None)
    }

    /// Register (or look up) one labeled series of a counter family.
    pub fn counter_labeled(
        &mut self,
        family: &'static str,
        help: &'static str,
        label: &'static str,
        value: &'static str,
    ) -> MetricId {
        self.register(MetricKind::Counter, family, help, Some((label, value)))
    }

    /// Register (or look up) one labeled series of a gauge family.
    pub fn gauge_labeled(
        &mut self,
        family: &'static str,
        help: &'static str,
        label: &'static str,
        value: &'static str,
    ) -> MetricId {
        self.register(MetricKind::Gauge, family, help, Some((label, value)))
    }

    /// Increment a counter.
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        self.metrics[id.0 as usize].value += delta;
    }

    /// Set a gauge — or sample a counter from its single source of truth.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: u64) {
        self.metrics[id.0 as usize].value = value;
    }

    /// Record one histogram observation. Allocation-free.
    #[inline]
    pub fn observe(&mut self, id: MetricId, value: u64) {
        if let Some(h) = &mut self.metrics[id.0 as usize].hist {
            h.observe(value);
        }
    }

    /// Current value of a counter/gauge series (`label_value` is `""` for
    /// unlabeled series). For tests and table rendering.
    pub fn value(&self, family: &str, label_value: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.family == family && m.label.map_or("", |(_, v)| v) == label_value)
            .map(|m| m.value)
    }

    /// `(count, sum)` of a histogram family.
    pub fn hist_stats(&self, family: &str) -> Option<(u64, u64)> {
        self.metrics
            .iter()
            .find(|m| m.family == family)
            .and_then(|m| m.hist.as_ref())
            .map(|h| (h.count, h.sum))
    }

    /// Take a snapshot: render the current values as one JSON object,
    /// append it to the ring (dropping the oldest past capacity) and to
    /// the stream. A snapshot identical to the previous one (same cycle,
    /// same values) is skipped, so an explicit end-of-run snapshot after
    /// a final cycle snapshot does not duplicate lines.
    pub fn snapshot(&mut self, cycle: u64) {
        let mut json = String::with_capacity(64 + self.metrics.len() * 24);
        json.push_str("{\"cycle\":");
        let _ = write!(json, "{}", cycle);
        for m in &self.metrics {
            json.push(',');
            push_json_string(&mut json, &m.key);
            json.push(':');
            match &m.hist {
                Some(h) => {
                    let _ = write!(json, "{{\"count\":{},\"sum\":{}}}", h.count, h.sum);
                }
                None => {
                    let _ = write!(json, "{}", m.value);
                }
            }
        }
        json.push('}');
        let snap = Snapshot { cycle, json };
        if self.last_line.as_ref() == Some(&snap) {
            return;
        }
        if let Some(w) = &mut self.stream {
            w.write_line(&snap.json);
        }
        self.last_line = Some(snap.clone());
        if self.capacity > 0 {
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(snap);
        }
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &Snapshot> {
        self.ring.iter()
    }

    /// Render the Prometheus text exposition format: per family one
    /// `# HELP` and `# TYPE` line, then every series; histograms as
    /// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut done: Vec<&'static str> = Vec::new();
        for m in &self.metrics {
            if done.contains(&m.family) {
                continue;
            }
            done.push(m.family);
            let _ = writeln!(out, "# HELP {} {}", m.family, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.family, m.kind.type_label());
            for s in self.metrics.iter().filter(|s| s.family == m.family) {
                match &s.hist {
                    Some(h) => {
                        // Cumulative buckets; leading/trailing all-zero
                        // spans are elided (exposition does not require
                        // exhaustive buckets), `+Inf` always equals count.
                        let mut cum = 0u64;
                        for (i, b) in h.buckets.iter().enumerate().take(HIST_BUCKETS - 1) {
                            cum += b;
                            if cum == 0 || (cum == h.count && *b == 0) {
                                continue;
                            }
                            let _ = writeln!(
                                out,
                                "{} {}",
                                s.series(&format!("_bucket{{le=\"{}\"}}", 1u64 << i)),
                                cum
                            );
                        }
                        let _ = writeln!(out, "{} {}", s.series("_bucket{le=\"+Inf\"}"), h.count);
                        let _ = writeln!(out, "{} {}", s.series("_sum"), h.sum);
                        let _ = writeln!(out, "{} {}", s.series("_count"), h.count);
                    }
                    None => {
                        let _ = writeln!(out, "{} {}", s.series(""), s.value);
                    }
                }
            }
        }
        out
    }

    /// Render a compact fixed-width table of every current value — the
    /// `metrics` REPL command and the `watch` mode display.
    pub fn render_table(&self) -> String {
        let cycle = self.last_line.as_ref().map_or(0, |s| s.cycle);
        let mut out = format!("cycle {}  (snapshots kept: {})\n", cycle, self.ring.len());
        let width = self.metrics.iter().map(|m| m.key.len()).max().unwrap_or(0);
        for m in &self.metrics {
            match &m.hist {
                Some(h) => {
                    let mean = if h.count == 0 {
                        0.0
                    } else {
                        h.sum as f64 / h.count as f64
                    };
                    let _ = writeln!(
                        out,
                        "  {:w$}  count={} mean={:.0}ns",
                        m.key,
                        h.count,
                        mean,
                        w = width
                    );
                }
                None => {
                    let _ = writeln!(out, "  {:w$}  {}", m.key, m.value, w = width);
                }
            }
        }
        out
    }
}

/// Cheap cloneable handle to an optional shared registry. The default
/// (disabled) handle makes every instrumentation site a no-op branch.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsRegistry>>>,
}

impl Metrics {
    /// The disabled handle (no registry; `with` never runs its closure).
    pub fn null() -> Metrics {
        Metrics { inner: None }
    }

    /// A fresh enabled handle with its own empty registry.
    pub fn new_registry() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Mutex::new(MetricsRegistry::new()))),
        }
    }

    /// Is a registry attached?
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `f` against the registry. Disabled: returns `None` *without
    /// constructing anything or taking a lock* — the same zero-cost
    /// discipline as `Tracer::emit`. A poisoned lock is absorbed.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut guard = inner.lock().unwrap_or_else(|e| e.into_inner());
        Some(f(&mut guard))
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Metrics({})",
            if self.enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_runs_closure() {
        let m = Metrics::null();
        let mut ran = false;
        let r = m.with(|_| {
            ran = true;
            7
        });
        assert_eq!(r, None);
        assert!(!ran, "disabled metrics must not evaluate the closure");
        assert!(!m.enabled());
    }

    #[test]
    fn counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("t_total", "a counter");
        let g = r.gauge("t_gauge", "a gauge");
        let h = r.histogram("t_nanos", "a histogram");
        r.add(c, 2);
        r.add(c, 3);
        r.set(g, 9);
        r.set(g, 4);
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            r.observe(h, v);
        }
        assert_eq!(r.value("t_total", ""), Some(5));
        assert_eq!(r.value("t_gauge", ""), Some(4));
        let (count, sum) = r.hist_stats("t_nanos").unwrap();
        assert_eq!(count, 6);
        assert_eq!(sum, u64::MAX, "sum saturates instead of overflowing");
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        assert_eq!(a, b);
        let l1 = r.gauge_labeled("mem", "m", "region", "alpha");
        let l2 = r.gauge_labeled("mem", "m", "region", "alpha");
        let l3 = r.gauge_labeled("mem", "m", "region", "beta");
        assert_eq!(l1, l2);
        assert_ne!(l1, l3);
        assert_eq!(r.value("mem", "alpha"), Some(0));
    }

    #[test]
    fn ring_is_bounded_and_deduped() {
        let mut r = MetricsRegistry::new();
        r.set_capacity(3);
        let c = r.counter("n_total", "n");
        for i in 1..=5u64 {
            r.add(c, 1);
            r.snapshot(i);
        }
        let cycles: Vec<u64> = r.snapshots().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![3, 4, 5], "oldest snapshots dropped");
        // Identical repeat snapshot is skipped...
        r.snapshot(5);
        assert_eq!(r.snapshots().count(), 3);
        // ...but a changed value at the same cycle is recorded.
        r.add(c, 1);
        r.snapshot(5);
        let last: Vec<&Snapshot> = r.snapshots().collect();
        assert_eq!(last.len(), 3);
        assert!(last[2].json.contains("\"n_total\":6"));
    }

    #[test]
    fn snapshot_json_shape() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("a_total", "a");
        let h = r.histogram("d_nanos", "d");
        r.add(c, 2);
        r.observe(h, 10);
        r.snapshot(7);
        let s = r.snapshots().next().unwrap();
        assert_eq!(s.cycle, 7);
        assert_eq!(
            s.json,
            "{\"cycle\":7,\"a_total\":2,\"d_nanos\":{\"count\":1,\"sum\":10}}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("s_firings_total", "Rule firings.");
        let a = r.gauge_labeled("s_mem_bytes", "Live bytes.", "region", "alpha");
        let b = r.gauge_labeled("s_mem_bytes", "Live bytes.", "region", "beta");
        let h = r.histogram("s_fire_nanos", "Cycle wall time.");
        r.add(c, 3);
        r.set(a, 100);
        r.set(b, 200);
        r.observe(h, 5);
        r.observe(h, 900);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP s_firings_total Rule firings.\n"));
        assert!(text.contains("# TYPE s_firings_total counter\n"));
        assert!(text.contains("s_firings_total 3\n"));
        assert!(text.contains("# TYPE s_mem_bytes gauge\n"));
        assert!(text.contains("s_mem_bytes{region=\"alpha\"} 100\n"));
        assert!(text.contains("s_mem_bytes{region=\"beta\"} 200\n"));
        assert!(text.contains("# TYPE s_fire_nanos histogram\n"));
        assert!(text.contains("s_fire_nanos_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("s_fire_nanos_sum 905\n"));
        assert!(text.contains("s_fire_nanos_count 2\n"));
        // One TYPE line per family, even with several series.
        assert_eq!(text.matches("# TYPE s_mem_bytes").count(), 1);
        // Cumulative buckets are non-decreasing and end at the count.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("s_fire_nanos_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "buckets must be cumulative: {}", text);
            prev = v;
        }
        assert_eq!(prev, 2);
    }

    #[test]
    fn writer_flushes_on_drop() {
        let dir = std::env::temp_dir().join("sorete-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        {
            let mut r = MetricsRegistry::new();
            r.stream_to(SnapshotWriter::create(&path).unwrap());
            let c = r.counter("w_total", "w");
            r.add(c, 1);
            r.snapshot(1);
            r.add(c, 1);
            r.snapshot(2);
            assert_eq!(r.stream_written(), 2);
            // No explicit flush: drop must deliver both lines.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"w_total\":2"));
    }

    #[test]
    fn memory_report_totals() {
        let mut rep = MemoryReport::default();
        rep.push("alpha", 100, 10);
        rep.push("beta", 50, 5);
        assert_eq!(rep.total_bytes(), 150);
        assert_eq!(rep.region("beta").unwrap().entries, 5);
        assert!(rep.region("gamma").is_none());
    }

    #[test]
    fn render_table_lists_every_metric() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("t_total", "t");
        let h = r.histogram("t_nanos", "t");
        r.add(c, 4);
        r.observe(h, 100);
        r.snapshot(9);
        let table = r.render_table();
        assert!(table.starts_with("cycle 9"));
        assert!(table.contains("t_total"));
        assert!(table.contains("count=1"));
    }
}
