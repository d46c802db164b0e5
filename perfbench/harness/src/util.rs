//! Shared pieces: the seeded generator, latency samples, peak RSS, the
//! benchmark's own span recorder, and the ledger built from its spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: small, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Latency samples in nanoseconds.
#[derive(Default)]
pub struct Samples(pub Vec<u64>);

/// A latency summary: median, p99, and the sample count behind them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pct {
    pub n: usize,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

impl Pct {
    /// A p99 is only reported as sound with at least ten samples beyond it.
    pub fn p99_sound(&self) -> bool {
        self.n >= 1000
    }

    pub fn describe(&self) -> String {
        format!(
            "p50={:.1}us p95={:.1}us p99={:.1}us n={}{}",
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.n,
            if self.p99_sound() {
                ""
            } else {
                " (p99 has fewer than 10 samples beyond it)"
            }
        )
    }
}

/// `<class>_p50_us` and `<class>_p99_us` with their sample count, for the
/// report lines.
pub fn latency_items(class: &str, p: &Pct) -> String {
    format!(
        "{c}_p50_us={:.1} us, {c}_p99_us={:.1} us (n={}{})",
        p.p50_us,
        p.p99_us,
        p.n,
        if p.p99_sound() {
            ""
        } else {
            ", p99 has fewer than 10 samples beyond it"
        },
        c = class
    )
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn pct(&self) -> Pct {
        let mut v = self.0.clone();
        v.sort_unstable();
        Pct {
            n: v.len(),
            p50_us: rank(&v, 0.50) / 1e3,
            p95_us: rank(&v, 0.95) / 1e3,
            p99_us: rank(&v, 0.99) / 1e3,
        }
    }
}

/// Nearest-rank percentile of sorted data (0 for no data).
fn rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i] as f64
}

/// One measured round: calls made, its duration, and the latencies of the
/// calls timed in it.
#[derive(Default)]
pub struct Window {
    pub ops: u64,
    pub ns: u64,
    pub lat: Samples,
}

/// What a phase's rounds add up to.
pub struct Summary {
    pub ops_per_s: f64,
    pub ns_per_op: f64,
    pub lat: Pct,
}

/// Rounds run one after another: the median of their rates (so a burst of
/// host noise moves a few rounds and not the result), the mean time per
/// call, and the latencies of all their timed calls pooled.
pub fn summarize(windows: &[Window]) -> Summary {
    let (mut ops, mut ns) = (0u64, 0u64);
    let mut lat = Samples::default();
    let mut rates = Vec::with_capacity(windows.len());
    for w in windows {
        ops += w.ops;
        ns += w.ns;
        lat.extend(&w.lat);
        rates.push(w.ops as f64 / (w.ns.max(1) as f64 / 1e9));
    }
    Summary {
        ops_per_s: median(&rates),
        ns_per_op: ns as f64 / ops.max(1) as f64,
        lat: lat.pct(),
    }
}

/// Median of a small set of measurements.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{}/status", p),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ------------------------------------------------------------------ spans

const NONE: u32 = u32::MAX;

/// One closed span: a call into a layer's public function, or a parent
/// (a request or cycle) grouping such calls.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// The benchmark's span recorder. Spans stay in memory and are written out
/// when the run ends. When off, `begin`/`end` are a branch each.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Record (or stop recording) spans from here on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.stack.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        self.spans[id.0 as usize].end = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end - s.start)
                .collect(),
        )
    }

    /// For each parent span whose name starts with `parent_prefix`, the sum
    /// of its direct children called `child`.
    pub fn per_parent_sum(&self, parent_prefix: &str, child: &str) -> Samples {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name.starts_with(parent_prefix) {
                sums.entry(i as u32).or_insert(0);
            }
        }
        for s in &self.spans {
            if s.name == child {
                if let Some(v) = sums.get_mut(&s.parent) {
                    *v += s.end - s.start;
                }
            }
        }
        Samples(sums.into_values().collect())
    }
}

/// Write spans as TSV (`id parent name start_ns end_ns`), at most `cap`
/// rows per tracer, so a long run leaves a bounded file.
pub fn write_spans(path: &Path, tracers: &[&Tracer], cap: usize) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tid\tparent\tname\tstart_ns\tend_ns")?;
    for (t, tr) in tracers.iter().enumerate() {
        for (i, s) in tr.spans.iter().take(cap).enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                t, i, parent, s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}

// ----------------------------------------------------------------- ledger

/// The layer a span name belongs to: its first dotted component.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// A reconciliation of traced wall time: each layer's self time, the
/// unattributed remainder inside parent spans, and the time outside any
/// span, adding back to the total thread time of the traced phase.
pub struct Ledger {
    /// `(layer, span name, calls, self ns)`, sorted by layer then name.
    pub rows: Vec<(String, String, u64, u64)>,
    /// Self time of parent spans (`request.*`, `cycle`): time inside a
    /// request or cycle that no child call covers.
    pub unattributed_ns: u64,
    /// Total duration of the parent spans.
    pub parent_ns: u64,
    /// Thread time outside every span (the generator making inputs).
    pub outside_ns: u64,
    pub total_ns: u64,
}

impl Ledger {
    /// Build from tracers whose threads each ran for `thread_ns[i]`.
    /// Spans named with a `parent_prefix` are parents; every other span
    /// belongs to the layer named by its first dotted component.
    pub fn build(tracers: &[&Tracer], thread_ns: &[u64], parent_prefix: &str) -> Ledger {
        let mut self_ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut unattributed = 0u64;
        let mut parent_ns = 0u64;
        let mut covered = 0u64;
        for tr in tracers {
            let mut child_sum = vec![0u64; tr.spans.len()];
            for s in &tr.spans {
                if s.parent != NONE {
                    child_sum[s.parent as usize] += s.end - s.start;
                }
            }
            for (i, s) in tr.spans.iter().enumerate() {
                let dur = s.end - s.start;
                let own = dur.saturating_sub(child_sum[i]);
                if s.parent == NONE {
                    covered += dur;
                }
                if s.name.starts_with(parent_prefix) {
                    unattributed += own;
                    parent_ns += dur;
                } else {
                    let e = self_ns.entry(s.name).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += own;
                }
            }
        }
        let total: u64 = thread_ns.iter().sum();
        let mut rows: Vec<(String, String, u64, u64)> = self_ns
            .into_iter()
            .map(|(name, (calls, ns))| (layer_of(name).to_string(), name.to_string(), calls, ns))
            .collect();
        rows.sort();
        Ledger {
            rows,
            unattributed_ns: unattributed,
            parent_ns,
            outside_ns: total.saturating_sub(covered),
            total_ns: total,
        }
    }

    /// Move `ns` of the row `from` into a new derived row `to` (a split
    /// measured by re-running the same stream without the outer layer).
    pub fn split(&mut self, from: &str, to_layer: &str, to_name: &str, calls: u64, ns: u64) {
        if let Some(r) = self.rows.iter_mut().find(|r| r.1 == from) {
            let moved = ns.min(r.3);
            r.3 -= moved;
            self.rows
                .push((to_layer.to_string(), to_name.to_string(), calls, moved));
            self.rows.sort();
        }
    }

    pub fn share(&self, ns: u64) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            ns as f64 / self.total_ns as f64
        }
    }

    /// Share of total for every row whose layer is `layer`.
    pub fn layer_share(&self, layer: &str) -> f64 {
        self.share(self.rows.iter().filter(|r| r.0 == layer).map(|r| r.3).sum())
    }

    /// `unattributed / parent span time` (0 without parent spans).
    pub fn unattributed_share(&self) -> f64 {
        if self.parent_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.parent_ns as f64
        }
    }

    /// Print the reconciliation table; `Err` unless the rows add back to
    /// the total.
    pub fn print(&self, workload: &str, overhead_share: f64) -> Result<(), String> {
        println!(
            "ledger {}: traced thread time {:.3} s, tracing overhead {:+.1}% (traced vs untraced time per operation)",
            workload,
            self.total_ns as f64 / 1e9,
            overhead_share * 100.0
        );
        println!(
            "  {:<8} {:<34} {:>10} {:>12} {:>8}",
            "layer", "row", "calls", "self_ms", "share"
        );
        let mut sum = 0.0;
        let mut line = |layer: &str, name: &str, calls: String, ns: u64| {
            let s = self.share(ns);
            sum += s;
            println!(
                "  {:<8} {:<34} {:>10} {:>12.3} {:>7.2}%",
                layer,
                name,
                calls,
                ns as f64 / 1e6,
                s * 100.0
            );
        };
        for (layer, name, calls, ns) in &self.rows {
            line(layer, name, calls.to_string(), *ns);
        }
        line(
            "-",
            "unattributed (inside parent spans)",
            "-".into(),
            self.unattributed_ns,
        );
        line(
            "-",
            "outside spans (input generation)",
            "-".into(),
            self.outside_ns,
        );
        let mut layers: Vec<&str> = self.rows.iter().map(|r| r.0.as_str()).collect();
        layers.dedup();
        let by_layer: Vec<String> = layers
            .iter()
            .map(|l| format!("{}={:.1}%", l, self.layer_share(l) * 100.0))
            .collect();
        println!(
            "  by layer: {}  unattributed={:.1}%  outside={:.1}%  sum={:.2}%",
            by_layer.join(" "),
            self.share(self.unattributed_ns) * 100.0,
            self.share(self.outside_ns) * 100.0,
            sum * 100.0
        );
        if (sum - 1.0).abs() < 1e-6 {
            Ok(())
        } else {
            Err(format!("shares sum to {:.6}", sum))
        }
    }
}
