//! `sorete-bench gate` — regression gate over the committed `BENCH_*.json`
//! baselines.
//!
//! The gate reads the baseline artifacts at the workspace root (or any
//! `--baseline-dir`), re-runs the suites they describe, and compares.
//! The suites, one baseline file each: `join_index` (J1 hash-join
//! indexing), `memory` (the M1 live-set curve, `BENCH_metrics.json`),
//! `overhead` (the overhead matrix of [`crate::overhead`]: WAL, spans,
//! flight recorder, supervision, trace sinks and metrics on the counting
//! loop), `parallel` (P1 critical-path speedup) and `server` (the
//! `sorete-server` load harness). The comparisons:
//!
//! - **deterministic counters** (join tests, index probes, WAL record /
//!   write / fsync counts, curve shape) must match the baseline *exactly* —
//!   any drift means the algorithm changed and the baseline must be
//!   re-recorded deliberately;
//! - **deterministic resources** (live-set bytes) are gated one-sided
//!   within `--tolerance PCT`: getting smaller always passes, growing past
//!   the tolerance fails;
//! - **timing is gated only as host-independent ratios** — the J1 indexing
//!   speedup (scan/rete micros, floor), the WAL group-commit amortisation
//!   multiple (gc1/gc8 micros, floor), the P1 critical-path speedup
//!   (floor), and the overhead matrix's permilles (absolute budget
//!   ceilings, regardless of tolerance). Absolute wall micros live in the
//!   baselines for reference but are never gated: they swing 30–50% with
//!   host load and don't transfer between machines, while a ratio's
//!   numerator and denominator are measured back-to-back in the same
//!   process and the noise cancels;
//! - every **disabled fast path** (tracer, metrics handle, spans, flight
//!   recorder) is held under the same absolute ceiling, 50‰ of a
//!   recognise–act cycle;
//! - the **server load harness** is gated on its error/timeout counters
//!   (exact, zero) and on the multi/single-session throughput multiple
//!   (floor) — absolute asserts/sec never transfer between hosts, the
//!   concurrency multiple does.
//!
//! `BENCH_profile.json` is not gated: per-node self-nanos are host timing.
//!
//! Exit codes are typed so CI can tell failure modes apart: 0 pass,
//! 2 usage error, 4 missing baseline file, 5 regression.

use crate::overhead::{self, Bound, Kind};
use crate::{run_join_index, run_memory_curve, run_parallel_match};
use sorete_core::MatcherKind;
use sorete_lang::json::{self, Json};
use std::path::Path;

/// Everything passed.
pub const EXIT_OK: i32 = 0;
/// Bad command line.
pub const EXIT_USAGE: i32 = 2;
/// A baseline file the gate expects is absent or unparseable.
pub const EXIT_MISSING: i32 = 4;
/// At least one metric regressed past tolerance.
pub const EXIT_REGRESSION: i32 = 5;

/// How a metric is compared against its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckKind {
    /// Deterministic counter: must equal the baseline exactly.
    Exact,
    /// Resource metric (time, bytes): fails when
    /// `current > baseline * (1 + tolerance)`.
    Ceiling,
    /// Claim metric (speedup): fails when
    /// `current < baseline * (1 - tolerance)`.
    Floor,
    /// Absolute bound: fails when `current > baseline`, tolerance ignored.
    AbsoluteCeiling,
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Check {
    /// Suite the metric belongs to (`join_index`, `wal`, ...).
    pub suite: &'static str,
    /// Metric label, e.g. `n=300/rete/join_tests`.
    pub metric: String,
    /// Baseline value from the committed JSON.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Comparison mode.
    pub kind: CheckKind,
    /// Did it pass?
    pub pass: bool,
}

/// Result of a full gate run.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Every metric compared, in suite order.
    pub checks: Vec<Check>,
    /// Baseline files that were absent or unparseable.
    pub missing: Vec<String>,
    /// Allowed regression of ceiling and floor checks, as a fraction.
    pub tolerance: f64,
}

impl GateOutcome {
    /// The typed process exit code: regression dominates missing baselines.
    pub fn exit_code(&self) -> i32 {
        if self.checks.iter().any(|c| !c.pass) {
            EXIT_REGRESSION
        } else if !self.missing.is_empty() {
            EXIT_MISSING
        } else {
            EXIT_OK
        }
    }

    fn push(
        &mut self,
        suite: &'static str,
        metric: String,
        kind: CheckKind,
        baseline: f64,
        current: f64,
    ) {
        let pass = match kind {
            CheckKind::Exact => (current - baseline).abs() < f64::EPSILON,
            CheckKind::Ceiling => current <= baseline * (1.0 + self.tolerance),
            CheckKind::Floor => current >= baseline * (1.0 - self.tolerance),
            CheckKind::AbsoluteCeiling => current <= baseline,
        };
        self.checks.push(Check {
            suite,
            metric,
            baseline,
            current,
            kind,
            pass,
        });
    }
}

// Timing re-runs take the best of three, not the median: a regression
// gate asks "can the build still hit the baseline", and the minimum is
// the noise-robust answer (fsync latency alone can swing a single run by
// double digits). Claim metrics symmetrically take the max.
fn best3(mut f: impl FnMut() -> f64) -> f64 {
    let mut v = [f(), f(), f()];
    v.sort_by(f64::total_cmp);
    v[0]
}

// Max-of-5 rather than 3: the critical-path speedup divides by the
// busiest lane's nanos, and one badly-scheduled lane at high job counts
// drags a single sample well below what the build can do.
fn max5(mut f: impl FnMut() -> f64) -> f64 {
    (0..5).map(|_| f()).fold(f64::MIN, f64::max)
}

fn matcher_from_label(label: &str) -> Option<MatcherKind> {
    match label {
        "rete" => Some(MatcherKind::Rete),
        "rete-scan" => Some(MatcherKind::ReteScan),
        "treat" => Some(MatcherKind::Treat),
        "naive" => Some(MatcherKind::Naive),
        _ => None,
    }
}

/// Run the whole gate against `baseline_dir` with a percentage tolerance
/// for the resource/claim metrics. Deterministic counters ignore the
/// tolerance. Each suite re-runs the workload its baseline describes, so
/// the gate's cost scales with the committed baseline, not a hardcoded
/// sweep.
pub fn run_gate(baseline_dir: &Path, tolerance_pct: u32) -> GateOutcome {
    let mut out = GateOutcome {
        tolerance: tolerance_pct as f64 / 100.0,
        ..GateOutcome::default()
    };
    let load = |name: &str, missing: &mut Vec<String>| -> Option<Json> {
        let path = baseline_dir.join(name);
        match std::fs::read_to_string(&path) {
            Ok(text) => match json::parse(&text) {
                Ok(v) => Some(v),
                Err(e) => {
                    missing.push(format!("{} (unparseable: {})", name, e));
                    None
                }
            },
            Err(_) => {
                missing.push(name.to_string());
                None
            }
        }
    };

    if let Some(base) = load("BENCH_join_index.json", &mut out.missing) {
        gate_join_index(&base, &mut out);
    }
    if let Some(base) = load("BENCH_metrics.json", &mut out.missing) {
        gate_memory(&base, &mut out);
    }
    if let Some(base) = load("BENCH_overhead.json", &mut out.missing) {
        gate_overhead(&base, &mut out);
    }
    if let Some(base) = load("BENCH_parallel.json", &mut out.missing) {
        gate_parallel(&base, &mut out);
    }
    if let Some(base) = load("BENCH_server.json", &mut out.missing) {
        gate_server(&base, &mut out);
    }
    out
}

/// Server suite: re-runs the `sorete-server bench` load harness with the
/// workload shape the baseline describes. The error and timeout counters
/// are exact (zero under the fault-free harness — a nonzero count means a
/// request path broke), and the multi/single-session throughput multiple
/// is gated as a floor — the host-independent form of the claim that
/// concurrent sessions scale instead of serialising behind a global lock.
/// Absolute asserts/sec and p95 micros live in the baseline for reference
/// but are never gated.
fn gate_server(base: &Json, out: &mut GateOutcome) {
    const SUITE: &str = "server";
    let Some(rows) = base.as_arr() else {
        out.missing
            .push("BENCH_server.json (expected an array)".into());
        return;
    };
    let row_of = |config: &str| {
        rows.iter()
            .find(|r| r.get("config").and_then(Json::as_str) == Some(config))
    };
    let (Some(b_single), Some(b_multi)) = (row_of("single_session"), row_of("multi_session"))
    else {
        out.missing
            .push("BENCH_server.json (needs single_session and multi_session rows)".into());
        return;
    };
    // The workload shape rides in the baseline, so the gate's cost tracks
    // what was committed, not a hardcoded sweep.
    let load = sorete_server::LoadConfig {
        sessions: b_multi.get("sessions").and_then(Json::as_u64).unwrap_or(8) as usize,
        batches: b_multi.get("batches").and_then(Json::as_u64).unwrap_or(40) as usize,
        facts_per_batch: b_multi
            .get("facts_per_batch")
            .and_then(Json::as_u64)
            .unwrap_or(25) as usize,
        data_dir: None,
    };
    let fresh = sorete_server::run_server_load(&load);
    let fresh_of = |config: &str| fresh.iter().find(|r| r.config == config);
    for (row, config) in [(b_single, "single_session"), (b_multi, "multi_session")] {
        let Some(f) = fresh_of(config) else { continue };
        for (metric, baseline, current) in [
            ("errors", row.get("errors"), f.errors),
            ("timeouts", row.get("timeouts"), f.timeouts),
        ] {
            if let Some(b) = baseline.and_then(Json::as_f64) {
                out.push(
                    SUITE,
                    format!("{}/{}", config, metric),
                    CheckKind::Exact,
                    b,
                    current as f64,
                );
            }
        }
    }
    let (Some(bs), Some(bm)) = (
        b_single.get("asserts_per_sec").and_then(Json::as_f64),
        b_multi.get("asserts_per_sec").and_then(Json::as_f64),
    ) else {
        return;
    };
    if bs <= 0.0 {
        return;
    }
    let (Some(fs), Some(fm)) = (fresh_of("single_session"), fresh_of("multi_session")) else {
        return;
    };
    let current = fm.asserts_per_sec as f64 / (fs.asserts_per_sec as f64).max(1.0);
    // The recorded ratio tracks the recording host's core count; gating it
    // raw would fail on any smaller machine. Cap the floor at the claim
    // itself — concurrent sessions must at least double throughput — and
    // let the committed baseline carry the full measured value.
    out.push(
        SUITE,
        "multi_over_single_throughput".into(),
        CheckKind::Floor,
        (bm / bs).min(SERVER_SCALING_FLOOR_CAP),
        current,
    );
}

/// Cap on the gated multi/single-session throughput floor: the claim is
/// "N sessions scale concurrently", not "this build matches an 8-core
/// recording host", so the floor never exceeds 2× regardless of what the
/// baseline machine measured.
pub const SERVER_SCALING_FLOOR_CAP: f64 = 2.0;

/// J1: exact join/probe counters per (n, matcher) row; where the baseline
/// holds both `rete` and `rete-scan` at the same `n`, the indexing
/// speedup (scan micros / rete micros) is gated as a floor — the
/// host-independent form of the J1 timing claim.
fn gate_join_index(base: &Json, out: &mut GateOutcome) {
    const SUITE: &str = "join_index";
    let Some(rows) = base.as_arr() else {
        out.missing
            .push("BENCH_join_index.json (expected an array)".into());
        return;
    };
    // (n, baseline rete micros, baseline scan micros) pairs for the
    // speedup gate below.
    let mut pairs: Vec<(u64, Option<f64>, Option<f64>)> = Vec::new();
    for row in rows {
        let (Some(n), Some(label)) = (
            row.get("n").and_then(Json::as_u64),
            row.get("matcher").and_then(Json::as_str),
        ) else {
            out.missing
                .push("BENCH_join_index.json (row missing n/matcher)".into());
            continue;
        };
        let Some(kind) = matcher_from_label(label) else {
            out.missing.push(format!(
                "BENCH_join_index.json (unknown matcher '{}')",
                label
            ));
            continue;
        };
        let fresh = run_join_index(kind, n as usize);
        let tag = |m: &str| format!("n={}/{}/{}", n, label, m);
        for (metric, baseline, current) in [
            ("join_tests", row.get("join_tests"), fresh.join_tests),
            ("index_probes", row.get("index_probes"), fresh.index_probes),
            (
                "index_skipped_tests",
                row.get("index_skipped_tests"),
                fresh.index_skipped_tests,
            ),
        ] {
            if let Some(b) = baseline.and_then(Json::as_f64) {
                out.push(SUITE, tag(metric), CheckKind::Exact, b, current as f64);
            }
        }
        if let Some(b) = row.get("micros").and_then(Json::as_f64) {
            let slot = match pairs.iter_mut().find(|(pn, _, _)| *pn == n) {
                Some(slot) => slot,
                None => {
                    pairs.push((n, None, None));
                    pairs.last_mut().unwrap()
                }
            };
            match kind {
                MatcherKind::Rete => slot.1 = Some(b),
                MatcherKind::ReteScan => slot.2 = Some(b),
                _ => {}
            }
        }
    }
    for (n, rete, scan) in pairs {
        let (Some(b_rete), Some(b_scan)) = (rete, scan) else {
            continue;
        };
        if b_rete <= 0.0 {
            continue;
        }
        let measure =
            |kind: MatcherKind| best3(|| run_join_index(kind, n as usize).micros as f64).max(1.0);
        let current = measure(MatcherKind::ReteScan) / measure(MatcherKind::Rete);
        out.push(
            SUITE,
            format!("n={}/index_speedup", n),
            CheckKind::Floor,
            b_scan / b_rete,
            current,
        );
    }
}

/// M1: the memory curve must keep its exact shape (same sample points)
/// with live-set bytes no more than tolerance above the baseline.
fn gate_memory(base: &Json, out: &mut GateOutcome) {
    const SUITE: &str = "memory";
    let Some(rows) = base.get("curve").and_then(Json::as_arr) else {
        out.missing
            .push("BENCH_metrics.json (no curve array)".into());
        return;
    };
    // The curve is self-describing: n is half the largest loaded WM, the
    // sample count is the number of load-phase points.
    let loads = rows
        .iter()
        .filter(|r| r.get("phase").and_then(Json::as_str) == Some("load"))
        .count();
    let max_wm = rows
        .iter()
        .filter_map(|r| r.get("wm").and_then(Json::as_u64))
        .max()
        .unwrap_or(0);
    if loads == 0 || max_wm == 0 {
        out.missing.push("BENCH_metrics.json (empty curve)".into());
        return;
    }
    let points = run_memory_curve(MatcherKind::Rete, max_wm as usize / 2, loads);
    out.push(
        SUITE,
        "curve_points".into(),
        CheckKind::Exact,
        rows.len() as f64,
        points.len() as f64,
    );
    for (row, p) in rows.iter().zip(points.iter()) {
        let wm = row.get("wm").and_then(Json::as_u64).unwrap_or(0);
        let phase = row.get("phase").and_then(Json::as_str).unwrap_or("?");
        let tag = |m: &str| format!("{}@{}/{}", phase, wm, m);
        out.push(SUITE, tag("wm"), CheckKind::Exact, wm as f64, p.wm as f64);
        for (metric, baseline, current) in [
            ("total_bytes", row.get("total_bytes"), p.total_bytes),
            ("alpha_bytes", row.get("alpha_bytes"), p.alpha_bytes),
            ("beta_bytes", row.get("beta_bytes"), p.beta_bytes),
            ("index_bytes", row.get("index_bytes"), p.index_bytes),
        ] {
            if let Some(b) = baseline.and_then(Json::as_f64) {
                out.push(SUITE, tag(metric), CheckKind::Ceiling, b, current as f64);
            }
        }
    }
}

/// P1 suite: the host-independent critical-path speedup per jobs level
/// must not fall below baseline by more than the tolerance. Wall micros
/// are *not* gated — they depend on the host's spare cores.
fn gate_parallel(base: &Json, out: &mut GateOutcome) {
    const SUITE: &str = "parallel";
    let Some(rows) = base.get("runs").and_then(Json::as_arr) else {
        out.missing
            .push("BENCH_parallel.json (no runs array)".into());
        return;
    };
    // Workload parameters ride in the baseline's workload string,
    // e.g. "P1 high-fanout (8 rules, n=120)".
    let workload = base.get("workload").and_then(Json::as_str).unwrap_or("");
    let rules = workload
        .split('(')
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(8);
    let n = workload
        .split("n=")
        .nth(1)
        .and_then(|s| s.trim_end_matches(')').parse::<usize>().ok())
        .unwrap_or(120);
    for row in rows {
        let Some(jobs) = row.get("jobs").and_then(Json::as_u64) else {
            continue;
        };
        let Some(b) = row.get("critical_path_speedup").and_then(Json::as_f64) else {
            continue;
        };
        let current = max5(|| {
            let (_, busy) = run_parallel_match(jobs as usize, rules, n);
            let total: u64 = busy.iter().sum();
            let max = busy.iter().copied().max().unwrap_or(0);
            if max > 0 {
                total as f64 / max as f64
            } else {
                1.0
            }
        });
        out.push(
            SUITE,
            format!("jobs={}/critical_path_speedup", jobs),
            CheckKind::Floor,
            b,
            current,
        );
    }
}

/// Overhead matrix ([`overhead::ROWS`]): every row the baseline names is
/// re-run and checked by its [`Bound`] — WAL record/write/fsync counts
/// exact, and permille ceilings on the committed and the freshly measured
/// overhead against the row's base (a disabled fast path counts as a
/// permille of one base cycle). The group-commit *amortisation multiple*
/// (`wal` micros over `wal_group_8` micros) is gated as a floor — the
/// host-independent form of the batching claim. Ratios against `no_wal`
/// are deliberately not gated: fsync latency varies with host state and
/// only appears in the numerator there, so it cannot cancel. Absolute
/// micros are recorded for reference but never gated.
fn gate_overhead(base: &Json, out: &mut GateOutcome) {
    let Some(rows) = base.as_arr() else {
        out.missing
            .push("BENCH_overhead.json (expected an array)".into());
        return;
    };
    // Fresh micros per timed row, measured once and shared by every check
    // that needs them.
    let mut fresh: Vec<(&str, f64)> = Vec::new();
    let mut fresh_micros = |config: &'static str| -> f64 {
        if let Some(&(_, m)) = fresh.iter().find(|(c, _)| *c == config) {
            return m;
        }
        let Some(Kind::Run(group_commit, layer)) = overhead::row(config).map(|r| r.kind) else {
            panic!("overhead row {} is not a timed run", config);
        };
        let m = best3(|| overhead::time_run(group_commit, layer).0 as f64).max(1.0);
        fresh.push((config, m));
        m
    };
    let micros_for = |config: &str| {
        let row = rows
            .iter()
            .find(|r| r.get("config").and_then(Json::as_str) == Some(config));
        row.and_then(|r| r.get("micros")).and_then(Json::as_f64)
    };
    // Measured before any ceiling row: which runs precede the fresh span
    // and flight permilles changes how often they fail (EXPERIMENTS.md,
    // "Overhead matrix").
    if let (Some(b_gc1), Some(b_gc8)) = (micros_for("wal"), micros_for("wal_group_8")) {
        if b_gc8 > 0.0 {
            let current = fresh_micros("wal") / fresh_micros("wal_group_8");
            out.push(
                "wal",
                "group_commit_amortisation".into(),
                CheckKind::Floor,
                b_gc1 / b_gc8,
                current,
            );
        }
    }
    for row in rows {
        let Some(config) = row.get("config").and_then(Json::as_str) else {
            out.missing
                .push("BENCH_overhead.json (row missing config)".into());
            continue;
        };
        let Some(spec) = overhead::row(config) else {
            out.missing
                .push(format!("BENCH_overhead.json (unknown config '{}')", config));
            continue;
        };
        let tag = |m: &str| format!("{}/{}", spec.config, m);
        let (permille, fresh) = match (spec.bound, spec.kind) {
            (Bound::Ceiling(permille), _) => (permille, true),
            (Bound::RecordedCeiling(permille), _) => (permille, false),
            (Bound::Counters, Kind::Run(group_commit, layer)) => {
                let (_, stats) = overhead::time_run(group_commit, layer);
                for (metric, current) in [
                    ("records", stats.records),
                    ("writes", stats.writes),
                    ("fsyncs", stats.fsyncs),
                ] {
                    if let Some(b) = row.get(metric).and_then(Json::as_f64) {
                        out.push(spec.suite, tag(metric), CheckKind::Exact, b, current as f64);
                    }
                }
                continue;
            }
            _ => continue,
        };
        let metric = match spec.kind {
            Kind::Run(..) => "overhead_permille",
            Kind::FastPath(..) => "permille_of_cycle",
        };
        let Some(b) = row.get(metric).and_then(Json::as_f64) else {
            continue;
        };
        out.push(
            spec.suite,
            tag(&format!("{metric}(baseline)")),
            CheckKind::AbsoluteCeiling,
            permille,
            b,
        );
        if fresh {
            let base = fresh_micros(spec.base.expect("a ceiling row names its base"));
            let current = match spec.kind {
                Kind::Run(..) => (fresh_micros(spec.config) - base).max(0.0) * 1000.0 / base,
                Kind::FastPath(probe, sites) => overhead::permille_of_cycle(probe(), sites, base),
            };
            out.push(
                spec.suite,
                tag(&format!("{metric}(fresh)")),
                CheckKind::AbsoluteCeiling,
                permille,
                current,
            );
        }
    }
}

/// Render the outcome as the gate's report table.
pub fn render_report(outcome: &GateOutcome, tolerance_pct: u32) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "bench gate — tolerance {}% on resource metrics, counters exact\n\n",
        tolerance_pct
    ));
    s.push_str(&format!(
        "{:<12} {:<34} {:>14} {:>14} {:>9} {:>6}\n",
        "suite", "metric", "baseline", "current", "kind", "pass"
    ));
    for c in &outcome.checks {
        let kind = match c.kind {
            CheckKind::Exact => "exact",
            CheckKind::Ceiling => "ceiling",
            CheckKind::Floor => "floor",
            CheckKind::AbsoluteCeiling => "abs-ceil",
        };
        s.push_str(&format!(
            "{:<12} {:<34} {:>14.2} {:>14.2} {:>9} {:>6}\n",
            c.suite,
            c.metric,
            c.baseline,
            c.current,
            kind,
            if c.pass { "ok" } else { "FAIL" }
        ));
    }
    for m in &outcome.missing {
        s.push_str(&format!("missing baseline: {}\n", m));
    }
    let failed = outcome.checks.iter().filter(|c| !c.pass).count();
    s.push_str(&format!(
        "\n{} checks, {} failed, {} baseline file(s) missing — exit {}\n",
        outcome.checks.len(),
        failed,
        outcome.missing.len(),
        outcome.exit_code()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_kinds_compare_as_documented() {
        let mut out = GateOutcome {
            tolerance: 0.25,
            ..GateOutcome::default()
        };
        out.push("t", "exact".into(), CheckKind::Exact, 10.0, 10.0);
        out.push("t", "exact-drift".into(), CheckKind::Exact, 10.0, 11.0);
        out.push("t", "ceil-ok".into(), CheckKind::Ceiling, 100.0, 124.0);
        out.push("t", "ceil-fail".into(), CheckKind::Ceiling, 100.0, 126.0);
        out.push("t", "floor-ok".into(), CheckKind::Floor, 4.0, 3.1);
        out.push("t", "floor-fail".into(), CheckKind::Floor, 4.0, 2.9);
        out.push("t", "abs-ok".into(), CheckKind::AbsoluteCeiling, 50.0, 49.0);
        out.push(
            "t",
            "abs-fail".into(),
            CheckKind::AbsoluteCeiling,
            50.0,
            51.0,
        );
        let passes: Vec<bool> = out.checks.iter().map(|c| c.pass).collect();
        assert_eq!(passes, [true, false, true, false, true, false, true, false]);
        assert_eq!(out.exit_code(), EXIT_REGRESSION);
    }

    #[test]
    fn missing_dir_reports_every_baseline() {
        let dir = std::env::temp_dir().join(format!("sorete-gate-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = run_gate(&dir, 25);
        assert_eq!(outcome.exit_code(), EXIT_MISSING);
        assert_eq!(outcome.missing.len(), 5);
        assert!(outcome.checks.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
