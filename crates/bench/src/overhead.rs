//! The overhead matrix: what each durability and instrumentation layer
//! costs on the counting loop ([`crate::COUNT_PROGRAM`]).
//!
//! [`ROWS`] is the one table of configurations. The `overhead` bench
//! times every row and writes `BENCH_overhead.json`; the bench gate
//! re-runs the rows that file names and applies each row's [`Bound`].
//! A row is either a timed run of the counting loop with one [`Layer`]
//! attached, or a *fast path*: the per-call cost of a disabled handle,
//! expressed as a permille of one recognise–act cycle of its base row.
//!
//! Overheads are ratios against a base row measured back to back in the
//! same process, so they transfer between hosts where absolute micros do
//! not. Four rows — `wal_group_8`, `disabled`, `recording` and `baseline`
//! — run the same configuration (group-commit 8, nothing else attached);
//! each is the base of its own suite and keeps its own recorded numbers.

use crate::{run_count, COUNT_FIRINGS, COUNT_PROGRAM};
use sorete_base::flight::{CycleRecord, Flight};
use sorete_base::{
    CollectSink, JsonlSink, Metrics, NullSink, SnapshotWriter, Spans, Symbol, TraceEvent, Tracer,
};
use sorete_core::{
    DegradationPolicy, MatcherKind, ProductionSystem, RecoveryPolicy, SupervisorConfig,
};
use sorete_reldb::{WalOptions, WalStats};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a timed row attaches to the engine besides its WAL.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Layer {
    /// Nothing beyond the engine's defaults (the flight recorder is on
    /// by default).
    Plain,
    /// The flight recorder off (`--flight-recorder off`).
    FlightOff,
    /// Spans recording in memory (`--span-stats`).
    Spans,
    /// Spans, then rendered to Chrome trace-event JSON and written to a
    /// temp file (`--trace-perfetto`).
    Perfetto,
    /// Panic fence, retry policy and breakers armed, zero faults.
    Supervised,
    /// [`Layer::Supervised`] plus soft and hard memory budgets: a
    /// `memory_report()` walk per firing, the worst honest case.
    SupervisedBudgets,
    /// An explicit `NullSink`: events are built, then dropped.
    TraceNull,
    /// A `CollectSink` buffering every event in memory.
    TraceCollect,
    /// A `JsonlSink` streaming every event to a temp file (`--trace-json`).
    TraceJsonl,
    /// The metrics registry sampling and snapshotting every cycle.
    MetricsOn,
    /// Every snapshot also streamed to a temp file (`--metrics-json`).
    MetricsJsonl,
}

/// What a row measures.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Wall micros of one counting-loop run with a WAL at this
    /// group-commit setting (`None`: in memory) and the layer attached.
    Run(Option<u32>, Layer),
    /// Per-call nanos of a disabled handle (the probe), charged the given
    /// number of times per cycle of the base row.
    FastPath(fn() -> f64, f64),
}

/// The gate's check for a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Timed for the record; not gated.
    Reference,
    /// WAL `records`/`writes`/`fsyncs` must equal the baseline exactly.
    Counters,
    /// The row's overhead over its base — `overhead_permille` for a run,
    /// `permille_of_cycle` for a fast path — stays at or under this many
    /// permille, both as recorded and freshly measured.
    Ceiling(f64),
    /// As [`Bound::Ceiling`], on the recorded value only.
    RecordedCeiling(f64),
}

/// One configuration of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Report grouping (`wal`, `span`, `flight`, ...).
    pub suite: &'static str,
    /// Unique row name; the `config` field of `BENCH_overhead.json`.
    pub config: &'static str,
    /// What is measured.
    pub kind: Kind,
    /// The row this one's overhead is measured against.
    pub base: Option<&'static str>,
    /// How the gate checks it.
    pub bound: Bound,
}

/// The disabled-fast-path budget: 5% of one recognise–act cycle.
pub const FASTPATH_PERMILLE_CEILING: f64 = 50.0;

const GC8: Option<u32> = Some(8);

const fn timed(
    suite: &'static str,
    config: &'static str,
    group_commit: Option<u32>,
    layer: Layer,
    base: Option<&'static str>,
    bound: Bound,
) -> Row {
    Row {
        suite,
        config,
        kind: Kind::Run(group_commit, layer),
        base,
        bound,
    }
}

const fn fast(
    suite: &'static str,
    config: &'static str,
    probe: fn() -> f64,
    sites: f64,
    base: &'static str,
) -> Row {
    Row {
        suite,
        config,
        kind: Kind::FastPath(probe, sites),
        base: Some(base),
        bound: Bound::Ceiling(FASTPATH_PERMILLE_CEILING),
    }
}

/// Every configuration, bases before the rows measured against them.
///
/// The permille ceilings are budgets, not measurements: spans measured
/// ≈73‰ and perfetto ≈228‰ against ceilings of 400‰ and 800‰, flight
/// recording ≈10‰ against 300‰. The headroom absorbs host noise while
/// still catching a structural regression (lock contention, a per-event
/// allocation). The supervised ceiling (50‰) is checked on the recorded
/// value only. Fast-path site counts: 8 for spans and flight (cycle,
/// resolve, RHS and WAL spans plus an allowance for match spans; the
/// cycle record plus logical events), 14 for the tracer (the events a
/// counting-loop cycle emits) and 8 for the metrics handle.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    timed("wal", "no_wal", None, Layer::Plain, None, Bound::Counters),
    timed("wal", "wal", Some(1), Layer::Plain, None, Bound::Counters),
    timed("wal", "wal_group_8", GC8, Layer::Plain, None, Bound::Counters),
    timed("span", "disabled", GC8, Layer::Plain, None, Bound::Reference),
    timed("span", "enabled", GC8, Layer::Spans, Some("disabled"), Bound::Ceiling(400.0)),
    timed("span", "perfetto", GC8, Layer::Perfetto, Some("disabled"), Bound::Ceiling(800.0)),
    fast("span", "disabled_fastpath", span_fastpath_nanos, 8.0, "disabled"),
    timed("flight", "off", GC8, Layer::FlightOff, None, Bound::Reference),
    timed("flight", "recording", GC8, Layer::Plain, Some("off"), Bound::Ceiling(300.0)),
    fast("flight", "off_fastpath", flight_fastpath_nanos, 8.0, "off"),
    timed("supervisor", "baseline", GC8, Layer::Plain, None, Bound::Reference),
    timed("supervisor", "supervised", GC8, Layer::Supervised, Some("baseline"),
          Bound::RecordedCeiling(50.0)),
    timed("supervisor", "supervised_budgets", GC8, Layer::SupervisedBudgets, Some("baseline"),
          Bound::Reference),
    timed("trace", "trace_null", None, Layer::TraceNull, Some("no_wal"), Bound::Reference),
    timed("trace", "trace_collect", None, Layer::TraceCollect, Some("no_wal"), Bound::Reference),
    timed("trace", "trace_jsonl", None, Layer::TraceJsonl, Some("no_wal"), Bound::Reference),
    fast("trace", "tracer_fastpath", tracer_fastpath_nanos, 14.0, "no_wal"),
    timed("metrics", "metrics_on", None, Layer::MetricsOn, Some("no_wal"), Bound::Reference),
    timed("metrics", "metrics_jsonl", None, Layer::MetricsJsonl, Some("no_wal"), Bound::Reference),
    fast("metrics", "metrics_fastpath", metrics_fastpath_nanos, 8.0, "no_wal"),
];

/// The row named `config`.
pub fn row(config: &str) -> Option<&'static Row> {
    ROWS.iter().find(|r| r.config == config)
}

fn scratch(ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sorete-overhead-{}.{}", std::process::id(), ext))
}

/// One run of the counting loop with a WAL at `group_commit` (`None`: no
/// WAL) and `layer` attached. Returns wall micros — engine construction
/// through the last flush, teardown excluded — and the WAL's counters
/// (zero without a WAL).
pub fn time_run(group_commit: Option<u32>, layer: Layer) -> (u64, WalStats) {
    let wal = scratch("wal");
    let _ = std::fs::remove_file(&wal);
    let t0 = Instant::now();
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    if layer == Layer::FlightOff {
        ps.set_flight_recorder(0);
    }
    ps.load_program(COUNT_PROGRAM).unwrap();
    match layer {
        Layer::Spans | Layer::Perfetto => ps.enable_spans(),
        Layer::TraceNull => ps.add_trace_sink(Arc::new(Mutex::new(NullSink))),
        Layer::TraceCollect => ps.add_trace_sink(Arc::new(Mutex::new(CollectSink::new()))),
        Layer::TraceJsonl => {
            let sink = JsonlSink::create(scratch("jsonl")).unwrap();
            ps.add_trace_sink(Arc::new(Mutex::new(sink)));
        }
        Layer::MetricsOn => ps.enable_metrics(),
        Layer::MetricsJsonl => {
            ps.set_metrics_stream(SnapshotWriter::create(scratch("jsonl")).unwrap())
        }
        _ => {}
    }
    if let Some(group_commit) = group_commit {
        ps.attach_wal(&wal, WalOptions { group_commit }).unwrap();
    }
    if matches!(layer, Layer::Supervised | Layer::SupervisedBudgets) {
        ps.set_recovery_policy(RecoveryPolicy::Rollback);
        let mut config = SupervisorConfig::default();
        if layer == Layer::SupervisedBudgets {
            config.degradation = DegradationPolicy {
                soft_bytes: Some(u64::MAX),
                hard_bytes: Some(u64::MAX),
                ..DegradationPolicy::default()
            };
        }
        ps.enable_supervision(config);
    }
    run_count(&mut ps);
    if layer == Layer::Perfetto {
        let json = sorete_base::render_perfetto(&ps.take_spans());
        std::fs::write(scratch("perfetto.json"), json).unwrap();
    }
    ps.flush_trace();
    let micros = t0.elapsed().as_micros() as u64;
    let stats = ps.wal_stats().unwrap_or_default();
    drop(ps);
    for ext in ["wal", "jsonl", "perfetto.json"] {
        let _ = std::fs::remove_file(scratch(ext));
    }
    (micros, stats)
}

/// A fast path's per-call nanos as a permille of one cycle of a base row
/// that took `base_micros` for its [`COUNT_FIRINGS`] cycles.
pub fn permille_of_cycle(per_call_nanos: f64, sites: f64, base_micros: f64) -> f64 {
    let cycle_nanos = base_micros * 1000.0 / COUNT_FIRINGS as f64;
    per_call_nanos * sites * 1000.0 / cycle_nanos.max(1.0)
}

/// Mean nanos of `call`, amortised over 200k calls.
fn per_call_nanos(mut call: impl FnMut(u64)) -> f64 {
    const CALLS: u64 = 200_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        call(black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

/// A `begin()`/`end()` pair on a never-enabled span recorder.
fn span_fastpath_nanos() -> f64 {
    let spans = Spans::null();
    per_call_nanos(|_| {
        let sp = spans.begin();
        black_box(&sp);
        spans.end(
            black_box(sp),
            sorete_base::span::category::MATCH,
            0,
            Vec::new,
        );
    })
}

/// Offering a cycle record to a disabled flight recorder.
fn flight_fastpath_nanos() -> f64 {
    let flight = Flight::off();
    let record = CycleRecord {
        cycle: 1,
        rule: Symbol::new("bench"),
        ok: true,
        firings: 1,
        wm_len: 2,
        cs_len: 1,
        nanos: 1_000,
    };
    per_call_nanos(|_| flight.record_cycle(black_box(&record)))
}

/// `emit` on a tracer with no sinks: the event is never built.
fn tracer_fastpath_nanos() -> f64 {
    let tracer = Tracer::default();
    per_call_nanos(|i| tracer.emit(|| TraceEvent::CycleBegin { cycle: i }))
}

/// `with` on a null metrics handle: the closure never runs.
fn metrics_fastpath_nanos() -> f64 {
    let metrics = Metrics::null();
    per_call_nanos(|i| {
        black_box(metrics.with(|reg| reg.snapshot(i)));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_unique_and_bases_come_first() {
        for (i, r) in ROWS.iter().enumerate() {
            assert_eq!(row(r.config).map(|x| x.config), Some(r.config));
            assert!(
                ROWS[..i].iter().all(|p| p.config != r.config),
                "{}",
                r.config
            );
            if let Some(base) = r.base {
                let at = ROWS.iter().position(|p| p.config == base);
                assert!(at.is_some_and(|at| at < i), "{} before {}", base, r.config);
                assert!(matches!(ROWS[at.unwrap()].kind, Kind::Run(..)));
            }
            if matches!(r.kind, Kind::FastPath(..)) {
                assert!(r.base.is_some(), "{}", r.config);
            }
        }
    }

    #[test]
    fn disabled_fast_paths_are_cheap() {
        // Each is a branch or two; even a debug build stays far under a
        // microsecond per call.
        for r in ROWS {
            if let Kind::FastPath(probe, _) = r.kind {
                assert!(probe() < 1000.0, "{}", r.config);
            }
        }
    }

    #[test]
    fn every_layer_runs_the_whole_loop() {
        for r in ROWS {
            if let Kind::Run(group_commit, layer) = r.kind {
                let (_, stats) = time_run(group_commit, layer);
                assert_eq!(stats.records > 0, group_commit.is_some(), "{}", r.config);
            }
        }
    }
}
