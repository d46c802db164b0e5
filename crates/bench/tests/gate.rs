//! Integration tests for `sorete-bench gate`: the typed exit codes and
//! the injected-regression path.
//!
//! The gate is baseline-driven — it re-runs exactly the rows the JSON
//! describes — so the tests keep the doctored baselines tiny (a small
//! `join_index` row or one overhead-matrix row) and the re-run cost
//! negligible.

use sorete_bench::overhead::Layer;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sorete-bench")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sorete-gate-test-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the gate over `dir` at `tolerance` percent: exit code and stdout.
fn gate(dir: &Path, tolerance: &str) -> (Option<i32>, String) {
    let out = Command::new(bin())
        .args(["gate", "--tolerance", tolerance, "--baseline-dir"])
        .arg(dir)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// A truthful one-row join_index baseline, recorded by running the suite
/// in-process so the counters match whatever this build produces.
fn honest_join_row() -> String {
    let r = sorete_bench::run_join_index(sorete_core::MatcherKind::Rete, 50);
    format!(
        "[\n  {{\"n\": 50, \"matcher\": \"rete\", \"join_tests\": {}, \
         \"index_probes\": {}, \"index_skipped_tests\": {}, \"micros\": {}}}\n]\n",
        r.join_tests,
        r.index_probes,
        r.index_skipped_tests,
        // Micros are reference-only (a lone row has no speedup partner,
        // and absolute times are never gated), so the real value is fine.
        r.micros
    )
}

#[test]
fn empty_baseline_dir_exits_missing() {
    let dir = temp_dir("missing");
    let (code, stdout) = gate(&dir, "10");
    assert_eq!(code, Some(4), "stdout: {}", stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_2() {
    for args in [
        &[][..],
        &["gate", "--tolerance"][..],
        &["gate", "--bogus"][..],
    ] {
        let out = Command::new(bin()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args: {:?}", args);
    }
}

#[test]
fn injected_counter_regression_exits_5() {
    let dir = temp_dir("inject");
    // Doctor the baseline: claim half the join tests the build actually
    // performs. Deterministic counters are compared exactly, so the gate
    // must flag this as a regression even at a huge tolerance.
    let r = sorete_bench::run_join_index(sorete_core::MatcherKind::Rete, 50);
    std::fs::write(
        dir.join("BENCH_join_index.json"),
        format!(
            "[\n  {{\"n\": 50, \"matcher\": \"rete\", \"join_tests\": {}, \
             \"index_probes\": {}, \"index_skipped_tests\": {}, \"micros\": {}}}\n]\n",
            r.join_tests / 2,
            r.index_probes,
            r.index_skipped_tests,
            r.micros * 1000
        ),
    )
    .unwrap();
    let (code, stdout) = gate(&dir, "10000");
    assert_eq!(code, Some(5), "stdout: {}", stdout);
    assert!(stdout.contains("join_tests"), "stdout: {}", stdout);
    assert!(stdout.contains("FAIL"), "stdout: {}", stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overhead_counter_off_by_one_exits_5() {
    let dir = temp_dir("overhead");
    // One overhead-matrix row whose fsync count is one more than the
    // build performs: the exact counter check must fail at any tolerance.
    let (micros, stats) = sorete_bench::overhead::time_run(Some(8), Layer::Plain);
    std::fs::write(
        dir.join("BENCH_overhead.json"),
        format!(
            "[\n  {{\"suite\": \"wal\", \"config\": \"wal_group_8\", \"micros\": {}, \
             \"records\": {}, \"writes\": {}, \"fsyncs\": {}}}\n]\n",
            micros,
            stats.records,
            stats.writes,
            stats.fsyncs + 1
        ),
    )
    .unwrap();
    let (code, stdout) = gate(&dir, "10000");
    assert_eq!(code, Some(5), "stdout: {}", stdout);
    let failed: Vec<&str> = stdout.lines().filter(|l| l.ends_with("FAIL")).collect();
    assert_eq!(failed.len(), 1, "stdout: {}", stdout);
    assert!(
        failed[0].contains("wal_group_8/fsyncs"),
        "stdout: {}",
        stdout
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_timing_regression_exits_5() {
    let dir = temp_dir("timing");
    // Honest counters for both matchers, but a doctored micros pair
    // claiming a 1,000,000x indexing speedup. The fresh speedup ratio
    // (a few x at n=50) cannot reach that floor, so the check must fail.
    let rete = sorete_bench::run_join_index(sorete_core::MatcherKind::Rete, 50);
    let scan = sorete_bench::run_join_index(sorete_core::MatcherKind::ReteScan, 50);
    let row = |matcher: &str, r: &sorete_bench::RunReport, micros: u64| {
        format!(
            "{{\"n\": 50, \"matcher\": \"{}\", \"join_tests\": {}, \
             \"index_probes\": {}, \"index_skipped_tests\": {}, \"micros\": {}}}",
            matcher, r.join_tests, r.index_probes, r.index_skipped_tests, micros
        )
    };
    std::fs::write(
        dir.join("BENCH_join_index.json"),
        format!(
            "[\n  {},\n  {}\n]\n",
            row("rete", &rete, 1),
            row("rete-scan", &scan, 1_000_000)
        ),
    )
    .unwrap();
    let (code, stdout) = gate(&dir, "25");
    assert_eq!(code, Some(5), "stdout: {}", stdout);
    assert!(stdout.contains("index_speedup"), "stdout: {}", stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn honest_baseline_passes_its_suite() {
    let dir = temp_dir("honest");
    std::fs::write(dir.join("BENCH_join_index.json"), honest_join_row()).unwrap();
    let (code, stdout) = gate(&dir, "25");
    // Other baseline files are absent, so the run exits 4 (missing), not
    // 5 — proving the join_index suite itself found no regression.
    assert_eq!(code, Some(4), "stdout: {}", stdout);
    assert!(!stdout.contains("FAIL"), "stdout: {}", stdout);
    let _ = std::fs::remove_dir_all(&dir);
}
