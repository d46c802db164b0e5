//! Overhead-matrix bench: what each durability and instrumentation layer
//! costs on the counting loop (200 firings, each one `modify`).
//!
//! Every row of `sorete_bench::overhead::ROWS` is one configuration: no
//! WAL, WAL at group-commit 1 and 8, the flight recorder off, spans in
//! memory and rendered to Perfetto, supervision with and without memory
//! budgets, three trace sinks, the metrics registry in memory and
//! streamed, and the disabled fast path of the tracer, the metrics
//! handle, spans and the flight recorder.
//!
//! A calibration pass writes `BENCH_overhead.json` — median-of-5 wall
//! micros per timed row, WAL counters for the `wal` suite, the overhead
//! permille against each row's base, and each fast path's per-call nanos
//! as a permille of one base cycle — for `sorete-bench gate` to check.

use criterion::{criterion_group, criterion_main, Criterion};
use sorete_bench::overhead::{permille_of_cycle, time_run, Bound, Kind, ROWS};
use sorete_bench::COUNT_FIRINGS;

fn bench(c: &mut Criterion) {
    write_calibration_json();
    let mut group = c.benchmark_group("overhead");
    for row in ROWS {
        if let Kind::Run(group_commit, layer) = row.kind {
            group.bench_function(row.config, |b| b.iter(|| time_run(group_commit, layer)));
        }
    }
    group.finish();
}

/// One JSON object per row, written to `BENCH_overhead.json`.
fn write_calibration_json() {
    let mut micros: Vec<(&str, u64)> = Vec::new();
    let base_micros = |micros: &[(&str, u64)], base: Option<&str>| {
        let base = base.expect("row has a base");
        micros
            .iter()
            .find(|(c, _)| *c == base)
            .expect("base row timed first")
            .1
    };
    let mut lines = Vec::new();
    for row in ROWS {
        let mut line = format!(
            "{{\"suite\": \"{}\", \"config\": \"{}\"",
            row.suite, row.config
        );
        match row.kind {
            Kind::Run(group_commit, layer) => {
                let mut samples: Vec<_> = (0..5).map(|_| time_run(group_commit, layer)).collect();
                samples.sort_unstable_by_key(|(m, _)| *m);
                let (m, stats) = samples[2];
                line += &format!(", \"firings\": {}, \"micros\": {}", COUNT_FIRINGS, m);
                if row.bound == Bound::Counters {
                    line += &format!(
                        ", \"records\": {}, \"writes\": {}, \"fsyncs\": {}",
                        stats.records, stats.writes, stats.fsyncs
                    );
                }
                if row.base.is_some() {
                    let base = base_micros(&micros, row.base).max(1);
                    line += &format!(
                        ", \"overhead_permille\": {}",
                        m.saturating_sub(base) * 1000 / base
                    );
                }
                micros.push((row.config, m));
            }
            Kind::FastPath(probe, sites) => {
                let nanos = probe();
                let base = base_micros(&micros, row.base) as f64;
                line += &format!(
                    ", \"per_call_nanos\": {:.2}, \"permille_of_cycle\": {:.2}",
                    nanos,
                    permille_of_cycle(nanos, sites, base)
                );
            }
        }
        lines.push(line + "}");
    }
    let json = format!("[\n  {}\n]\n", lines.join(",\n  "));
    // Benches run with the package dir as cwd; anchor the artifact at the
    // workspace root next to the other BENCH_*.json files.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overhead.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("(wrote BENCH_overhead.json)"),
        Err(e) => println!("(could not write BENCH_overhead.json: {})", e),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
