//! The sorete benchmark harness.
//!
//! One process generates the load for one workload from a seed, measures
//! it for a fixed time, checks the program's outputs, and prints the
//! result as the last line of standard output. `perfbench/run.py` builds
//! this package and the `sorete-server` binary, then runs it:
//!
//! ```text
//! sorete-perfbench --workload server-ingest|match-join|set-churn
//!                  --seed N --seconds S --trace 0|1
//!                  --server-bin PATH --work-dir DIR [--size full|tiny]
//!                  [--source-id ID]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics, measured
//! with no spans recorded. With `--trace 1` the same work runs untraced
//! and then traced, and the result carries the per-layer metrics: spans
//! the harness records around its calls into each layer's public
//! functions, counts from the layers' public stats, and a ledger that
//! reconciles the layers' shares of traced time.

mod churn;
mod ingest;
mod matchjoin;
mod util;

use std::path::PathBuf;

use sorete_base::MatchStats;
use sorete_lang::json::Json;

/// End-to-end metrics, reported with tracing off. Every workload reports
/// every one; the README defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("facts_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not pass through reports 0 (for example the WAL on the in-process
/// workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.json.decode_us", "us"),
    ("lang.json.encode_us", "us"),
    ("lang.load_program_ms", "ms"),
    ("server.session_lock_us", "us"),
    ("server.overloaded_ratio", "ratio"),
    ("server.wire_write_us", "us"),
    ("server.wire_run_us", "us"),
    ("server.wire_read_us", "us"),
    ("core.assert_us", "us"),
    ("core.retract_us", "us"),
    ("core.run_us", "us"),
    ("core.cs_render_us", "us"),
    ("core.engine_overhead_us", "us"),
    ("core.step_us", "us"),
    ("core.seed_assert_us", "us"),
    ("core.cs_len", "count"),
    ("core.cs_len_mean", "count"),
    ("core.actions_per_firing", "count"),
    ("rete.insert_us", "us"),
    ("rete.remove_us", "us"),
    ("rete.join_tests_per_wme", "count"),
    ("rete.index_probes_per_wme", "count"),
    ("rete.index_skip_ratio", "ratio"),
    ("rete.tokens_per_wme", "count"),
    ("rete.bytes_per_wme", "B"),
    ("rete.tokens_per_firing", "count"),
    ("rete.join_tests_per_firing", "count"),
    ("rete.bytes_peak", "B"),
    ("soi.snode_activations_per_firing", "count"),
    ("soi.aggregate_updates_per_firing", "count"),
    ("soi.gamma_bytes", "B"),
    ("reldb.wal.sync_us", "us"),
    ("reldb.wal.fsyncs_per_fact", "count"),
    ("reldb.wal.writes_per_fact", "count"),
    ("reldb.wal.bytes_per_fact", "B"),
    ("reldb.wal.recovery_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What the harness was asked to do.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    pub tiny: bool,
    pub source_id: String,
}

/// A workload's result: checks, operation counts and named metrics.
#[derive(Default)]
pub struct Outcome {
    pub checks: Vec<(String, Result<(), String>)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, name: &str, r: Result<(), String>) {
        self.checks.push((name.to_string(), r));
    }
}

/// Counts read from the layers' public stats over a measured span of work,
/// turned into the per-layer count metrics.
#[derive(Default)]
pub struct Counts {
    pub stats: MatchStats,
    /// Working-memory changes: API asserts and retracts plus RHS makes and
    /// removes.
    pub wm_changes: u64,
    pub firings: u64,
    pub actions: u64,
    pub bytes_peak: u64,
    pub gamma_bytes: u64,
    /// Matcher bytes and live WMEs at the end of the work.
    pub bytes_live: u64,
    pub live_wmes: u64,
}

pub fn stats_delta(after: &MatchStats, before: &MatchStats) -> MatchStats {
    MatchStats {
        alpha_activations: after.alpha_activations - before.alpha_activations,
        beta_activations: after.beta_activations - before.beta_activations,
        join_tests: after.join_tests - before.join_tests,
        tokens_created: after.tokens_created - before.tokens_created,
        tokens_deleted: after.tokens_deleted - before.tokens_deleted,
        snode_activations: after.snode_activations - before.snode_activations,
        aggregate_updates: after.aggregate_updates - before.aggregate_updates,
        index_probes: after.index_probes - before.index_probes,
        index_skipped_tests: after.index_skipped_tests - before.index_skipped_tests,
        indexed_nodes: after.indexed_nodes,
    }
}

/// Working-memory changes made by RHS actions: a `modify` retracts and
/// re-asserts.
pub fn rhs_changes(rs: &sorete_core::RunStats) -> u64 {
    rs.makes + rs.removes + 2 * rs.modifies
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl Counts {
    pub fn emit(&self, o: &mut Outcome) {
        let s = &self.stats;
        let tokens = s.tokens_created + s.tokens_deleted;
        o.metric(
            "rete.join_tests_per_wme",
            per(s.join_tests, self.wm_changes),
        );
        o.metric(
            "rete.index_probes_per_wme",
            per(s.index_probes, self.wm_changes),
        );
        o.metric(
            "rete.index_skip_ratio",
            per(s.index_skipped_tests, s.index_skipped_tests + s.join_tests),
        );
        o.metric("rete.tokens_per_wme", per(tokens, self.wm_changes));
        o.metric("rete.bytes_per_wme", per(self.bytes_live, self.live_wmes));
        o.metric("rete.tokens_per_firing", per(tokens, self.firings));
        o.metric(
            "rete.join_tests_per_firing",
            per(s.join_tests, self.firings),
        );
        o.metric("rete.bytes_peak", self.bytes_peak as f64);
        o.metric(
            "soi.snode_activations_per_firing",
            per(s.snode_activations, self.firings),
        );
        o.metric(
            "soi.aggregate_updates_per_firing",
            per(s.aggregate_updates, self.firings),
        );
        o.metric("soi.gamma_bytes", self.gamma_bytes as f64);
        o.metric("core.actions_per_firing", per(self.actions, self.firings));
        println!(
            "counts: wm_changes={} firings={} actions={} {} bytes_live={} live_wmes={} bytes_peak={} gamma_bytes={}",
            self.wm_changes,
            self.firings,
            self.actions,
            s,
            self.bytes_live,
            self.live_wmes,
            self.bytes_peak,
            self.gamma_bytes
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: sorete-perfbench --workload server-ingest|match-join|set-churn --seed N \
         --seconds S --trace 0|1 --server-bin PATH --work-dir DIR [--size full|tiny] [--source-id ID]"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        server_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
        tiny: false,
        source_id: "unknown".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => cfg.workload = v.clone(),
            "--seed" => cfg.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--server-bin" => cfg.server_bin = PathBuf::from(v),
            "--work-dir" => cfg.work_dir = PathBuf::from(v),
            "--size" => {
                cfg.tiny = match v.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => usage(),
                }
            }
            "--source-id" => cfg.source_id = v.clone(),
            _ => usage(),
        }
    }
    if cfg.workload.is_empty() || cfg.seconds <= 0.0 || cfg.work_dir.as_os_str().is_empty() {
        usage();
    }
    cfg
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mnt), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(l, _)| mnt.len() >= *l) {
            best = Some((mnt.len(), fstype.to_string()));
        }
    }
    best.map(|(_, f)| f).unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(cfg: &Config) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        ("workload".into(), s(&cfg.workload)),
        ("seed".into(), Json::Int(cfg.seed as i64)),
        ("run_seconds".into(), Json::Num(cfg.seconds)),
        ("trace".into(), Json::Bool(cfg.trace)),
        ("size".into(), s(if cfg.tiny { "tiny" } else { "full" })),
        (
            "available_parallelism".into(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get() as i64)
                    .unwrap_or(0),
            ),
        ),
        ("cpu_model".into(), s(&cpu_model())),
        ("data_dir_fs".into(), s(&filesystem_of(&cfg.work_dir))),
        (
            "wal_flush_policy".into(),
            s(&format!(
                "{:?} (sessions attach their WAL with the default options)",
                sorete_reldb::WalOptions::default()
            )),
        ),
        ("source".into(), s(&cfg.source_id)),
        (
            "SORETE_JOBS".into(),
            s(&std::env::var("SORETE_JOBS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "note".into(),
            s("latencies are this host's (page cache, shared CPU), not a storage device's"),
        ),
    ])
}

fn main() {
    let cfg = parse_args();
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {}", cfg.work_dir.display(), e);
        std::process::exit(1);
    }
    println!("provenance {}", provenance(&cfg).render());
    let result = match cfg.workload.as_str() {
        "server-ingest" => ingest::run(&cfg),
        "match-join" => matchjoin::run(&cfg),
        "set-churn" => churn::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {:?}", other);
            std::process::exit(2);
        }
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {}", cfg.workload, e);
            std::process::exit(1);
        }
    };
    let mut correct = true;
    for (name, r) in &out.checks {
        match r {
            Ok(()) => println!("check {}: ok", name),
            Err(e) => {
                correct = false;
                println!("check {}: FAILED: {}", name, e);
            }
        }
    }
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    if let Some((name, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|(w, _)| w == n))
    {
        eprintln!(
            "perfbench: {} measured unlisted metric {}",
            cfg.workload, name
        );
        std::process::exit(1);
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = match out.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            // A layer the workload does not pass through did no work.
            None if cfg.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {}", cfg.workload, name);
                std::process::exit(1);
            }
        };
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(out.attempted as i64)),
        ("failed".into(), Json::Int(out.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
