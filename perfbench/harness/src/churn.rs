//! `set-churn`: the C6 shape, in process, no WAL.
//!
//! Seeded tasks and workers. An inequality (unindexed) join assigns a
//! queued task to a free worker whose capacity covers it, and its `modify`
//! firings churn tokens; an S-node `count`/`sum` rule over the queued set
//! is re-evaluated on every firing and fires once, when every worker is
//! busy; LEX resolves over a conflict set of tens of thousands of entries.
//! This loads the production and memory tail, the S-node, resolve and the
//! RHS. Cost grows faster than linearly in n, so n is fixed and the run
//! repeats rounds for its measured time.

use std::time::Instant;

use sorete_base::{Symbol, Value};
use sorete_core::{MatcherKind, ProductionSystem};

use crate::util::{
    latency_items, median, ns, peak_rss_mib, write_spans, Ledger, Rng, Samples, Tracer,
};
use crate::{rhs_changes, stats_delta, Config, Counts, Outcome};

/// The program for `n` tasks. Every worker takes one task, so
/// `watch-queue`'s `count` test first holds once the last worker is busy.
fn program(n: usize) -> String {
    format!(
        "(literalize task id dur state owner)
    (literalize worker id cap load)
    (p assign (task ^id <t> ^state queued ^owner nil ^dur <d>)
              (worker ^id <w> ^load 0 ^cap >= <d>)
      (modify 1 ^state assigned ^owner <w>) (modify 2 ^load 1))
    (p watch-queue {{ [task ^state queued ^dur <d>] <Q> }} :test ((count <Q>) <= {} and (sum <d>) > 10)
      (write backlog (count <Q>)))",
        n - n.div_ceil(3)
    )
}

/// Tasks per round at full size (one worker per three tasks).
const N_FULL: usize = 600;
const N_TINY: usize = 60;

/// Seeded facts in assertion order: `(class, slots)`. Durations and
/// capacities are seeded permutations of fixed multisets: every capacity
/// (at least 5) covers more tasks (those of duration 1 to 5) than there
/// are workers, so every seed makes n/3 `assign` firings and one
/// `watch-queue` firing, and seeds differ in order, not in the amount of
/// work.
fn input(seed: u64, n: usize) -> Vec<(Symbol, Vec<(Symbol, Value)>)> {
    let mut rng = Rng::new(seed, 2);
    let mut durs: Vec<i64> = (0..n as i64).map(|i| 1 + i % 13).collect();
    let mut caps: Vec<i64> = (0..n.div_ceil(3) as i64).map(|i| 5 + i % 9).collect();
    rng.shuffle(&mut durs);
    rng.shuffle(&mut caps);
    let (task, worker) = (Symbol::new("task"), Symbol::new("worker"));
    let s = Symbol::new;
    let mut facts = Vec::with_capacity(n + caps.len());
    for (i, dur) in durs.into_iter().enumerate() {
        let id = Value::Int(i as i64);
        facts.push((
            task,
            vec![
                (s("id"), id),
                (s("dur"), Value::Int(dur)),
                (s("state"), Value::sym("queued")),
                (s("owner"), Value::Nil),
            ],
        ));
        if i % 3 == 0 {
            facts.push((
                worker,
                vec![
                    (s("id"), id),
                    (s("cap"), Value::Int(caps[i / 3])),
                    (s("load"), Value::Int(0)),
                ],
            ));
        }
    }
    facts
}

/// What one round measured and produced.
struct Round {
    traced: bool,
    setup_s: f64,
    work_ns: u64,
    /// Set-up, steps and teardown.
    round_ns: u64,
    firings: u64,
    failed: u64,
    counts: Counts,
    cs_len_sum: u64,
    /// Per-rule firings, sorted by rule name.
    per_rule: Vec<(String, u64)>,
    /// FNV-1a over the sorted final working memory.
    digest: u64,
}

fn digest(ps: &ProductionSystem) -> u64 {
    let mut lines: Vec<String> = ps
        .wm()
        .iter()
        .map(|w| format!("{} {}", w.tag.raw(), w))
        .collect();
    lines.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.join("\n").bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Set up an engine with the seeded facts, then step it to quiescence,
/// timing each `step()` into `samples`. With `sample` set (an untimed
/// counting round), matcher memory and conflict-set length are sampled
/// between cycles.
fn round(
    kind: MatcherKind,
    program: &str,
    facts: &[(Symbol, Vec<(Symbol, Value)>)],
    samples: &mut Samples,
    tr: &mut Tracer,
    sample: bool,
) -> Round {
    let t_round = Instant::now();
    let sp = tr.begin("core.new");
    let mut ps = ProductionSystem::new(kind);
    tr.end(sp);
    let sp = tr.begin("lang.load_program");
    ps.load_program(program).expect("set-churn program loads");
    tr.end(sp);
    let mut failed = 0;
    for (class, slots) in facts {
        let slots = slots.clone();
        let sp = tr.begin("core.seed_assert");
        let r = ps.assert_wme(*class, slots);
        tr.end(sp);
        if r.is_err() {
            failed += 1;
        }
    }
    let setup_s = t_round.elapsed().as_secs_f64();

    let before = ps.match_stats();
    let stats_before = ps.stats().clone();
    let mut counts = Counts::default();
    let sample_mem = |ps: &ProductionSystem, c: &mut Counts| {
        let mem = ps.memory_report();
        c.bytes_peak = c.bytes_peak.max(mem.total_bytes());
        c.gamma_bytes = c
            .gamma_bytes
            .max(mem.region("gamma").map(|g| g.bytes).unwrap_or(0));
    };
    if sample {
        sample_mem(&ps, &mut counts);
    }
    let mut firings = 0u64;
    let mut cs_len_sum = 0u64;
    let start = Instant::now();
    loop {
        if sample {
            cs_len_sum += ps.conflict_set_len() as u64;
            if firings.is_multiple_of(64) {
                sample_mem(&ps, &mut counts);
            }
        }
        let parent = tr.begin("@cycle");
        let sp = tr.begin("core.step");
        let t = Instant::now();
        let r = ps.step();
        let dt = ns(t);
        tr.end(sp);
        tr.end(parent);
        match r {
            Ok(Some(_)) => {
                if !tr.is_on() {
                    samples.push(dt);
                }
                firings += 1;
            }
            Ok(None) => break,
            Err(_) => {
                failed += 1;
                break;
            }
        }
    }
    let work_ns = ns(start);
    if sample {
        sample_mem(&ps, &mut counts);
    }
    let st = ps.stats();
    counts.stats = stats_delta(&ps.match_stats(), &before);
    counts.firings = firings;
    counts.actions = st.actions - stats_before.actions;
    counts.wm_changes = rhs_changes(st) - rhs_changes(&stats_before);
    counts.bytes_live = ps.memory_report().total_bytes();
    counts.live_wmes = ps.wm().len() as u64;
    let per_rule = st
        .per_rule_sorted()
        .into_iter()
        .map(|(r, s)| (r.as_str().to_string(), s.firings))
        .collect();
    let digest = digest(&ps);
    let sp = tr.begin("core.drop");
    drop(ps);
    tr.end(sp);
    Round {
        traced: tr.is_on(),
        setup_s,
        work_ns,
        round_ns: ns(t_round),
        firings,
        failed,
        counts,
        cs_len_sum,
        per_rule,
        digest,
    }
}

/// Rounds for `seconds`; with `alternate`, every other round is traced.
fn run_phase(
    program: &str,
    facts: &[(Symbol, Vec<(Symbol, Value)>)],
    seconds: f64,
    samples: &mut Samples,
    tr: &mut Tracer,
    alternate: bool,
) -> Vec<Round> {
    let t = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < 2 || t.elapsed().as_secs_f64() < seconds {
        tr.set_on(alternate && rounds.len() % 2 == 1);
        rounds.push(round(MatcherKind::Rete, program, facts, samples, tr, false));
    }
    rounds
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let n = if cfg.tiny { N_TINY } else { N_FULL };
    let program = program(n);
    let facts = input(cfg.seed, n);
    let mut out = Outcome::default();
    println!(
        "set-churn: n={} tasks, {} seeded facts per round, matcher=rete, strategy=LEX",
        n,
        facts.len()
    );
    let mut samples = Samples::default();
    let mut tr = Tracer::new(cfg.trace);
    let rounds = run_phase(
        &program,
        &facts,
        cfg.seconds,
        &mut samples,
        &mut tr,
        cfg.trace,
    );
    let rss = peak_rss_mib(None);

    // Checks, outside the timed phase: every round is the same seeded run,
    // and TREAT on the same facts fires the same rules as often and ends
    // in the same working memory.
    let first = &rounds[0];
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    out.check(
        "set-churn rounds repeat: firings per rule and final WM digest",
        rounds
            .iter()
            .find(|r| r.per_rule != first.per_rule || r.digest != first.digest)
            .map_or(Ok(()), |_| Err("a round diverged from the first".into())),
    );
    let treat = round(
        MatcherKind::Treat,
        &program,
        &facts,
        &mut Samples::default(),
        &mut Tracer::new(false),
        false,
    );
    out.check(
        "set-churn equals TREAT: firings per rule and final WM digest",
        if treat.per_rule == first.per_rule && treat.digest == first.digest && failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "rete {:?} digest {:016x} failed {}; treat {:?} digest {:016x}",
                first.per_rule, first.digest, failed, treat.per_rule, treat.digest
            ))
        },
    );
    println!(
        "set-churn: per round {} firings {:?}, final WM digest {:016x}",
        first.firings, first.per_rule, first.digest
    );

    out.attempted = rounds.iter().map(|r| r.firings + 1).sum();
    out.failed = failed;
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    // Rates are medians over rounds, each round's count over its stepping
    // time, so a burst of host noise moves a few rounds and not the result.
    let rate = |count: fn(&Round) -> u64| {
        let v: Vec<f64> = plain
            .iter()
            .map(|r| count(r) as f64 / (r.work_ns.max(1) as f64 / 1e9))
            .collect();
        median(&v)
    };
    let firings_per_s = rate(|r| r.firings);
    let facts_per_s = rate(|r| r.counts.wm_changes);
    let pct = samples.pct();
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    println!(
        "report set-churn: {} rounds, firings_per_s={:.1} 1/s, facts_per_s={:.1} 1/s, {} (per step()), \
         peak_rss_mb={:.1} MiB, failed_ratio={:.6}, setup_s={:.6} s (median of {})",
        plain.len(),
        firings_per_s,
        facts_per_s,
        latency_items("run", &pct),
        rss,
        failed as f64 / out.attempted.max(1) as f64,
        median(&setups),
        setups.len()
    );
    if !cfg.trace {
        out.metric("setup_s", median(&setups));
        out.metric("facts_per_s", facts_per_s);
        out.metric("ops_per_s", firings_per_s);
        out.metric("op_p50_us", pct.p50_us);
        out.metric("peak_rss_mb", rss);
        return Ok(out);
    }

    let p50 = |name: &str| tr.durations(name).pct().p50_us;
    out.metric("core.step_us", p50("core.step"));
    out.metric("core.seed_assert_us", p50("core.seed_assert"));
    out.metric("lang.load_program_ms", p50("lang.load_program") / 1e3);
    let counted = round(
        MatcherKind::Rete,
        &program,
        &facts,
        &mut Samples::default(),
        &mut Tracer::new(false),
        true,
    );
    out.metric(
        "core.cs_len_mean",
        counted.cs_len_sum as f64 / (counted.firings + 1) as f64,
    );
    counted.counts.emit(&mut out);

    let mean_round = |traced: bool| {
        let v: Vec<u64> = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.round_ns)
            .collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    let overhead = mean_round(true) / mean_round(false) - 1.0;
    out.metric("trace.overhead_share", overhead);
    let traced_ns: u64 = rounds.iter().filter(|r| r.traced).map(|r| r.round_ns).sum();
    let ledger = Ledger::build(&[&tr], &[traced_ns], "@");
    let reconciled = ledger.print("set-churn", overhead);
    println!(
        "  note: match, S-node, resolve and RHS all run inside core.step; \
         their split needs spans inside the program (see rete.* and soi.* counts)"
    );
    out.metric("unattributed_share", ledger.unattributed_share());
    out.check(
        "set-churn ledger rows add back to the traced total",
        reconciled,
    );
    let _ = write_spans(&cfg.work_dir.join("spans-set-churn.tsv"), &[&tr], 100_000);
    Ok(out)
}
