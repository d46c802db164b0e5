//! `match-join`: the J1 shape at large n, in process, no WAL.
//!
//! Seeded stocks, then orders, equality-joined on `^id` with a `^qty >=`
//! residual and a negated-CE rule, then a third of the stocks retracted.
//! No rule fires: every call is pure alpha, beta and hash-index work on a
//! working set larger than L2, and WAL, JSON and firing are bypassed, so a
//! change to those should leave this workload unchanged.

use std::sync::Arc;
use std::time::Instant;

use sorete_base::{Symbol, TimeTag, Value, Wme};
use sorete_core::{MatcherKind, ProductionSystem};
use sorete_lang::{analyze_program, parse_program, AnalyzedRule, Matcher};
use sorete_rete::ReteMatcher;
use sorete_server::conflict_lines;

use crate::util::{
    latency_items, median, ns, peak_rss_mib, summarize, write_spans, Ledger, Rng, Tracer, Window,
};
use crate::{Config, Counts, Outcome};

pub const PROGRAM: &str = "(literalize order id qty)(literalize stock id qty)
    (p fill (order ^id <i> ^qty <q>) (stock ^id <i> ^qty >= <q>) (halt))
    (p missing (order ^id <i> ^qty <q>) -(stock ^id <i>) (halt))";

/// Orders and stocks per round at full size.
const N_FULL: usize = 50_000;
const N_TINY: usize = 2_000;
/// Size at which the indexed Rete is also compared with the scan Rete.
const N_CHECK: usize = 400;
/// Set-up repetitions (`new` + `load_program`) after each measured round.
const SETUPS_PER_ROUND: usize = 41;
/// One call in this many is timed: enough samples for a sound p99 while
/// the latency record stays small next to the engine's memory.
const LAT_EVERY: u64 = 8;

/// One seeded round of input: `(id, qty)` per stock and per order, and the
/// stock positions retracted afterwards.
struct Input {
    stocks: Vec<(i64, i64)>,
    orders: Vec<(i64, i64)>,
    retract: Vec<usize>,
}

fn input(seed: u64, n: usize) -> Input {
    let mut rng = Rng::new(seed, 1);
    let mut ids: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut ids);
    let stocks = ids.iter().map(|&i| (i, rng.below(10) as i64)).collect();
    rng.shuffle(&mut ids);
    let orders = ids.iter().map(|&i| (i, rng.below(10) as i64)).collect();
    let mut pos: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut pos);
    pos.truncate(n / 3);
    Input {
        stocks,
        orders,
        retract: pos,
    }
}

struct Syms {
    order: Symbol,
    stock: Symbol,
    id: Symbol,
    qty: Symbol,
}

impl Syms {
    fn new() -> Syms {
        Syms {
            order: Symbol::new("order"),
            stock: Symbol::new("stock"),
            id: Symbol::new("id"),
            qty: Symbol::new("qty"),
        }
    }

    fn slots(&self, (id, qty): (i64, i64)) -> Vec<(Symbol, Value)> {
        vec![(self.id, Value::Int(id)), (self.qty, Value::Int(qty))]
    }
}

/// What one round measured.
struct Round {
    ps: ProductionSystem,
    window: Window,
    stock_tags: Vec<TimeTag>,
    order_tags: Vec<TimeTag>,
    failed: u64,
}

/// Count one call in `w`, timing it when it is one of every `LAT_EVERY`.
fn timed<R>(w: &mut Window, call: impl FnOnce() -> R) -> R {
    let sample = w.ops.is_multiple_of(LAT_EVERY);
    w.ops += 1;
    if !sample {
        return call();
    }
    let t = Instant::now();
    let r = call();
    w.lat.push(ns(t));
    r
}

/// Set up an engine and drive one round of calls through it (spanning
/// every call when `tr` is on).
fn round(kind: MatcherKind, inp: &Input, syms: &Syms, tr: &mut Tracer) -> Round {
    let sp = tr.begin("core.new");
    let mut ps = ProductionSystem::new(kind);
    tr.end(sp);
    let sp = tr.begin("lang.load_program");
    ps.load_program(PROGRAM).expect("match-join program loads");
    tr.end(sp);

    let mut w = Window::default();
    let mut failed = 0;
    let start = Instant::now();
    let mut stock_tags = Vec::with_capacity(inp.stocks.len());
    let mut order_tags = Vec::with_capacity(inp.orders.len());
    for (facts, class, tags) in [
        (&inp.stocks, syms.stock, &mut stock_tags),
        (&inp.orders, syms.order, &mut order_tags),
    ] {
        for &f in facts {
            let slots = syms.slots(f);
            let parent = tr.begin("@assert");
            let sp = tr.begin("core.assert");
            let r = timed(&mut w, || ps.assert_wme(class, slots));
            tr.end(sp);
            tr.end(parent);
            match r {
                Ok(tag) => tags.push(tag),
                Err(_) => failed += 1,
            }
        }
    }
    for &i in &inp.retract {
        let Some(&tag) = stock_tags.get(i) else {
            failed += 1;
            continue;
        };
        let parent = tr.begin("@retract");
        let sp = tr.begin("core.retract");
        let r = timed(&mut w, || ps.retract_wme(tag));
        tr.end(sp);
        tr.end(parent);
        failed += u64::from(r.is_err());
    }
    w.ns = ns(start);
    Round {
        ps,
        window: w,
        stock_tags,
        order_tags,
        failed,
    }
}

/// The conflict set the generator predicts: a `fill` per order whose stock
/// is live with enough quantity, a `missing` per order whose stock was
/// retracted.
fn expected_cs(inp: &Input, r: &Round) -> Vec<String> {
    let mut stock_of = vec![usize::MAX; inp.stocks.len()];
    for (pos, &(id, _)) in inp.stocks.iter().enumerate() {
        stock_of[id as usize] = pos;
    }
    let mut retracted = vec![false; inp.stocks.len()];
    for &p in &inp.retract {
        retracted[p] = true;
    }
    let mut out = Vec::new();
    for (o, &(id, q)) in inp.orders.iter().enumerate() {
        let s = stock_of[id as usize];
        let otag = r.order_tags[o].raw();
        if retracted[s] {
            out.push(format!("missing [{}]", otag));
        } else if inp.stocks[s].1 >= q {
            out.push(format!("fill [{}, {}]", otag, r.stock_tags[s].raw()));
        }
    }
    out.sort();
    out
}

fn actual_cs(ps: &ProductionSystem) -> Vec<String> {
    let mut out: Vec<String> = ps
        .conflict_items()
        .iter()
        .map(|item| {
            let tags: Vec<u64> = item.head().iter().map(|t| t.raw()).collect();
            format!("{} {:?}", ps.rule_name(item.key.rule()), tags)
        })
        .collect();
    out.sort();
    out
}

fn check_closed_form(inp: &Input, r: &Round) -> Result<(), String> {
    if r.failed > 0 {
        return Err(format!("{} calls failed", r.failed));
    }
    let want = expected_cs(inp, r);
    let got = actual_cs(&r.ps);
    if want != got {
        let diff = want
            .iter()
            .zip(&got)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("expected {} got {}", a, b))
            .unwrap_or_default();
        return Err(format!(
            "conflict set differs from the closed form ({} expected, {} found; {})",
            want.len(),
            got.len(),
            diff
        ));
    }
    Ok(())
}

/// At a small size the indexed Rete must agree with the closed form and,
/// byte for byte, with the scan Rete.
fn check_small(seed: u64, syms: &Syms) -> Result<(), String> {
    let inp = input(seed ^ 0x5eed, N_CHECK);
    let mut off = Tracer::new(false);
    let idx = round(MatcherKind::Rete, &inp, syms, &mut off);
    let scan = round(MatcherKind::ReteScan, &inp, syms, &mut off);
    check_closed_form(&inp, &idx)?;
    if conflict_lines(&idx.ps) != conflict_lines(&scan.ps) {
        return Err("indexed and scan Rete conflict sets differ".into());
    }
    Ok(())
}

/// Drop a round's engine (tearing down a large network is engine work).
fn finish(r: Round, tr: &mut Tracer) -> Window {
    let sp = tr.begin("core.drop");
    drop(r.ps);
    tr.end(sp);
    r.window
}

/// The same WMEs through a standalone Rete, each insert or remove followed
/// by draining its conflict-set deltas as the engine does, then the
/// network torn down.
fn standalone(
    inp: &Input,
    syms: &Syms,
    rules: &[AnalyzedRule],
    (stock_tags, order_tags): &(Vec<TimeTag>, Vec<TimeTag>),
    tr: &mut Tracer,
) {
    let mut m = ReteMatcher::new();
    for rule in rules {
        m.add_rule(Arc::new(rule.clone()));
    }
    let wme = |tag: TimeTag, class: Symbol, f: (i64, i64)| Wme::new(tag, class, syms.slots(f));
    let stocks: Vec<Wme> = inp
        .stocks
        .iter()
        .zip(stock_tags)
        .map(|(&f, &t)| wme(t, syms.stock, f))
        .collect();
    let orders: Vec<Wme> = inp
        .orders
        .iter()
        .zip(order_tags)
        .map(|(&f, &t)| wme(t, syms.order, f))
        .collect();
    for w in stocks.iter().chain(&orders) {
        let sp = tr.begin("rete.insert");
        m.insert_wme(w);
        std::hint::black_box(m.drain_deltas());
        tr.end(sp);
    }
    for &i in &inp.retract {
        let sp = tr.begin("rete.remove");
        m.remove_wme(&stocks[i]);
        std::hint::black_box(m.drain_deltas());
        tr.end(sp);
    }
    let sp = tr.begin("rete.drop");
    drop(m);
    tr.end(sp);
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let n = if cfg.tiny { N_TINY } else { N_FULL };
    let syms = Syms::new();
    let inp = input(cfg.seed, n);
    let mut out = Outcome::default();
    println!(
        "match-join: n={} stocks and orders, {} retracts per round, matcher=rete (hash-indexed), \
         one call in {} timed",
        n,
        inp.retract.len(),
        LAT_EVERY
    );

    let mut off = Tracer::new(false);
    let mut failed = 0;
    let mut windows = Vec::new();
    let mut setups = Vec::new();
    let t = Instant::now();
    if !cfg.trace {
        while windows.is_empty() || t.elapsed().as_secs_f64() < cfg.seconds {
            let r = round(MatcherKind::Rete, &inp, &syms, &mut off);
            failed += r.failed;
            // Set-up repeats between rounds, so its samples span the run
            // like the calls do.
            for _ in 0..SETUPS_PER_ROUND {
                let t = Instant::now();
                let mut ps = ProductionSystem::new(MatcherKind::Rete);
                ps.load_program(PROGRAM).expect("match-join program loads");
                setups.push(t.elapsed().as_secs_f64());
                drop(ps);
            }
            windows.push(finish(r, &mut off));
        }
        let rss = peak_rss_mib(None);
        let all = summarize(&windows);
        println!(
            "report match-join: {} rounds, facts_per_s={:.1} 1/s, {} (assert_wme/retract_wme calls), \
             peak_rss_mb={:.2} MiB, failed_ratio={:.6}, setup_s={:.9} s (median of {})",
            windows.len(),
            all.ops_per_s,
            latency_items("write", &all.lat),
            rss,
            failed as f64 / windows.iter().map(|w| w.ops).sum::<u64>().max(1) as f64,
            median(&setups),
            setups.len()
        );
        out.metric("setup_s", median(&setups));
        out.metric("facts_per_s", all.ops_per_s);
        out.metric("ops_per_s", all.ops_per_s);
        out.metric("op_p50_us", all.lat.p50_us);
        out.metric("peak_rss_mb", rss);
    } else {
        windows = traced(cfg, &inp, &syms, &mut out, &mut failed)?;
    }
    out.attempted = windows.iter().map(|w| w.ops).sum();
    out.failed = failed;

    // Checks and counts, outside the timed phase, on one more round.
    let r = round(MatcherKind::Rete, &inp, &syms, &mut off);
    out.check(
        "match-join conflict set equals the closed form",
        check_closed_form(&inp, &r),
    );
    out.check(
        "match-join small size: rete equals the closed form and rete-scan",
        check_small(cfg.seed, &syms),
    );
    let mem = r.ps.memory_report();
    println!(
        "match-join: conflict set {} entries, matcher {} bytes",
        r.ps.conflict_set_len(),
        mem.total_bytes()
    );
    if cfg.trace {
        Counts {
            stats: r.ps.match_stats(),
            wm_changes: r.window.ops,
            bytes_live: mem.total_bytes(),
            bytes_peak: mem.total_bytes(),
            gamma_bytes: mem.region("gamma").map(|g| g.bytes).unwrap_or(0),
            live_wmes: r.ps.wm().len() as u64,
            ..Counts::default()
        }
        .emit(&mut out);
        out.metric("core.cs_len", r.ps.conflict_set_len() as f64);
    }
    Ok(out)
}

/// The traced run. Rounds alternate untraced and traced, so both see the
/// same host; each traced round is followed by its WMEs through a
/// standalone Rete, which splits every engine call into match and the rest.
fn traced(
    cfg: &Config,
    inp: &Input,
    syms: &Syms,
    out: &mut Outcome,
    failed: &mut u64,
) -> Result<Vec<Window>, String> {
    let prog = parse_program(PROGRAM).map_err(|e| e.to_string())?;
    let rules = analyze_program(&prog).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(true);
    let mut rtr = Tracer::new(true);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut traced_ns = 0;
    let t = Instant::now();
    while spanned.is_empty() || t.elapsed().as_secs_f64() < cfg.seconds {
        let on = plain.len() > spanned.len();
        tr.set_on(on);
        let t0 = Instant::now();
        let mut r = round(MatcherKind::Rete, inp, syms, &mut tr);
        *failed += r.failed;
        let tags = (
            std::mem::take(&mut r.stock_tags),
            std::mem::take(&mut r.order_tags),
        );
        let w = finish(r, &mut tr);
        if on {
            traced_ns += ns(t0);
            spanned.push(w);
            standalone(inp, syms, &rules, &tags, &mut rtr);
        } else {
            plain.push(w);
        }
    }

    let p50 = |tr: &Tracer, name: &str| tr.durations(name).pct().p50_us;
    let assert_us = p50(&tr, "core.assert");
    let insert_us = p50(&rtr, "rete.insert");
    out.metric("core.assert_us", assert_us);
    out.metric("core.retract_us", p50(&tr, "core.retract"));
    out.metric("rete.insert_us", insert_us);
    out.metric("rete.remove_us", p50(&rtr, "rete.remove"));
    out.metric("core.engine_overhead_us", assert_us - insert_us);
    out.metric("lang.load_program_ms", p50(&tr, "lang.load_program") / 1e3);
    let overhead = summarize(&spanned).ns_per_op / summarize(&plain).ns_per_op - 1.0;
    out.metric("trace.overhead_share", overhead);

    let mut ledger = Ledger::build(&[&tr], &[traced_ns], "@");
    for (from, name) in [
        ("core.assert", "rete.insert"),
        ("core.retract", "rete.remove"),
        ("core.drop", "rete.drop"),
    ] {
        let d = rtr.durations(name);
        ledger.split(
            from,
            "rete",
            &format!("{} (standalone, same WMEs)", name),
            d.len() as u64,
            d.0.iter().sum(),
        );
    }
    let reconciled = ledger.print("match-join", overhead);
    out.metric("unattributed_share", ledger.unattributed_share());
    out.check(
        "match-join ledger rows add back to the traced total",
        reconciled,
    );
    let _ = write_spans(
        &cfg.work_dir.join("spans-match-join.tsv"),
        &[&tr, &rtr],
        100_000,
    );
    plain.extend(spanned);
    Ok(plain)
}
