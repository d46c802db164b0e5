//! `server-ingest`: the real `sorete-server` binary over loopback.
//!
//! Two client connections, each with its own session, run closed loops of
//! a write-heavy mix: an `assert-batch` of 25 seeded order/stock facts,
//! `retract`s of the previous batch's facts no rule will consume (tags the
//! server returned), a `run` that fires the hash-indexed join (consuming
//! matched pairs) and a set-oriented aggregate rule, and a
//! `query-conflict-set` read. This is the only workload through JSON, sockets, the session lock
//! and the WAL fsync; the server keeps its default flush policy.
//!
//! The traced run replays the same seeded streams in process, calling the
//! public functions in the order the server's dispatch does, against
//! sessions on the same filesystem with the same flush policy.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sorete_base::TimeTag;
use sorete_core::{MatcherKind, ProductionSystem};
use sorete_lang::json::{self, Json};
use sorete_server::{conflict_lines, parse_request, Client, Response, SessionStore};

use crate::util::{
    latency_items, median, ns, peak_rss_mib, write_spans, Ledger, Rng, Samples, Tracer,
};
use crate::{rhs_changes, Config, Counts, Outcome};

/// A hash-indexed equality join whose firings consume the matched pair,
/// and one set-oriented aggregate rule over the open orders.
pub const PROGRAM: &str = "(literalize order id qty)(literalize stock id qty)
    (p fill (order ^id <i> ^qty <q>) (stock ^id <i> ^qty >= <q>) (remove 1) (remove 2))
    (p backlog { [order ^qty <q>] <O> } :test ((count <O>) > 0 and (sum <q>) > 0)
      (bind <n> (count <O>)))";

/// Client connections, one session each (the host has two cores).
const CLIENTS: usize = 2;
/// Order/stock pairs per batch; one lone stock makes 25 facts.
const PAIRS: usize = 12;
/// Client loops per block when the replay alternates untraced and traced.
const BLOCK_LOOPS: u64 = 8;
/// Server start-ups measured for `setup_s` in an untraced run.
const SETUP_REPS: usize = 31;
/// The server's default request deadline, applied to in-process runs the
/// way its dispatch applies it.
const DEADLINE: Duration = Duration::from_millis(5_000);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Write,
    Run,
    Read,
}

impl Class {
    fn parent(self) -> &'static str {
        match self {
            Class::Write => "@write",
            Class::Run => "@run",
            Class::Read => "@read",
        }
    }
}

#[derive(Default)]
struct Reply {
    ok: bool,
    error: Option<String>,
    tags: Vec<u64>,
    fired: u64,
}

fn reply_of(v: &Json) -> Reply {
    Reply {
        ok: v.get("ok").and_then(Json::as_bool) == Some(true),
        error: v.get("error").and_then(Json::as_str).map(str::to_string),
        tags: v
            .get("tags")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default(),
        fired: v.get("fired").and_then(Json::as_u64).unwrap_or(0),
    }
}

fn failure(code: &str) -> Reply {
    Reply {
        error: Some(code.to_string()),
        ..Reply::default()
    }
}

trait Transport {
    fn call(&mut self, line: &str, class: Class) -> Reply;

    /// Record spans from the next request on (only the in-process replay
    /// records any).
    fn set_traced(&mut self, _on: bool) {}
}

/// A line-protocol connection to the server process.
struct Wire(Client);

impl Transport for Wire {
    fn call(&mut self, line: &str, _class: Class) -> Reply {
        match self.0.request(line) {
            Ok(v) => reply_of(&v),
            Err(e) => failure(&format!("transport: {}", e)),
        }
    }
}

/// The server's dispatch, replayed in process with a span around every
/// public call it makes.
struct InProc<'a> {
    store: &'a SessionStore,
    tr: Tracer,
    /// Conflict-set length at the start of each `run`, summed.
    cs_len_sum: u64,
    runs: u64,
}

impl Transport for InProc<'_> {
    fn set_traced(&mut self, on: bool) {
        self.tr.set_on(on);
    }

    fn call(&mut self, line: &str, class: Class) -> Reply {
        let tr = &mut self.tr;
        let parent = tr.begin(class.parent());
        let sp = tr.begin("lang.json.decode");
        let req = parse_request(line);
        tr.end(sp);
        let req = match req {
            Ok(r) => r,
            Err(resp) => {
                std::hint::black_box(resp.render());
                tr.end(parent);
                return failure("bad-frame");
            }
        };
        let name = req.session.clone().unwrap_or_default();
        let sp = tr.begin("server.session_lock");
        let slot = self.store.get(&name);
        let guard = slot.as_deref().and_then(|s| s.try_lock());
        tr.end(sp);
        let (Some(slot), Some(mut g)) = (slot.as_deref(), guard) else {
            tr.end(parent);
            return failure("overloaded");
        };
        let mut reply = Reply {
            ok: true,
            ..Reply::default()
        };
        let resp = match req.op.as_str() {
            "assert-batch" => {
                let sp = tr.begin("server.admission");
                std::hint::black_box(self.store.total_bytes());
                tr.end(sp);
                let facts = req.body.get("facts").and_then(Json::as_arr).unwrap_or(&[]);
                let mut tags = Vec::with_capacity(facts.len());
                for f in facts {
                    let sp = tr.begin("lang.json.decode");
                    let fact = json::fact_from_json(f);
                    tr.end(sp);
                    let Ok((class, slots)) = fact else {
                        reply.ok = false;
                        break;
                    };
                    let sp = tr.begin("core.assert");
                    let r = g.ps.assert_wme(class, slots);
                    tr.end(sp);
                    match r {
                        Ok(t) => {
                            reply.tags.push(t.raw());
                            tags.push(Json::Int(t.raw() as i64));
                        }
                        Err(_) => {
                            reply.ok = false;
                            break;
                        }
                    }
                }
                g.dirty = true;
                let sp = tr.begin("reldb.wal.sync");
                reply.ok &= g.ps.sync_wal().is_ok();
                tr.end(sp);
                Response::with(vec![
                    ("count".into(), Json::Int(tags.len() as i64)),
                    ("tags".into(), Json::Arr(tags)),
                ])
            }
            "retract" => {
                let tag = req.body.get("tag").and_then(Json::as_u64).unwrap_or(0);
                let sp = tr.begin("core.retract");
                reply.ok = g.ps.retract_wme(TimeTag::new(tag)).is_ok();
                tr.end(sp);
                g.dirty = true;
                let sp = tr.begin("reldb.wal.sync");
                reply.ok &= g.ps.sync_wal().is_ok();
                tr.end(sp);
                Response::ok()
            }
            "run" => {
                let sp = tr.begin("server.admission");
                std::hint::black_box(self.store.total_bytes());
                tr.end(sp);
                self.cs_len_sum += g.ps.conflict_set_len() as u64;
                self.runs += 1;
                let saved = g.ps.guards();
                let mut guards = saved;
                guards.max_wall = Some(saved.max_wall.map_or(DEADLINE, |w| w.min(DEADLINE)));
                g.ps.set_guards(guards);
                let sp = tr.begin("core.run");
                let outcome = g.ps.run(None);
                tr.end(sp);
                g.ps.set_guards(saved);
                g.dirty = true;
                let sp = tr.begin("reldb.wal.sync");
                reply.ok = g.ps.sync_wal().is_ok() && !outcome.reason.is_abnormal();
                tr.end(sp);
                reply.fired = outcome.fired;
                Response::with(vec![
                    ("fired".into(), Json::Int(outcome.fired as i64)),
                    ("reason".into(), Json::Str(outcome.reason.label().into())),
                    ("cycle".into(), Json::Int(g.ps.cycle() as i64)),
                    (
                        "conflict_set_len".into(),
                        Json::Int(g.ps.conflict_set_len() as i64),
                    ),
                ])
            }
            "query-conflict-set" => {
                let sp = tr.begin("core.cs_render");
                let lines = conflict_lines(&g.ps);
                tr.end(sp);
                Response::with(vec![
                    ("entries".into(), Json::Int(lines.len() as i64)),
                    (
                        "conflict_set".into(),
                        Json::Arr(lines.into_iter().map(Json::Str).collect()),
                    ),
                    ("firings".into(), Json::Int(g.ps.stats().firings as i64)),
                    ("wm".into(), Json::Int(g.ps.wm().len() as i64)),
                ])
            }
            other => {
                reply.ok = false;
                Response::err("bad-request", &format!("unknown op {:?}", other))
            }
        };
        let sp = tr.begin("server.publish_bytes");
        slot.publish_bytes(&g);
        tr.end(sp);
        drop(g);
        let sp = tr.begin("lang.json.encode");
        std::hint::black_box(resp.render());
        tr.end(sp);
        tr.end(parent);
        reply
    }
}

/// One session's seeded request stream.
struct Gen {
    rng: Rng,
    session: String,
    next_id: i64,
}

impl Gen {
    fn new(seed: u64, client: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, 100 + client as u64),
            session: format!("s{}", client),
            next_id: 1,
        }
    }

    /// An `assert-batch` line and the positions of its facts no rule will
    /// ever consume: one pair whose stock is short, and a lone stock.
    fn batch(&mut self) -> (String, Vec<usize>) {
        let fact = |class: &str, id: i64, qty: i64| {
            format!(
                r#"{{"class":"{}","slots":{{"id":{},"qty":{}}}}}"#,
                class, id, qty
            )
        };
        let short = self.rng.below(PAIRS as u64) as usize;
        let mut facts: Vec<(String, bool)> = Vec::with_capacity(2 * PAIRS + 1);
        for k in 0..PAIRS {
            let id = self.next_id;
            self.next_id += 1;
            let oq = 2 + self.rng.below(9) as i64;
            let sq = if k == short {
                self.rng.below(oq as u64) as i64
            } else {
                oq + self.rng.below(5) as i64
            };
            facts.push((fact("order", id, oq), k == short));
            facts.push((fact("stock", id, sq), k == short));
        }
        // Orders have positive ids, so a negative-id stock never joins.
        let lone = -self.next_id;
        self.next_id += 1;
        facts.push((fact("stock", lone, self.rng.below(10) as i64), true));
        self.rng.shuffle(&mut facts);
        let unmatched = facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.1)
            .map(|(i, _)| i)
            .collect();
        let body: Vec<String> = facts.into_iter().map(|f| f.0).collect();
        (
            format!(
                r#"{{"op":"assert-batch","session":"{}","facts":[{}]}}"#,
                self.session,
                body.join(",")
            ),
            unmatched,
        )
    }

    fn retract(&self, tag: u64) -> String {
        format!(
            r#"{{"op":"retract","session":"{}","tag":{}}}"#,
            self.session, tag
        )
    }

    fn op(&self, op: &str) -> String {
        format!(r#"{{"op":"{}","session":"{}"}}"#, op, self.session)
    }
}

/// An acknowledged mutation, kept for the replay check.
enum Acked {
    Batch(String, Vec<u64>),
    Retract(u64),
    Run,
}

#[derive(Default)]
struct Log {
    /// Latency per class: write, run, read.
    lat: [Samples; 3],
    /// Latency of the `assert-batch` requests alone (also in `lat[0]`).
    batch: Samples,
    attempted: u64,
    failed: u64,
    overloaded: u64,
    facts: u64,
    firings: u64,
    acked: Vec<Acked>,
    first_error: Option<String>,
    elapsed_ns: u64,
    blocks: Vec<Block>,
}

/// One block of loops: traced or not, its duration, and the requests
/// answered ok and facts acknowledged in it.
struct Block {
    traced: bool,
    ns: u64,
    requests: u64,
    facts: u64,
}

impl Log {
    /// The median over this client's untraced blocks of `count` per second.
    fn block_rate(&self, count: fn(&Block) -> u64) -> f64 {
        let v: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| !b.traced)
            .map(|b| count(b) as f64 / (b.ns.max(1) as f64 / 1e9))
            .collect();
        median(&v)
    }

    fn close_block(&mut self, (traced, t0, requests, facts): (bool, Instant, u64, u64)) {
        self.blocks.push(Block {
            traced,
            ns: ns(t0),
            requests: self.attempted - self.failed - requests,
            facts: self.facts - facts,
        });
    }
}

impl Log {
    fn send(&mut self, t: &mut impl Transport, line: &str, class: Class) -> Reply {
        let t0 = Instant::now();
        let r = t.call(line, class);
        self.lat[class as usize].push(ns(t0));
        self.attempted += 1;
        if !r.ok {
            self.failed += 1;
            if r.error.as_deref() == Some("overloaded") {
                self.overloaded += 1;
            }
            if self.first_error.is_none() {
                self.first_error = Some(format!("{}: {:?}", line, r.error));
            }
        }
        r
    }
}

/// The closed loop: each request waits for the previous reply. With
/// `alternate`, blocks of loops alternate untraced and traced.
fn drive(t: &mut impl Transport, gen: &mut Gen, seconds: f64, alternate: bool, log: &mut Log) {
    let start = Instant::now();
    let mut leftover: Vec<u64> = Vec::new();
    let mut block = (false, Instant::now(), 0u64, 0u64);
    let mut loops = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        if loops > 0 && loops.is_multiple_of(BLOCK_LOOPS) {
            let traced = block.0;
            log.close_block(block);
            block = (
                alternate && !traced,
                Instant::now(),
                log.attempted - log.failed,
                log.facts,
            );
            t.set_traced(block.0);
        }
        loops += 1;
        let (line, unmatched) = gen.batch();
        let r = log.send(t, &line, Class::Write);
        let last = *log.lat[Class::Write as usize].0.last().expect("just timed");
        log.batch.push(last);
        if r.ok {
            log.facts += r.tags.len() as u64;
            log.acked.push(Acked::Batch(line, r.tags.clone()));
        }
        // Retract the previous batch's unconsumed facts; this batch's stay
        // until the next loop, so the aggregate rule has an order to fire
        // on once the join has consumed the matched pairs.
        for tag in std::mem::take(&mut leftover) {
            if log.send(t, &gen.retract(tag), Class::Write).ok {
                log.facts += 1;
                log.acked.push(Acked::Retract(tag));
            }
        }
        leftover = unmatched
            .iter()
            .filter_map(|&i| r.tags.get(i).copied())
            .collect();
        let r = log.send(t, &gen.op("run"), Class::Run);
        if r.ok {
            log.firings += r.fired;
            log.acked.push(Acked::Run);
        }
        log.send(t, &gen.op("query-conflict-set"), Class::Read);
    }
    log.close_block(block);
    log.elapsed_ns = ns(start);
}

// ------------------------------------------------------------ the process

struct ServerProc {
    child: Child,
    addr: String,
}

impl Drop for ServerProc {
    /// Never leave a server behind, whatever path the run took.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn spawn(bin: &Path, dir: &Path) -> Result<ServerProc, String> {
    let mut child = Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {}", bin.display(), e))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    let read = BufReader::new(stdout).read_line(&mut line);
    let mut proc = ServerProc {
        child,
        addr: String::new(),
    };
    match (
        read,
        line.trim().strip_prefix("sorete-server listening on "),
    ) {
        (Ok(_), Some(addr)) => {
            proc.addr = addr.to_string();
            Ok(proc)
        }
        _ => Err(format!("server did not report its address: {:?}", line)),
    }
}

fn request(c: &mut Client, line: &str) -> Result<Json, String> {
    let v = c.request(line).map_err(|e| e.to_string())?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} -> {}", line, v.render()));
    }
    Ok(v)
}

fn open_session(c: &mut Client, session: &str) -> Result<Json, String> {
    request(
        c,
        &format!(r#"{{"op":"open-session","session":"{}"}}"#, session),
    )
}

/// Start a server on `dir`, connect the clients, open and load sessions.
fn start(bin: &Path, dir: &Path) -> Result<(ServerProc, Vec<Client>), String> {
    let srv = spawn(bin, dir)?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut c = Client::connect(&srv.addr).map_err(|e| e.to_string())?;
        let session = format!("s{}", i);
        open_session(&mut c, &session)?;
        let load = Json::Obj(vec![
            ("op".into(), Json::Str("load-rules".into())),
            ("session".into(), Json::Str(session)),
            ("program".into(), Json::Str(PROGRAM.into())),
        ]);
        request(&mut c, &load.render())?;
        clients.push(c);
    }
    Ok((srv, clients))
}

/// Graceful stop through the `shutdown` op; waits for the process to exit.
fn stop(mut srv: ServerProc, clients: Vec<Client>) -> Result<(), String> {
    drop(clients);
    if let Ok(mut c) = Client::connect(&srv.addr) {
        let _ = c.request(r#"{"op":"shutdown"}"#);
    }
    let t = Instant::now();
    while t.elapsed() < Duration::from_secs(30) {
        if let Ok(Some(status)) = srv.child.try_wait() {
            return if status.success() {
                Ok(())
            } else {
                Err(format!("server exited with {}", status))
            };
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err("server did not exit after shutdown".into())
}

/// One session's observable state: conflict-set lines, WM size, firings.
type State = (Vec<String>, u64, u64);

fn query(c: &mut Client, session: &str) -> Result<State, String> {
    let v = request(
        c,
        &format!(r#"{{"op":"query-conflict-set","session":"{}"}}"#, session),
    )?;
    let lines = v
        .get("conflict_set")
        .and_then(Json::as_arr)
        .ok_or("no conflict_set")?
        .iter()
        .filter_map(|l| l.as_str().map(str::to_string))
        .collect();
    let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    Ok((lines, num("wm"), num("firings")))
}

/// Replay a session's acknowledged ops on an in-process engine with no WAL.
fn replay(acked: &[Acked]) -> Result<State, String> {
    let mut ps = ProductionSystem::new(MatcherKind::Rete);
    ps.load_program(PROGRAM).map_err(|e| e.to_string())?;
    for op in acked {
        match op {
            Acked::Batch(line, tags) => {
                let req = parse_request(line).map_err(|r| r.render())?;
                let facts = req.body.get("facts").and_then(Json::as_arr).unwrap_or(&[]);
                for (f, &want) in facts.iter().zip(tags) {
                    let (class, slots) = json::fact_from_json(f)?;
                    let tag = ps.assert_wme(class, slots).map_err(|e| e.to_string())?;
                    if tag.raw() != want {
                        return Err(format!("replay tag {} != server tag {}", tag.raw(), want));
                    }
                }
            }
            Acked::Retract(tag) => ps
                .retract_wme(TimeTag::new(*tag))
                .map_err(|e| e.to_string())?,
            Acked::Run => {
                ps.run(None);
            }
        }
    }
    Ok((
        conflict_lines(&ps),
        ps.wm().len() as u64,
        ps.stats().firings,
    ))
}

fn compare(what: &str, want: &State, got: &State) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    Err(format!(
        "{}: {} cs lines/wm {}/firings {} vs {} cs lines/wm {}/firings {}",
        what,
        want.0.len(),
        want.1,
        want.2,
        got.0.len(),
        got.1,
        got.2
    ))
}

/// SIGKILL the server, restart it on the same data dir, and require every
/// session to come back recovered with the same state. Returns the time
/// from spawn until every session has answered `open-session`.
fn kill_and_recover(
    bin: &Path,
    dir: &Path,
    mut srv: ServerProc,
    states: &[State],
) -> Result<f64, String> {
    srv.child.kill().map_err(|e| e.to_string())?;
    srv.child.wait().map_err(|e| e.to_string())?;
    drop(srv);
    let t = Instant::now();
    let srv = spawn(bin, dir)?;
    let mut c = Client::connect(&srv.addr).map_err(|e| e.to_string())?;
    for i in 0..CLIENTS {
        let v = open_session(&mut c, &format!("s{}", i))?;
        if v.get("recovered").and_then(Json::as_bool) != Some(true) {
            return Err(format!("session s{} not recovered: {}", i, v.render()));
        }
    }
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    for (i, want) in states.iter().enumerate() {
        let got = query(&mut c, &format!("s{}", i))?;
        compare(&format!("s{} after restart", i), want, &got)?;
    }
    stop(srv, vec![c])?;
    Ok(recovery_ms)
}

/// Run every client's loop concurrently over `transports`.
fn run_clients<T: Transport + Send>(
    transports: Vec<T>,
    seed: u64,
    seconds: f64,
    alternate: bool,
) -> Vec<(T, Log)> {
    let barrier = Barrier::new(transports.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut gen = Gen::new(seed, i);
                    let mut log = Log::default();
                    barrier.wait();
                    drive(&mut t, &mut gen, seconds, alternate, &mut log);
                    (t, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn merged(logs: &[&Log], class: Class) -> Samples {
    let mut s = Samples::default();
    for l in logs {
        s.extend(&l.lat[class as usize]);
    }
    s
}

/// The in-process replay of the same streams, alternating blocks of loops
/// untraced and traced.
struct InProcPhase {
    tracers: Vec<Tracer>,
    logs: Vec<Log>,
    cs_len_sum: u64,
    runs: u64,
    counts: Counts,
    wal: sorete_reldb::WalStats,
    cs_len: u64,
}

fn inproc_phase(dir: &Path, seed: u64, seconds: f64) -> Result<InProcPhase, String> {
    let store = SessionStore::new();
    for i in 0..CLIENTS {
        let (slot, _) = store
            .open(dir, &format!("s{}", i), 64)
            .map_err(|e| e.message)?;
        let mut g = slot.try_lock().ok_or("fresh session is busy")?;
        g.load_rules(PROGRAM).map_err(|e| e.message)?;
    }
    let transports = (0..CLIENTS)
        .map(|_| {
            let mut tr = Tracer::new(true);
            tr.set_on(false);
            InProc {
                store: &store,
                tr,
                cs_len_sum: 0,
                runs: 0,
            }
        })
        .collect();
    let done = run_clients(transports, seed, seconds, true);
    let mut p = InProcPhase {
        tracers: Vec::new(),
        logs: Vec::new(),
        cs_len_sum: 0,
        runs: 0,
        counts: Counts::default(),
        wal: Default::default(),
        cs_len: 0,
    };
    for (t, log) in done {
        p.cs_len_sum += t.cs_len_sum;
        p.runs += t.runs;
        p.tracers.push(t.tr);
        p.counts.wm_changes += log.facts;
        p.logs.push(log);
    }
    for (_, slot) in store.all() {
        let g = slot.lock();
        let st = g.ps.match_stats();
        let c = &mut p.counts;
        c.stats = c.stats.merged(&st);
        let rs = g.ps.stats();
        c.firings += rs.firings;
        c.actions += rs.actions;
        c.wm_changes += rhs_changes(rs);
        let mem = g.ps.memory_report();
        c.bytes_live += mem.total_bytes();
        c.bytes_peak += mem.total_bytes();
        c.gamma_bytes += mem.region("gamma").map(|r| r.bytes).unwrap_or(0);
        c.live_wmes += g.ps.wm().len() as u64;
        p.cs_len += g.ps.conflict_set_len() as u64;
        if let Some(w) = g.ps.wal_stats() {
            p.wal.fsyncs += w.fsyncs;
            p.wal.writes += w.writes;
            p.wal.bytes += w.bytes;
        }
    }
    Ok(p)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let bin = &cfg.server_bin;
    if !bin.is_file() {
        return Err(format!("server binary {} not found", bin.display()));
    }
    let work: PathBuf = cfg.work_dir.join("server-ingest");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let r = measure(cfg, bin, &work);
    let _ = std::fs::remove_dir_all(&work);
    r
}

fn measure(cfg: &Config, bin: &Path, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    println!(
        "server-ingest: {} closed-loop clients, one session each; per loop 1 assert-batch of {} facts, \
         3 retracts, 1 run, 1 query-conflict-set; WAL flush policy {:?}",
        CLIENTS,
        2 * PAIRS + 1,
        sorete_reldb::WalOptions::default()
    );

    // Set-up: spawn -> listening, open-session and load-rules per session.
    // Repeated; the last server stays up for the measured phase.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..reps {
        let dir = work.join(format!("data-{}", k));
        let t = Instant::now();
        let (srv, clients) = start(bin, &dir)?;
        setups.push(t.elapsed().as_secs_f64());
        if k + 1 < reps {
            stop(srv, clients)?;
        } else {
            live = Some((srv, clients, dir));
        }
    }
    let (srv, clients, data_dir) = live.expect("at least one set-up");

    let wires = clients.into_iter().map(Wire).collect();
    let done = run_clients(wires, cfg.seed, seconds, false);
    let rss = peak_rss_mib(Some(srv.child.id()));
    let (mut wires, logs): (Vec<Wire>, Vec<Log>) = done.into_iter().unzip();
    let log_refs: Vec<&Log> = logs.iter().collect();

    // Checks, outside the measured phase.
    let mut states = Vec::new();
    let mut replay_check = Ok(());
    for (i, (w, log)) in wires.iter_mut().zip(&logs).enumerate() {
        let session = format!("s{}", i);
        let got = query(&mut w.0, &session)?;
        let want = replay(&log.acked);
        if replay_check.is_ok() {
            replay_check = want.and_then(|want| compare(&session, &want, &got));
        }
        states.push(got);
    }
    out.check(
        "server-ingest sessions equal an in-process replay of the acknowledged ops",
        replay_check,
    );
    drop(wires);
    let recovery = kill_and_recover(bin, &data_dir, srv, &states);
    let recovery_ms = *recovery.as_ref().unwrap_or(&0.0);
    out.check(
        "server-ingest state survives SIGKILL and restart",
        recovery.map(|_| ()),
    );

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let overloaded: u64 = logs.iter().map(|l| l.overloaded).sum();
    let facts: u64 = logs.iter().map(|l| l.facts).sum();
    let firings: u64 = logs.iter().map(|l| l.firings).sum();
    let wall = logs.iter().map(|l| l.elapsed_ns).max().unwrap_or(1) as f64 / 1e9;
    // Each client's median rate over its blocks of loops, summed over the
    // clients, so a burst of host or fsync noise moves a few blocks and
    // not the result.
    let facts_per_s: f64 = logs.iter().map(|l| l.block_rate(|b| b.facts)).sum();
    let ops_per_s: f64 = logs.iter().map(|l| l.block_rate(|b| b.requests)).sum();
    if let Some(e) = logs.iter().find_map(|l| l.first_error.as_ref()) {
        println!("server-ingest: first failed request: {}", e);
    }
    out.attempted = attempted;
    out.failed = failed;
    let mut batches = Samples::default();
    for l in &logs {
        batches.extend(&l.batch);
    }
    let batch = batches.pct();
    let write = merged(&log_refs, Class::Write).pct();
    let client_pct = [
        write,
        merged(&log_refs, Class::Run).pct(),
        merged(&log_refs, Class::Read).pct(),
    ];
    println!(
        "server-ingest: {:.3} s measured, {} requests ({} failed, {} overloaded), {} facts, {} firings",
        wall, attempted, failed, overloaded, facts, firings
    );
    println!("server-ingest: assert-batch requests {}", batch.describe());
    println!(
        "report server-ingest: facts_per_s={:.1} 1/s, firings_per_s={:.1} 1/s, requests_per_s={:.1} 1/s, \
         {}, {}, {}, peak_rss_mb={:.2} MiB (server VmHWM), failed_ratio={:.6}, setup_s={:.6} s (median of {}), \
         recovery_ms={:.1} ms",
        facts_per_s,
        firings as f64 / wall,
        ops_per_s,
        latency_items("write", &client_pct[0]),
        latency_items("run", &client_pct[1]),
        latency_items("read", &client_pct[2]),
        rss,
        failed as f64 / attempted.max(1) as f64,
        median(&setups),
        setups.len(),
        recovery_ms
    );
    if !cfg.trace {
        out.metric("setup_s", median(&setups));
        out.metric("facts_per_s", facts_per_s);
        out.metric("ops_per_s", ops_per_s);
        out.metric("op_p50_us", batch.p50_us);
        out.metric("peak_rss_mb", rss);
        return Ok(out);
    }

    // Traced run: the same streams replayed in process.
    out.metric("reldb.wal.recovery_ms", recovery_ms);
    out.metric(
        "server.overloaded_ratio",
        overloaded as f64 / attempted.max(1) as f64,
    );
    let traced = inproc_phase(&work.join("inproc"), cfg.seed, seconds)?;
    let trs: Vec<&Tracer> = traced.tracers.iter().collect();
    let p50 = |name: &str| {
        let mut s = Samples::default();
        for t in &trs {
            s.extend(&t.durations(name));
        }
        s.pct().p50_us
    };
    let mut decode = Samples::default();
    for t in &trs {
        decode.extend(&t.per_parent_sum("@", "lang.json.decode"));
    }
    out.metric("lang.json.decode_us", decode.pct().p50_us);
    out.metric("lang.json.encode_us", p50("lang.json.encode"));
    out.metric("server.session_lock_us", p50("server.session_lock"));
    for (name, class) in [
        ("server.wire_write_us", Class::Write),
        ("server.wire_run_us", Class::Run),
        ("server.wire_read_us", Class::Read),
    ] {
        out.metric(
            name,
            client_pct[class as usize].p50_us - p50(class.parent()),
        );
    }
    out.metric("core.assert_us", p50("core.assert"));
    out.metric("core.retract_us", p50("core.retract"));
    out.metric("core.run_us", p50("core.run"));
    out.metric("core.cs_render_us", p50("core.cs_render"));
    out.metric("reldb.wal.sync_us", p50("reldb.wal.sync"));
    let tfacts: u64 = traced.logs.iter().map(|l| l.facts).sum();
    out.metric(
        "reldb.wal.fsyncs_per_fact",
        traced.wal.fsyncs as f64 / tfacts.max(1) as f64,
    );
    out.metric(
        "reldb.wal.writes_per_fact",
        traced.wal.writes as f64 / tfacts.max(1) as f64,
    );
    out.metric(
        "reldb.wal.bytes_per_fact",
        traced.wal.bytes as f64 / tfacts.max(1) as f64,
    );
    out.metric("core.cs_len", traced.cs_len as f64);
    out.metric(
        "core.cs_len_mean",
        traced.cs_len_sum as f64 / traced.runs.max(1) as f64,
    );
    traced.counts.emit(&mut out);
    let mut loads = Vec::new();
    for _ in 0..21 {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        let t = Instant::now();
        ps.load_program(PROGRAM).map_err(|e| e.to_string())?;
        loads.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.metric("lang.load_program_ms", median(&loads));

    let per_op = |on: bool| {
        let (mut ns, mut ops) = (0u64, 0u64);
        for b in traced
            .logs
            .iter()
            .flat_map(|l| &l.blocks)
            .filter(|b| b.traced == on)
        {
            ns += b.ns;
            ops += b.requests;
        }
        ns as f64 / ops.max(1) as f64
    };
    let overhead = per_op(true) / per_op(false) - 1.0;
    out.metric("trace.overhead_share", overhead);
    let thread_ns: Vec<u64> = traced
        .logs
        .iter()
        .map(|l| l.blocks.iter().filter(|b| b.traced).map(|b| b.ns).sum())
        .collect();
    let ledger = Ledger::build(&trs, &thread_ns, "@");
    let reconciled = ledger.print("server-ingest", overhead);
    let wal_rows: u64 = ledger
        .rows
        .iter()
        .filter(|r| matches!(r.1.as_str(), "core.assert" | "core.retract") || r.0 == "reldb")
        .map(|r| r.3)
        .sum();
    println!(
        "  WAL write path (core.assert + core.retract, each committing and fsyncing, + reldb.wal.sync): {:.1}% of traced time",
        ledger.share(wal_rows) * 100.0
    );
    out.metric("unattributed_share", ledger.unattributed_share());
    out.check(
        "server-ingest ledger rows add back to the traced total",
        reconciled,
    );
    let _ = write_spans(&cfg.work_dir.join("spans-server-ingest.tsv"), &trs, 100_000);
    Ok(out)
}
