#!/usr/bin/env python3
"""Run one workload of the sorete benchmark, or the smoke test of all three.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout of the repository. The script builds the
harness package (perfbench/harness) and the sorete-server binary from
source into $CARGO_TARGET_DIR (default .bench_build), runs the harness,
echoes its report, checks the result line against BENCHMARK.json and
prints it as the last line of standard output. The exit code is 0 only
when the run completed and every correctness check passed.

--smoke runs every workload at a tiny size, untraced and traced, and
checks that each emits every metric BENCHMARK.json names, with its unit,
and that each of its correctness checks ran and passed.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness")
# Correctness checks every workload runs; a traced run adds the ledger's.
CHECKS = 2
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Name the code measured: a digest of the sources, plus the git commit
    when the checkout is a git repository."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock", "crates")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files.extend(os.path.join(d, n) for n in sorted(names))
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    ident = "sources-sha256:" + h.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if commit.returncode == 0 and commit.stdout.strip():
            ident += " git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "server", "Cargo.toml")):
        die("no sorete sources next to perfbench/; run from a checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HARNESS, "Cargo.toml"),
        "-p", "sorete-perfbench", "-p", "sorete-server",
    ]
    # Build output goes to stderr: stdout carries only the report.
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if r.returncode != 0:
        die(f"build failed ({r.returncode})")
    # Write back what the build left dirty, so its writeback does not
    # queue behind the WAL fsyncs that server-ingest measures.
    os.sync()
    rel = os.path.join(target, "release")
    return os.path.join(rel, "sorete-perfbench"), os.path.join(rel, "sorete-server")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(result, trace, contract):
    """Problems with a result line, checked against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    for k in ("attempted", "failed"):
        if not isinstance(result.get(k), int):
            problems.append(f"{k} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append(
            f"metrics missing {sorted(names - set(metrics))} extra {sorted(set(metrics) - names)}"
        )
    for m in wanted:
        got = metrics.get(m["name"])
        if not isinstance(got, dict):
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{m['name']} value {v!r} is not a finite number")
    return problems


def run_harness(harness, server, workload, seed, seconds, trace, size, ident):
    """Run the harness in its own process group, so a timeout also stops
    the server it started. Returns (exit code, stdout lines)."""
    work = os.path.join(ROOT, ".perfbench-run")
    os.makedirs(work, exist_ok=True)
    cmd = [
        harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--server-bin", server, "--work-dir", work,
        "--size", size, "--source-id", ident,
    ]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return p.returncode, out.splitlines()


def one(args):
    contract = load_contract()
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    harness, server = build()
    code, lines = run_harness(
        harness, server, args.workload, args.seed, args.seconds, args.trace == 1, "full",
        source_id(),
    )
    if not lines:
        die(f"{args.workload}: the harness printed nothing (exit {code})", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        die(f"{args.workload}: no result line (exit {code})", 1)
    problems = validate(result, args.trace == 1, contract)
    if problems:
        die(f"{args.workload}: result breaks BENCHMARK.json: {'; '.join(problems)}", 3)
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


def smoke():
    contract = load_contract()
    harness, server = build()
    ident = source_id()
    bad = []
    for w in [x["name"] for x in contract["workloads"]]:
        for trace in (False, True):
            label = f"{w} trace={int(trace)}"
            code, lines = run_harness(harness, server, w, 1, 2, trace, "tiny", ident)
            checks = [l for l in lines if l.startswith("check ")]
            want = CHECKS + (1 if trace else 0)
            try:
                result = json.loads(lines[-1])
                problems = validate(result, trace, contract)
            except (IndexError, json.JSONDecodeError):
                problems = ["no result line"]
            if code != 0:
                problems.append(f"exit {code}")
            if len(checks) != want or not all(l.endswith(": ok") for l in checks):
                problems.append(f"checks {checks} (want {want}, all ok)")
            print(f"smoke {label}: {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
            if problems:
                bad.append(label)
    if bad:
        die(f"smoke failed: {', '.join(bad)}", 1)
    print("smoke: every workload emitted every metric with its unit and passed its checks")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        smoke()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds <= 0:
        ap.error("--workload, --seed, --seconds (> 0) and --trace are required")
    one(args)


if __name__ == "__main__":
    main()
