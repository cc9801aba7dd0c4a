#!/usr/bin/env python3
"""The gcatch / gcatchd / gfix benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py describe [--seed N]
    python3 perfbench/run.py series --seeds 1-10 [--workload W] [--trace 0|1] --out FILE
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

A run builds the three binaries and the helper `pb` from source, sets up
the workload's seeded inputs, drives the real program binaries in a
closed loop (one client, one operation at a time) for whole rounds until
--seconds have passed, checks every operation's output against the
ground truth seeded into the inputs, and prints one JSON object as the
last line of stdout.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics from a separate
traced run of the same inputs (see README.md).
"""

import argparse
import collections
import hashlib
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cold-oneshot", "serve-edit", "gfix-dense")
# One job: at --jobs 2 a fresh process can race two domains into the
# first force of a shared lazy value, and the whole bmoc pass then
# degrades to no reports (CamlinternalLazy.Undefined; README, "Why
# --jobs 1").  An operation that fails only now and then cannot be
# counted the same way on every run.
JOBS = "1"
# set-ups per run; setup_s is their median
SETUPS = {"cold-oneshot": 3, "serve-edit": 3, "gfix-dense": 5}
# gfix-dense: GFix's fixpoint loop lands at most this many fixes, so
# programs with more fixable bugs fail (README, "The GFix fault")
GFIX_FAULT_THRESHOLD = 8
BUILD = "_build/default"
BINS = {
    "gcatch": BUILD + "/bin/gcatch_cli.exe",
    "gcatchd": BUILD + "/bin/gcatchd_cli.exe",
    "gfix": BUILD + "/bin/gfix_cli.exe",
    "pb": BUILD + "/perfbench/pb.exe",
}
WORK = ".perfbench-work"
SCHEMA = "gcatch-serve/1"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot run (as opposed to an operation failing)."""


# ------------------------------------------------------------ processes

LIVE = {}  # pid -> Popen of every child not yet reaped


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def child_env():
    # the program sees only its inputs and flags: no inherited cache
    # directory, job count or log level
    return {k: v for k, v in os.environ.items() if not k.startswith("GCATCH_")}


def spawn(argv, **kw):
    p = subprocess.Popen(argv, env=child_env(), **kw)
    LIVE[p.pid] = p
    return p


def reap(p, timeout=None):
    """Wait for [p]; return (exit code, rusage).  After [timeout] seconds
    the child is killed."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        flags = 0 if deadline is None else os.WNOHANG
        pid, status, ru = os.wait4(p.pid, flags)
        if pid == p.pid:
            break
        if time.monotonic() >= deadline:
            p.kill()
            deadline = None
        else:
            time.sleep(0.02)
    LIVE.pop(p.pid, None)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru


def stop_all():
    for p in list(LIVE.values()):
        try:
            p.terminate()
        except OSError:
            pass
        try:
            reap(p, timeout=30)
        except ChildProcessError:
            LIVE.pop(p.pid, None)


def timed_run(argv, out_path, err_path):
    """Spawn [argv] with stdout/stderr to files; return (seconds from
    spawn to reap, exit code, rusage)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = spawn(argv, stdout=out, stderr=err)
        code, ru = reap(p)
        dt = time.perf_counter() - t0
    return dt, code, ru


def pb(*args):
    r = subprocess.run([BINS["pb"], *args], env=child_env(), capture_output=True, text=True)
    if r.returncode != 0:
        raise Fatal("pb %s failed: %s" % (args[0], r.stderr.strip()))
    return r.stdout


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise Fatal("run from the root of a source checkout (no dune-project, lib/ or bin/ here)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    r = subprocess.run(cmd + ["build", "--root", "."] + ["./" + b[len(BUILD) + 1:] for b in BINS.values()],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise Fatal("build failed:\n" + r.stdout + r.stderr)


# ------------------------------------------------------------- checking

FILE_RE = re.compile(r".*/file(\d+)\.go$")


def diag_keys(run_json):
    """(pass, file index, line) of every diagnostic, or a reason string."""
    keys = []
    for d in run_json.get("diagnostics", []):
        loc = d.get("loc")
        m = FILE_RE.match(loc.get("file", "")) if loc else None
        if not m:
            return "diagnostic without a source location: %s" % d.get("message")
        keys.append((d["pass"], int(m.group(1)), loc["line"]))
    return keys


def check_run(run_json, spans_by_file):
    """Reasons the run's diagnostics disagree with the seeded truth:
    every bug instance needs a report of its pass inside its span, and
    nothing may be reported in filler or benign code."""
    if not run_json.get("frontend_ok"):
        return ["frontend failed"]
    health = run_json.get("health", {})
    if health.get("degraded") or health.get("skipped"):
        return ["analysis health not clean: %s" % health]
    keys = diag_keys(run_json)
    if isinstance(keys, str):
        return [keys]
    reasons = []
    for f, spans in spans_by_file.items():
        for s in spans:
            if s["label"] in ("bait", "benign"):
                continue
            if not any(p == s["label"] and kf == f and s["lo"] <= ln <= s["hi"] for p, kf, ln in keys):
                reasons.append("missed %s (%s) at file %d lines %d-%d" % (s["label"], s["kind"], f, s["lo"], s["hi"]))
    for p, f, ln in keys:
        span = next((s for s in spans_by_file.get(f, []) if s["lo"] <= ln <= s["hi"]), None)
        if span is None:
            reasons.append("%s report in filler code at file %d line %d" % (p, f, ln))
        elif span["label"] == "benign":
            reasons.append("%s report in benign %s at file %d line %d" % (p, span["kind"], f, ln))
    return reasons


def by_file(spans):
    out = collections.defaultdict(list)
    for s in spans:
        out[s["file"]].append(s)
    return out


# ------------------------------------------------------------ workloads

class Result:
    def __init__(self):
        self.latencies = []
        self.classes = []  # operation class, parallel to latencies
        self.failures = []  # (op, reason)
        self.expected_failures = 0
        self.setup = []
        self.peak_rss_kb = 0
        self.cpu_s = 0.0
        self.measured_s = 0.0


def run_rounds(seconds, one_round):
    """Whole rounds until [seconds] have passed, or until [one_round]
    returns False (its inputs ran out); returns the measured wall time."""
    t0 = time.perf_counter()
    while one_round() is not False and time.perf_counter() - t0 < seconds:
        pass
    return time.perf_counter() - t0


def warm_up(argv, d):
    """One unmeasured run of the program on freshly generated inputs, so
    that set-up leaves the binary and its inputs in the page cache; it
    also makes set-up long enough that a burst of host contention cannot
    double it."""
    timed_run(argv, os.path.join(d, "warm.out"), os.path.join(d, "warm.err"))


def cold_oneshot(work, seed, seconds, setups, res):
    for k in range(setups):
        d = os.path.join(work, "setup%d" % k)
        t0 = time.perf_counter()
        pb("gen-app", "--seed", str(seed), "--dir", d, "--edit-rounds", "0")
        with open(os.path.join(d, "app.json")) as f:
            app = json.load(f)
        argv = [BINS["gcatch"], "--json", "--jobs", JOBS] + app["files"]
        warm_up(argv, d)
        res.setup.append(time.perf_counter() - t0)
    truth = by_file(app["spans"])
    outs = []

    def one_round():
        n = len(res.latencies)
        out, err = os.path.join(work, "op%d.json" % n), os.path.join(work, "op%d.err" % n)
        dt, code, ru = timed_run(argv, out, err)
        res.latencies.append(dt)
        res.classes.append("gcatch")
        res.peak_rss_kb = max(res.peak_rss_kb, ru.ru_maxrss)
        res.cpu_s += ru.ru_utime + ru.ru_stime
        outs.append((n, code, out, err))

    res.measured_s = run_rounds(seconds, one_round)
    for n, code, out, err in outs:
        reasons = []
        if code != 1:  # 1 = bugs found, the right answer for this app
            with open(err) as f:
                reasons.append("exit code %d: %s" % (code, f.read()[-300:]))
        else:
            try:
                with open(out) as f:
                    reasons = check_run(json.load(f), truth)
            except ValueError as e:
                reasons = ["output is not JSON: %s" % e]
        for r in reasons:
            res.failures.append((n, r))


class Daemon:
    """One gcatchd on a Unix socket in [d], with a fresh cache dir."""

    def __init__(self, d):
        cache = os.path.join(d, "cache")
        os.makedirs(cache)
        self.err = open(os.path.join(d, "gcatchd.err"), "wb")
        self.proc = spawn([os.path.abspath(BINS["gcatchd"]), "--sock", "d.sock", "--jobs", JOBS,
                           "--cache-dir", os.path.abspath(cache), "--max-cache-mb", "64"],
                          cwd=d, stdout=subprocess.PIPE, stderr=self.err)
        self.sock = os.path.join(d, "d.sock")
        # the daemon is up once it prints its listening line
        deadline = time.monotonic() + 60
        line = b""
        while not line.startswith(b"gcatchd listening on"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise Fatal("gcatchd did not start listening")
            line = self.proc.stdout.readline()
            if not line:
                raise Fatal("gcatchd exited at start-up")

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def post(self, body):
        """POST /analyse; returns (seconds from request write to response
        read, HTTP status, response body)."""
        data = body.encode()
        req = (b"POST /analyse HTTP/1.1\r\nHost: gcatchd\r\nContent-Type: application/json\r\n"
               b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(data)) + data
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        t0 = time.perf_counter()
        try:
            s.connect(self.sock)
            t0 = time.perf_counter()
            s.sendall(req)
            chunks = []
            while True:
                c = s.recv(1 << 20)
                if not c:
                    break
                chunks.append(c)
        except OSError as e:
            # a daemon that died fails this and every later operation
            return time.perf_counter() - t0, 0, str(e).encode()
        finally:
            s.close()
        dt = time.perf_counter() - t0
        head, _, resp = b"".join(chunks).partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1]) if head.startswith(b"HTTP/") else 0
        return dt, status, resp

    def stop(self):
        """SIGTERM and reap; returns the rusage of the whole daemon."""
        self.proc.terminate()
        _, ru = reap(self.proc, timeout=60)
        self.proc.stdout.close()
        self.err.close()
        return ru


def request_body(files):
    return json.dumps({"schema": SCHEMA, "name": "cli", "files": files})


def check_response(status, resp, truth):
    if status != 200:
        return None, ["HTTP %d: %s" % (status, resp[:300])]
    try:
        r = json.loads(resp)
    except ValueError as e:
        return None, ["response is not JSON: %s" % e]
    if r.get("exit") != 1:
        return None, ["exit %s, want 1 (bugs found)" % r.get("exit")]
    return r["run"], check_run(r["run"], truth)


def serve_edit(work, seed, seconds, setups, res):
    # edit rounds for a program up to ~10x faster than today's; a run
    # that uses them all stops early rather than repeat a file state
    edit_rounds = seconds // 2 + 2
    daemon = None
    try:
        for k in range(setups):
            if daemon:
                daemon.stop()
            d = os.path.join(work, "setup%d" % k)
            t0 = time.perf_counter()
            pb("gen-app", "--seed", str(seed), "--dir", d, "--edit-rounds", str(edit_rounds))
            with open(os.path.join(d, "app.json")) as f:
                app = json.load(f)
            srcs = []
            for p in app["files"]:
                with open(p) as f:
                    srcs.append(f.read())
            daemon = Daemon(d)
            _, status, resp = daemon.post(request_body(
                [{"path": "f%02d.go" % i, "src": s} for i, s in enumerate(srcs)]))
            res.setup.append(time.perf_counter() - t0)
        truth = by_file(app["spans"])
        run, reasons = check_response(status, resp, truth)
        if reasons:
            raise Fatal("cold first request failed its check: %s" % "; ".join(reasons[:5]))
        baseline = collections.Counter(diag_keys(run))
        digests = [hashlib.md5(s.encode()).hexdigest() for s in srcs]
        edits = iter(app["edits"])
        responses = []

        def one_round():
            for _ in range(app["round"]):
                e = next(edits, None)
                if e is None:
                    return False
                with open(e["src"]) as f:
                    src = f.read()
                files = [{"path": "f%02d.go" % i, "digest": dg} for i, dg in enumerate(digests)]
                files[e["file"]] = {"path": "f%02d.go" % e["file"], "src": src}
                digests[e["file"]] = hashlib.md5(src.encode()).hexdigest()
                dt, status, resp = daemon.post(request_body(files))
                res.latencies.append(dt)
                res.classes.append(e["class"])
                responses.append((e, status, resp))

        cpu0 = daemon.cpu_s()
        res.measured_s = run_rounds(seconds, one_round)
        res.cpu_s = daemon.cpu_s() - cpu0
        ru = daemon.stop()
        daemon = None
        res.peak_rss_kb = ru.ru_maxrss
    finally:
        if daemon:
            daemon.stop()
    toggled = None
    for e, status, resp in responses:
        truth[e["file"]] = e["spans"]
        run, reasons = check_response(status, resp, truth)
        if e["class"] == "toggle-in":
            toggled = e["spans"][-1]
        elif e["class"] == "toggle-out":
            toggled = None
        elif toggled and toggled["file"] == e["file"]:
            toggled = e["spans"][-1]
        if run is not None and not reasons:
            # apart from the toggled instance's own reports, every
            # edit leaves the reports exactly as the first request had them
            keys = collections.Counter(
                k for k in diag_keys(run)
                if not (toggled and k[1] == toggled["file"] and toggled["lo"] <= k[2] <= toggled["hi"]))
            if keys != baseline:
                reasons.append("%s edit changed reports outside the toggled instance: +%s -%s" % (
                    e["class"], dict(keys - baseline), dict(baseline - keys)))
        for r in reasons:
            res.failures.append((e["op"], r))


def gfix_dense(work, seed, seconds, setups, res):
    for k in range(setups):
        d = os.path.join(work, "setup%d" % k)
        t0 = time.perf_counter()
        pb("gen-gfix", "--seed", str(seed), "--dir", d)
        with open(os.path.join(d, "gfix.json")) as f:
            progs = json.load(f)["programs"]
        # the warm-up program is the round's median one
        median = sorted(progs, key=lambda p: p["bugs"])[len(progs) // 2]
        warm_up([BINS["gfix"], "--validate", "--jobs", JOBS] + median["files"], d)
        res.setup.append(time.perf_counter() - t0)
    rounds = []

    def one_round():
        rd = os.path.join(work, "round%d" % len(rounds))
        os.makedirs(os.path.join(rd, "out"))
        codes = []
        for k, p in enumerate(progs):
            base = os.path.join(rd, "out", "p%02d" % k)
            dt, code, ru = timed_run([BINS["gfix"], "--validate", "--jobs", JOBS] + p["files"],
                                     base + ".out", base + ".err")
            res.latencies.append(dt)
            res.classes.append("%d-bug" % p["bugs"])
            res.peak_rss_kb = max(res.peak_rss_kb, ru.ru_maxrss)
            res.cpu_s += ru.ru_utime + ru.ru_stime
            codes.append(code)
        rounds.append((rd, codes))

    res.measured_s = run_rounds(seconds, one_round)
    # identical outputs get identical verdicts: check each distinct
    # round once
    verdicts = {}
    for r, (rd, codes) in enumerate(rounds):
        digest = hashlib.md5()
        for k in range(len(progs)):
            for ext in (".out", ".err"):
                with open(os.path.join(rd, "out", "p%02d%s" % (k, ext)), "rb") as f:
                    digest.update(f.read())
        key = digest.hexdigest()
        if key not in verdicts:
            verdicts[key] = [json.loads(l) for l in pb("check-gfix", "--seed", str(seed), "--dir", rd).splitlines()]
        for v in verdicts[key]:
            k = v["prog"]
            reasons = list(v["reasons"])
            if codes[k] != 0:
                reasons.insert(0, "gfix exit code %d" % codes[k])
            if not reasons:
                continue
            op = r * len(progs) + k
            if progs[k]["bugs"] > GFIX_FAULT_THRESHOLD and codes[k] == 0:
                res.expected_failures += 1
            for reason in reasons:
                res.failures.append((op, "%d-bug program: %s" % (progs[k]["bugs"], reason)))


RUNNERS = {"cold-oneshot": cold_oneshot, "serve-edit": serve_edit, "gfix-dense": gfix_dense}


def spawn_floor_ms():
    """Median spawn-to-reap time of a trivial CLI call."""
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        p = spawn([BINS["gcatch"], "--list-passes"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        reap(p)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def metric(v, unit):
    return {"value": v, "unit": unit}


def run_workload(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        res = Result()
        # a traced run measures end to end for half the time (set up
        # once), then traces the same inputs in process for the other half
        if trace:
            RUNNERS[workload](work, seed, max(1, seconds // 2), 1, res)
        else:
            RUNNERS[workload](work, seed, seconds, SETUPS[workload], res)
        attempted = len(res.latencies)
        failed_ops = sorted({op for op, _ in res.failures})
        for op, reason in res.failures:
            log("%s op %d failed: %s" % (workload, op, reason))
        correct = len(failed_ops) == res.expected_failures
        by_class = collections.defaultdict(list)
        for c, t in zip(res.classes, res.latencies):
            by_class[c].append(t)
        log("%s: %d operation(s) in %.1f s; median ms by class: %s" % (
            workload, attempted, res.measured_s,
            ", ".join("%s %.0f (%d)" % (c, 1000 * statistics.median(v), len(v)) for c, v in by_class.items())))
        p50_ms = 1000 * statistics.median(res.latencies)
        if not trace:
            metrics = {
                "setup_s": metric(statistics.median(res.setup), "s"),
                "latency_p50_ms": metric(p50_ms, "ms"),
                "ops_per_s": metric(attempted / res.measured_s, "ops/s"),
                "peak_rss_mb": metric(res.peak_rss_kb / 1024, "MB"),
                "cpu_ms_per_op": metric(1000 * res.cpu_s / attempted, "ms"),
            }
        else:
            spans = os.path.join(WORK, "spans-%s-%d.jsonl" % (workload, seed))
            traced = json.loads(pb("trace", "--workload", workload, "--seed", str(seed), "--dir", work,
                                   "--seconds", str(max(1, seconds - seconds // 2)),
                                   "--spans", spans).splitlines()[-1])
            log("spans of %d traced operation(s) in %s" % (traced["ops"], spans))
            spawn_ms = spawn_floor_ms()
            on_path = traced["attributed_ms"] + (spawn_ms if workload != "serve-edit" else 0.0)
            metrics = {}
            for name, v in traced["metrics"].items():
                unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
                metrics[name] = metric(v, unit)
            metrics["bin.spawn_ms"] = metric(spawn_ms, "ms")
            metrics["trace.unattributed_ms"] = metric(p50_ms - on_path, "ms")
        return {"correct": correct, "attempted": attempted, "failed": len(failed_ops), "metrics": metrics}
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)


# -------------------------------------------------------------- compare

def load_bench():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        return json.load(f)


def read_results(path):
    out = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                out[r["workload"]].append(r)
    return out


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], q[1], q[2]


def compare(old_path, new_path):
    bench = load_bench()
    old, new = read_results(old_path), read_results(new_path)
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        if not old.get(w) or not new.get(w):
            print("%s: missing from %s" % (w, old_path if not old.get(w) else new_path))
            ok = False
            continue
        for label, rs in (("old", old[w]), ("new", new[w])):
            print("%s %s: %d run(s), failed/attempted %d/%d" % (
                w, label, len(rs), sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)))
        print("  %-16s %12s %12s %12s | %12s %12s %12s  %8s %8s  %s" % (
            "metric", "old q1", "old median", "old q3", "new q1", "new median", "new q3",
            "spread", "bound", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ov = [r["metrics"][name]["value"] for r in old[w] if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in new[w] if name in r["metrics"]]
            if not ov or not nv:
                continue
            o1, om, o3 = quartiles(ov)
            n1, nm, n3 = quartiles(nv)
            worse = (nm - om) / om if m["better"] == "lower" else (om - nm) / om
            spread = (n3 - n1) / nm if nm else 0.0
            within = worse <= bound
            ok = ok and within
            print("  %-16s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f  %7.1f%% %7.0f%%  %s" % (
                name, o1, om, o3, n1, nm, n3, 100 * spread, 100 * bound,
                "within bound" if within else "WORSE by %.1f%%" % (100 * worse)))
        of = sum(r["failed"] for r in old[w]) / max(1, sum(r["attempted"] for r in old[w]))
        nf = sum(r["failed"] for r in new[w]) / max(1, sum(r["attempted"] for r in new[w]))
        print("  failed share: old %.4f new %.4f%s" % (of, nf, "" if of == nf else "  DIFFERS"))
        ok = ok and of == nf
    return 0 if ok else 1


# ----------------------------------------------------------------- main

def parse_seeds(s):
    if "-" in s:
        a, b = s.split("-", 1)
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in s.split(",")]


def main(argv):
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise Fatal("usage: run.py compare OLD.jsonl NEW.jsonl")
        return compare(argv[1], argv[2])
    if argv[:1] == ["describe"]:
        ap = argparse.ArgumentParser(prog="run.py describe")
        ap.add_argument("--seed", type=int, default=1)
        a = ap.parse_args(argv[1:])
        build()
        sys.stdout.write(pb("describe", "--seed", str(a.seed)))
        return 0
    if argv[:1] == ["series"]:
        ap = argparse.ArgumentParser(prog="run.py series")
        ap.add_argument("--seeds", default="1-10")
        ap.add_argument("--workload", choices=WORKLOADS, action="append")
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        ap.add_argument("--out", required=True)
        a = ap.parse_args(argv[1:])
        seconds = load_bench()["run_seconds"]
        for w in a.workload or WORKLOADS:
            for seed in parse_seeds(a.seeds):
                code = subprocess.call([sys.executable, __file__, "--workload", w, "--seed", str(seed),
                                        "--seconds", str(seconds), "--trace", str(a.trace), "--out", a.out])
                if code != 0:
                    return code
        return 0
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also append the result, with workload and seed, to this JSONL file")
    a = ap.parse_args(argv)
    build()
    result = run_workload(a.workload, a.seed, a.seconds, a.trace == 1)
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps(dict(result, workload=a.workload, seed=a.seed, trace=a.trace)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Fatal as e:
        stop_all()
        log(str(e))
        sys.exit(2)
