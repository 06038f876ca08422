#!/usr/bin/env python3
"""perfbench: the repository's benchmark for cspice and cntd.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N [--baseline FILE]
  python3 perfbench/run.py --bless

Run from the root of a source checkout.  It builds cspice, cntd and the
in-process harness (perfbench/layers.ml) with dune, generates the
workload's inputs from the seed (perfbench/gen.py), measures for S
seconds and checks every output.  With --trace 0 it times the real
cspice/cntd binaries and reports the end-to-end metrics; with --trace 1
it makes the traced in-process run and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--workload all runs every workload (both modes) and prints each metric
by name with its unit; --bless rewrites the references in
perfbench/refs/ from the deck catalogues.  See perfbench/README.md.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import gen  # noqa: E402

WORKLOADS = gen.WORKLOADS
REFS = os.path.join("perfbench", "refs")
MIX_REFS = os.path.join(REFS, "mix")
WORK = ".perfbench"
BUILD = os.path.join("_build", "default")
CSPICE = os.path.join(BUILD, "bin", "cspice.exe")
CNTD = os.path.join(BUILD, "bin", "cntd.exe")
LAYERS = os.path.join(BUILD, "perfbench", "layers.exe")
SPAWN = os.path.join(BUILD, "perfbench", "spawn.exe")
SOURCES = ("dune-project", "bin/cspice.ml", "bin/cntd.ml", "perfbench/layers.ml")

# Reference tables: every stored value must match within REF_RTOL of
# its column's full scale (largest magnitude over the stored rows) plus
# REF_ATOL.  On a 0.6 V swing that is 0.6 uV, far above the engine's
# 1e-9 Newton tolerance and far below any real change in a waveform.
REF_RTOL = 1e-6
REF_ATOL = 1e-15
# stored rows: every row for the chain and the cntd_mix decks, every
# 10th ring row, every 20th corner row
REF_STRIDE = {"chain": 1, "ring": 10, "corner": 20, "mix": 1}

CORNER_JOBS = 2
# decks of a workload the traced run traces (corner_sweep has 24)
TRACED_DECKS = 6
MIX_CONNS = 2
MIX_MIN_REQUESTS = 1000
# The load runs in many short segments: on a shared host the request
# latency drifts for seconds at a time, and the median of a few long
# segments follows whichever drift a run happens to meet.
MIX_SEGMENTS = 12
# per segment
MIX_CONNECT_RUNS = 18
MIX_SETUP_RUNS = 2
SETUP_MIN_SAMPLES = 3
SETUP_SHARE = 0.15
RUN_TIMEOUT = 120.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log(msg)
    sys.exit(code)


def clean_env():
    """The children see no CNT_*/CNTD_* overrides: every run uses the
    engine defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith(("CNT_", "CNTD_"))}


ENV = clean_env()


def build():
    missing = [f for f in SOURCES if not os.path.isfile(f)]
    if missing:
        die("not a source checkout (missing %s)" % ", ".join(missing), 2)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", CSPICE, CNTD, LAYERS, SPAWN],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=850,
    )
    if r.returncode != 0:
        die("build failed:\n" + r.stderr[-4000:], 2)


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------

class Ran:
    def __init__(self, wall, code, rss_mb, out, err):
        self.wall, self.code, self.rss_mb, self.out, self.err = wall, code, rss_mb, out, err


def run(argv, timeout=RUN_TIMEOUT):
    """Run one process to completion through perfbench/spawn.ml, which
    times it from spawn to exit (all output written) and reads its peak
    RSS.  A run past `timeout` is killed with its spawner."""
    out_path = os.path.join(WORK, "stdout.txt")
    err_path = os.path.join(WORK, "stderr.txt")
    p = subprocess.Popen([SPAWN, out_path, err_path] + argv, env=ENV, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True)
    try:
        report, problem = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return Ran(timeout, -1, float("nan"), "", "timed out after %g s" % timeout)
    try:
        wall, code, rss_kb = report.split()
    except ValueError:
        return Ran(float("nan"), -1, float("nan"), "", "spawn failed: " + problem.strip())
    with open(out_path) as f:
        o = f.read()
    with open(err_path) as f:
        e = f.read()
    return Ran(float(wall), int(code), int(rss_kb) / 1024.0, o, e)


def layers(args, timeout=RUN_TIMEOUT):
    r = run([LAYERS] + args, timeout=timeout)
    try:
        return r, json.loads(r.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return r, None


# ---------------------------------------------------------------------
# Reference tables
# ---------------------------------------------------------------------

def read_csv(path):
    with open(path) as f:
        lines = f.read().split("\n")
    header = lines[0]
    rows = [[float(x) for x in l.split(",")] for l in lines[1:] if l]
    return header, rows


def ref_path(key):
    kind, index = key
    return os.path.join(REFS, "%s_%d.csv" % (kind, index))


def write_ref(ref, csv_path, stride):
    header, rows = read_csv(csv_path)
    keep = list(range(0, len(rows), stride))
    if keep[-1] != len(rows) - 1:
        keep.append(len(rows) - 1)
    with open(csv_path) as f:
        raw = f.read().split("\n")[1:]
    with open(ref, "w") as f:
        f.write(header + "\n")
        for i in keep:
            f.write(raw[i] + "\n")


def check_table(ref, csv_path):
    """None when the table matches the stored reference table `ref`, else
    why not.  A one-row table (an operating point) is compared column by
    column.  Otherwise stored rows are located by their first column
    (time or sweep value) and compared after linear interpolation, so a
    change in the number of accepted time steps alone does not fail the
    check."""
    if not os.path.isfile(csv_path):
        return "no table written"
    header, rows = read_csv(csv_path)
    ref_header, ref_rows = read_csv(ref)
    if header != ref_header:
        return "columns %r, reference %r" % (header, ref_header)
    if not rows:
        return "empty table"
    xs = [r[0] for r in rows]
    scale = [max(abs(r[c]) for r in ref_rows) for c in range(len(ref_rows[0]))]
    first = 1
    for ref in ref_rows:
        x = ref[0]
        i = bisect.bisect_left(xs, x)
        if len(ref_rows) == 1:
            if len(rows) != 1:
                return "%d rows, reference 1" % len(rows)
            got, first = rows[0], 0
        elif i < len(xs) and abs(xs[i] - x) <= REF_RTOL * scale[0]:
            got = rows[i]
        elif 0 < i < len(xs):
            a, b = rows[i - 1], rows[i]
            w = (x - a[0]) / (b[0] - a[0])
            got = [a[c] + w * (b[c] - a[c]) for c in range(len(a))]
        else:
            return "x=%g outside the table" % x
        for c in range(first, len(ref)):
            if abs(got[c] - ref[c]) > REF_RTOL * scale[c] + REF_ATOL:
                return "%s at x=%g: %.9g, reference %.9g" % (
                    header.split(",")[c], x, got[c], ref[c])
    return None


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def pctl(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def tail(values):
    """The 99th percentile when at least ten samples lie beyond it, else
    the highest percentile that has ten beyond it (never below the
    median): a maximum of a few samples is too noisy to compare."""
    q = min(99.0, 100.0 * (1.0 - 10.0 / len(values)))
    return pctl(values, q) if q > 50.0 else statistics.median(values)


def fit_exponent(points):
    """Least-squares slope of log(y) against log(n)."""
    pts = [(math.log(n), math.log(y)) for n, y in points if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem, what):
        self.attempted += 1
        if problem:
            self.failed += 1
            log("FAILED %s: %s" % (what, problem))


# ---------------------------------------------------------------------
# End-to-end: offline workloads
# ---------------------------------------------------------------------

def cspice_args(spec):
    return ["--jobs", str(CORNER_JOBS)] if spec["workload"] == "corner_sweep" else []


def setup_sample(path, tally):
    """Parse + compile in a fresh process."""
    r, j = layers(["setup", path])
    tally.record(None if r.code == 0 and j else "setup exit %d: %s" % (r.code, r.err.strip()),
                 "setup " + path)
    if not j:
        raise RuntimeError("setup failed on " + path)
    return j["setup_s"]


def accuracy(spec, paths, tally):
    r, j = layers(["accuracy", spec["grid"]] + paths, timeout=170)
    values = [v for v in (j or {}).get("iv_rms_pct", {}).values() if v is not None]
    tally.record(None if r.code == 0 and values else "accuracy exit %d: %s" % (r.code, r.err.strip()),
                 "accuracy")
    return statistics.mean(values) if values else float("nan")


def offline_e2e(spec, seconds, tally):
    """Whole rounds over the decks for at least `seconds`.  Set-up samples are interleaved with the deck runs, at
    most SETUP_SHARE of the time spent so far, so both spread over the
    same window; more follow if there are fewer than SETUP_MIN_SAMPLES."""
    decks = spec["decks"]
    csv_dir = os.path.join(WORK, "csv")
    walls, rss, setups = [], [], []
    setup_time = 0.0
    t0 = time.perf_counter()
    n = 0
    while n % len(decks) or n == 0 or time.perf_counter() - t0 < seconds:
        key, path = decks[n % len(decks)]
        shutil.rmtree(csv_dir, ignore_errors=True)
        r = run([CSPICE, "--csv", csv_dir] + cspice_args(spec) + [path])
        base = os.path.splitext(os.path.basename(path))[0]
        problem = ("exit %d: %s" % (r.code, r.err.strip()) if r.code != 0
                   else check_table(ref_path(key), os.path.join(csv_dir, base + "_0.csv")))
        tally.record(problem, "cspice " + path)
        walls.append(r.wall)
        rss.append(r.rss_mb)
        n += 1
        if setup_time <= SETUP_SHARE * (time.perf_counter() - t0):
            ts = time.perf_counter()
            setups.append(setup_sample(decks[len(setups) % len(decks)][1], tally))
            setup_time += time.perf_counter() - ts
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.append(setup_sample(decks[len(setups) % len(decks)][1], tally))
    return {
        "deck_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        # offline, a request is one cspice run
        "rpc_p50_s": statistics.median(walls),
        "rpc_p99_s": tail(walls),
        "rpc_per_s": len(walls) / sum(walls),
        "iv_rms_pct": accuracy(spec, [p for _, p in decks], tally),
    }


# ---------------------------------------------------------------------
# cntd_mix
# ---------------------------------------------------------------------

class Daemon:
    """A cntd on a Unix socket inside the work directory.  The path is
    relative so it stays under the 108-byte socket-path limit."""

    def __init__(self, sock):
        self.sock = sock
        if os.path.exists(sock):
            os.unlink(sock)
        self.err = open(sock + ".err", "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([CNTD, "--listen", sock], env=ENV,
                                     stdout=subprocess.DEVNULL, stderr=self.err)

    def first_pong(self, timeout=60.0):
        """Seconds from spawn until the daemon answered a ping."""
        deadline = self.t0 + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("cntd exited with %d" % self.proc.returncode)
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.settimeout(10)
                    s.connect(self.sock)
                    s.sendall(b'{"rpc":"cnt-rpc/1","op":"ping","id":"setup"}\n')
                    line = s.makefile("rb").readline()
                if b'"pong"' in line:
                    return time.perf_counter() - self.t0
            except OSError:
                time.sleep(0.001)
        raise RuntimeError("cntd did not answer within %g s" % timeout)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def mix_tables(name):
    """The stored reference tables of a good cntd_mix deck, in order."""
    refs = []
    while os.path.isfile(os.path.join(MIX_REFS, "%s_%d.csv" % (name, len(refs)))):
        refs.append(os.path.join(MIX_REFS, "%s_%d.csv" % (name, len(refs))))
    return refs


def check_mix_deck(name, kind, path):
    """Run one cntd_mix deck offline and check it against its stored
    reference: a malformed deck must exit 2 with the stored located
    diagnostic; a good one must exit 0 with every table within the
    reference tolerance.  Returns (problem or None, the run)."""
    r = run([CSPICE, path])
    if kind == "bad":
        with open(os.path.join(MIX_REFS, name + ".err")) as f:
            want = f.read()
        got = "exit %d\n%s" % (r.code, r.err)
        return (None if got == want else "got %r, expected %r" % (got, want)), r
    if r.code != 0:
        return "exit %d: %s" % (r.code, r.err.strip()), r
    refs = mix_tables(name)
    if not refs:
        return "no reference tables", r
    csv_dir = os.path.join(WORK, "csv")
    shutil.rmtree(csv_dir, ignore_errors=True)
    c = run([CSPICE, "--csv", csv_dir, path])
    if c.code != 0:
        return "exit %d with --csv: %s" % (c.code, c.err.strip()), r
    base = os.path.splitext(os.path.basename(path))[0]
    if os.path.isfile(os.path.join(csv_dir, "%s_%d.csv" % (base, len(refs)))):
        return "more tables than the %d stored" % len(refs), r
    for i, ref in enumerate(refs):
        problem = check_table(ref, os.path.join(csv_dir, "%s_%d.csv" % (base, i)))
        if problem:
            return "table %d: %s" % (i, problem), r
    return None, r


def mix_expectations(spec, tally):
    """Check every pool deck offline against its stored reference and keep
    its offline cspice outcome, in the form the load generator compares
    replies against."""
    exp_dir = os.path.join(WORK, "expect")
    os.makedirs(exp_dir, exist_ok=True)
    expect = []
    for name, kind, path in spec["pool"]:
        problem, r = check_mix_deck(name, kind, path)
        tally.record(problem, "cspice " + path)
        text = "ok\n" + r.out if r.code == 0 else "err %d\n%s" % (r.code, r.err)
        p = os.path.join(exp_dir, name + ".txt")
        with open(p, "w") as f:
            f.write(text)
        expect.append((r.code, p))
    return expect


def write_plan(spec, expect, conns, seconds, min_requests, sequence):
    path = os.path.join(WORK, "plan_%d.txt" % conns)
    with open(path, "w") as f:
        f.write("conns %d\nseconds %r\nmin_requests %d\n" % (conns, seconds, min_requests))
        for i, (name, _, deck) in enumerate(spec["pool"]):
            f.write("deck %d %s %s\n" % (i, deck, expect[i][1]))
        f.write("seq " + " ".join(map(str, sequence)) + "\n")
    return path


def load(daemon, plan, tally, timeout=170):
    r, j = layers(["load", daemon.sock, plan], timeout=timeout)
    if r.code != 0 or not j:
        raise RuntimeError("load generator exit %d: %s" % (r.code, r.err.strip()))
    for rec in j["requests"]:
        tally.record(None if rec[5] else "reply differs from offline cspice",
                     "rpc %d (deck %d)" % (rec[0], rec[1]))
    return j


def connect_runs(spec, daemon, expect, tally, first, count):
    """`cspice --connect` on requests first .. first+count-1 of the
    sequence; returns their wall times."""
    walls = []
    seq = spec["sequence"]
    for i in range(first, first + count):
        k = seq[i % len(seq)]
        _, _, path = spec["pool"][k]
        r = run([CSPICE, "--connect", daemon.sock, path])
        with open(expect[k][1]) as f:
            want = f.read()
        got = "ok\n" + r.out if r.code == 0 else "err %d\n%s" % (r.code, r.err)
        tally.record(None if got == want else "differs from offline cspice",
                     "cspice --connect " + path)
        walls.append(r.wall)
    return walls


def mix_e2e(spec, seconds, tally):
    """MIX_SEGMENTS load segments against one daemon, each followed by a
    burst of `cspice --connect` runs and of daemon start-ups on a second
    socket, so that every metric samples the whole run window.  Every
    pool deck is sent once before timing starts, so the daemon's caches
    are warm from the first timed request."""
    expect = mix_expectations(spec, tally)
    seq = spec["sequence"]
    lat, walls, setups = [], [], []
    busy = 0.0
    daemon = Daemon(os.path.join(WORK, "cntd.sock"))
    try:
        setups.append(daemon.first_pong())
        load(daemon, write_plan(spec, expect, 1, 0.0, 0, range(len(spec["pool"]))), tally)
        for seg in range(MIX_SEGMENTS):
            done = len(lat)
            plan = write_plan(spec, expect, MIX_CONNS, seconds / MIX_SEGMENTS,
                              -(-MIX_MIN_REQUESTS // MIX_SEGMENTS), seq[done % len(seq):] + seq)
            j = load(daemon, plan, tally)
            lat += [rec[4] - rec[3] for rec in j["requests"]]
            busy += j["elapsed_s"]
            walls += connect_runs(spec, daemon, expect, tally,
                                  seg * MIX_CONNECT_RUNS, MIX_CONNECT_RUNS)
            for _ in range(MIX_SETUP_RUNS):
                other = Daemon(os.path.join(WORK, "cntd2.sock"))
                problem = None
                try:
                    setups.append(other.first_pong())
                except RuntimeError as e:
                    problem = str(e)
                finally:
                    other.stop()
                tally.record(problem, "cntd start")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return {
        "deck_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "rpc_p50_s": statistics.median(lat),
        "rpc_p99_s": tail(lat),
        "rpc_per_s": len(lat) / busy,
        "iv_rms_pct": accuracy(spec, [p for _, kind, p in spec["pool"] if kind != "bad"], tally),
    }


# ---------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------

# Which layer each span's self time belongs to.  bench.* spans are the
# harness's own, around each public entry point; the rest are the
# library's Obs spans.  Anything else (the bench.deck root's own time)
# is "other".
LAYER_OF = {
    "bench.parse": "parser", "spice.parse": "parser",
    "cnt_model.make": "cnt_model",
    "mna.compile": "mna.compile",
    "mna.newton": "newton",
    "mna.assemble": "assemble", "assemble.gather": "assemble",
    "assemble.batch_eval": "assemble", "assemble.scatter": "assemble",
    "cnt_model.eval_batch": "assemble",
    "mna.solve": "linear_solver",
    "tran.run": "transient",
    "dc.sweep": "dc", "dc.operating_point": "dc",
    "bench.engine": "engine", "analysis.op": "engine", "analysis.dc": "engine",
    "analysis.tran": "engine", "analysis.ac": "engine", "bench.render": "engine",
}


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (children on worker slots may overlap each other)."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        covered, end = 0.0, t0
        for c in sorted(children.get(s[0], []), key=lambda c: c[3]):
            a, b = max(c[3], end), min(c[4], t1)
            if b > a:
                covered += b - a
                end = b
        out[s[0]] = (t1 - t0) - covered
    return out


class Trace:
    """Every traced deck of the run: spans tagged with the deck's trace
    id, kept in memory and written out when the run ends."""

    def __init__(self):
        self.decks = []

    def add(self, trace_id, j):
        self.decks.append((trace_id, j))

    def write(self, path):
        with open(path, "w") as f:
            for trace_id, j in self.decks:
                for s in j.get("spans", []):
                    f.write(json.dumps({"trace": trace_id, "id": s[0], "parent": s[1],
                                        "name": s[2], "start": s[3], "end": s[4],
                                        "slot": s[5]}) + "\n")


def deck_layers(j):
    """Per-layer figures of one traced deck."""
    spans = j.get("spans", [])
    selfs = self_times(spans)
    by_layer, total = {}, {}
    count = {}
    for s in spans:
        layer = LAYER_OF.get(s[2], "other")
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[s[0]]
        total[s[2]] = total.get(s[2], 0.0) + (s[4] - s[3])
        count[s[2]] = count.get(s[2], 0) + 1
    c = j.get("counters", {})
    h = j.get("hist_means", {})
    tables = j.get("tables", [])
    wall = j["wall_s"]
    return {
        "trace.deck_s": wall,
        "trace.accounted_pct": 100.0 * (wall - by_layer.get("other", 0.0)) / wall,
        "parser.parse_s": by_layer.get("parser", 0.0),
        "parser.pattern_compiles": c.get("parse.subckt.pattern_compiles", 0),
        "parser.instances": c.get("parse.subckt.instances", 0),
        "parser.pattern_hits": c.get("parse.subckt.pattern_hits", 0),
        "cnt_model.make_s": by_layer.get("cnt_model", 0.0),
        "cnt_model.fits": c.get("cnt_model.fits", 0),
        "mna.compile_s": by_layer.get("mna.compile", 0.0),
        "mna.unknowns": max([t["unknowns"] for t in tables] or [0]),
        "mna.nonzeros": max([t["nonzeros"] for t in tables] or [0]),
        "ordering.fill": c.get("ordering.fill_applied", 0),
        "mna.newton_iterations": c.get("mna.newton_iterations", 0),
        "mna.newton_per_solve": h.get("mna.newton_iters_per_solve", 0.0),
        "homotopy.rescues": c.get("homotopy.rescues", 0),
        "newton.self_s": by_layer.get("newton", 0.0),
        "assemble.gather_s": total.get("assemble.gather", 0.0),
        "assemble.eval_s": total.get("assemble.batch_eval", 0.0),
        "assemble.scatter_s": total.get("assemble.scatter", 0.0),
        "assemble.self_s": by_layer.get("assemble", 0.0),
        "mna.device_evals": c.get("mna.device_evals", 0),
        "scv.solves": c.get("scv.solves", 0),
        "solve.total_s": by_layer.get("linear_solver", 0.0),
        "solve.calls": count.get("mna.solve", 0),
        "mna.linear_solves": c.get("mna.linear_solves", 0),
        "tran.steps_accepted": c.get("tran.steps_accepted", 0),
        "tran.steps_rejected": c.get("tran.steps_rejected", 0),
        "tran.self_s": by_layer.get("transient", 0.0),
        "dc.sweep_s": total.get("dc.sweep", 0.0),
        "dc.self_s": by_layer.get("dc", 0.0),
        "dc.sweep_points": c.get("dc.sweep_points", 0),
        "render_s": total.get("bench.render", 0.0),
        "engine.self_s": by_layer.get("engine", 0.0),
    }


def traced_deck(trace, trace_id, path, args, tally, key=None, expect=None):
    """One deck in a fresh process with tracing on; returns its layer
    figures, after checking its table against the reference `key`, or
    its outcome against the offline cspice one in file `expect`."""
    csv_dir = os.path.join(WORK, "csv")
    shutil.rmtree(csv_dir, ignore_errors=True)
    os.makedirs(csv_dir)
    r, j = layers(["deck", "--trace", "--csv", csv_dir] + args + [path], timeout=170)
    if j is None or "spans" not in j:
        tally.record("layers deck exit %d: %s" % (r.code, r.err.strip()), "traced " + path)
        return None
    problem = None
    if key is not None:
        problem = ("exit %d: %s" % (r.code, j.get("error")) if r.code != 0
                   else check_table(ref_path(key), os.path.join(csv_dir, "table_0.csv")))
    if expect is not None:
        with open(expect) as f:
            want = f.read()
        if r.code == 0:
            got = "ok\n%s" % hashlib.md5(want[3:].encode()).hexdigest()
            want = "ok\n%s" % j.get("stdout_md5")
        else:
            got = "err %d\n%s\n" % (r.code, j.get("error"))
        if got != want:
            problem = "differs from offline cspice"
    tally.record(problem, "traced " + path)
    trace.add(trace_id, j)
    return deck_layers(j)


def untraced_walls(path, args, traced_wall, tally):
    """In-process wall times of the deck with tracing off, and more with
    it on, alternating: (traced walls, untraced walls).  Cheap decks get
    three pairs, expensive ones one."""
    traced, plain = [traced_wall], []
    pairs = 3 if traced_wall < 2.0 else 1
    for i in range(pairs):
        if i > 0:
            r, j = layers(["deck", "--trace"] + args + [path], timeout=170)
            tally.record(None if j else "layers deck exit %d" % r.code, "traced " + path)
            traced.append((j or {}).get("wall_s", float("nan")))
        r, j = layers(["deck"] + args + [path], timeout=170)
        tally.record(None if j else "layers deck exit %d" % r.code, "untraced " + path)
        plain.append((j or {}).get("wall_s", float("nan")))
    return traced, plain


def mean_layers(items):
    keys = items[0].keys()
    return {k: sum(d[k] for d in items) / len(items) for k in keys}


def ladder_exponents(trace, spec, tally, known):
    """Scaling exponents over the chain ladder of this seed (chain_tran
    only; the other workloads report 0)."""
    if "ladder" not in spec:
        return {"mna.compile_exp": 0.0, "solve.exp": 0.0}
    points = {}
    for n, path in spec["ladder"]:
        lay = known.get(path)
        if lay is None:
            key = ("chain", spec["seed"] % gen.CHAIN_VARIANTS) if n == gen.CHAIN_STAGES else None
            lay = traced_deck(trace, "ladder%d" % n, path, [], tally, key=key)
        if lay:
            points[n] = lay
    return {
        "mna.compile_exp": fit_exponent([(n, l["mna.compile_s"]) for n, l in points.items()]),
        "solve.exp": fit_exponent([(n, l["solve.total_s"] / max(1, l["solve.calls"]))
                                   for n, l in points.items()]),
    }


def derived(lay):
    """Ratios from the per-deck sums, so multi-deck workloads weigh each
    deck by its work."""
    div = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "parser.pattern_hit_ratio": div(lay["parser.pattern_hits"], lay["parser.instances"]),
        "scv.solves_per_eval": div(lay["scv.solves"], lay["mna.device_evals"]),
        "solve.per_call_s": div(lay["solve.total_s"], lay["solve.calls"]),
    }


PER_LAYER = {
    # name: (unit, better)
    "parser.parse_s": ("s", "lower"),
    "parser.pattern_compiles": ("count", "lower"),
    "parser.pattern_hit_ratio": ("ratio", "higher"),
    "cnt_model.make_s": ("s", "lower"),
    "cnt_model.fits": ("count", "lower"),
    "mna.compile_s": ("s", "lower"),
    "mna.unknowns": ("count", "lower"),
    "mna.nonzeros": ("count", "lower"),
    "ordering.fill": ("count", "lower"),
    "mna.compile_exp": ("exponent", "lower"),
    "mna.newton_iterations": ("count", "lower"),
    "mna.newton_per_solve": ("count", "lower"),
    "homotopy.rescues": ("count", "lower"),
    "newton.self_s": ("s", "lower"),
    "assemble.gather_s": ("s", "lower"),
    "assemble.eval_s": ("s", "lower"),
    "assemble.scatter_s": ("s", "lower"),
    "assemble.self_s": ("s", "lower"),
    "mna.device_evals": ("count", "lower"),
    "scv.solves": ("count", "lower"),
    "scv.solves_per_eval": ("ratio", "lower"),
    "solve.total_s": ("s", "lower"),
    "mna.linear_solves": ("count", "lower"),
    "solve.per_call_s": ("s", "lower"),
    "solve.exp": ("exponent", "lower"),
    "tran.steps_accepted": ("count", "lower"),
    "tran.steps_rejected": ("count", "lower"),
    "tran.self_s": ("s", "lower"),
    "dc.sweep_s": ("s", "lower"),
    "dc.self_s": ("s", "lower"),
    "dc.sweep_points": ("count", "higher"),
    "pool.speedup_j2": ("ratio", "higher"),
    "render_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "cntd.service_s": ("s", "lower"),
    "cntd.queue_s": ("s", "lower"),
    "cntd.overhead_s": ("s", "lower"),
    "deck_cache.hit_ratio": ("ratio", "higher"),
    "compile_cache.hit_ratio": ("ratio", "higher"),
    "trace.deck_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.accounted_pct": ("%", "higher"),
}

END_TO_END = {
    # name: (unit, better)
    "deck_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rpc_p50_s": ("s", "lower"),
    "rpc_p99_s": ("s", "lower"),
    "rpc_per_s": ("1/s", "higher"),
    "iv_rms_pct": ("%", "lower"),
}


def offline_traced(spec, trace, tally):
    per_deck, traced_walls, plain_walls, known = [], [], [], {}
    args = cspice_args(spec)
    speedups = []
    for i, (key, path) in enumerate(spec["decks"][:TRACED_DECKS]):
        lay = traced_deck(trace, "deck%d" % i, path, args, tally, key=key)
        if lay is None:
            continue
        per_deck.append(lay)
        known[path] = lay
        t, p = untraced_walls(path, args, lay["trace.deck_s"], tally)
        traced_walls.append(statistics.median(t))
        plain_walls.append(statistics.median(p))
        if lay["dc.sweep_s"] > 0:
            # the same sweep on one job; the base is the 2-job sweep time
            j1 = traced_deck(trace, "deck%d-j1" % i, path, ["--jobs", "1"], tally)
            if j1:
                speedups.append(j1["dc.sweep_s"] / lay["dc.sweep_s"])
    if not per_deck:
        raise RuntimeError("no deck could be traced")
    out = mean_layers(per_deck)
    out.update(ladder_exponents(trace, spec, tally, known))
    out["pool.speedup_j2"] = statistics.median(speedups) if speedups else 0.0
    out["trace.overhead_pct"] = 100.0 * (sum(traced_walls) / sum(plain_walls) - 1.0)
    out.update({k: 0.0 for k in ("cntd.service_s", "cntd.queue_s", "cntd.overhead_s",
                                 "deck_cache.hit_ratio", "compile_cache.hit_ratio")})
    return out


def mix_traced(spec, seconds, trace, tally):
    expect = mix_expectations(spec, tally)
    # in-process layer figures of every pool deck, weighted below by how
    # often the request sequence sends it
    per_deck, walls = {}, ([], [])
    for k, (name, _, path) in enumerate(spec["pool"]):
        lay = traced_deck(trace, name, path, [], tally, expect=expect[k][1])
        if lay is None:
            continue
        per_deck[k] = lay
        t, p = untraced_walls(path, [], lay["trace.deck_s"], tally)
        walls[0].append(statistics.median(t))
        walls[1].append(statistics.median(p))
    sample = [k for k in spec["sequence"][:100] if k in per_deck]
    out = mean_layers([per_deck[k] for k in sample])
    daemon = Daemon(os.path.join(WORK, "cntd.sock"))
    try:
        daemon.first_pong()
        j = load(daemon, write_plan(spec, expect, MIX_CONNS, seconds, MIX_MIN_REQUESTS,
                                    spec["sequence"]), tally)
        loaded = {}
        for rec in j["requests"]:
            loaded.setdefault(rec[1], []).append(rec[4] - rec[3])
        solo_j = load(daemon, write_plan(spec, expect, 1, 0, 0, sorted(set(spec["sequence"]))),
                      tally)
        solo = {rec[1]: rec[4] - rec[3] for rec in solo_j["requests"]}
        # the daemon's own engine time for the deck (its run_s)
        engine_s = {rec[1]: rec[6]["run_s"] for rec in solo_j["requests"] if rec[6]}
        ping = j["ping"]
    finally:
        daemon.stop()
    for rec in j["requests"]:
        trace.add("rpc%d" % rec[0], {"spans": [[0, -1, "rpc", rec[3], rec[4], rec[2]]]})
    seq = spec["sequence"][:100]
    out["cntd.service_s"] = statistics.median(solo[k] for k in seq)
    out["cntd.queue_s"] = statistics.median(
        lat - solo[k] for k, lats in loaded.items() for lat in lats)
    out["cntd.overhead_s"] = statistics.median(solo[k] - engine_s[k] for k in seq if k in engine_s)
    dc, cc = ping["deck_cache"], ping["compile_cache"]
    out["deck_cache.hit_ratio"] = dc["hits"] / max(1, dc["hits"] + dc["misses"])
    out["compile_cache.hit_ratio"] = cc["hits"] / max(1, cc["hits"] + cc["misses"])
    out.update(ladder_exponents(trace, spec, tally, {}))
    out["pool.speedup_j2"] = 0.0
    out["trace.overhead_pct"] = 100.0 * (sum(walls[0]) / sum(walls[1]) - 1.0)
    return out


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace_on):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    spec = gen.write_workload(workload, seed, os.path.join(WORK, "inputs"))
    tally = Tally()
    if trace_on:
        trace = Trace()
        if workload == "cntd_mix":
            raw = mix_traced(spec, seconds, trace, tally)
        else:
            raw = offline_traced(spec, trace, tally)
        raw.update(derived(raw))
        trace.write(os.path.join(WORK, "trace.jsonl"))
        metrics = {k: {"value": raw[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
    else:
        if workload == "cntd_mix":
            raw = mix_e2e(spec, seconds, tally)
        else:
            raw = offline_e2e(spec, seconds, tally)
        metrics = {k: {"value": raw[k], "unit": u} for k, (u, _) in END_TO_END.items()}
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        tally.record("no value for " + ", ".join(bad), "metrics")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def print_table(workload, result, out):
    frac = result["failed"] / result["attempted"]
    out.write("%s: correct=%s attempted=%d failed=%d fail_frac=%.4g ratio\n"
              % (workload, result["correct"], result["attempted"], result["failed"], frac))
    for k, m in result["metrics"].items():
        out.write("  %-26s %14.6g %s\n" % (k, m["value"], m["unit"]))


def bless_mix():
    """Reference tables of every good cntd_mix deck and the diagnostic of
    every malformed one."""
    shutil.rmtree(MIX_REFS, ignore_errors=True)
    os.makedirs(MIX_REFS)
    for name, kind, path, text in gen.mix_catalogue():
        if path is None:
            path = os.path.join(WORK, "bless", name + ".cir")
            with open(path, "w") as f:
                f.write(text)
        csv_dir = os.path.join(WORK, "csv")
        shutil.rmtree(csv_dir, ignore_errors=True)
        r = run([CSPICE, "--csv", csv_dir, path])
        if kind == "bad":
            if r.code != 2:
                die("bless: %s exited %d, not 2" % (path, r.code))
            with open(os.path.join(MIX_REFS, name + ".err"), "w") as f:
                f.write("exit %d\n%s" % (r.code, r.err))
            continue
        if r.code != 0:
            die("bless: %s exited %d: %s" % (path, r.code, r.err))
        i = 0
        while os.path.isfile(os.path.join(csv_dir, "%s_%d.csv" % (name, i))):
            write_ref(os.path.join(MIX_REFS, "%s_%d.csv" % (name, i)),
                      os.path.join(csv_dir, "%s_%d.csv" % (name, i)), REF_STRIDE["mix"])
            i += 1
    log("blessed %s" % MIX_REFS)


def bless():
    """Rewrite every stored reference from the current cspice."""
    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "bless"))
    os.makedirs(REFS, exist_ok=True)
    decks = ([(("chain", v), gen.chain_deck(gen.CHAIN_STAGES, v)) for v in range(gen.CHAIN_VARIANTS)]
             + [(("ring", v), gen.ring_deck(v)) for v in range(gen.RING_VARIANTS)]
             + [(("corner", i), gen.corner_deck(i)) for i in range(len(gen.corner_catalogue()))])
    for key, text in decks:
        path = os.path.join(WORK, "bless", "%s_%d.cir" % key)
        with open(path, "w") as f:
            f.write(text)
        csv_dir = os.path.join(WORK, "csv")
        shutil.rmtree(csv_dir, ignore_errors=True)
        r = run([CSPICE, "--csv", csv_dir, path], timeout=600)
        if r.code != 0:
            die("bless: %s exited %d: %s" % (path, r.code, r.err))
        write_ref(ref_path(key), os.path.join(csv_dir, "%s_%d_0.csv" % key), REF_STRIDE[key[0]])
        log("blessed %s (%.2f s)" % (ref_path(key), r.wall))
    bless_mix()
    shutil.rmtree(WORK, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", help="with --workload all: write the results here")
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()
    if args.bless:
        return bless()
    if not args.workload:
        ap.error("--workload is required")
    build()
    if args.workload != "all":
        try:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
        except (RuntimeError, OSError, subprocess.SubprocessError) as e:
            die("%s: %s" % (args.workload, e))
        print_table(args.workload, result, sys.stderr)
        print(json.dumps(result))
        return 0
    results = {}
    for w in WORKLOADS:
        for t in (0, 1):
            results.setdefault(w, {})["trace%d" % t] = run_workload(w, args.seed, args.seconds, t == 1)
            print_table("%s --trace %d" % (w, t), results[w]["trace%d" % t], sys.stdout)
            sys.stdout.flush()
    if args.baseline:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
        with open(args.baseline, "w") as f:
            json.dump({"commit": commit, "seed": args.seed, "seconds": args.seconds,
                       "host_cores": os.cpu_count(), "results": results}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
