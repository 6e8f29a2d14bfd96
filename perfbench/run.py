#!/usr/bin/env python3
"""User-flow benchmark of the ScalAna CLIs (see perfbench/README.md).

    python3 perfbench/run.py --workload apps-sweep --seed 1 --seconds 25 --trace 0

Builds the CLIs and the harness from the sources around this directory,
asks the harness for the workload's seeded step plan, and then

  --trace 0  runs the plan through the shipped executables, one process
             at a time, in a fresh session directory per repetition,
             until --seconds have passed; reports the end-to-end metrics
             as medians over the repetitions;
  --trace 1  runs the harness's traced in-process replay of the same
             plan and reports its per-layer metrics, writing the Chrome
             trace and the self-time table under _perfbench/.

Every step's output is checked against perfbench/expected.json and the
seeded injection; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, "_perfbench")
BIN = os.path.join(ROOT, "_build", "default", "bin")
HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "harness", "harness.exe")
WORKLOADS = ("apps-sweep", "cg-weak-scale", "triage")
# -j of every scalana-detect / scalana-diff step, as in the harness.
# scalana-viewer has no -j flag and runs with its default pool size.
JOBS = "1"
# Set-up is sampled at least this often per run (extra set-up-only
# repetitions when few full ones fit), within a fifth of --seconds.
MIN_SETUPS = 5
DEADLINE_S = 170.0
START = time.perf_counter()


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project in %s: the benchmark builds the repository's sources" % ROOT)
    targets = ["bin/%s.exe" % t for t in
               ("scalana_static", "scalana_prof", "scalana_detect", "scalana_viewer", "scalana_diff")]
    targets.append("perfbench/harness/harness.exe")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT] + targets, cwd=ROOT, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def harness(*args):
    r = subprocess.run([HARNESS] + list(args), cwd=ROOT, stdout=subprocess.PIPE)
    if r.returncode != 0:
        fail("harness %s failed with exit %d" % (args[0], r.returncode))
    return r.stdout.decode()


# ---- one CLI step ----

def argv(step):
    kind, s = step["kind"], step["session"]
    if kind == "static":
        return [os.path.join(BIN, "scalana_static.exe"), "-p", step["program"], "-s", s]
    if kind == "prof":
        a = [os.path.join(BIN, "scalana_prof.exe"), "-s", s, "-n", str(step["np"])]
        if "inject_delay" in step:
            a += ["--inject-delay", repr(step["inject_delay"]),
                  "--inject-ranks", ",".join(str(r) for r in step["inject_ranks"])]
        return a
    if kind == "detect":
        return ([os.path.join(BIN, "scalana_detect.exe"), "-s", s, "-j", JOBS]
                + (["--wait-states"] if step["wait_states"] else [])
                + (["--static-crosscheck"] if step["crosscheck"] else []))
    if kind == "viewer_html":
        return [os.path.join(BIN, "scalana_viewer.exe"), "-s", s, "--html", step["out"]]
    if kind == "diff":
        return [os.path.join(BIN, "scalana_diff.exe"), "-j", JOBS, s, step["cand"]]
    raise ValueError(kind)


def run_cli(step, cwd):
    """(wall seconds, peak RSS in MiB, exit code, stdout) of one CLI process."""
    with open(os.path.join(cwd, "out", "stdout.txt"), "w+b") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv(step), cwd=cwd, stdout=out)
        killer = threading.Timer(max(1.0, DEADLINE_S - (t0 - START)), p.kill)
        killer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, p.returncode, text


# ---- correctness ----

PROF_LINE = re.compile(r"np=(\d+) elapsed=([0-9.]+)s samples=(\d+) mpi_calls=(\d+)")


def named_vertices(report):
    """(root causes, every (label, location) the verdict names) of a
    scalana-detect report: root-cause lines, their backtracking paths and
    the non-scalable ranking."""
    causes, named, section = [], set(), None
    for line in report.splitlines():
        m = re.match(r"^-- (.+?) --$", line)
        if m:
            section = m.group(1).split(" (")[0]
            continue
        if section == "non-scalable vertices":
            m = re.match(r"^  (\S.*?)\s+slope=.*?@(\S+)", line)
        elif section == "root causes":
            m = re.match(r"^#\d+\s+(.*) @(\S+)$", line)
            if m:
                causes.append([m.group(1), m.group(2)])
            else:
                m = re.match(r"^\s*(?:<- )?\[r\d+\] (.*) @(\S+) \(", line)
        else:
            m = None
        if m:
            named.add((m.group(1), m.group(2)))
    return sorted(causes), named


def detect_key(step):
    key = "%s@%s" % (step["program"], ",".join(str(n) for n in step["scales"]))
    return key + ("+wait-states" if step["wait_states"] else "") + \
        ("+crosscheck" if step["crosscheck"] else "")


def check(step, code, out, cwd, expected):
    """None when the step's outcome is right, else why it is not."""
    kind = step["kind"]
    if kind == "static":
        return None if code == 0 else "exit %d" % code
    if kind == "prof":
        m = PROF_LINE.search(out)
        if code != 0 or not m:
            return "exit %d, output %r" % (code, out[:200])
        got = {"elapsed": m.group(2), "samples": int(m.group(3)), "mpi_calls": int(m.group(4))}
        clean = expected["prof"].get(step["program"], {}).get(str(step["np"]))
        if clean is None:
            return "no expected profile for %s at np=%d" % (step["program"], step["np"])
        if "inject_delay" not in step:
            return None if got == clean else "profile %s, expected %s" % (got, clean)
        # ground truth of the injection: the same MPI calls, later finish
        if got["mpi_calls"] != clean["mpi_calls"] or float(got["elapsed"]) <= float(clean["elapsed"]):
            return "injected profile %s not slower than clean %s" % (got, clean)
        return None
    if kind == "detect":
        exp = expected["detect"].get(detect_key(step))
        if exp is None:
            return "no expected verdict for " + detect_key(step)
        causes, named = named_vertices(out)
        missing = [n for n in exp["must_name"] if tuple(n) not in named]
        if code != exp["exit"] or causes != sorted(exp["root_causes"]) or missing:
            return "exit %d causes %s (expected exit %d causes %s; unnamed %s)" % (
                code, causes, exp["exit"], exp["root_causes"], missing)
        return None
    if kind == "viewer_html":
        path = os.path.join(cwd, step["out"])
        html = open(path).read() if os.path.isfile(path) else ""
        ok = code == 0 and html.startswith("<!doctype html>") and html.rstrip().endswith("</html>")
        return None if ok else "exit %d, html of %d bytes" % (code, len(html))
    if kind == "diff":
        if step["expect"] == "regressed":
            m = re.search(r"^-- regressed \((\d+)\) --$", out, re.M)
            ok = code == 1 and "verdict: REGRESSION" in out and m and int(m.group(1)) > 0
        else:
            ok = code == 0 and "verdict: CLEAN" in out
        return None if ok else "exit %d, expected %s" % (code, step["expect"])
    raise ValueError(kind)


def check_records(plan, cwd):
    """[(session, failure or None)]: each profiled scale of each session
    holds exactly one intact record, so no repetition appended to an
    earlier one's profile."""
    sessions = sorted({s["session"] for s in plan})
    want = {s: sorted(p["np"] for p in plan if p["kind"] == "prof" and p["session"] == s)
            for s in sessions}
    got = {s: [] for s in sessions}
    bad = {s: [] for s in sessions}
    for line in harness("records", *[os.path.join(cwd, s) for s in sessions]).splitlines():
        path, count, state = line.rsplit(" ", 2)
        session = os.path.relpath(os.path.dirname(path), cwd)
        got[session].append(int(re.search(r"run_(\d+)\.prof$", path).group(1)))
        if count != "1" or state != "ok":
            bad[session].append("%s holds %s records (%s)" % (os.path.basename(path), count, state))
    for s in sessions:
        if sorted(got[s]) != want[s]:
            bad[s].append("profiles at %s, expected %s" % (sorted(got[s]), want[s]))
    return [(s, "; ".join(bad[s]) or None) for s in sessions]


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, what, failure):
        self.attempted += 1
        if failure:
            self.failed += 1
            print("perfbench: check failed: %s: %s" % (what, failure), file=sys.stderr)


def describe(step):
    return " ".join(os.path.basename(a) for a in argv(step))


# ---- end-to-end runs ----

def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    for d in ("sessions", "out"):
        os.makedirs(os.path.join(path, d))


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def run_steps(steps, cwd, expected, tally):
    walls, peak = [], 0.0
    for step in steps:
        wall, rss, code, out = run_cli(step, cwd)
        tally.record(describe(step), check(step, code, out, cwd, expected))
        walls.append(wall)
        peak = max(peak, rss)
    return walls, peak


def repetition(plan, cwd, expected, tally):
    fresh(cwd)
    setup = [s for s in plan if s["phase"] == "setup"]
    flow = [s for s in plan if s["phase"] == "flow"]
    setup_walls, setup_peak = run_steps(setup, cwd, expected, tally)
    flow_walls, flow_peak = run_steps(flow, cwd, expected, tally)
    for session, failure in check_records(plan, cwd):
        tally.record("records of " + session, failure)

    def total(walls, steps, kind):
        return sum(w for w, s in zip(walls, steps) if s["kind"] == kind)

    # triage times no prof step: its profile_s is the set-up prof steps
    profile = total(flow_walls, flow, "prof") or total(setup_walls, setup, "prof")
    return {
        "setup_s": sum(setup_walls),
        "flow_s": sum(flow_walls),
        "profile_s": profile,
        "detect_s": total(flow_walls, flow, "detect"),
        "peak_rss_mb": max(setup_peak, flow_peak),
        "artifact_mb": dir_bytes(os.path.join(cwd, "sessions")) / 2.0 ** 20,
    }


UNITS = {"setup_s": "s", "flow_s": "s", "profile_s": "s", "detect_s": "s",
         "peak_rss_mb": "MB", "artifact_mb": "MB"}


def end_to_end(plan, seconds, expected, tally, work):
    cwd = os.path.join(work, "rep")
    reps, t0 = [], time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        reps.append(repetition(plan, cwd, expected, tally))
    samples = {k: [r[k] for r in reps] for k in UNITS}
    setup = [s for s in plan if s["phase"] == "setup"]
    spent = 0.0
    while (len(samples["setup_s"]) < MIN_SETUPS
           and spent + statistics.median(samples["setup_s"]) <= seconds / 5.0):
        t1 = time.perf_counter()
        fresh(cwd)
        samples["setup_s"].append(sum(run_steps(setup, cwd, expected, tally)[0]))
        spent += time.perf_counter() - t1
    shutil.rmtree(cwd, ignore_errors=True)
    print("%-12s %12s %12s %12s %4s" % ("metric", "median", "q1", "q3", "n"))
    for k, v in samples.items():
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        print("%-12s %12.6f %12.6f %12.6f %4d  %s" % (k, statistics.median(v), q[0], q[2], len(v), UNITS[k]))
    return {k: {"value": statistics.median(v), "unit": UNITS[k]} for k, v in samples.items()}


# ---- traced run ----

def traced(workload, seed, expected, tally, work):
    shutil.rmtree(work, ignore_errors=True)
    out = os.path.join(work, "trace")
    harness("trace", "--workload", workload, "--seed", str(seed),
            "--work", os.path.join(work, "replay"), "--out", out)
    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)
    plan = json.loads(harness("plan", "--workload", workload, "--seed", str(seed)))
    cwd = os.path.join(work, "replay", "traced")
    for step, outcome in zip(plan, result["steps"]):
        tally.record("in-process " + describe(step),
                     check(step, outcome["exit"], outcome["out"], cwd, expected))
    for session, failure in check_records(plan, cwd):
        tally.record("records of " + session, failure)
    shutil.rmtree(os.path.join(work, "replay"), ignore_errors=True)
    with open(os.path.join(out, "selftime.txt")) as f:
        sys.stdout.write(f.read())
    for name, m in result["metrics"].items():
        print("%-26s %18.6f %s" % (name, m["value"], m["unit"]))
    print("chrome trace: %s" % os.path.relpath(os.path.join(out, "trace.json"), ROOT))
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    with open(os.path.join(BENCH, "expected.json")) as f:
        expected = json.load(f)
    work = os.path.join(WORK, args.workload)
    tally = Tally()
    if args.trace:
        metrics = traced(args.workload, args.seed, expected, tally, work)
    else:
        plan = json.loads(harness("plan", "--workload", args.workload, "--seed", str(args.seed)))
        metrics = end_to_end(plan, args.seconds, expected, tally, work)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
