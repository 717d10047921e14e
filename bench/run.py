"""Benchmark runner for gwel.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds `src/gwel`.  This process generates the
inputs from the seed, then runs passes of the workload's operations as a
closed loop: each pass is a fresh worker process (`worker.py`) that
imports gwel and runs the operations in order, and the next pass starts
when the previous one has returned.  Passes repeat until `--seconds`,
which also cover the set-up timing and the thread check, are spent.
Every output is checked against an independent reference
(`reference.py`), and report digests must agree across passes, between
traced and untraced passes, and between --threads 1 and 2.

With `--trace 0` the last stdout line carries the end-to-end metrics:
pass wall time, set-up time of a fresh interpreter importing gwel, and
the worker's peak RSS.  With `--trace 1` it carries the per-layer
metrics of traced passes (`tracing.py`), with untraced passes in between
to measure the tracing overhead.  The line before it records the
environment, the quartiles and sample counts, and any problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3  # passes per run even when one pass outlasts --seconds
PASS_TIMEOUT = 150  # seconds; a pass that runs longer is killed and fails
RUN_LIMIT = 150  # seconds; no pass starts after this, so a run ends within 180 s


def _env():
    env = dict(os.environ)
    env.pop("GWEL_THREADS", None)  # it would override --threads
    env["PYTHONPATH"] = str(SRC)
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def setup_time():
    """Wall seconds for a fresh interpreter to import gwel and its CLI."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gwel, gwel.cli"],
        env=_env(), cwd=ROOT, check=True, timeout=60, capture_output=True,
    )
    return time.perf_counter() - t0


def run_pass(work, ops, trace, tag):
    """One worker process over `ops`; returns its parsed report, or None
    and the reason when the worker itself failed."""
    spec = work / f"spec-{tag}.json"
    spec.write_text(json.dumps({"src": str(SRC), "work": str(work), "ops": ops, "trace": trace}))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec)],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {PASS_TIMEOUT} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


def environment():
    """What the numbers were measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c", "import gwel, numpy; print(gwel.__version__, numpy.__version__)"],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    gwel_version, numpy_version = probe.stdout.split()
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gwel": gwel_version,
        "commit": commit,
    }


class Ledger:
    """Every op execution of a run, its digest and its verdict."""

    def __init__(self, work, ops):
        self.work = work
        self.ops = {op["name"]: op for op in ops}
        self.runs = []  # (op name, digest or None, error or None, label)
        self.verdicts = {}  # (op name, digest) -> problems

    def add(self, report, error, ops, label):
        if report is None:
            self.runs.extend((op["name"], None, error, label) for op in ops)
            return
        for entry in report["ops"]:
            self.runs.append((entry["name"], entry["digest"], entry["error"], label))

    def failures(self):
        """(failed count, problem strings).  The first untraced digest of
        each op is its expected digest; any other digest is a
        determinism failure, and every digest is checked against the
        reference once."""
        expected = {}
        for name, digest, _error, label in self.runs:
            if digest is not None and label == "untraced":
                expected.setdefault(name, digest)
        failed, problems = 0, []
        for name, digest, error, label in self.runs:
            why = []
            if error is not None:
                why.append(error)
            else:
                if digest != expected.get(name):
                    why.append(f"report digest differs from the first untraced pass ({label})")
                key = (name, digest)
                if key not in self.verdicts:
                    data = (self.work / "outputs" / f"{name}-{digest}").read_bytes()
                    self.verdicts[key] = reference.check(self.ops[name], data)
                why.extend(self.verdicts[key])
            if why:
                failed += 1
                problems.extend(f"{name} [{label}]: {w}" for w in why)
        return failed, problems


def measure(ledger, ops, start, seconds, trace):
    """Closed loop of passes until `seconds` after `start` are spent; with
    trace, traced and untraced passes alternate.  Without trace, one
    set-up sample is taken before each pass, so that set-up and passes
    see the machine over the same stretch of time.  Returns the passes
    by label and the set-up samples."""
    labels = ["untraced", "traced"] if trace else ["untraced"]
    passes = {label: [] for label in labels}
    setup = []
    last = 0.0
    i = 0
    while True:
        label = labels[i % len(labels)]
        t0 = time.monotonic()
        if not trace:
            setup.append(setup_time())
        report, error = run_pass(ledger.work, ops, label == "traced", f"{label}-{i}")
        last = max(last, time.monotonic() - t0)
        ledger.add(report, error, ops, label)
        if report is not None:
            passes[label].append(report)
        i += 1
        elapsed = time.monotonic() - start
        enough = i >= MIN_PASSES * len(labels) and elapsed + last > seconds
        if enough or elapsed + last > RUN_LIMIT:
            break
    return passes, setup


def end_to_end(passes, setup):
    walls = [p["wall_s"] for p in passes["untraced"]]
    rss = [p["peak_rss_mb"] for p in passes["untraced"]]
    metrics = {
        "wall_s": {"value": _median(walls), "unit": "s"},
        "setup_s": {"value": _median(setup), "unit": "s"},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
    }
    detail = {"wall_s": _quartiles(walls), "setup_s": _quartiles(setup), "peak_rss_mb": _quartiles(rss)}
    return metrics, detail


def per_layer(passes, work):
    traced = passes["traced"]
    untraced_wall = _median([p["wall_s"] for p in passes["untraced"]])
    metrics = {}

    def put(name, values, unit):
        metrics[name] = {"value": _median(values), "unit": unit}

    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", [p["trace"]["self_s"][layer] for p in traced], "s")
    for counter in tracing.COUNTERS:
        unit = "s" if counter.endswith("_s") else ("bytes" if counter == "reports.bytes" else "count")
        put(counter, [p["trace"]["counters"][counter] for p in traced], unit)
    for name in workloads.op_names():
        put(f"op.{name}.s", [e["seconds"] for p in traced for e in p["ops"] if e["name"] == name], "s")
    walls = [p["wall_s"] for p in traced]
    put("trace.wall_s", walls, "s")
    put("trace.unaccounted_s", [p["wall_s"] - sum(p["trace"]["self_s"].values()) for p in traced], "s")
    metrics["trace.overhead_s"] = {"value": _median(walls) - untraced_wall, "unit": "s"}
    traces = sorted(work.glob("trace-*.json"), key=lambda f: f.stat().st_mtime)
    detail = {"traced_passes": len(traced), "untraced_passes": len(passes["untraced"])}
    return metrics, detail, traces[-1] if traces else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gwel" / "__init__.py").is_file():
        print(f"error: no gwel sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "outputs").mkdir(parents=True)
    try:
        threads = min(workloads.THREADS, len(os.sched_getaffinity(0)))
        ops, files = workloads.build(args.workload, args.seed, threads)
        for name, text in files.items():
            (work / name).write_text(text)
        start = time.monotonic()  # set-up, the thread check and the passes share --seconds
        env = environment()  # its probe also fills the bytecode cache before set-up is timed
        ledger = Ledger(work, ops)
        # --threads 1 against the timed passes' --threads 2, outside them
        checked = [workloads.with_threads(op, 1) for op in ops if op["name"] in workloads.THREAD_CHECKED]
        if checked:
            report, error = run_pass(work, checked, False, "threads-1")
            ledger.add(report, error, checked, "threads-1")
        passes, setup = measure(ledger, ops, start, args.seconds, bool(args.trace))

        failed, problems = ledger.failures()
        attempted = len(ledger.runs)
        detail = {
            "workload": args.workload,
            "why": workloads.WHY[args.workload],
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "error_rate": failed / attempted,
            "problems": problems[:20],
            "op_median_s": {
                name: _median([e["seconds"] for p in passes["untraced"] for e in p["ops"] if e["name"] == name])
                for name in ledger.ops
            },
        }
        if args.trace:
            metrics, extra, last_trace = per_layer(passes, work)
            if last_trace is not None:
                shutil.copyfile(last_trace, WORK / f"trace-{args.workload}.json")
        else:
            metrics, extra = end_to_end(passes, setup)
        detail.update(extra)
        ok = failed == 0 and all(passes.values())
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
