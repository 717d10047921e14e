"""One pass of a workload, in a fresh process.

    python3 bench/worker.py SPEC.json

SPEC names the gwel source directory, the op list, the work directory and
whether to trace.  The worker imports gwel, optionally installs the
tracer, then runs the ops in order and in-process; only the ops are
timed.  Each op's output (report bytes, or the serialized result of a
library call) is hashed and stored once per digest under `outputs/` in
the work directory, for `run.py` to check.  The last stdout line is a
JSON object with the per-op timings and digests, the pass wall time and
the peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _prepare(op, work):
    """Inputs for one op, built before the timer starts."""
    kind = op["kind"]
    if kind == "cli":
        argv = [a.replace("{work}", work) for a in op["argv"]]
        return argv + ["--out", os.path.join(work, f"out-{os.getpid()}-{op['name']}")]
    if kind == "cocycle":
        return [tuple(tuple(w) for w in t) for t in op["triples"]]
    if kind in ("rn_integral", "kl_coefficient"):
        return [tuple(w) for w in op["words"]]
    if kind == "boundary_coefficient":
        return list(op["ranks"])
    raise ValueError(f"unknown op kind {kind!r}")


def _run(gwel, op, inputs):
    """Run one op and return its raw result."""
    kind = op["kind"]
    if kind == "cli":
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = gwel.cli.main(inputs)
        return {"exit": code, "stderr": err.getvalue()}
    word = gwel.words.Word
    if kind == "cocycle":
        d = op["d"]
        check = gwel.boundary.cocycle_check
        return [check(d, word(g, d), word(h, d), word(w, d)) for g, h, w in inputs]
    if kind in ("rn_integral", "kl_coefficient"):
        d = op["d"]
        fn = getattr(gwel.boundary, kind)
        return [fn(d, word(g, d)) for g in inputs]
    if kind == "boundary_coefficient":
        coeff = gwel.boundary.boundary_entropy_coefficient
        return [coeff(d, gwel.measures.srw(d)) for d in inputs]
    raise ValueError(f"unknown op kind {kind!r}")


def _serialize(op, inputs, result):
    """Canonical bytes of an op's output."""
    if op["kind"] == "cli":
        path = inputs[-1]
        body = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                body = fh.read()
            os.remove(path)
        head = json.dumps(result, sort_keys=True).encode()
        return head + b"\n" + body
    if op["kind"] == "cocycle":
        return json.dumps(result).encode()
    return json.dumps([[q.numerator, q.denominator] for q in result]).encode()


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import gwel  # from PYTHONPATH, which run.py points at the checkout's src
    import gwel.cli

    if not os.path.realpath(gwel.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"imported gwel from {gwel.__file__}, not from {spec['src']}")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    work = spec["work"]
    outputs = os.path.join(work, "outputs")
    ops = spec["ops"]
    prepared = [_prepare(op, work) for op in ops]
    results = []
    clock = time.perf_counter
    start = clock()
    for op, inputs in zip(ops, prepared):
        t0 = clock()
        error = None
        try:
            if tracer is None:
                out = _run(gwel, op, inputs)
            else:
                with tracer.op(op["name"]):
                    out = _run(gwel, op, inputs)
        except Exception as e:  # an op that raises counts as failed
            out = None
            error = f"{type(e).__name__}: {e}"
        results.append((clock() - t0, out, error))
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = []
    for op, inputs, (seconds, out, error) in zip(ops, prepared, results):
        entry = {"name": op["name"], "seconds": seconds, "error": error, "digest": None}
        if error is None:
            data = _serialize(op, inputs, out)
            digest = hashlib.sha256(data).hexdigest()
            path = os.path.join(outputs, f"{op['name']}-{digest}")
            if not os.path.exists(path):
                tmp = f"{path}.{os.getpid()}"
                with open(tmp, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            entry["digest"] = digest
        report.append(entry)

    trace = None
    if tracer is not None:
        trace = {
            "self_s": tracer.self_times(),
            "counters": tracer.counters,
        }
        tracer.write(os.path.join(work, f"trace-{os.getpid()}.json"))
    print(json.dumps({"ops": report, "wall_s": wall, "peak_rss_mb": rss_mb, "trace": trace}))


if __name__ == "__main__":
    main(sys.argv[1])
