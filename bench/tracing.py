"""Per-layer tracing of gwel, installed from outside the package.

`Tracer.install()` replaces every public module-level function of each
layer module with a wrapper, in every gwel namespace that binds it, so a
name imported elsewhere (entropy imports `convolve_power`,
`critical_exponent` and `abelian_zero_sphere_counts` by name) is traced
too.  `Word.__post_init__` is wrapped as well, because building and
validating words is the `words` layer's main cost.

A span is recorded only where a call crosses from one layer into another;
calls inside a layer run through the wrapper without a span.  Methods of
gwel classes (say `PermRep.apply_col`) are not wrapped, so their time
belongs to the layer that calls them.

Spans are kept in memory as a call tree: one node per (parent node,
layer, function), holding the call count, total time and self time.  Self
time is the span's duration minus the time its child spans cover.  The
tree is written out once, when the benchmark asks for it.

Counts are taken from arguments and results, never from gwel internals.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time

LAYERS = (
    "cli",
    "parsing",
    "quotients",
    "growth",
    "entropy",
    "measures",
    "boundary",
    "words",
    "lattice",
    "reports",
)

COUNTERS = (
    "quotients.elements",
    "quotients.guard_trip_s",
    "growth.transfer_states",
    "entropy.series_steps",
    "entropy.mc_step_trials",
    "measures.support",
    "boundary.sphere_words",
    "boundary.proximality_rows",
    "words.validations",
    "reports.bytes",
)


def _arg(bound, name):
    return bound.arguments[name]


def _rep_states(b, _result):
    return _arg(b, "rep").size * 2 * _arg(b, "d")


def _transfer_states(b, _result):
    if b.arguments.get("method", "transfer") in ("transfer", "both"):
        return _rep_states(b, _result)
    return 0


def _sphere_words_one(b, _result):
    d = _arg(b, "d")
    return 2 * d * (2 * d - 1) ** len(_arg(b, "g"))  # |S(|g|+1)|


def _sphere_words_mu(b, _result):
    d, mu = _arg(b, "d"), _arg(b, "mu")
    m = max((len(g) for g in mu.support()), default=0) + 1
    return len(mu) * 2 * d * (2 * d - 1) ** (m - 1)


# (module, function) -> (counter, value from bound arguments and result)
HOOKS = {
    ("quotients", "coset_enumerate"): ("quotients.elements", lambda b, r: r.size),
    ("quotients", "from_point_permutations"): ("quotients.elements", lambda b, r: r.size),
    ("growth", "kernel_sphere_counts"): ("growth.transfer_states", _transfer_states),
    ("growth", "critical_exponent"): ("growth.transfer_states", _rep_states),
    ("entropy", "radial_entropy_exact"): ("entropy.series_steps", lambda b, r: _arg(b, "n")),
    ("entropy", "quotient_entropy_dp"): ("entropy.series_steps", lambda b, r: _arg(b, "n")),
    ("entropy", "drift_mc"): (
        "entropy.mc_step_trials", lambda b, r: _arg(b, "n") * _arg(b, "trials")
    ),
    ("measures", "convolve_power"): ("measures.support", lambda b, r: len(r)),
    ("boundary", "rn_integral"): ("boundary.sphere_words", _sphere_words_one),
    ("boundary", "kl_coefficient"): ("boundary.sphere_words", _sphere_words_one),
    ("boundary", "boundary_entropy_coefficient"): ("boundary.sphere_words", _sphere_words_mu),
    ("boundary", "proximality_sim"): ("boundary.proximality_rows", lambda b, r: len(r.rows)),
    ("reports", "emit_report"): ("reports.bytes", lambda b, r: len(r)),
}


class Tracer:
    """Call-tree spans and named counters for one worker process."""

    def __init__(self):
        # node key -> [calls, total_s, self_s]; a key is (parent key, layer, name)
        self.nodes: dict = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        # frame: [layer, node key, start, time covered by child spans]
        self._stack = [["bench", None, 0.0, 0.0]]
        self._guard_error = None

    # -- spans -------------------------------------------------------------

    def _enter(self, layer, name):
        parent = self._stack[-1]
        frame = [layer, (parent[1], layer, name), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame[2]
        self._stack.pop()
        self._stack[-1][3] += dur
        node = self.nodes.get(frame[1])
        if node is None:
            node = self.nodes[frame[1]] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += dur
        node[2] += dur - frame[3]
        return dur

    @contextlib.contextmanager
    def op(self, name):
        """One benchmark operation, as a root span."""
        frame = self._enter("bench", f"op.{name}")
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer, name):
        sig = inspect.signature(fn)
        hook = HOOKS.get((layer, name))
        stack = self._stack
        counters = self.counters
        guard_error = self._guard_error

        def count(args, kwargs, result):
            counter, value_of = hook
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            counters[counter] += value_of(b, result)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if stack[-1][0] == layer:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        frame = self._enter(layer, name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._exit(frame)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    frame = self._enter(layer, name)
                    try:
                        result = fn(*args, **kwargs)
                    except guard_error:
                        dur = self._exit(frame)
                        if layer == "quotients":
                            counters["quotients.guard_trip_s"] += dur
                        raise
                    except BaseException:
                        self._exit(frame)
                        raise
                    self._exit(frame)
                if hook is not None:
                    count(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _wrap_post_init(self, fn):
        stack = self._stack
        counters = self.counters

        def __post_init__(word):
            counters["words.validations"] += 1
            if stack[-1][0] == "words":
                return fn(word)
            frame = self._enter("words", "Word.__post_init__")
            try:
                return fn(word)
            finally:
                self._exit(frame)

        return __post_init__

    def install(self):
        """Wrap every public function of every layer module, in every gwel
        namespace that binds it.  Call once per process, before any
        operation looks a function up."""
        gwel = importlib.import_module("gwel")
        self._guard_error = gwel.ResourceGuardError
        modules = {layer: importlib.import_module(f"gwel.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[obj] = self._wrap(obj, layer, name)
        for ns in (gwel, *modules.values()):
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, name, wrapped[obj])
        word = modules["words"].Word
        word.__post_init__ = self._wrap_post_init(word.__post_init__)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per layer, summed over the whole call tree."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (_parent, layer, _name), node in self.nodes.items():
            if layer in out:
                out[layer] += node[2]
        return out

    def tree(self) -> list:
        """The call tree as a flat list of nodes with parent ids."""
        index = {key: i for i, key in enumerate(self.nodes)}
        return [
            {
                "id": index[key],
                "parent": index.get(key[0]),
                "layer": key[1],
                "name": key[2],
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
            }
            for key, (calls, total, self_s) in self.nodes.items()
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"nodes": self.tree(), "counters": self.counters}, fh)
