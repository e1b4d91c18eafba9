"""Per-layer tracing of contikit, installed from outside the package.

Each public function of a layer is replaced, in every contikit namespace that
binds it, by a timing wrapper: ``from .continuants import b_sequence`` leaves
a copy of that binding in recurrence, divisibility and series, and all of them
must be patched.  Spans are folded into per-(layer, function) totals as they
close; ``paper`` makes about a million leaf calls, so none is stored.

A call into a layer from the same layer only counts.  Otherwise it opens a
span: ``busy`` adds the outermost span of each layer (nested re-entry through
another layer is not counted twice) and ``self`` adds the span minus the spans
of other layers it called.  The wrappers' own work (bookkeeping and counters)
is left out of both and summed on its own as ``wrapper_overhead_s``.  So is
the part of it no timestamp inside the wrapper can see (entering the wrapper,
packing its arguments, returning), at a per-call cost calibrated when the
tracer is made, as ``profile.Profile.calibrate`` does.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("continuants", "recurrence", "quadratic", "pell", "divisibility", "series", "suite", "cli")

# Dunder methods the dataclass decorator generates; they are not arithmetic.
_GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bits(*values):
    out = 0
    for v in values:
        out = max(out, abs(v.numerator).bit_length(), abs(v.denominator).bit_length())
    return out


def _count_continuant(pos, name, result_values):
    def hook(counters, args, kwargs, result):
        counters["continuants.index_sum"] += _arg(args, kwargs, pos, name)
        bits = _bits(*result_values(result))
        if bits > counters["continuants.max_bits"]:
            counters["continuants.max_bits"] = bits
    return hook


def _count_pell(counters, args, kwargs, result):
    counters["pell.solutions"] += len(result)


def _count_verdict(counters, args, kwargs, result):
    counters["divisibility.tested"] += 1
    counters["divisibility.inapplicable"] += result.verdict == "inapplicable"


def _count_series(counters, args, kwargs, result):
    counters["series.reports"] += 1
    counters["series.terms"] += result.terms
    counters["series.converged"] += bool(result.converged)


HOOKS = {
    ("continuants", "continuant_pair"): _count_continuant(1, "nu", lambda r: r),
    ("continuants", "b_sequence"): _count_continuant(1, "nu_max", lambda r: r[-2:]),
    ("continuants", "continuant_matrix"): _count_continuant(1, "nu", lambda r: r[0] + r[1]),
    ("continuants", "continuant_determinant"): _count_continuant(1, "nu", lambda r: r),
    ("continuants", "convergent"): _count_continuant(1, "nu", lambda r: (r,)),
    ("pell", "pell_solutions"): _count_pell,
    ("divisibility", "lucas_pseudoprime_test"): _count_verdict,
    ("series", "telescoping_sum"): _count_series,
    ("series", "zeta_series"): _count_series,
}


def _calibrate(loops=20000, repeats=5) -> float:
    """Per-call time a wrapper adds outside its own timestamps: a wrapped no-op
    against the bare one, with two arguments like most traced calls, on the
    same-layer path that leaf calls take.  The lowest of a few repeats is
    kept, so noise does not inflate it."""
    def noop(system, nu):
        return None

    tracer = Tracer(bias=0.0)
    wrapped = tracer._wrap("calibration", noop)
    tracer._stack.append(["calibration", 0.0])
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for nu in range(loops):
            noop(None, nu)
        bare = perf_counter() - start
        timed = tracer._overhead[0]
        start = perf_counter()
        for nu in range(loops):
            wrapped(None, nu)
        outside = perf_counter() - start - bare - (tracer._overhead[0] - timed)
        best = min(best, outside / loops)
    return max(0.0, best)


class Tracer:
    """Collects one traced batch.  Use as a context manager around the batch."""

    def __init__(self, bias=None):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)
        self._undo = []
        self._overhead = [0.0]
        self.bias = _calibrate() if bias is None else bias

    def _wrap(self, layer, fn):
        key = (layer, fn.__name__)
        hook = HOOKS.get(key)
        stack, depth = self._stack, self._depth
        calls, busy, self_time, counters = self.calls, self.busy, self.self_time, self.counters
        overhead, bias = self._overhead, self.bias

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = perf_counter()
            if stack and stack[-1][0] == layer:
                calls[key] += 1
                start = perf_counter()
                result = fn(*args, **kwargs)
                end = perf_counter()
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                outermost = depth[layer] == 0
                depth[layer] += 1
                nested_before = overhead[0]
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    elapsed = end - start
                    stack.pop()
                    depth[layer] -= 1
                    calls[key] += 1
                    self_time[key] += elapsed - frame[1]
                    if outermost:
                        busy[key] += elapsed - (overhead[0] - nested_before)
                    if stack:
                        stack[-1][1] += elapsed
            if hook is not None:
                hook(counters, args, kwargs, result)
            # The wrapper's own work before and after fn() belongs to no layer:
            # the caller's frame excludes it from its self time, and the running
            # total lets every enclosing span exclude it from its busy time.
            cost = (start - entry) + (perf_counter() - end) + bias
            overhead[0] += cost
            if stack:
                stack[-1][1] += cost
            return result

        return wrapper

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"contikit.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "contikit" or modname.startswith("contikit."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._undo.append((mod, name, obj))
                        setattr(mod, name, wrappers[obj])
        # The quadratic layer's public surface is the QuadraticNumber class.
        cls = sys.modules["contikit.quadratic"].QuadraticNumber
        for name, obj in list(vars(cls).items()):
            if name in _GENERATED or (name.startswith("_") and not name.endswith("__")):
                continue
            fn = obj.__func__ if isinstance(obj, classmethod) else obj
            if not inspect.isfunction(fn):
                continue
            if fn not in wrappers:
                wrappers[fn] = self._wrap("quadratic", fn)
            wrapped = classmethod(wrappers[fn]) if isinstance(obj, classmethod) else wrappers[fn]
            self._undo.append((cls, name, obj))
            setattr(cls, name, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()
        return False

    def layer_metrics(self) -> dict:
        """Per-layer totals and counters, keyed by the benchmark's metric names."""
        out = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
            out[f"{layer}.busy_s"] = sum(self.busy[k] for k in keys)
            out[f"{layer}.self_s"] = sum(self.self_time[k] for k in keys)
        c = self.counters
        out["continuants.index_sum"] = c["continuants.index_sum"]
        out["continuants.max_bits"] = c["continuants.max_bits"]
        out["recurrence.reduce_calls"] = self.calls[("recurrence", "reduce")]
        out["pell.solutions"] = c["pell.solutions"]
        out["divisibility.inapplicable_ratio"] = (
            c["divisibility.inapplicable"] / c["divisibility.tested"] if c["divisibility.tested"] else 0.0)
        out["series.terms"] = c["series.terms"]
        out["series.converged_ratio"] = (
            c["series.converged"] / c["series.reports"] if c["series.reports"] else 0.0)
        return out

    @property
    def wrapper_overhead_s(self) -> float:
        """Time spent in the wrappers themselves, outside every span: timed,
        plus the calibrated per-call part."""
        return self._overhead[0]

    def function_table(self) -> list[dict]:
        """One row per traced (layer, function), highest self time first."""
        rows = [{"layer": k[0], "function": k[1], "calls": self.calls[k],
                 "busy_s": self.busy[k], "self_s": self.self_time[k]} for k in self.calls]
        return sorted(rows, key=lambda r: -r["self_s"])
