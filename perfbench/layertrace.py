"""Per-layer tracing of mfann from outside the package.

The tracer replaces mfann's public functions with wrappers in every module
namespace that holds them, because ``from .truncation import
build_truncation`` binds a separate name in each importing module. Methods
are replaced on their class. A timed wrapper records one span per call in
memory: name, start, end and parent span. Hot per-element methods (the field
operations and ``TruncatedAlgebra.reduce``) get a call counter and no span,
since timing them would dominate the run. ``restore`` puts every original
object back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from array import array

# Timed layers: span name -> "module:attribute". A span name is the module,
# then the function's name as a user would say it.
TIMED = {
    "cli.main": "cli:main",
    "mf.catalog": "mf:catalog",
    "mf.validate": "mf:validate",
    "families.build_family": "families:build_family",
    "truncation.build_truncation": "truncation:build_truncation",
    "truncation.TruncatedAlgebra.build": "truncation:TruncatedAlgebra.__init__",
    "poly.Polynomial.mul": "poly:Polynomial.__mul__",
    "linalg.rref": "linalg:rref",
    "linalg.mat_mul": "linalg:mat_mul",
    "linalg.kernel": "linalg:kernel",
    "linalg.solve_affine": "linalg:solve_affine",
    "linalg.Subspace.residual": "linalg:Subspace.residual",
    "linalg.Subspace.intersect": "linalg:Subspace.intersect",
    "linalg.Subspace.complement_functionals": "linalg:Subspace.complement_functionals",
    "ideals.truncate_ideal": "ideals:truncate_ideal",
    "ideals.ideal_subspace_from_vectors": "ideals:ideal_subspace_from_vectors",
    "ideals.extract_generators": "ideals:extract_generators",
    "ideals.limit_of_chain": "ideals:limit_of_chain",
    "ideals.is_m_primary": "ideals:is_m_primary",
    "ideals.member": "ideals:member",
    "annihilator.annihilate": "annihilator:annihilate",
    "annihilator.annihilator_truncated": "annihilator:annihilator_truncated",
    "annihilator.witness_search": "annihilator:witness_search",
    "alexandrov.compactness_verdict": "alexandrov:compactness_verdict",
    "alexandrov.build_preorder": "alexandrov:build_preorder",
}

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")

# Counted-only methods: counter name -> (module, class, methods).
COUNTED = {
    "fields.elem_ops.fp": ("fields", "PrimeField", FIELD_OPS),
    "fields.elem_ops.q": ("fields", "Rationals", FIELD_OPS),
    "truncation.TruncatedAlgebra.reduce.calls": ("truncation", "TruncatedAlgebra", ("reduce",)),
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._tickers: dict[str, itertools.count] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: str = "mfann") -> None:
        """Wrap every layer of the package, importing its modules first."""
        for target in TIMED.values():
            importlib.import_module(f"{package}.{target.partition(':')[0]}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for name, target in TIMED.items():
            module, _, attr = target.partition(":")
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch(getattr(owner, cls_name), meth, self._timed(name, _HOOKS.get(name)))
            else:
                self._patch_everywhere(modules, getattr(owner, attr),
                                       self._timed(name, _HOOKS.get(name)))
        for counter, (module, cls_name, methods) in COUNTED.items():
            cls = getattr(sys.modules[f"{package}.{module}"], cls_name)
            tick = self._tickers.setdefault(counter, itertools.count()).__next__
            for meth in methods:
                self._patch(cls, meth, functools.partial(_counted, tick=tick))

    def _patch(self, owner, attr, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _patch_everywhere(self, modules, original, make_wrapper) -> None:
        wrapper = make_wrapper(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original function and method, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for counter, ticker in self._tickers.items():
            self.counts[counter] = self.counts.get(counter, 0) + next(ticker)
        self._tickers.clear()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, hook):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, self.clock
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if hook is not None:
                    hook(counts, args, result)
                return result

            return wrapper

        return make

    # -- results ----------------------------------------------------------

    def spans(self):
        """(name, start, end, parent) of every span, in start order."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        ]

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated lines: index, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _counted(fn, tick):
    # Fixed-arity wrappers: packing *args would more than double the cost
    # of counting some fifty million field operations.
    arity = fn.__code__.co_argcount
    if arity == 3:
        def wrapper(self, a, b):
            tick()
            return fn(self, a, b)
    elif arity == 2:
        def wrapper(self, a):
            tick()
            return fn(self, a)
    else:
        raise TypeError(f"cannot count {fn.__qualname__}: {arity} arguments")
    return functools.update_wrapper(wrapper, fn)


def summarize(spans) -> dict:
    """Per-name totals of a span list: calls, inclusive s, self_s and max_s.

    ``spans`` holds (name, start, end, parent) with parent an index into the
    list (-1 for a root) that precedes its children, as in a single thread.
    Self time is a span's duration minus the durations of its direct
    children, which never overlap. A span nested inside a span of the same
    name adds to ``calls`` and ``self_s`` but not to ``s``, so recursion is
    not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += dur
            row["max_s"] = max(row["max_s"], dur)
    return out


# -- per-function counters, read from arguments and results -------------------


def _bump(counts, key, by=1):
    counts[key] = counts.get(key, 0) + by


def _rref_hook(counts, args, result):
    rows, field = args[0], args[1]
    if rows:
        _bump(counts, "linalg.rref.cells", len(rows) * len(rows[0]))
    if not field.is_prime:
        _bump(counts, "linalg.rref.generic_calls")


def _mat_mul_hook(counts, args, result):
    A, B = args[0], args[1]
    if A and B:
        _bump(counts, "linalg.mat_mul.macs", len(A) * len(B) * len(B[0]))


def _solve_affine_hook(counts, args, result):
    if result is None:
        _bump(counts, "linalg.solve_affine.inconsistent")


def _member_hook(counts, args, result):
    _bump(counts, "ideals.member." + {"yes-certified": "yes", "no-certified": "no"}.get(
        result.status, "undetermined"))


def _witness_hook(counts, args, result):
    if result is not None:
        _bump(counts, "annihilator.witness_search.found")


_HOOKS = {
    "linalg.rref": _rref_hook,
    "linalg.mat_mul": _mat_mul_hook,
    "linalg.solve_affine": _solve_affine_hook,
    "ideals.member": _member_hook,
    "annihilator.witness_search": _witness_hook,
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of a traced pass: name -> (value, unit).

    ``trace.wall_s`` is the traced pass's wall time; the untraced wall time
    subtracted from it is the tracing overhead.
    """
    summary = summarize(tracer.spans())
    counts = tracer.counts
    out = {"trace.wall_s": (wall_s, "s")}

    def timed(name, span=None):
        row = summary.get(span or name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
        return row

    def counted(name, unit="count"):
        out[name] = (counts.get(name, 0), unit)

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    timed("cli.main")
    timed("mf.catalog")
    timed("mf.validate")
    timed("families.build_family")
    calls = timed("truncation.build_truncation")["calls"]
    build = summary.get("truncation.TruncatedAlgebra.build", {"calls": 0, "s": 0.0})
    out["truncation.TruncatedAlgebra.builds"] = (build["calls"], "count")
    out["truncation.TruncatedAlgebra.build_s"] = (build["s"], "s")
    out["truncation.build_truncation.hit_ratio"] = ratio(calls - build["calls"], calls)
    counted("truncation.TruncatedAlgebra.reduce.calls")
    counted("fields.elem_ops.fp")
    counted("fields.elem_ops.q")
    timed("poly.Polynomial.mul")
    timed("linalg.rref")
    counted("linalg.rref.cells", "cells")
    counted("linalg.rref.generic_calls")
    timed("linalg.mat_mul")
    counted("linalg.mat_mul.macs", "macs")
    timed("linalg.kernel")
    timed("linalg.solve_affine")
    counted("linalg.solve_affine.inconsistent")
    timed("linalg.Subspace.residual")
    timed("linalg.Subspace.intersect")
    timed("linalg.Subspace.complement_functionals")
    for name in ("truncate_ideal", "ideal_subspace_from_vectors", "extract_generators",
                 "limit_of_chain", "is_m_primary"):
        timed(f"ideals.{name}")
    timed("ideals.member")
    for outcome in ("yes", "no", "undetermined"):
        counted(f"ideals.member.{outcome}")
    out["annihilator.annihilate.max_s"] = (timed("annihilator.annihilate")["max_s"], "s")
    timed("annihilator.annihilator_truncated")
    calls = timed("annihilator.witness_search")["calls"]
    counted("annihilator.witness_search.found")
    out["annihilator.witness_search.hit_ratio"] = ratio(
        counts.get("annihilator.witness_search.found", 0), calls)
    timed("alexandrov.compactness_verdict")
    timed("alexandrov.build_preorder")
    return out
