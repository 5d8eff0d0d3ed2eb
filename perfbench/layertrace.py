"""Per-layer spans placed around calls into spincert's public functions.

The program itself carries no instrumentation.  ``Tracer.install`` wraps each
named function and rebinds every module-level name in ``spincert`` that refers
to it, so ``from .kernels import matmul_mod`` in ``linalg`` or ``orbits`` is
traced as well as ``kernels.matmul_mod`` itself.  A named function that no
longer exists raises ``LayerMissing`` instead of reporting zero calls, so a
refactor cannot make a layer drop out of the trace unnoticed.

Spans nest: a layer's self time is its span's duration minus the time of the
spans opened inside it.  Only totals per layer are kept, which is all the
benchmark reports.  Counts marked "computed" (``ops``, ``flops``) are derived
from argument and result shapes, not measured.
"""

from __future__ import annotations

import functools
import math
import sys
import time

__all__ = ["LayerMissing", "Tracer", "SUITE_NAMES", "RREF_BUCKETS"]

SUITE_NAMES = (
    "g2_octonion",
    "spin7",
    "spin10",
    "spin11",
    "spin14",
    "coregular_free",
    "branching",
    "sln_quotient",
)

# Upper cell counts (rows x cols) of the rref_mod size buckets; "big" is the rest.
RREF_BUCKETS = (("tiny", 100), ("small", 2_000), ("mid", 50_000), ("big", math.inf))

_CONSTRUCTORS = ("vector_rep", "spin_rep", "half_spin_reps", "direct_sum", "restrict")


class LayerMissing(RuntimeError):
    """A function the trace is meant to wrap does not exist in the program."""


class _Counts(dict):
    """Counter dict whose missing keys read as zero."""

    def __missing__(self, key):
        return 0


def _observe_rref_mod(rec, args, result, dt):
    rows, cols = args[0].shape
    rank = len(result[1])
    rec["cells"] += rows * cols
    rec["ops"] += rows * cols * rank
    bucket = next(name for name, limit in RREF_BUCKETS if rows * cols <= limit)
    rec[bucket + ".calls"] += 1
    rec[bucket + ".self_s"] += dt


def _observe_matmul_mod(rec, args, result, dt):
    a, b = args[0], args[1]
    batch = math.prod(result.shape[:-2])
    rec["flops"] += 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _observe_span_add(rec, args, result, dt):
    rec["grew"] += bool(result)


def _observe_rref_qq(rec, args, result, dt):
    rows, cols = args[0].shape
    rec["cells"] += rows * cols


def _construct_key(fn_name, args):
    if fn_name == "direct_sum":
        reps = args[0]
        return (fn_name, repr(reps[0].field), tuple(r.name for r in reps))
    if fn_name == "restrict":
        rep, emb = args
        return (fn_name, repr(rep.field), rep.name, emb.sub_n, emb.gen_vectors)
    space, field = args
    return (fn_name, repr(field), space.n)


def _targets():
    """(layer, owner, attribute, observer) for every wrapped callable."""
    from spincert import clifford, kernels, linalg, octonion, orbits, slnpair, spinreps

    out = [
        ("kernels.rref_mod", kernels, "rref_mod", _observe_rref_mod),
        ("kernels.matmul_mod", kernels, "matmul_mod", _observe_matmul_mod),
        ("linalg.associative_closure", linalg, "associative_closure", None),
        ("linalg.SpanBuilder.add", linalg.SpanBuilder, "add", _observe_span_add),
        ("linalg.commutant_dimension", linalg, "commutant_dimension", None),
        ("linalg.rref_qq", linalg, "_rref_qq", _observe_rref_qq),
        ("orbits.stabilizer", orbits, "stabilizer", None),
        ("orbits.invariant_bilinear_space", orbits, "invariant_bilinear_space", None),
        ("orbits.subalgebra_structure_from_matrices", orbits, "subalgebra_structure_from_matrices", None),
        ("orbits.invariant_quartic_dim", orbits, "invariant_quartic_dim", None),
        ("spinreps.verify_lie_homomorphism", spinreps, "verify_lie_homomorphism", None),
        ("clifford.so_structure_constants", clifford, "so_structure_constants", None),
    ]
    out += [("spinreps.construct", spinreps, name, None) for name in _CONSTRUCTORS]
    for mod in (octonion, slnpair):
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type):
                out.append((layer, mod, name, None))
    return out


class Tracer:
    """Span recorder for one process; create it, ``install`` it, read ``totals``."""

    def __init__(self):
        self._stack: list[float] = []  # child time accumulated by each open span
        self._records: dict[str, dict] = {}
        self._unique: dict[str, set] = {}

    def _wrap(self, layer, fn, observe, key_name=None):
        rec = self._records.setdefault(layer, _Counts())
        stack = self._stack
        unique = self._unique.setdefault(layer, set()) if key_name else None
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec["calls"] += 1
                rec["wall_s"] += elapsed
                rec["self_s"] += elapsed - children
            if observe is not None:
                observe(rec, args, result, elapsed - children)
            if unique is not None:
                unique.add(_construct_key(key_name, args))
            return result

        return functools.update_wrapper(span, fn)

    def install(self) -> None:
        """Wrap every target and rebind each module-level name that refers to it."""
        from spincert import suites

        program = [m for name, m in sys.modules.items() if name == "spincert" or name.startswith("spincert.")]
        for layer, owner, attr, observe in _targets():
            original = getattr(owner, attr, None)
            if not callable(original):
                raise LayerMissing(f"{layer}: {owner.__name__}.{attr} is missing")
            key_name = attr if layer == "spinreps.construct" else None
            wrapper = self._wrap(layer, original, observe, key_name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in program:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

        for name in SUITE_NAMES:
            if name not in suites.SUITES:
                raise LayerMissing(f"suites.{name} is missing from suites.SUITES")
        for name, (runner, anchor) in list(suites.SUITES.items()):
            suites.SUITES[name] = (self._wrap(f"suites.{name}", runner, None), anchor)

    def totals(self) -> dict:
        """Counters per layer: calls, self_s, wall_s (span time) and the layer's own counts."""
        out = {layer: dict(rec, calls=rec["calls"], self_s=rec["self_s"], wall_s=rec["wall_s"])
               for layer, rec in self._records.items()}
        for layer, keys in self._unique.items():
            out[layer]["unique"] = len(keys)
        adds = out["linalg.SpanBuilder.add"]
        adds["grew_ratio"] = adds["grew"] / adds["calls"] if adds["calls"] else 0.0
        return out
