"""Per-layer tracing from outside the program.

:class:`Tracer` replaces chosen ``braidcryst`` functions with timing
wrappers and puts the originals back on :meth:`Tracer.uninstall`.  A
function is replaced in *every* ``braidcryst.*`` namespace that holds it,
because sibling modules import each other's functions by name
(``from .quotient import mul``) and patching one module would miss the rest.
Methods are wrapped on their class.  Calls reached only through a default
argument bound at definition time (``section=canonical_lift``) cannot be
wrapped; the runner reads those from ``cache_info()`` deltas instead.

Spans nest on a stack; a span's self time is its duration minus the time of
the spans it directly contains.  Exceptions leaving a wrapped function are
counted as that function's errors.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

#: Traced functions, ``(module, qualified name)``; a dotted name is a method
#: or property of a class in that module.
TRACED = (
    ("quotient", "mul"),
    ("quotient", "inverse"),
    ("quotient", "power"),
    ("quotient", "conjugate"),
    ("quotient", "element_order"),
    ("quotient", "normalize"),
    ("quotient", "basis_orbits"),
    ("braidword", "linking_vector"),
    ("braidword", "PairVector.precompose"),
    ("permutation", "Permutation.__mul__"),
    ("torsion", "torsion_witness"),
    ("torsion", "torsion_element"),
    ("conjugacy", "are_conjugate"),
    ("conjugacy", "conjugator_to_standard"),
    ("orbits", "closed_form_orbits"),
    ("subgroups", "is_bieberbach"),
    ("subgroups", "HolonomySubgroup.elements"),
    ("subgroups", "sublattice_is_torsion_free"),
    ("frobenius", "standardize_frobenius"),
    ("frobenius", "subgroup_closure"),
    ("zlinalg", "snf"),
    ("zlinalg", "hnf"),
    ("zlinalg", "solve_integer"),
    ("zlinalg", "lattice_contains"),
    ("zlinalg", "abelianization"),
)

LOG10_2 = math.log10(2)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__mul__', 'mul')}"


def entries(matrix):
    """Integer entries of a numpy array or a list of rows."""
    if hasattr(matrix, "flat"):
        return matrix.flat
    return (x for row in matrix for x in row)


def max_digits(*matrices) -> int:
    """Decimal digit count of the largest entry, from ``bit_length`` with one
    exact correction: ``str()`` refuses ints of more than 4300 digits."""
    top = max((abs(int(x)) for m in matrices for x in entries(m)), default=0)
    if not top:
        return 1
    digits = math.floor((top.bit_length() - 1) * LOG10_2) + 1
    return digits + 1 if top >= 10 ** digits else digits


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.mul_by_n: dict[int, list[float]] = defaultdict(list)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- size counters, taken after a span and kept out of its timing ---------

    def _letters(self, args, result):
        self.extra["braidword.linking_vector.letters"] += len(args[0].letters)

    def _listed(self, args, result):
        self.extra["subgroups.is_bieberbach.elements_listed"] += len(args[0].elements)

    def _closure(self, args, result):
        self.extra["frobenius.subgroup_closure.elements"] += len(result)

    def _snf(self, args, result):
        D = result[0]
        self._raise("zlinalg.snf.max_entry_digits", max_digits(*result))
        self._raise("zlinalg.snf.max_shape", len(D) * (len(D[0]) if len(D) else 0))

    def _hnf(self, args, result):
        self._raise("zlinalg.hnf.max_entry_digits", max_digits(*result))

    def _raise(self, key, value):
        self.extra[key] = max(self.extra[key], value)

    def wrap(self, name: str, fn):
        stack, calls, self_s, errors = self._stack, self.calls, self.self_s, self.errors
        mul_by_n = self.mul_by_n if name == "quotient.mul" else None
        hook = {
            "braidword.linking_vector": self._letters,
            "subgroups.is_bieberbach": self._listed,
            "frobenius.subgroup_closure": self._closure,
            "zlinalg.snf": self._snf,
            "zlinalg.hnf": self._hnf,
        }.get(name)
        clock = time.thread_time  # the clock op latencies use

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if mul_by_n is not None:
                    mul_by_n[args[0].n].append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import braidcryst

        namespaces = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "braidcryst" or key.startswith("braidcryst."))
        ]
        for module, qualname in TRACED:
            mod = getattr(braidcryst, module)
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__.get(attr)
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(self.wrap(name, original.func))
                    replacement.__set_name__(cls, attr)
                elif isinstance(original, property):
                    replacement = property(self.wrap(name, original.fget))
                elif callable(original):
                    replacement = self.wrap(name, original)
                else:
                    continue
                self._restore.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(mod, qualname, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
