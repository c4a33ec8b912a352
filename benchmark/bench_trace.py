"""Span tracing for the traced benchmark pass.

The tracer replaces selected public functions of the `antipodal` package
with wrappers that record one span per call: name, start, end, parent
span and job id, plus a few result-derived counts.  The package's
modules import each other's functions by name (`cli` holds its own
reference to `certify_theorem1`, `circle` to `circle_family`, ...), so a
function is replaced in every package namespace that holds it, which is
where callers look it up.  Spans stay in memory; the caller writes them
out after the run.  Nothing inside the solver's `_Solver` is wrapped.

Per-vector helpers (`parse_vector`, `format_vector`, `is_antipodal`,
...) are left unwrapped so that tracing stays cheap; their time lands in
the self time of the calling layer.  `antipodal_neighbors` is the one
per-vector function that is wrapped, because the antipodal-free
precheck and the graph build are made of its calls.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from time import perf_counter

# Layer -> public functions wrapped in the traced pass.
TRACED = {
    "vectors": ("enumerate_v", "antipodal_neighbors"),
    "constructions": ("example1", "example2", "circle_family", "apply_permutation"),
    "familyfile": (
        "load_family",
        "save_family",
        "family_from_text",
        "family_from_json",
        "family_to_text",
        "family_to_json",
    ),
    "search": (
        "antipodality_graph",
        "kneser_graph",
        "max_independent_set",
        "max_antipodal_free",
        "max_intersecting",
    ),
    "theorem1": ("certify_theorem1", "lemma1_check", "deletion_procedure", "family_b", "subfamily"),
    "setfamilies": ("is_intersecting", "is_cross_intersecting", "verify_prop1_exhaustive"),
    "circle": ("lemma3_sweep", "lemma3_count", "double_count_check", "theorem2_certify"),
    "cli": ("main",),
}


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError, ValueError):
        return 0


def _ordered_l_pairs(fam) -> int:
    p = fam.params
    return math.comb(p.n, p.l) * math.comb(p.n - p.l, p.l)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


# Result-derived counts recorded on a span; each takes (args, kwargs, result).
_INFO = {
    "search.max_independent_set": lambda a, kw, r: (r.nodes_explored, r.proof_of_optimality),
    "circle.lemma3_sweep": lambda a, kw, r: r.sigmas_checked,
    "setfamilies.verify_prop1_exhaustive": lambda a, kw, r: r.pairs_examined,
    "theorem1.deletion_procedure": lambda a, kw, r: (len(r[1].pair_counts), len(r[1].deleted)),
    "theorem1.lemma1_check": lambda a, kw, r: _ordered_l_pairs(_arg(a, kw, 0, "fam")),
    "familyfile.load_family": lambda a, kw, r: _path_size(_arg(a, kw, 0, "path")),
    "familyfile.save_family": lambda a, kw, r: _path_size(_arg(a, kw, 1, "path")),
}


class Tracer:
    """Records spans while installed and active; `job` tags new spans.

    A span is the list [name, start, end, parent_index, job, info].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = None
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)
        spans = self.spans  # appended to, never rebound
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function in every `antipodal` namespace."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "antipodal" or n.startswith("antipodal.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"antipodal.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
