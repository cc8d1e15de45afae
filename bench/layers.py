"""Span tracing of armub's layers from outside the library.

During a traced operation only, each layer entry point below is replaced by
a wrapper that records a span (name, parent, start, end, step) and reads
work counters off the call's arguments and return value.  The wrapper is
installed at every name callers look up: every attribute of a loaded
``armub`` module that holds the original function (for example both
``armub.rbd.verify_rbd`` and ``armub.jsonio.verify_rbd``), or the class
attribute for methods.  ``Tracer.uninstall`` restores the originals.

An entry point that no longer exists is reported as missing; its metrics
read 0 and are listed as not applicable.  Nothing here runs during the
untraced measurement.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter


# -- counters read from calls ------------------------------------------------

def _splits(tr, args, kwargs, result, fn):
    """Splits best_reduction evaluates: its scope size, capped."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    order, t, scope = a["h"].order, a["t"], a["search_scope"]
    size = 1 if scope == "corner-only" else math.comb(order, t) ** 2
    if scope == "permutations-and-negations":
        size *= 4**t
    tr.count["epsh.splits"] += min(size, a["cap"])


def _eps_init(tr, args, kwargs, result, fn):
    y = args[0]
    tr.peak("epsh.terms", len(y.terms))
    tr.peak("epsh.distinct_abs", len(y.distinct_abs_values()))


def _grams(tr, args, kwargs, result, fn):
    # one k x k integer product per ordered term pair, for Y Y^T and Y^T Y
    r = len(args[0].terms)
    tr.count["epsh.gram_products"] += 2 * r * r


def _class_pairs(tr, args, kwargs, result, fn):
    tr.count["rbd.class_pairs"] += result.class_pairs_checked


def _cross(tr, args, kwargs, result, fn):
    tr.count["verify.basis_pairs"] += result.coverage["basis_pairs"]
    tr.count["verify.vector_pairs"] += result.pairs_checked
    tr.peak("verify.delta_values", len(result.delta))


def _written(tr, args, kwargs, result, fn):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.count["jsonio.bytes_written"] += len(text.encode())


def _read(tr, args, kwargs, result, fn):
    path = args[0] if args else kwargs["path"]
    tr.count["jsonio.bytes_read"] += os.path.getsize(path)


# (span name, module, qualified name, counter reader or None)
ENTRY_POINTS = [
    ("hadamard.find_hadamard", "armub.hadamard", "find_hadamard", None),
    ("epsh.best_reduction", "armub.epsh", "best_reduction", _splits),
    ("epsh.eps_hadamard_init", "armub.epsh", "EpsHadamard.__init__", _eps_init),
    ("epsh.verify_orthogonal", "armub.epsh", "EpsHadamard.verify_orthogonal", _grams),
    ("rbd.build_affine_rbd", "armub.rbd", "build_affine_rbd", None),
    ("rbd.verify_rbd", "armub.rbd", "verify_rbd", _class_pairs),
    ("bases.assemble", "armub.bases", "assemble", None),
    ("verify.cross_stats", "armub.verify", "cross_stats", _cross),
    ("verify.check_theorem_bounds", "armub.verify", "check_theorem_bounds", None),
    ("jsonio.dumps_canonical", "armub.jsonio", "dumps_canonical", None),
    ("jsonio.sign_matrix_obj", "armub.jsonio", "sign_matrix_obj", None),
    ("jsonio.eps_hadamard_obj", "armub.jsonio", "eps_hadamard_obj", None),
    ("jsonio.rbd_obj", "armub.jsonio", "rbd_obj", None),
    ("jsonio.basis_set_obj", "armub.jsonio", "basis_set_obj", None),
    ("jsonio.report_obj", "armub.jsonio", "report_obj", None),
    ("jsonio.ledger_obj", "armub.jsonio", "ledger_obj", None),
    ("jsonio.write_atomic", "armub.jsonio", "write_atomic", _written),
    ("jsonio.load_json", "armub.jsonio", "load_json", _read),
    ("jsonio.parse_eps_hadamard", "armub.jsonio", "parse_eps_hadamard", None),
    ("jsonio.parse_rbd", "armub.jsonio", "parse_rbd", None),
    ("jsonio.parse_basis_set", "armub.jsonio", "parse_basis_set", None),
]

SERIALIZE = ("jsonio.dumps_canonical", "jsonio.sign_matrix_obj",
             "jsonio.eps_hadamard_obj", "jsonio.rbd_obj",
             "jsonio.basis_set_obj", "jsonio.report_obj", "jsonio.ledger_obj")

# per-layer metric -> (unit, kind, span names): "self" sums the spans' self
# time, "calls" counts the spans, "count" reads the counter the spans set
LAYER_METRICS = {
    "hadamard.find_hadamard_s": ("s", "self", ("hadamard.find_hadamard",)),
    "epsh.best_reduction_self_s": ("s", "self", ("epsh.best_reduction",)),
    "epsh.splits": ("count", "count", ("epsh.best_reduction",)),
    "epsh.eps_hadamard_init_self_s": ("s", "self", ("epsh.eps_hadamard_init",)),
    "epsh.eps_hadamard_inits": ("count", "calls", ("epsh.eps_hadamard_init",)),
    "epsh.verify_orthogonal_s": ("s", "self", ("epsh.verify_orthogonal",)),
    "epsh.verify_orthogonal_calls": ("count", "calls", ("epsh.verify_orthogonal",)),
    "epsh.gram_products": ("count", "count", ("epsh.verify_orthogonal",)),
    "epsh.terms": ("count", "count", ("epsh.eps_hadamard_init",)),
    "epsh.distinct_abs": ("count", "count", ("epsh.eps_hadamard_init",)),
    "rbd.build_affine_rbd_self_s": ("s", "self", ("rbd.build_affine_rbd",)),
    "rbd.verify_rbd_s": ("s", "self", ("rbd.verify_rbd",)),
    "rbd.verify_rbd_calls": ("count", "calls", ("rbd.verify_rbd",)),
    "rbd.class_pairs": ("count", "count", ("rbd.verify_rbd",)),
    "bases.assemble_self_s": ("s", "self", ("bases.assemble",)),
    "verify.cross_stats_s": ("s", "self", ("verify.cross_stats",)),
    "verify.basis_pairs": ("count", "count", ("verify.cross_stats",)),
    "verify.delta_values": ("count", "count", ("verify.cross_stats",)),
    "verify.vector_pairs": ("count", "count", ("verify.cross_stats",)),
    "verify.check_theorem_bounds_s": ("s", "self", ("verify.check_theorem_bounds",)),
    "jsonio.serialize_s": ("s", "self", SERIALIZE),
    "jsonio.write_atomic_s": ("s", "self", ("jsonio.write_atomic",)),
    "jsonio.bytes_written": ("bytes", "count", ("jsonio.write_atomic",)),
    "jsonio.load_json_s": ("s", "self", ("jsonio.load_json",)),
    "jsonio.bytes_read": ("bytes", "count", ("jsonio.load_json",)),
    "jsonio.parse_eps_hadamard_self_s": ("s", "self", ("jsonio.parse_eps_hadamard",)),
    "jsonio.parse_rbd_self_s": ("s", "self", ("jsonio.parse_rbd",)),
    "jsonio.parse_basis_set_self_s": ("s", "self", ("jsonio.parse_basis_set",)),
}

# counters that are exact work counts; two traced operations must agree
EXACT_COUNTERS = ("epsh.splits", "epsh.gram_products", "epsh.eps_hadamard_inits",
                  "epsh.verify_orthogonal_calls", "rbd.verify_rbd_calls",
                  "rbd.class_pairs", "verify.basis_pairs", "verify.vector_pairs",
                  "jsonio.bytes_written", "jsonio.bytes_read")


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counters of one traced operation in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, child_s, step]
        self.stack: list[int] = []
        self.count: Counter = Counter()
        self.step = ""
        self.missing: list[str] = []
        self._patched: list[tuple] = []

    def peak(self, key: str, value: int):
        self.count[key] = max(self.count[key], value)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.count.clear()

    def _wrap(self, name, fn, reader):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, parent, time.perf_counter(), 0.0, 0.0, self.step]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][4] += span[3] - span[2]
            if reader is not None:
                try:
                    reader(self, args, kwargs, result, fn)
                except (AttributeError, KeyError, TypeError, IndexError):
                    if name + " counters" not in self.missing:
                        self.missing.append(name + " counters")
            return result
        return wrapper

    def install(self):
        self.missing.clear()
        for name, module, qualname, reader in ENTRY_POINTS:
            try:
                owner, attr, fn = _resolve(module, qualname)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, reader)
            if inspect.isclass(owner):
                targets = [(owner, attr)]
            else:
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "armub" or mod_name.startswith("armub.")
                    for key, value in list(vars(mod).items())
                    if value is fn
                ]
            for target, key in targets:
                self._patched.append((target, key, fn))
                setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, fn in reversed(self._patched):
            setattr(target, key, fn)
        self._patched.clear()

    # -- summaries of the recorded operation ---------------------------------

    def self_s(self, names, step=None) -> float:
        return sum(
            (end - start) - child
            for name, _, start, end, child, st in self.spans
            if name in names and (step is None or st == step)
        )

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, start, end, _, _ in self.spans
                   if parent is None)

    def layer_values(self) -> tuple[dict, set]:
        """Per-layer metric values of the operation, and the names of those
        whose entry points never fired (not applicable)."""
        calls = Counter(span[0] for span in self.spans)
        values, idle = {}, set()
        for metric, (_, kind, names) in LAYER_METRICS.items():
            fired = sum(calls[n] for n in names)
            if kind == "self":
                values[metric] = self.self_s(names)
            elif kind == "calls":
                values[metric] = fired
            else:
                values[metric] = self.count[metric]
            if not fired:
                idle.add(metric)
        return values, idle
