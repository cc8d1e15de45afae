"""The benchmark's tracer finds every layer it names in the library.

``bench/layers.py`` wraps library functions by module and name and reads
work counters off their results; a renamed function or result field would
only show as ``trace.missing`` in a traced benchmark run.  This test loads
that file (without changing it) and checks the names and readers here.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from armub.bases import assemble
from armub.epsh import best_reduction
from armub.hadamard import find_hadamard
from armub.rbd import build_affine_rbd, verify_rbd
from armub.verify import cross_stats

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    """bench/layers.py as a module, loaded without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_entry_point_resolves(layers):
    for name, module, qualname, _ in layers.ENTRY_POINTS:
        _, _, fn = layers._resolve(module, qualname)
        assert callable(fn), name


def test_counter_readers_accept_real_results(layers):
    design = build_affine_rbd(3, 5)
    report = cross_stats(assemble(design, best_reduction(find_hadamard(4), 1)))
    tracer = layers.Tracer()
    layers._class_pairs(tracer, (design,), {}, verify_rbd(design), verify_rbd)
    layers._cross(tracer, (), {}, report, cross_stats)
    assert tracer.count["rbd.class_pairs"] == math.comb(5, 2)
    assert tracer.count["verify.basis_pairs"] == math.comb(5, 2)
    assert tracer.count["verify.vector_pairs"] == math.comb(5, 2) * 15 * 15
    assert tracer.count["verify.delta_values"] == len(report.delta)
    # a reduction over sqrt(3) with three terms (D, A and B) and 18 magnitudes
    y = best_reduction(find_hadamard(12), 3)
    layers._eps_init(tracer, (y,), {}, None, type(y).__init__)
    layers._grams(tracer, (y,), {}, None, type(y).verify_orthogonal)
    assert tracer.count["epsh.terms"] == 3
    assert tracer.count["epsh.distinct_abs"] == 18
    assert tracer.count["epsh.gram_products"] == 2 * 3 * 3
