"""The exact values the program prints, pinned as text.

An exact value is shown as ``a`` for a rational and as ``a + b*sqrt(c)``
for a radical one, each rational in lowest terms with the sign on the
numerator.  These pins hold the printed forms of the epsilon line of
``armub epsh``, of ``ExactEps.expr`` and of the window and orthogonality
failures, for a zero, a negative, a rational and a radical value, over a
squarefree core c > 1 and over c = 1.
"""

import numpy as np
import pytest

from armub import cli, epsh
from armub.epsh import EpsHadamard, ExactEps, corner_split, reduce_split
from armub.errors import CertificationError
from armub.hadamard import find_hadamard


@pytest.mark.parametrize("order, t, line", [
    (12, 1, "k=11 eps=0.257045 (exact |sqrt(13/11 + -4/11*sqrt(3)) - 1|) eps_upper=0.171900 "
            "variant=Y1 u-class=(0,1,None) method=closed-form"),
    (16, 3, "k=13 eps=1.003084 (exact |sqrt(325/81) - 1|) eps_upper=1.003084 "
            "variant=Y1 u-class=(4,4,-1) method=closed-form"),
])
def test_epsh_stdout_line_is_pinned(tmp_path, capsys, order, t, line):
    out = tmp_path / "epsh.json"
    assert cli.main(["epsh", str(order), str(t), "--out", str(out)]) == 0
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("key, k, core, text", [
    (None, 11, 3, "|sqrt(1) - 1|"),  # the zero epsilon
    ((0, 0, 1), 11, 3, "|sqrt(0) - 1|"),  # a zero magnitude
    ((-1, 0, 2), 11, 3, "|sqrt(11/4) - 1|"),
    ((7, 0, 5), 11, 3, "|sqrt(539/25) - 1|"),
    ((3, 0, 8), 13, 1, "|sqrt(117/64) - 1|"),
    ((1, 1, 2), 11, 3, "|sqrt(11 + 11/2*sqrt(3)) - 1|"),
    ((2, -1, 3), 11, 3, "|sqrt(77/9 + -44/9*sqrt(3)) - 1|"),
])
def test_exact_eps_expr_is_pinned(key, k, core, text):
    assert ExactEps(key, k, core).expr() == text


WINDOW_12_1 = "[-1/11 + 5/33*sqrt(3), 1/11 + 2/11*sqrt(3)]"


@pytest.mark.parametrize("key, t, m, core, text", [
    ((0, 0, 1), 1, 12, 3, f"entry magnitude 0 outside window {WINDOW_12_1}"),
    ((-1, 0, 2), 1, 12, 3, f"entry magnitude -1/2 outside window {WINDOW_12_1}"),
    ((7, 0, 5), 1, 12, 3, f"entry magnitude 7/5 outside window {WINDOW_12_1}"),
    ((1, 1, 2), 1, 12, 3, f"entry magnitude 1/2 + 1/2*sqrt(3) outside window {WINDOW_12_1}"),
    ((1, -1, 6), 1, 12, 3, f"entry magnitude 1/6 + -1/6*sqrt(3) outside window {WINDOW_12_1}"),
    ((0, 0, 1), 1, 16, 1, "entry magnitude 0 outside window [1/6, 1/3]"),
    ((-1, 0, 2), 1, 16, 1, "entry magnitude -1/2 outside window [1/6, 1/3]"),
    ((7, 0, 5), 3, 16, 1, "entry magnitude 7/5 outside window [-1/2, 1]"),
])
def test_window_violation_text_is_pinned(key, t, m, core, text):
    assert epsh._window_error([key], t, m, core) == text


@pytest.mark.parametrize("m, t, x", [
    (16, 3, "2311/2985984"),
    (12, 2, "727/216000 + -61/108000*sqrt(3)"),
])
def test_orthogonality_violation_text_is_pinned(m, t, x):
    """C scaled by 1 + 1/L: the first nonzero entry of X, rational over
    c = 1 and radical over c = 3."""
    split = corner_split(find_hadamard(m), t)
    y = reduce_split(split, "Y1")
    scale, core, a, b = epsh._coefficient_form(split.u_matrix(), y.provenance.uclass, "Y1", m)
    with pytest.raises(CertificationError) as info:
        EpsHadamard(y.source, y.provenance, (scale * scale, core, a * (scale + 1), b * (scale + 1)))
    assert str(info.value) == (
        f"orthogonality violated: Y Y^T - I = W X W^T with X(0, 0) = {x}, expected 0")


def test_orthogonality_violation_text_of_a_radical_part_is_pinned():
    """C = 1/21 + 11/84*sqrt(2) on the corner of H_8 with t = 1 leaves only
    the radical part of X, shown with its zero rational part."""
    y = reduce_split(corner_split(find_hadamard(8), 1), "Y1")
    c = (84, 2, np.array([[4]], dtype=object), np.array([[11]], dtype=object))
    with pytest.raises(CertificationError) as info:
        EpsHadamard(y.source, y.provenance, c)
    assert str(info.value).endswith("X(0, 0) = 0 + 4/63*sqrt(2), expected 0")
