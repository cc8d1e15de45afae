import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from armub import cli, jsonio
from armub.algebra import square_free_split
from armub.bases import assemble
from armub.epsh import EpsHadamard, Provenance, best_reduction
from armub.errors import CertificationError
from armub.hadamard import find_hadamard, sylvester
from armub.rbd import Rbd, build_affine_rbd
from armub.verify import (
    DeltaValue,
    ExactBeta,
    check_theorem_bounds,
    classify_delta,
    cross_stats,
    ledger_ok,
)
from oracles import (
    ClassArrayDesign,
    DenseEpsHadamard,
    QuadNum,
    abs_scalars,
    affine_plane_3_design,
    as_key,
    cmp_values,
    cross_stats_pairwise,
    dense_cross_oracle,
    key_scalar,
    oracle_classification,
    paper_d4_design,
    report_delta_dict,
    report_value_key,
)


def paper_d4_basis_set():
    return assemble(paper_d4_design(), EpsHadamard.from_sign_hadamard(sylvester(1)))


def small_pipeline(k, s, t):
    if k in (1, 2) or k % 4 == 0:
        y = EpsHadamard.from_sign_hadamard(find_hadamard(k))
    else:
        y = best_reduction(find_hadamard(k + t), t)
    return assemble(build_affine_rbd(k, s), y)


def affine_plane_3_basis_set(relabel=None):
    """AG(2, 3) with its vertical class (r = 4 != s), Y from H_4."""
    return assemble(affine_plane_3_design(relabel), best_reduction(find_hadamard(4), 1))


def oracle_delta(counts: dict) -> tuple[list[DeltaValue], int]:
    """The delta list of the oracle's magnitude counts, ascending by
    cmp_values, as keys over sqrt(c), and c."""
    values = sorted(((a if b == 0 else QuadNum(a, b, m), count)
                     for (a, b, m), count in counts.items()),
                    key=functools.cmp_to_key(lambda x, y: cmp_values(x[0], y[0])))
    core = max((m for _, _, m in counts), default=1)
    return [DeltaValue(as_key(v), count) for v, count in values], core


# a point relabelling of AG(2, 3) under which the four classes have four
# distinct position maps
RELABEL_4_GROUPS = [4, 0, 7, 2, 8, 1, 5, 3, 6]

PAIRWISE_CASES = {
    "d4": paper_d4_basis_set,
    "ag23": affine_plane_3_basis_set,
    "ag23-relabelled": lambda: affine_plane_3_basis_set(RELABEL_4_GROUPS),
    **{f"affine-{k}-{s}-{t}": (lambda k=k, s=s, t=t: small_pipeline(k, s, t))
       for k, s, t in [(2, 3, 2), (3, 5, 1), (3, 7, 1), (6, 7, 2), (2, 5, 2),
                       (9, 11, 3), (13, 17, 3), (3, 25, 1)]},
}


@pytest.mark.parametrize("case", list(PAIRWISE_CASES))
def test_grouped_contraction_matches_pairwise_oracle(case):
    """classify_delta on the per-basis-pair oracle's counts agrees with the
    oracle's classification, also on the hand-built designs, whose classes
    have several position maps; on the affine designs cross_stats gives
    the oracle's counts."""
    bs = PAIRWISE_CASES[case]()
    counts, zeros, pairs = cross_stats_pairwise(bs)
    delta, core = oracle_delta(counts)
    label = classify_delta(delta, ExactBeta(delta[-1].key, bs.d, core), bs.d)
    assert label == oracle_classification(counts, bs.d)
    if not isinstance(bs.rbd, Rbd):
        return
    rep = cross_stats(bs)
    reported = report_delta_dict(rep)
    assert reported == counts  # every value and its count
    # the count of 0 holds the pairs with disjoint supports, and also the
    # products that meet a zero entry of Y
    assert reported.get(report_value_key(Fraction(0)), 0) >= zeros
    assert rep.pairs_checked == pairs
    assert rep.coverage["basis_pairs"] * bs.d * bs.d == pairs
    assert rep.classification == label


def householder_5():
    """The exact orthogonal matrix I - (2/5) J of order 5 (Y for k = 5,
    which no t <= 3 reduction reaches)."""
    prov = Provenance(source_label="householder(5)", source_order=5, t=0,
                      row_select=(), col_select=(), row_negate=(), col_negate=(),
                      variant=None, method="householder")
    terms = [(Fraction(1), np.eye(5)), (Fraction(-2, 5), np.ones((5, 5)))]
    return DenseEpsHadamard(5, 5, terms, prov)


@pytest.mark.parametrize("k,s", [(3, 5), (4, 7), (3, 9), (5, 25)])
def test_recipe_design_matches_its_explicit_copy(k, s):
    """cross_stats on the recipe form equals the per-pair oracle on a
    class-array copy of the same design."""
    r = build_affine_rbd(k, s)
    if k == 5:
        y = householder_5()
    elif k % 4 == 0:
        y = EpsHadamard.from_sign_hadamard(find_hadamard(k))
    else:
        y = best_reduction(find_hadamard(k + 1), 1)
    explicit = ClassArrayDesign([r.class_blocks(l) for l in range(r.r)])
    rep = cross_stats(assemble(r, y))
    counts, _, pairs = cross_stats_pairwise(assemble(explicit, y))
    assert report_delta_dict(rep) == counts
    assert rep.pairs_checked == pairs


@pytest.mark.parametrize("relabel", [None, RELABEL_4_GROUPS])
def test_pairwise_designs_match_dense_oracle(relabel):
    bs = affine_plane_3_basis_set(relabel)
    counts, _, _ = cross_stats_pairwise(bs)
    dense, max_key = dense_cross_oracle(bs)
    assert counts == dense
    delta, core = oracle_delta(counts)
    assert report_value_key(key_scalar(delta[-1].key, core)) == max_key


def test_cross_stats_requires_certified_mu_1():
    bs = small_pipeline(2, 3, 2)
    for mu in (None, 2):
        bs.rbd.mu = mu
        with pytest.raises(CertificationError, match="certified mu = 1"):
            cross_stats(bs)


def test_d4_fixture_is_mub():
    bs = paper_d4_basis_set()
    counts, _, _ = cross_stats_pairwise(bs)
    assert counts == dense_cross_oracle(bs)[0]
    delta, core = oracle_delta(counts)
    assert len(delta) == 1
    assert delta[0].key == (1, 0, 2)
    assert delta[0].count == 3 * 16  # three basis pairs, 4x4 each
    beta = ExactBeta(delta[0].key, bs.d, core)
    assert float(beta) == 1.0 and beta.cmp_two() < 0
    assert classify_delta(delta, beta, bs.d) == "MUB"


def test_d6_is_apmub():
    rep = cross_stats(small_pipeline(2, 3, 2))
    assert rep.classification == "APMUB"
    assert [dv.key for dv in rep.delta] == [(0, 0, 1), (1, 0, 2)]
    assert rep.beta.cmp_two() < 0
    assert abs(float(rep.beta) - 6**0.5 / 2) < 1e-12


def test_cross_stats_exact_past_int64():
    """d = 256 * 16381: the counts reach about 3.7e19 > 2^63 and stay exact."""
    k, s = 256, 16381
    d = k * s
    rep = cross_stats(assemble(build_affine_rbd(k, s),
                               EpsHadamard.from_sign_hadamard(find_hadamard(k))))
    pairs = math.comb(s, 2)
    assert [(dv.key, dv.count) for dv in rep.delta] == [
        ((0, 0, 1), pairs * (s * s - d) * k * k),
        ((1, 0, 256), pairs * d * k * k),
    ]
    assert rep.delta[1].count > 2**63


def test_generic_t1_is_armub():
    rep = cross_stats(small_pipeline(3, 5, 1))
    assert rep.classification == "beta-ARMUB"
    assert len(rep.delta) > 2


@pytest.mark.parametrize("k,s,t", [(2, 3, 2), (3, 5, 1), (3, 7, 1), (6, 7, 2), (2, 5, 2),
                                   (9, 11, 3)])
def test_sparse_matches_dense_oracle(k, s, t):
    bs = small_pipeline(k, s, t)
    rep = cross_stats(bs)
    counts, max_key = dense_cross_oracle(bs)
    assert report_delta_dict(rep) == counts
    assert report_value_key(key_scalar(rep.beta.key, rep.beta.core)) == max_key
    assert oracle_classification(counts, bs.d) == rep.classification


def test_beta_equals_sqrt_d_times_max_delta():
    rep = cross_stats(small_pipeline(3, 5, 1))
    assert rep.beta.key == rep.delta[-1].key
    # beta^2 = d * max_ip^2 exactly
    max_ip = key_scalar(rep.beta.key, rep.beta.core)
    assert rep.beta.cmp_two() == cmp_values(rep.d * max_ip * max_ip, Fraction(4))


def test_beta_chain_bound_holds():
    for args in [(3, 5, 1), (6, 7, 2), (9, 11, 3)]:
        rep = cross_stats(small_pipeline(*args))
        assert rep.beta_le_eps_chain


def test_exact_beta_comparisons():
    """beta against 2 from the key of max_ip, ties and radicals included;
    the float is rendered at construction."""
    assert ExactBeta((1, 0, 2), 4, 1).cmp_two() == -1  # beta = 1
    assert float(ExactBeta((1, 0, 2), 4, 1)) == 1.0
    assert ExactBeta((1, 0, 2), 16, 1).cmp_two() == 0  # beta = 2
    assert ExactBeta((0, 1, 4), 16, 5).cmp_two() == 1  # 4 * sqrt(5)/4 = sqrt(5)
    assert ExactBeta((0, 1, 2), 8, 3).cmp_two() == 1  # sqrt(8) * sqrt(3)/2 = sqrt(6)
    assert ExactBeta((1, -1, 1), 10, 2).cmp_two() == -1  # sqrt(10) * (sqrt(2) - 1) ~ 1.31


def test_ledger_gating_t3_n4():
    # k = 13, t = 3, n = 4: rho_3 line applies (n >= 4) and passes with
    # bound 4/sqrt(4) = 2; the eps < 1 guarantee needs t < sqrt(n), so it
    # is marked n/a rather than failed
    rep = cross_stats(small_pipeline(13, 17, 3))
    lines = {l.check: l for l in check_theorem_bounds(rep)}
    rho = lines["eps-le-rho/sqrt(n)"]
    assert rho.applicable and rho.verdict == "pass" and rho.rhs == 2.0
    lt1 = lines["eps-lt-1"]
    assert not lt1.applicable and lt1.verdict == "n/a"
    assert ledger_ok(check_theorem_bounds(rep))


# the corner split at (k, s, t) with k < s <= 2k, and its beta < 2 verdict
BETA_LT_2_SWEEP = {
    (3, 5, 1): "pass", (93, 97, 3): "pass", (123, 125, 1): "pass",
    (13, 17, 3): "fail", (6, 7, 2): "fail", (10, 11, 2): "fail",
    (18, 19, 2): "fail", (9, 11, 3): "fail", (61, 67, 3): "fail",
}


@pytest.mark.parametrize("k, s, t", list(BETA_LT_2_SWEEP))
def test_beta_lt_2_is_an_observation(k, s, t):
    """The beta < 2 line applies on k < s <= 2k and keeps its exact verdict,
    but ledger_ok does not count it: the abstract gives beta < 2 "for
    proper choices of parameters", with no exact hypothesis."""
    lines = check_theorem_bounds(cross_stats(small_pipeline(k, s, t)))
    beta2 = next(line for line in lines if line.check == "beta-lt-2")
    assert beta2.applicable and beta2.verdict == BETA_LT_2_SWEEP[(k, s, t)]
    assert ledger_ok(lines)


def test_ledger_t3_small_n_not_applicable():
    # k = 9, t = 3, n = 3 < 4: the rho_3 claim is out of scope
    rep = cross_stats(small_pipeline(9, 11, 3))
    lines = {l.check: l for l in check_theorem_bounds(rep)}
    assert not lines["eps-le-rho/sqrt(n)"].applicable


def test_ledger_beta2_gate():
    # s > 2k: outside the same-order regime, the beta < 2 line is n/a
    rep = cross_stats(small_pipeline(3, 25, 1))
    lines = {l.check: l for l in check_theorem_bounds(rep)}
    assert not lines["beta-lt-2"].applicable
    rep2 = cross_stats(small_pipeline(3, 5, 1))
    lines2 = {l.check: l for l in check_theorem_bounds(rep2)}
    assert lines2["beta-lt-2"].applicable and lines2["beta-lt-2"].verdict == "pass"


def test_classify_function_matches_report():
    for args in [(2, 3, 2), (3, 5, 1)]:
        rep = cross_stats(small_pipeline(*args))
        assert classify_delta(rep.delta, rep.beta, rep.d) == rep.classification


def test_report_json_roundtrip_and_tamper(tmp_path, capsys):
    """The certificate that embeds the report is derived again on parse and
    round-trips byte for byte; a report tampered inside it exits 5."""
    assert cli.main(["armub", "--k", "3", "--s", "5", "--t", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "certificate.json"
    text = path.read_text()
    derived = jsonio.parse_certificate(json.loads(text), str(tmp_path), jsonio.ArtifactCache())
    assert jsonio.dumps_canonical(derived) == text
    for field, value, at in (
            ("classification", "MUB", "classification"),
            ("beta", {"float": 3.0, "max_ip": {"a": ["3", "1"], "b": ["0", "1"]}}, "beta.float")):
        obj = json.loads(text)
        obj["report"][field] = value
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 5
        assert capsys.readouterr().out == (f"{path}: certificate: CHECK FAILED: stored "
                                           f"report.{at} differs from the derived one\n")


# radicands M = k + t with a square part: 12 = 2^2*3, 48 = 4^2*3, 96 = 4^2*6
# and 128 = 8^2*2
KEY_WIRE_PIPELINES = [(11, 13, 1), (10, 11, 2), (9, 11, 3), (47, 49, 1), (46, 47, 2),
                      (45, 47, 3), (95, 97, 1), (94, 97, 2), (93, 97, 3), (127, 127, 1),
                      (126, 127, 2), (125, 125, 3)]


def _fraction_wire(key, m):
    """Oracle for the wire of a key's value over sqrt(m): a = p/L and
    b = q/(L*f), m = f^2*c, reduced by Fraction."""
    (p, q, scale), f = key, square_free_split(m)[0]
    a, b = Fraction(p, scale), Fraction(q, scale * f)
    return {"a": [str(a.numerator), str(a.denominator)],
            "b": [str(b.numerator), str(b.denominator)]}


def test_key_wire_matches_scalar_wire():
    """Every value the report writes from its key (each delta, max_ip and
    max_abs_y_sq) has the wire of its Scalar, reduced by Fraction, over
    radicands with a square part, with q = 0, q > 0 and q < 0 all met; keys
    not in lowest terms are written in lowest terms."""
    signs = set()
    for k, s, t in KEY_WIRE_PIPELINES:
        bs = small_pipeline(k, s, t)
        rep = cross_stats(bs)
        m, core = rep.radicand, square_free_split(rep.radicand)[1]
        assert cmp_values(key_scalar(rep.max_abs_y_sq_key, core),
                          abs_scalars(bs.y)[-1] ** 2) == 0
        assert math.gcd(*rep.max_abs_y_sq_key) == 1
        keys = [dv.key for dv in rep.delta] + [rep.max_abs_y_sq_key]
        for key in keys + [(2 * p, 2 * q, 2 * scale) for p, q, scale in keys]:
            wire = jsonio.key_wire(key, m)
            assert wire == _fraction_wire(key, m)
            signs.add((key[1] > 0) - (key[1] < 0))
        wire = jsonio.report_obj(rep)
        assert wire["beta"]["max_ip"] == _fraction_wire(rep.beta.key, m)
    assert signs == {-1, 0, 1}


def test_certificate_builds_few_scalars(monkeypatch):
    """certificate_obj at (93, 97, 3) builds no Fraction, although the
    report holds 51 distinct values: beta and every ledger line decide on
    keys, and keys are the library's only exact medium."""
    bs = small_pipeline(93, 97, 3)
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) == Fraction(2, 4) and len(calls) == 2  # the count works
    calls.clear()
    cert = jsonio.certificate_obj(bs, 3, "corner-only", {"file": "epsh.json", "sha256": "0"})
    assert len(cert["report"]["delta"]) == 51
    assert calls == []
