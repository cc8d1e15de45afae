import json

import numpy as np
import pytest

from armub import cli, jsonio
from armub.errors import CertificationError, DomainError
from armub.rbd import Rbd, build_affine_rbd, verify_rbd

PAPER_D4_CLASSES = [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]


def set_intersection_mu(r: Rbd) -> int:
    """Brute-force oracle: max cross-class block intersection via sets."""
    mu = 0
    blocks = [
        [set(int(p) for p in blk) for blk in r.class_blocks(l)] for l in range(r.r)
    ]
    for l in range(r.r):
        for m in range(l + 1, r.r):
            for a in blocks[l]:
                for b in blocks[m]:
                    mu = max(mu, len(a & b))
    return mu


def test_build_small():
    r = build_affine_rbd(2, 3)
    assert (r.d, r.k, r.s, r.r) == (6, 2, 3, 3)
    assert r.mu == 1
    assert set_intersection_mu(r) == 1


def test_even_s_rejected():
    with pytest.raises(DomainError):
        build_affine_rbd(2, 2)
    with pytest.raises(DomainError):
        build_affine_rbd(3, 4)


def test_k_above_s_rejected():
    with pytest.raises(DomainError):
        build_affine_rbd(4, 3)


def test_non_prime_power_rejected():
    with pytest.raises(DomainError):
        build_affine_rbd(3, 15)


def test_paper_d4_fixture_verifies():
    r = Rbd(4, 2, 2, PAPER_D4_CLASSES)
    cert = verify_rbd(r)
    assert cert.valid and cert.mu == 1
    assert cert.class_pairs_checked == 3


def test_forced_mu_violation_reported():
    classes = [c[:] for c in PAPER_D4_CLASSES]
    classes[1] = [[0, 1], [2, 3]]  # duplicates class 0 -> blocks share 2 points
    cert = verify_rbd(Rbd(4, 2, 2, classes))
    assert cert.mu == 2
    # partition still holds, so the certificate is "valid" but mu reports 2;
    # a declared mu of 1 is then flagged
    tampered = Rbd(4, 2, 2, classes, mu=1)
    cert = verify_rbd(tampered)
    assert not cert.valid
    assert any("mu" in v for v in cert.violations)


def test_unsorted_block_reported():
    classes = [[[1, 0], [2, 3]], [[0, 2], [1, 3]]]
    cert = verify_rbd(Rbd(4, 2, 2, classes))
    assert not cert.valid
    assert any("unsorted" in v for v in cert.violations)


def test_broken_partition_reported():
    classes = [[[0, 1], [1, 3]], [[0, 2], [1, 3]]]
    cert = verify_rbd(Rbd(4, 2, 2, classes))
    assert not cert.valid
    assert any("partition" in v for v in cert.violations)


def test_affine_full_verification_3_5():
    r = build_affine_rbd(3, 5)
    cert = verify_rbd(r)
    assert cert.valid and cert.mu == 1
    assert cert.class_pairs_checked == 10
    assert set_intersection_mu(r) == 1


def test_sharing_pair_count_is_k_times_s():
    # two blocks of distinct slopes share a point iff the unique affine
    # intersection lands in the embedded rows: exactly k*s sharing pairs
    # per class pair (the point -> block-pair map is injective when mu=1)
    for k, s in [(2, 3), (3, 5), (4, 7), (5, 5)]:
        r = build_affine_rbd(k, s)
        for l in range(r.r):
            for m in range(l + 1, r.r):
                sharing = 0
                for a in r.class_blocks(l):
                    sa = set(int(p) for p in a)
                    for b in r.class_blocks(m):
                        if sa & set(int(p) for p in b):
                            sharing += 1
                assert sharing == k * s, (k, s, l, m)


def test_determinism_byte_identical():
    a = jsonio.dumps_canonical(jsonio.rbd_obj(build_affine_rbd(3, 9)))
    b = jsonio.dumps_canonical(jsonio.rbd_obj(build_affine_rbd(3, 9)))
    assert a == b


def test_blocks_sorted_and_points_in_range():
    r = build_affine_rbd(4, 9)
    assert np.all(np.diff(r.classes, axis=2) > 0)
    assert r.classes.min() == 0 and r.classes.max() == r.d - 1


def explicit_copy(r: Rbd) -> Rbd:
    """The explicit class-array form of an affine design, declaring mu = 1,
    as rbd.json stored it before the recipe form."""
    return Rbd(r.d, r.k, r.s, r.classes, mu=1, provenance=r.provenance)


def test_json_roundtrip_and_tamper():
    r = build_affine_rbd(3, 5)
    for design in (r, explicit_copy(r)):
        text = jsonio.dumps_canonical(jsonio.rbd_obj(design))
        parsed = jsonio.parse_rbd(json.loads(text))
        assert jsonio.dumps_canonical(jsonio.rbd_obj(parsed)) == text
    obj = jsonio.rbd_obj(explicit_copy(r))
    obj["classes"][0][0][0] = obj["classes"][0][0][1]  # break sortedness
    with pytest.raises(CertificationError):
        jsonio.parse_rbd(obj)


def test_large_affine_79_81():
    r = build_affine_rbd(79, 81)
    assert (r.d, r.r) == (6399, 81)
    assert r.mu == 1  # full verification ran inside the builder
    # spot-check with the set oracle on a few class pairs
    import random

    rng = random.Random(0)
    for _ in range(5):
        l, m = rng.sample(range(r.r), 2)
        worst = 0
        for a in r.class_blocks(l):
            sa = set(int(p) for p in a)
            for b in r.class_blocks(m):
                worst = max(worst, len(sa & set(int(p) for p in b)))
        assert worst == 1


def test_affine_design_takes_the_line_theorem_route():
    r = build_affine_rbd(3, 5)
    assert r.mu_route == "affine"
    parsed = jsonio.parse_rbd(json.loads(jsonio.dumps_canonical(jsonio.rbd_obj(r))))
    assert (parsed.mu, parsed.mu_route) == (1, "affine")
    assert verify_rbd(Rbd(4, 2, 2, PAPER_D4_CLASSES)).route == "pairwise"


@pytest.mark.parametrize("k,s", [(3, 5), (4, 7), (3, 9), (5, 25)])
def test_recipe_matches_its_explicit_classes(k, s):
    """The materialised classes of the recipe form pass the pairwise route
    with mu = 1, and its on-demand block and position maps are those of
    the class array."""
    r = build_affine_rbd(k, s)
    assert r.field is not None and r.mu_route == "affine"
    explicit = Rbd(r.d, k, s, r.classes)
    cert = verify_rbd(explicit)
    assert (cert.valid, cert.mu, cert.route) == (True, 1, "pairwise")
    assert cert.class_pairs_checked == verify_rbd(r).class_pairs_checked == s * (s - 1) // 2
    for l in range(s):
        assert np.array_equal(r.class_blocks(l), explicit.class_blocks(l))
        assert np.array_equal(r.block_map(l), explicit.block_map(l))
        assert np.array_equal(r.pos_map(l), explicit.pos_map(l))


def _swap_same_row_points(r: Rbd) -> list:
    """Class 1 with the row-1 points of its blocks 0 and 1 exchanged: still
    a partition of sorted blocks, no longer the affine line family."""
    classes = r.classes.tolist()
    blocks = classes[1]
    blocks[0][1], blocks[1][1] = blocks[1][1], blocks[0][1]
    return classes


@pytest.mark.parametrize("k,s", [(3, 5), (4, 7)])
def test_swapped_points_take_the_pairwise_route(k, s, tmp_path, capsys):
    r = build_affine_rbd(k, s)
    tampered = Rbd(r.d, k, s, _swap_same_row_points(r))
    cert = verify_rbd(tampered)
    assert cert.valid and cert.route == "pairwise"
    assert cert.class_pairs_checked == s * (s - 1) // 2
    assert cert.mu == set_intersection_mu(tampered) == 2
    obj = jsonio.rbd_obj(explicit_copy(r))  # declares "mu": 1
    obj["classes"] = tampered.classes.tolist()
    path = tmp_path / "rbd.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path)]) == 5
    assert "declared mu=1 but verified mu=2" in capsys.readouterr().out


@pytest.mark.parametrize("k,s", [(3, 5), (4, 7)])
def test_permuted_classes_take_the_pairwise_route(k, s, tmp_path, capsys):
    r = build_affine_rbd(k, s)
    permuted = Rbd(r.d, k, s, r.classes[::-1])
    cert = verify_rbd(permuted)
    assert cert.valid and cert.route == "pairwise"
    assert cert.mu == set_intersection_mu(permuted) == 1
    obj = jsonio.rbd_obj(explicit_copy(r))
    obj["classes"] = permuted.classes.tolist()
    path = tmp_path / "rbd.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"{path}: rbd: ok (pairwise: {s * (s - 1) // 2} class pairs)\n"
    )
