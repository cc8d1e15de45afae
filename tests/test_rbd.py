import json
import math

import numpy as np
import pytest

from armub import jsonio
from armub.errors import CertificationError, DomainError
from armub.rbd import build_affine_rbd, verify_rbd
from oracles import affine_classes, paper_d4_design, set_intersection_mu


def test_build_small():
    r = build_affine_rbd(2, 3)
    assert (r.d, r.k, r.s, r.r) == (6, 2, 3, 3)
    assert r.mu == 1
    assert set_intersection_mu(r) == 1


def test_even_s_rejected():
    with pytest.raises(DomainError, match="s=2 is not an odd prime power"):
        build_affine_rbd(2, 2)
    with pytest.raises(DomainError, match="s=4 is not an odd prime power"):
        build_affine_rbd(3, 4)


def test_k_above_s_rejected():
    with pytest.raises(DomainError, match="1 <= k <= s, got k=4, s=3"):
        build_affine_rbd(4, 3)


def test_non_prime_power_rejected():
    with pytest.raises(DomainError, match="s=15 is not an odd prime power"):
        build_affine_rbd(3, 15)


def test_paper_d4_fixture_verifies():
    """The paper's d = 4 class array: each class partitions the points, and
    blocks of different classes share at most one point."""
    r = paper_d4_design()
    for l in range(r.r):
        assert sorted(r.class_blocks(l).reshape(-1).tolist()) == [0, 1, 2, 3]
    assert (r.r, r.mu) == (3, 1)


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
    classes = np.stack([r.class_blocks(l) for l in range(r.r)])
    assert np.all(np.diff(classes, axis=2) > 0)
    assert classes.min() == 0 and classes.max() == r.d - 1


def test_json_roundtrip_and_tamper():
    r = build_affine_rbd(3, 5)
    text = jsonio.dumps_canonical(jsonio.rbd_obj(r))
    parsed = jsonio.parse_rbd(json.loads(text))
    assert jsonio.dumps_canonical(jsonio.rbd_obj(parsed)) == text
    obj = jsonio.rbd_obj(r)
    obj["d"] = 16  # no longer k*s
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
    cert = verify_rbd(r)
    assert (cert.valid, cert.mu, cert.class_pairs_checked) == (True, 1, 10)
    parsed = jsonio.parse_rbd(json.loads(jsonio.dumps_canonical(jsonio.rbd_obj(r))))
    assert parsed.mu == 1


@pytest.mark.parametrize("k,s", [(3, 5), (4, 7), (3, 9), (5, 25)])
def test_recipe_matches_its_explicit_classes(k, s):
    """The recipe's on-demand blocks are the class array of the affine
    design built by scalar field operations, and their set-oracle mu is
    the certified mu = 1."""
    r = build_affine_rbd(k, s)
    assert verify_rbd(r).class_pairs_checked == math.comb(s, 2)
    for l, blocks in enumerate(affine_classes(k, s)):
        assert r.class_blocks(l).tolist() == blocks
    assert set_intersection_mu(r) == r.mu == 1

