"""Resolvable block designs with certified cross-class intersection number.

The generator realizes the design as lines of constant slope in the affine
plane AG(2, s) restricted to k "rows": points are pairs (a, b) with
a in {0..k-1} embedded into GF(s) by canonical enumeration and b in GF(s),
linearized as index a*s + rank(b).  For each slope l the class
P_l = { B_{l,c} : c in GF(s) } with B_{l,c} = { (a, c + l*a^) : a }.
Two lines of distinct slopes meet in at most one point of AG(2, s), so
mu = 1; the vertical class is excluded (its restricted blocks would have
size s, not k).  Identical (k, s) inputs yield byte-identical designs.

``verify_rbd`` certifies mu in one of two ways.  A design whose every class
equals the generator's class for its slope is recognised by content (never
by its provenance label) in O(r*d), and mu = 1 follows from the line
theorem over GF(s).  Any other design, such as a hand-built one or a
tampered or re-ordered file, is certified by one intersection histogram
per class pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MAX_FIELD_SIZE, GfField, gf_from_order, prime_power_split
from .errors import DomainError
from .hadamard import size_budget
from .errors import ResourceLimitError

ROUTE_AFFINE = "affine"
ROUTE_PAIRWISE = "pairwise"


class Rbd:
    """Point set {0..d-1} with r parallel classes of s blocks of constant
    size k; ``mu`` is the certified maximum intersection of blocks from
    different classes (None until verified), and ``mu_route`` says how it
    was certified (``ROUTE_AFFINE`` or ``ROUTE_PAIRWISE``).  The affine
    generator yields r = s, but hand-built designs (e.g. the d = 4 fixture
    with three classes of two blocks) may have any r >= 1.
    """

    __slots__ = ("d", "k", "s", "r", "classes", "mu", "mu_route", "provenance",
                 "_block_maps")

    def __init__(self, d: int, k: int, s: int, classes, mu=None, provenance: str = ""):
        arr = np.array(classes, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[1:] != (s, k) or arr.shape[0] < 1:
            raise DomainError(
                f"expected r x {s} blocks x {k} points, got {arr.shape}"
            )
        if d != k * s:
            raise DomainError(f"d must equal k*s, got d={d}, k*s={k * s}")
        if arr.min() < 0 or arr.max() >= d:
            raise DomainError("point indices out of range")
        arr.setflags(write=False)
        self.d, self.k, self.s = d, k, s
        self.r = arr.shape[0]
        self.classes = arr
        self.mu = mu
        self.mu_route = None
        self.provenance = provenance
        self._block_maps: dict[int, np.ndarray] = {}

    def block_map(self, class_index: int) -> np.ndarray:
        """point -> index of the containing block within the class."""
        if class_index not in self._block_maps:
            cls = self.classes[class_index]
            out = np.full(self.d, -1, dtype=np.int64)
            out[cls.reshape(-1)] = np.repeat(np.arange(self.s), self.k)
            self._block_maps[class_index] = out
        return self._block_maps[class_index]

    def pos_map(self, class_index: int) -> np.ndarray:
        """point -> position of the point inside its (sorted) block."""
        out = np.full(self.d, -1, dtype=np.int64)
        out[self.classes[class_index].reshape(-1)] = np.tile(np.arange(self.k), self.s)
        return out

    def __repr__(self):
        return f"Rbd(d={self.d}, k={self.k}, s={self.s}, r={self.r}, mu={self.mu})"


@dataclass
class RbdCertificate:
    valid: bool
    mu: int
    violations: list[str] = field(default_factory=list)
    class_pairs_checked: int = 0  # class pairs whose mu <= 1 is certified
    route: str = ROUTE_PAIRWISE

    def __bool__(self):
        return self.valid


def _affine_class(f: GfField, k: int, slope: int) -> np.ndarray:
    """Class P_slope of the affine design over f as an (s, k) point array:
    block c holds (a, c + slope*a^) for a < k, ascending in a, hence sorted."""
    s = f.q
    rows = np.arange(k, dtype=np.int64)  # embedded as field codes 0..k-1
    shift = f.mul_arr(slope, rows)  # l * a^
    y = f.add_arr(np.arange(s, dtype=np.int64)[:, None], shift[None, :])
    return rows[None, :] * s + y


def build_affine_rbd(k: int, s: int) -> Rbd:
    """Affine-line design on d = k*s points; requires 1 <= k <= s and s an
    odd prime power.  The result carries mu = 1, certified by
    ``verify_rbd``: partition and sortedness per class, then the line
    theorem once the classes are recognised as the affine line family."""
    if not 1 <= k <= s:
        raise DomainError(f"need 1 <= k <= s, got k={k}, s={s}")
    split = prime_power_split(s)
    if split is None or split[0] == 2:
        raise DomainError(f"s={s} must be an odd prime power")
    if k * s > size_budget() * 4:
        raise ResourceLimitError(f"design size {k * s} exceeds budget")
    f = gf_from_order(s)
    blocks = np.empty((s, s, k), dtype=np.int64)
    for slope in range(s):
        blocks[slope] = _affine_class(f, k, slope)
    design = Rbd(k * s, k, s, blocks, provenance=f"affine(k={k}, s={s})")
    cert = verify_rbd(design)
    if not cert.valid or cert.mu != 1:
        raise AssertionError(f"affine design failed self-verification: {cert}")
    design.mu, design.mu_route = 1, cert.route
    return design


def _is_affine_line_family(r: Rbd) -> bool:
    """Whether r is, class by class, the design ``build_affine_rbd(k, s)``
    generates: r = s, 1 <= k <= s, s an odd prime power within the field
    budget, and class l equal to the generator's class of slope l.  One
    slope is generated and compared at a time."""
    k, s = r.k, r.s
    split = prime_power_split(s)
    if (r.r != s or not 1 <= k <= s or split is None or split[0] == 2
            or s > MAX_FIELD_SIZE):
        return False
    f = gf_from_order(s)
    return all(np.array_equal(r.classes[l], _affine_class(f, k, l)) for l in range(s))


def verify_rbd(r: Rbd) -> RbdCertificate:
    """Check the partition property per class, block sortedness, and mu.

    A design that passes both checks and is the affine line family over
    GF(s) has mu = 1 by the line theorem: two lines of distinct slope meet
    in exactly one point of AG(2, s), and for each class pair some of
    those points lie in the k >= 1 kept rows.  Any other design has every
    cross-class block pair examined, through one intersection histogram per
    class pair.  Either way ``class_pairs_checked`` is C(r, 2), the class
    pairs whose mu <= 1 is certified.  Violations are reported, not raised.
    """
    violations: list[str] = []
    d, k, s, nclasses = r.d, r.k, r.s, r.r
    want = np.arange(d)
    for l in range(nclasses):
        cls = r.classes[l]
        flat = np.sort(cls.reshape(-1))
        if not np.array_equal(flat, want):
            violations.append(f"class {l} is not a partition of the point set")
        if k > 1 and not np.all(np.diff(cls, axis=1) > 0):
            violations.append(f"class {l} has an unsorted or repeated block")

    if not violations and _is_affine_line_family(r):
        mu, route = 1, ROUTE_AFFINE
    else:
        mu, route = 0, ROUTE_PAIRWISE
        for l in range(nclasses):
            bl = r.block_map(l)
            for m in range(l + 1, nclasses):
                bm = r.block_map(m)
                covered = (bl >= 0) & (bm >= 0)  # robust to broken partitions
                counts = np.bincount((bl * s + bm)[covered], minlength=s * s)
                mu = max(mu, int(counts.max()))

    if r.mu is not None and mu > r.mu:
        violations.append(f"recorded mu={r.mu} but observed {mu}")
    return RbdCertificate(
        valid=not violations,
        mu=mu,
        violations=violations,
        class_pairs_checked=math.comb(nclasses, 2),
        route=route,
    )
