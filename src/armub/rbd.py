"""Resolvable block designs with certified cross-class intersection number.

The generator realizes the design as lines of constant slope in the affine
plane AG(2, s) restricted to k "rows": points are pairs (a, b) with
a in {0..k-1} embedded into GF(s) by canonical enumeration and b in GF(s),
linearized as index a*s + rank(b).  For each slope l the class
P_l = { B_{l,c} : c in GF(s) } with B_{l,c} = { (a, c + l*a^) : a }.
Two lines of distinct slopes meet in at most one point of AG(2, s), so
mu = 1; the vertical class is excluded (its restricted blocks would have
size s, not k).  Identical (k, s) inputs yield byte-identical designs.

A design takes one of two forms, and ``verify_rbd`` certifies mu for each
in its own way:

* The affine form holds only the recipe (k, s, field), field being
  (p, e, modulus) of GF(s) = GF(p^e).  The point a*s + b lies in block
  b - l*a of class l, at position a of that block, both computed on
  demand; the class array is built only when asked for.  It is
  certified from the recipe alone: r = s, 1 <= k <= s, d = k*s, s an odd
  prime power p^e within the field budget, and the modulus equal to the
  certified one of ``gf_make(p, e)``.  Then mu = 1 by the line theorem.
* The explicit form holds the r x s x k class array, for hand-built
  designs such as the d = 4 fixture, and for rbd files that store the
  array (including affine ones written before the recipe form).  It is
  certified by the partition and sortedness checks per class and one
  intersection histogram per class pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MAX_FIELD_SIZE, GfField, gf_from_order, gf_make, prime_power_split
from .errors import DomainError
from .hadamard import size_budget
from .errors import ResourceLimitError

ROUTE_AFFINE = "affine"
ROUTE_PAIRWISE = "pairwise"


class Rbd:
    """Point set {0..d-1} with r parallel classes of s blocks of constant
    size k; ``mu`` is the certified maximum intersection of blocks from
    different classes (None until verified), and ``mu_route`` says how it
    was certified (``ROUTE_AFFINE`` or ``ROUTE_PAIRWISE``).

    ``Rbd(d, k, s, classes)`` is the explicit form, and ``Rbd.affine``
    the recipe form, whose ``field`` is (p, e, modulus); ``field`` is None
    for the explicit form.  The affine generator yields r = s, but
    hand-built designs (e.g. the d = 4 fixture with three classes of two
    blocks) may have any r >= 1.
    """

    __slots__ = ("d", "k", "s", "r", "field", "mu", "mu_route", "provenance",
                 "_classes", "_block_maps")

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
        self.field = None
        self._classes = arr
        self.mu = mu
        self.mu_route = None
        self.provenance = provenance
        self._block_maps: dict[int, np.ndarray] = {}

    @classmethod
    def affine(cls, k: int, s: int, field: tuple, *, d: int | None = None,
               r: int | None = None, provenance: str = "") -> "Rbd":
        """The affine line design over GF(s) by its recipe; ``field`` is
        (p, e, modulus tuple).  d and r default to k*s and s; a parsed
        file may declare others, which ``verify_rbd`` rejects."""
        self = cls.__new__(cls)
        self.d = k * s if d is None else d
        self.r = s if r is None else r
        self.k, self.s, self.field = k, s, field
        self.mu, self.mu_route, self.provenance = None, None, provenance
        self._classes, self._block_maps = None, {}
        return self

    @property
    def classes(self) -> np.ndarray:
        """The r x s x k class array; built on demand for the affine form."""
        if self._classes is not None:
            return self._classes
        return np.stack([self.class_blocks(l) for l in range(self.r)])

    def class_blocks(self, class_index: int) -> np.ndarray:
        """The s x k blocks of one class, each sorted ascending."""
        if self.field is None:
            return self._classes[class_index]
        return _affine_class(self._gf(), self.k, class_index)

    def block_map(self, class_index: int) -> np.ndarray:
        """point -> index of the containing block within the class."""
        if self.field is not None:
            f = self._gf()
            a, b = np.divmod(np.arange(self.d, dtype=np.int64), self.s)
            return f.add_arr(b, f.mul_arr(f.neg(class_index), a))  # b - l*a
        if class_index not in self._block_maps:
            cls = self._classes[class_index]
            out = np.full(self.d, -1, dtype=np.int64)
            out[cls.reshape(-1)] = np.repeat(np.arange(self.s), self.k)
            self._block_maps[class_index] = out
        return self._block_maps[class_index]

    def pos_map(self, class_index: int) -> np.ndarray:
        """point -> position of the point inside its (sorted) block."""
        if self.field is not None:
            return np.arange(self.d, dtype=np.int64) // self.s  # the row a
        out = np.full(self.d, -1, dtype=np.int64)
        out[self._classes[class_index].reshape(-1)] = np.tile(np.arange(self.k), self.s)
        return out

    def _gf(self) -> GfField:
        p, e, _ = self.field
        return gf_make(p, e)

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
    """Affine-line design on d = k*s points, in the recipe form; requires
    1 <= k <= s and s an odd prime power.  The result carries mu = 1,
    certified by ``verify_rbd`` from the recipe and the line theorem."""
    if not 1 <= k <= s:
        raise DomainError(f"need 1 <= k <= s, got k={k}, s={s}")
    split = prime_power_split(s)
    if split is None or split[0] == 2:
        raise DomainError(f"s={s} must be an odd prime power")
    if k * s > size_budget() * 4:
        raise ResourceLimitError(f"design size {k * s} exceeds budget")
    f = gf_from_order(s)
    design = Rbd.affine(k, s, (f.p, f.e, f.modulus), provenance=f"affine(k={k}, s={s})")
    cert = verify_rbd(design)
    if not cert.valid or cert.mu != 1:
        raise AssertionError(f"affine design failed self-verification: {cert}")
    design.mu, design.mu_route = 1, cert.route
    return design


def _recipe_violations(r: Rbd) -> list[str]:
    """Why the recipe of an affine-form design does not describe the affine
    line design over the certified GF(s); empty when it does.  s is bounded
    before it is factored, and the field is built only for a consistent
    (s, p, e)."""
    k, s = r.k, r.s
    p, e, modulus = r.field
    out = []
    if r.r != s:
        out.append(f"an affine design has r = s classes, got r={r.r}, s={s}")
    if not 1 <= k <= s:
        out.append(f"an affine design needs 1 <= k <= s, got k={k}, s={s}")
    if r.d != k * s:
        out.append(f"d must equal k*s, got d={r.d}, k*s={k * s}")
    split = prime_power_split(s) if 3 <= s <= MAX_FIELD_SIZE else None
    if split is None or split[0] == 2:
        out.append(f"s={s} is not an odd prime power of at most {MAX_FIELD_SIZE}")
    elif split != (p, e):
        out.append(f"field p={p}, e={e} does not have s={s} elements")
    elif modulus != gf_make(p, e).modulus:
        out.append(f"modulus {list(modulus)} is not the certified modulus "
                   f"{list(gf_make(p, e).modulus)} of GF({s})")
    return out


def verify_rbd(r: Rbd) -> RbdCertificate:
    """Certify mu for either form of the design.

    The affine form is checked from its recipe, and then mu = 1 by the
    line theorem: two lines of distinct slope meet in exactly one point of
    AG(2, s), and for each class pair some of those points lie in the
    k >= 1 kept rows.  The explicit form gets the partition property and
    block sortedness per class, then one intersection histogram per class
    pair, so every cross-class block pair is examined.  Either way
    ``class_pairs_checked`` is C(r, 2), the class pairs whose mu <= 1 is
    certified (0 for an affine recipe that fails).  Violations are
    reported, not raised.
    """
    if r.field is not None:
        violations = _recipe_violations(r)
        mu = 0 if violations else 1
        route = ROUTE_AFFINE
        pairs = 0 if violations else math.comb(r.r, 2)
    else:
        violations, mu, route = [], 0, ROUTE_PAIRWISE
        d, k, s, nclasses = r.d, r.k, r.s, r.r
        want = np.arange(d)
        for l in range(nclasses):
            cls = r.classes[l]
            flat = np.sort(cls.reshape(-1))
            if not np.array_equal(flat, want):
                violations.append(f"class {l} is not a partition of the point set")
            if k > 1 and not np.all(np.diff(cls, axis=1) > 0):
                violations.append(f"class {l} has an unsorted or repeated block")
        for l in range(nclasses):
            bl = r.block_map(l)
            for m in range(l + 1, nclasses):
                bm = r.block_map(m)
                covered = (bl >= 0) & (bm >= 0)  # robust to broken partitions
                counts = np.bincount((bl * s + bm)[covered], minlength=s * s)
                mu = max(mu, int(counts.max()))
        pairs = math.comb(nclasses, 2)

    if r.mu is not None and mu > r.mu:
        violations.append(f"recorded mu={r.mu} but observed {mu}")
    return RbdCertificate(
        valid=not violations,
        mu=mu,
        violations=violations,
        class_pairs_checked=pairs,
        route=route,
    )
