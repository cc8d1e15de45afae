"""Resolvable block designs with certified cross-class intersection number.

The generator realizes the design as lines of constant slope in the affine
plane AG(2, s) restricted to k "rows": points are pairs (a, b) with
a in {0..k-1} embedded into GF(s) by canonical enumeration and b in GF(s),
linearized as index a*s + rank(b).  For each slope l the class
P_l = { B_{l,c} : c in GF(s) } with B_{l,c} = { (a, c + l*a^) : a }.
Two lines of distinct slopes meet in at most one point of AG(2, s), so
mu = 1; the vertical class is excluded (its restricted blocks would have
size s, not k).  Identical (k, s) inputs yield byte-identical designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import gf_from_order, prime_power_split
from .errors import DomainError
from .hadamard import size_budget
from .errors import ResourceLimitError


class Rbd:
    """Point set {0..d-1} with r parallel classes of s blocks of constant
    size k; ``mu`` is the certified maximum intersection of blocks from
    different classes (None until verified).  The affine generator yields
    r = s, but hand-built designs (e.g. the d = 4 fixture with three
    classes of two blocks) may have any r >= 1.
    """

    __slots__ = ("d", "k", "s", "r", "classes", "mu", "provenance",
                 "_block_maps", "_pos_maps")

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
        self.provenance = provenance
        self._block_maps: dict[int, np.ndarray] = {}
        self._pos_maps: dict[int, np.ndarray] = {}

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
        if class_index not in self._pos_maps:
            cls = self.classes[class_index]
            out = np.full(self.d, -1, dtype=np.int64)
            out[cls.reshape(-1)] = np.tile(np.arange(self.k), self.s)
            self._pos_maps[class_index] = out
        return self._pos_maps[class_index]

    def __repr__(self):
        return f"Rbd(d={self.d}, k={self.k}, s={self.s}, r={self.r}, mu={self.mu})"


@dataclass
class RbdCertificate:
    valid: bool
    mu: int
    violations: list[str] = field(default_factory=list)
    class_pairs_checked: int = 0

    def __bool__(self):
        return self.valid


def build_affine_rbd(k: int, s: int) -> Rbd:
    """Affine-line design on d = k*s points; requires 1 <= k <= s and s an
    odd prime power.  The result carries mu = 1, re-verified in full."""
    if not 1 <= k <= s:
        raise DomainError(f"need 1 <= k <= s, got k={k}, s={s}")
    split = prime_power_split(s)
    if split is None or split[0] == 2:
        raise DomainError(f"s={s} must be an odd prime power")
    if k * s > size_budget() * 4:
        raise ResourceLimitError(f"design size {k * s} exceeds budget")
    f = gf_from_order(s)
    rows = np.arange(k, dtype=np.int64)  # embedded as field codes 0..k-1
    blocks = np.empty((s, s, k), dtype=np.int64)
    for slope in range(s):
        shift = f.mul_arr(np.full(k, slope, dtype=np.int64), rows)  # l * a^
        y = f.add_arr(np.arange(s, dtype=np.int64)[:, None], shift[None, :])
        blocks[slope] = rows[None, :] * s + y  # ascending in a, hence sorted
    design = Rbd(k * s, k, s, blocks, provenance=f"affine(k={k}, s={s})")
    cert = verify_rbd(design)
    if not cert.valid or cert.mu != 1:
        raise AssertionError(f"affine design failed self-verification: {cert}")
    design.mu = 1
    return design


def verify_rbd(r: Rbd) -> RbdCertificate:
    """Check the partition property per class, block sortedness, and mu.

    Every cross-class block pair is examined, through one intersection
    histogram per class pair.  Violations are reported, not raised.
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

    mu = 0
    pairs = 0
    for l in range(nclasses):
        bl = r.block_map(l)
        for m in range(l + 1, nclasses):
            bm = r.block_map(m)
            covered = (bl >= 0) & (bm >= 0)  # robust to broken partitions
            counts = np.bincount((bl * s + bm)[covered], minlength=s * s)
            mu = max(mu, int(counts.max()))
            pairs += 1

    if r.mu is not None and mu > r.mu:
        violations.append(f"recorded mu={r.mu} but observed {mu}")
    return RbdCertificate(
        valid=not violations,
        mu=mu,
        violations=violations,
        class_pairs_checked=pairs,
    )
