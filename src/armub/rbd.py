"""The affine resolvable block design with certified intersection number.

The generator realizes the design as lines of constant slope in the affine
plane AG(2, s) restricted to k "rows": points are pairs (a, b) with
a in {0..k-1} embedded into GF(s) by canonical enumeration and b in GF(s),
linearized as index a*s + rank(b).  For each slope l the class
P_l = { B_{l,c} : c in GF(s) } with B_{l,c} = { (a, c + l*a^) : a }.
Two lines of distinct slopes meet in at most one point of AG(2, s), so
mu = 1; the vertical class is excluded (its restricted blocks would have
size s, not k).  Identical (k, s) inputs yield byte-identical designs.

A design is its recipe (k, s).  d = k*s, r = s and the field (p, e,
modulus) of GF(s) = GF(p^e) are derived from it.  The point a*s + b lies
in block b - l*a of class l, at position a of that block; the blocks of a
class are computed on demand, and nothing of size d is built.
``verify_rbd`` certifies the design from the recipe alone: 1 <= k <= s and
s an odd prime power within the field budget.  Then mu = 1 by the line
theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MAX_FIELD_SIZE, gf_make, prime_power_split
from .errors import DomainError


class Rbd:
    """The affine line design over GF(s) by its recipe (k, s): point set
    {0..d-1}, d = k*s, with r = s parallel classes of s blocks of size k.
    ``field`` is (p, e, modulus tuple) of GF(s), derived from s.  ``mu`` is
    the certified maximum intersection of blocks from different classes
    (None until verified).  ``provenance`` names the recipe.
    """

    __slots__ = ("k", "s", "mu")

    def __init__(self, k: int, s: int):
        self.k, self.s, self.mu = k, s, None

    @property
    def d(self) -> int:
        return self.k * self.s

    @property
    def r(self) -> int:
        return self.s

    @property
    def field(self) -> tuple:
        f = gf_make(*prime_power_split(self.s))
        return f.p, f.e, f.modulus

    @property
    def provenance(self) -> str:
        return f"affine(k={self.k}, s={self.s})"

    def class_blocks(self, class_index: int) -> np.ndarray:
        """The s x k blocks of class l = class_index: block c holds
        (a, c + l*a^) for a < k, ascending in a, hence sorted."""
        f = gf_make(*prime_power_split(self.s))
        rows = np.arange(self.k, dtype=np.int64)  # embedded as field codes 0..k-1
        y = f.add_arr(np.arange(self.s, dtype=np.int64)[:, None],
                      f.mul_arr(class_index, rows)[None, :])
        return rows[None, :] * self.s + y

    def __repr__(self):
        return f"Rbd(d={self.d}, k={self.k}, s={self.s}, r={self.r}, mu={self.mu})"


@dataclass
class RbdCertificate:
    valid: bool
    mu: int
    violations: list[str] = field(default_factory=list)
    class_pairs_checked: int = 0  # class pairs whose mu <= 1 is certified

    def __bool__(self):
        return self.valid


def build_affine_rbd(k: int, s: int) -> Rbd:
    """Affine-line design on d = k*s points, carrying mu = 1 as
    ``verify_rbd`` certifies it; a recipe outside the domain is a
    DomainError naming ``verify_rbd``'s violations."""
    design = Rbd(k, s)
    cert = verify_rbd(design)
    if not cert.valid:
        raise DomainError("; ".join(cert.violations))
    design.mu = cert.mu
    return design


def verify_rbd(r: Rbd) -> RbdCertificate:
    """Certify mu of the design from its recipe.

    The recipe's domain is 1 <= k <= s and s an odd prime power within the
    field budget; s is bounded before it is factored.  Then mu = 1 by the
    line theorem: two lines of distinct slope meet in exactly one point of
    AG(2, s), and for each class pair some of those points lie in the
    k >= 1 kept rows.  ``class_pairs_checked`` is C(r, 2), the class pairs
    whose mu <= 1 is certified (0 for a recipe that fails).  Violations
    are reported, not raised.
    """
    k, s = r.k, r.s
    violations = []
    if not 1 <= k <= s:
        violations.append(f"an affine design needs 1 <= k <= s, got k={k}, s={s}")
    split = prime_power_split(s) if 3 <= s <= MAX_FIELD_SIZE else None
    if split is None or split[0] == 2:
        violations.append(f"s={s} is not an odd prime power of at most {MAX_FIELD_SIZE}")
    if violations:
        return RbdCertificate(valid=False, mu=0, violations=violations)
    return RbdCertificate(valid=True, mu=1, class_pairs_checked=math.comb(s, 2))
