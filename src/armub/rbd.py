"""The affine resolvable block design with certified intersection number.

The generator realizes the design as lines of constant slope in the affine
plane AG(2, s) restricted to k "rows": points are pairs (a, b) with
a in {0..k-1} embedded into GF(s) by canonical enumeration and b in GF(s),
linearized as index a*s + rank(b).  For each slope l the class
P_l = { B_{l,c} : c in GF(s) } with B_{l,c} = { (a, c + l*a^) : a }.
Two lines of distinct slopes meet in at most one point of AG(2, s), so
mu = 1; the vertical class is excluded (its restricted blocks would have
size s, not k).  Identical (k, s) inputs yield byte-identical designs.

A design holds only its recipe (k, s, field), field being (p, e, modulus)
of GF(s) = GF(p^e).  The point a*s + b lies in block b - l*a of class l,
at position a of that block; the blocks of a class are computed on demand,
and nothing of size d is built.  ``verify_rbd`` certifies the design from
the recipe alone: r = s, 1 <= k <= s, d = k*s, s an odd prime power p^e
within the field budget, and the modulus equal to the certified one of
``gf_make(p, e)``.  Then mu = 1 by the line theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MAX_FIELD_SIZE, gf_make, prime_power_split
from .errors import DomainError


class Rbd:
    """The affine line design over GF(s) by its recipe: point set {0..d-1}
    with r parallel classes of s blocks of size k, ``field`` being
    (p, e, modulus tuple).  d and r default to k*s and s; a parsed file may
    declare others, which ``verify_rbd`` rejects.  ``mu`` is the certified
    maximum intersection of blocks from different classes (None until
    verified).  ``provenance`` names the recipe and is derived from (k, s).
    """

    __slots__ = ("d", "k", "s", "r", "field", "mu")

    def __init__(self, k: int, s: int, field: tuple, *, d: int | None = None,
                 r: int | None = None):
        self.d = k * s if d is None else d
        self.r = s if r is None else r
        self.k, self.s, self.field, self.mu = k, s, field, None

    @property
    def provenance(self) -> str:
        return f"affine(k={self.k}, s={self.s})"

    def class_blocks(self, class_index: int) -> np.ndarray:
        """The s x k blocks of class l = class_index: block c holds
        (a, c + l*a^) for a < k, ascending in a, hence sorted."""
        p, e, _ = self.field
        f = gf_make(p, e)
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
    """Affine-line design on d = k*s points; requires 1 <= k <= s and s an
    odd prime power within the field budget, bounded before it is
    factored.  The result carries mu = 1, certified by ``verify_rbd`` from
    the recipe and the line theorem."""
    if not 1 <= k <= s:
        raise DomainError(f"need 1 <= k <= s, got k={k}, s={s}")
    split = prime_power_split(s) if s <= MAX_FIELD_SIZE else None
    if split is None or split[0] == 2:
        raise DomainError(f"s={s} must be an odd prime power of at most {MAX_FIELD_SIZE}")
    f = gf_make(*split)
    design = Rbd(k, s, (f.p, f.e, f.modulus))
    cert = verify_rbd(design)
    if not cert.valid or cert.mu != 1:
        raise AssertionError(f"affine design failed self-verification: {cert}")
    design.mu = 1
    return design


def verify_rbd(r: Rbd) -> RbdCertificate:
    """Certify mu of the design from its recipe.

    The recipe must describe the affine line design over the certified
    GF(s); s is bounded before it is factored, and the field is built only
    for a consistent (s, p, e).  Then mu = 1 by the line theorem: two lines
    of distinct slope meet in exactly one point of AG(2, s), and for each
    class pair some of those points lie in the k >= 1 kept rows.
    ``class_pairs_checked`` is C(r, 2), the class pairs whose mu <= 1 is
    certified (0 for a recipe that fails).  Violations are reported, not
    raised.
    """
    k, s = r.k, r.s
    p, e, modulus = r.field
    violations = []
    if r.r != s:
        violations.append(f"an affine design has r = s classes, got r={r.r}, s={s}")
    if not 1 <= k <= s:
        violations.append(f"an affine design needs 1 <= k <= s, got k={k}, s={s}")
    if r.d != k * s:
        violations.append(f"d must equal k*s, got d={r.d}, k*s={k * s}")
    split = prime_power_split(s) if 3 <= s <= MAX_FIELD_SIZE else None
    if split is None or split[0] == 2:
        violations.append(f"s={s} is not an odd prime power of at most {MAX_FIELD_SIZE}")
    elif split != (p, e):
        violations.append(f"field p={p}, e={e} does not have s={s} elements")
    elif modulus != gf_make(p, e).modulus:
        violations.append(f"modulus {list(modulus)} is not the certified modulus "
                          f"{list(gf_make(p, e).modulus)} of GF({s})")
    mu = 0 if violations else 1
    pairs = 0 if violations else math.comb(r.r, 2)
    return RbdCertificate(valid=not violations, mu=mu, violations=violations,
                          class_pairs_checked=pairs)
