"""Assembly of orthonormal bases from a block design and an orthogonal matrix.

Each parallel class becomes one basis of R^d: block b (points sorted
ascending) contributes k vectors, vector i carrying Y_{i,j} at coordinate
b_j.  Vector index within a basis is block_index * k + row, i.e. blocks in
class order, rows in Y order.  A single Y is used for every block: the
cross-basis bound only needs the maximum entry magnitude of Y, and a fixed
Y keeps runs reproducible.
"""

from __future__ import annotations

from .epsh import EpsHadamard
from .errors import DomainError
from .rbd import Rbd


class BasisSet:
    """One orthonormal basis per parallel class of the design, all sharing
    one Y: the basis set is its design and Y."""

    __slots__ = ("rbd", "y")

    def __init__(self, rbd: Rbd, y: EpsHadamard):
        self.rbd = rbd
        self.y = y

    @property
    def d(self) -> int:
        return self.rbd.d

    @property
    def s(self) -> int:
        return self.rbd.s

    @property
    def k(self) -> int:
        return self.rbd.k

    @property
    def num_bases(self) -> int:
        return self.rbd.r

    def __len__(self):
        return self.num_bases

    def __repr__(self):
        return f"BasisSet(d={self.d}, bases={self.num_bases}, k={self.k})"


def assemble(rbd: Rbd, y: EpsHadamard) -> BasisSet:
    """Build the s bases, one per parallel class.

    Within a class, vectors from different blocks have disjoint supports
    (partition property) and vectors within a block inherit orthonormality
    from Y's rows, so each basis is orthonormal by two exact facts
    certified before this call: Y Y^T = I (when the EpsHadamard was built,
    from H's Hadamard property and the t x t identity of
    ``EpsHadamard.verify_orthogonal``) and the design's partition and
    mu = 1 (by ``verify_rbd``).
    """
    if y.order != rbd.k:
        raise DomainError(
            f"orthogonal matrix order {y.order} != design block size {rbd.k}"
        )
    if rbd.mu is None or rbd.mu != 1:
        raise DomainError("design must carry certified mu = 1")
    return BasisSet(rbd, y)
