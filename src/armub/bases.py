"""Assembly of orthonormal bases from a block design and an orthogonal matrix.

Each parallel class becomes one basis of R^d: block b (points sorted
ascending) contributes k vectors, vector i carrying Y_{i,j} at coordinate
b_j.  Vector index within a basis is block_index * k + row, i.e. blocks in
class order, rows in Y order.  A single Y is used for every block: the
cross-basis bound only needs the maximum entry magnitude of Y, and a fixed
Y keeps runs reproducible.
"""

from __future__ import annotations

import numpy as np

from .algebra import Scalar
from .epsh import EpsHadamard
from .errors import DomainError
from .rbd import Rbd


class SparseBasis:
    """One orthonormal basis in sparse block form (k nonzeros per vector)."""

    __slots__ = ("rbd", "y", "class_index")

    def __init__(self, rbd: Rbd, y: EpsHadamard, class_index: int):
        self.rbd = rbd
        self.y = y
        self.class_index = class_index

    @property
    def d(self) -> int:
        return self.rbd.d

    @property
    def k(self) -> int:
        return self.rbd.k

    @property
    def blocks(self) -> np.ndarray:
        return self.rbd.class_blocks(self.class_index)

    def block_of_vector(self, index: int) -> int:
        return index // self.k

    def vector(self, index: int) -> list[tuple[int, Scalar]]:
        """(coordinate, value) pairs of the addressed vector."""
        if not 0 <= index < self.d:
            raise DomainError(f"vector index {index} outside [0, {self.d})")
        block, row = divmod(index, self.k)
        pts = self.blocks[block]
        return [(int(pts[j]), self.y.entry(row, j)) for j in range(self.k)]

    def support(self, index: int) -> tuple[int, ...]:
        block = self.block_of_vector(index)
        return tuple(int(p) for p in self.blocks[block])


class BasisSet:
    """One orthonormal basis per parallel class, sharing one design and one Y."""

    __slots__ = ("rbd", "y", "bases")

    def __init__(self, rbd: Rbd, y: EpsHadamard, bases: list[SparseBasis]):
        self.rbd = rbd
        self.y = y
        self.bases = bases

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
        return len(self.bases)

    def __len__(self):
        return len(self.bases)

    def __repr__(self):
        return f"BasisSet(d={self.d}, bases={len(self.bases)}, k={self.k})"


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
    return BasisSet(rbd, y, [SparseBasis(rbd, y, l) for l in range(rbd.r)])
