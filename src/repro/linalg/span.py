"""Linear spans by Gauss elimination on :class:`SparseRow`.

The ``AvoidSpace(u, B)`` machinery of the paper (§4.1) needs two facts
about the span of the flat basis ``B``: whether a vector lies in it, and
a basis of its orthogonal complement.  Both come from the reduced row
echelon form of ``B``, which is canonical — so the complement basis, and
with it every ``AvoidSpace`` formula, depends only on ``span(B)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.linalg.sparse import SparseRow
from repro.linalg.vector import Vector


def _reduce(row: SparseRow, echelon: Dict[int, SparseRow]) -> SparseRow:
    """*row* minus its components along the pivots of *echelon*."""
    for pivot, pivot_row in echelon.items():
        row = row.eliminate(pivot, pivot_row)
    return row


def _echelon(vectors: Sequence[Vector]) -> Dict[int, SparseRow]:
    """The reduced row echelon form of *vectors*, keyed by pivot column.

    Each row is scaled to 1 at its pivot, which is its leading entry and
    zero in every other row.
    """
    echelon: Dict[int, SparseRow] = {}
    for vector in vectors:
        row = _reduce(SparseRow.from_dense(vector), echelon)
        if row.is_zero():
            continue
        pivot = row.indices[0]
        row = row.pivot_normalized(pivot)
        for other, other_row in echelon.items():
            echelon[other] = other_row.eliminate(pivot, row)
        echelon[pivot] = row
    return echelon


def orthogonal_complement(vectors: Sequence[Vector], dimension: int) -> List[Vector]:
    """A basis of the orthogonal complement of ``span(vectors)`` in Q^dimension.

    ``u ∈ span(vectors)`` iff ``n · u = 0`` for every returned ``n``; the
    ``AvoidSpace(u, B)`` formula of the paper is therefore the disjunction of
    the dis-equalities ``n · u ≠ 0``.  The basis is the null space of the
    echelon form: one vector per free column, in increasing column order.
    """
    if any(len(vector) != dimension for vector in vectors):
        raise ValueError("vectors do not live in the requested dimension")
    echelon = _echelon(vectors)
    basis: List[Vector] = []
    for free in range(dimension):
        if free in echelon:
            continue
        entries = [0] * dimension
        entries[free] = 1
        for pivot, row in echelon.items():
            entries[pivot] = -row.get(free)
        basis.append(Vector(entries))
    return basis


def in_span(vector: Vector, family: Sequence[Vector]) -> bool:
    """Whether *vector* lies in the linear span of *family*."""
    return _reduce(SparseRow.from_dense(vector), _echelon(family)).is_zero()
