"""Tests for the span helpers: row space and null space of a family of rows.

``orthogonal_complement(rows, n)`` is the null space of the matrix whose
rows are *rows*, and ``in_span(b, columns)`` decides whether ``A x = b``
is solvable for the matrix whose columns are *columns*; both come from
the reduced row echelon form in :mod:`repro.linalg.span`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg import in_span, orthogonal_complement
from repro.linalg.vector import Vector

small = st.integers(min_value=-6, max_value=6)


@st.composite
def families(draw, max_dimension=4, max_size=4):
    """A dimension and a small integer family of vectors in it."""
    dimension = draw(st.integers(min_value=0, max_value=max_dimension))
    family = draw(
        st.lists(
            st.lists(small, min_size=dimension, max_size=dimension).map(Vector),
            max_size=max_size,
        )
    )
    return dimension, family


def rank(family):
    """The number of vectors that leave the span of the ones before them."""
    basis = []
    for vector in family:
        if not in_span(vector, basis):
            basis.append(vector)
    return len(basis)


def v(*entries):
    return Vector(entries)


class TestElimination:
    def test_rank_full(self):
        assert orthogonal_complement([v(1, 0), v(0, 1)], 2) == []

    def test_rank_deficient(self):
        assert len(orthogonal_complement([v(1, 2), v(2, 4)], 2)) == 1

    def test_null_space(self):
        rows = [v(1, 2), v(2, 4)]
        kernel = orthogonal_complement(rows, 2)
        assert len(kernel) == 1
        assert all(row.dot(kernel[0]) == 0 for row in rows)

    def test_solve_consistent(self):
        # [[2, 0], [0, 4]] x = (6, 8) has the solution x = (3, 2).
        assert in_span(v(6, 8), [v(2, 0), v(0, 4)])

    def test_solve_inconsistent(self):
        assert not in_span(v(1, 2), [v(1, 1), v(1, 1)])

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, case):
        dimension, family = case
        complement = orthogonal_complement(family, dimension)
        assert rank(family) + len(complement) == dimension

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_are_in_kernel(self, case):
        dimension, family = case
        for vector in orthogonal_complement(family, dimension):
            assert all(row.dot(vector) == 0 for row in family)


class TestSubspaces:
    def test_in_span(self):
        family = [Vector([1, 0, 0]), Vector([0, 1, 0])]
        assert in_span(Vector([2, 3, 0]), family)
        assert not in_span(Vector([0, 0, 1]), family)

    def test_zero_always_in_span(self):
        assert in_span(Vector([0, 0]), [])

    def test_nonzero_never_in_empty_span(self):
        assert not in_span(Vector([0, 1]), [])

    def test_orthogonal_complement_empty_family(self):
        complement = orthogonal_complement([], 2)
        assert len(complement) == 2

    def test_orthogonal_complement_is_orthogonal(self):
        family = [Vector([1, 2, 3])]
        for w in orthogonal_complement(family, 3):
            assert w.dot(family[0]) == 0

    def test_membership_via_complement(self):
        family = [Vector([1, 0, 1])]
        complement = orthogonal_complement(family, 3)
        inside = Vector([2, 0, 2])
        outside = Vector([1, 1, 0])
        assert all(w.dot(inside) == 0 for w in complement)
        assert any(w.dot(outside) != 0 for w in complement)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_complement([Vector([1, 2])], 3)


class TestSpanProperties:
    @given(families(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_in_span_iff_orthogonal_to_complement(self, case, data):
        dimension, family = case
        candidate = Vector(
            data.draw(st.lists(small, min_size=dimension, max_size=dimension))
        )
        if family and data.draw(st.booleans()):
            # Bias towards members: a combination of the family.
            weights = data.draw(
                st.lists(small, min_size=len(family), max_size=len(family))
            )
            candidate = Vector.zeros(dimension)
            for weight, vector in zip(weights, family):
                candidate = candidate + vector * weight
        complement = orthogonal_complement(family, dimension)
        assert in_span(candidate, family) == all(
            normal.dot(candidate) == 0 for normal in complement
        )


class TestPinnedBases:
    """Literal complement bases: the RREF null-space basis must not drift.

    One vector per free column, in increasing column order, with 1 at the
    free column and minus the echelon entries at the pivot columns.  The
    ``AvoidSpace`` formulas, and so every downstream SMT query, are built
    from exactly these vectors.
    """

    def test_empty_family_gives_the_unit_basis(self):
        assert orthogonal_complement([], 3) == [v(1, 0, 0), v(0, 1, 0), v(0, 0, 1)]

    def test_full_rank_family_gives_nothing(self):
        assert orthogonal_complement([v(1, 2), v(3, 4)], 2) == []

    def test_single_row(self):
        assert orthogonal_complement([v(1, 2, 3)], 3) == [
            v(-2, 1, 0),
            v(-3, 0, 1),
        ]

    def test_fractional_echelon_entries(self):
        assert orthogonal_complement([v(2, 1)], 2) == [v(Fraction(-1, 2), 1)]

    def test_dependent_rows_and_a_late_pivot(self):
        rows = [v(2, 4, 0, 2), v(1, 2, 1, 0), v(3, 6, 1, 2)]
        assert orthogonal_complement(rows, 4) == [
            v(-2, 1, 0, 0),
            v(-1, 0, 1, 1),
        ]

    def test_basis_depends_only_on_the_span(self):
        assert orthogonal_complement([v(0, 1, 1), v(1, 1, 0)], 3) == (
            orthogonal_complement([v(1, 2, 1), v(1, 0, -1)], 3)
        )
