"""Packed int64 rows — the machine-integer fast path of the exact kernel.

:class:`~repro.linalg.sparse.SparseRow` performs every fused row
operation (multiply-add merges, eliminations, dot products) entry by
entry in Python, on arbitrary-precision integers.  That is exact and
allocation-light, but for *wide* rows the per-entry interpreter overhead
dominates: one simplex pivot over a 100-column tableau spends almost all
of its time in the merge loop.

:class:`PackedRow` stores the same mathematical object — an immutable
GCD-normalised row of exact rationals ``numerator(i) / denominator`` —
as a **fixed-width dense numpy int64 numerator array** over a bounded
index universe (slot ``k`` holds index ``k - 1``, so the ``-1`` sentinel
the simplex tableau and the projection layer use for the fused rhs /
affine constant lives in slot 0).  The denominator stays a Python
``int`` and may exceed 64 bits; only numerators are machine integers.
A fused operation then becomes three vectorised passes
(``sa * a + sb * b``, ``np.gcd.reduce``, ``abs().max()``) instead of a
Python loop.

**Overflow contract.**  int64 arithmetic in numpy wraps silently, so
every fused op is guarded by an *a-priori* bound computed on Python
integers from each row's cached maximum absolute numerator::

    |sa| * max_abs(a) + |sb| * max_abs(b) <= 2**63 - 1

When the bound fails — or an operand is not packed — the operation is
re-executed on the exact :class:`SparseRow` path and returns a
``SparseRow``; the result is exact either way and a packed row never
stores a wrapped value.  Overflow-driven fallbacks are counted in
:func:`overflow_fallbacks` so tests and benchmarks can assert the guard
engages.  ``np.int64`` scalars never leak out of this module: every
accessor converts to Python ``int``.

numpy is optional (the ``repro[fast]`` extra).  When it is absent — or
the ``REPRO_NO_NUMPY`` environment variable is set, which is how the
no-numpy CI lane runs on machines that do have numpy — packing is
unavailable, ``kernel="auto"`` resolves to the exact path and
``kernel="packed"`` raises.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, List, Optional, Tuple

from repro.linalg.rational import Rat, as_fraction
from repro.linalg.sparse import SparseRow

try:  # pragma: no cover - exercised by the no-numpy CI lane
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("numpy disabled by REPRO_NO_NUMPY")
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Valid values of the ``kernel`` knob everywhere it appears
#: (:class:`repro.api.config.AnalysisConfig`, ``solve_lp``, ``RankingLp``,
#: ``fourier_motzkin``, the CLI).
KERNELS = ("auto", "packed", "exact")

#: Width (index-universe size, sentinel slot included) below which
#: ``kernel="auto"`` keeps the exact path.  Tuned against the
#: ``kernel_crossover`` sweep in BENCH_kernel.json: the stacked tableau
#: (:mod:`repro.linalg.stacked`) reaches wall-clock parity with the
#: exact rows at ~55 standard-form columns and wins from there up
#: (1.3x at ~69, 1.7x at ~86, >2.5x for the really wide systems).
#: Measured placement on the 58 WTC programs (termite, default config):
#: all 76 ranking-LP resolutions (:mod:`repro.core.lp_instance`) stay
#: exact, and so do the 10,517 polyhedra LPs; all 1,327 stacked
#: resolutions are SMT LPs, 1,254 theory checks (:mod:`repro.smt.theory`)
#: and 73 optimisation queries (:mod:`repro.smt.optimize`).  The run
#: makes 54,324 stacked pivots, 33,561 row pivots and 2,490 overflow
#: fallbacks.
PACKED_MIN_WIDTH = 56

_INT64_MAX = 2**63 - 1
_ZERO = Fraction(0)


class _KernelCounters(threading.local):
    """Per-thread kernel observability counters.

    Thread-local for the same reason projection statistics are: two
    provers racing in one process (``nonterm=auto``) must not interleave
    increments or fold each other's fallbacks into their results.
    """

    def __init__(self) -> None:
        self.overflow_fallbacks = 0
        self.stacked_pivots = 0
        self.row_pivots = 0
        self.resolved_packed = 0
        self.resolved_exact = 0


_counters = _KernelCounters()

#: Counter names exposed by :func:`kernel_counters`, in snapshot order.
COUNTER_FIELDS = (
    "overflow_fallbacks",
    "stacked_pivots",
    "row_pivots",
    "resolved_packed",
    "resolved_exact",
)


def numpy_available() -> bool:
    """Whether the packed kernel can be used in this process."""
    return _np is not None


def overflow_fallbacks() -> int:
    """This thread's count of fused ops re-run exactly due to the int64 bound."""
    return _counters.overflow_fallbacks


def reset_overflow_fallbacks() -> None:
    _counters.overflow_fallbacks = 0


def _count_fallback() -> None:
    _counters.overflow_fallbacks += 1


def count_stacked_pivot() -> None:
    """One pivot executed as a fused stacked-matrix sweep."""
    _counters.stacked_pivots += 1


def count_row_pivot() -> None:
    """One pivot executed on the per-row exact path."""
    _counters.row_pivots += 1


def kernel_counters() -> Dict[str, int]:
    """This thread's kernel counters as a plain dict."""
    return {name: getattr(_counters, name) for name in COUNTER_FIELDS}


def kernel_counters_snapshot() -> Tuple[int, ...]:
    """An opaque snapshot for :func:`kernel_counters_since`."""
    return tuple(getattr(_counters, name) for name in COUNTER_FIELDS)


def kernel_counters_since(snapshot: Tuple[int, ...]) -> Dict[str, int]:
    """Per-counter deltas since *snapshot*, taken on the same thread."""
    return {
        name: getattr(_counters, name) - before
        for name, before in zip(COUNTER_FIELDS, snapshot)
    }


def reset_kernel_counters() -> None:
    for name in COUNTER_FIELDS:
        setattr(_counters, name, 0)


def resolve_kernel(kernel: str, width: int) -> str:
    """Resolve a ``kernel`` knob value to ``"packed"`` or ``"exact"``.

    *width* is the size of the row index universe (sentinel included)
    the caller is about to build.  ``"auto"`` picks packed only when
    numpy is importable **and** the rows are wide enough to win;
    ``"packed"`` insists (and raises when numpy is unavailable).  Every
    resolution is counted (``resolved_packed`` / ``resolved_exact``) so
    ``LpStatistics`` can report which kernel actually ran.
    """
    if kernel not in KERNELS:
        raise ValueError(
            "unknown kernel %r (available: %s)" % (kernel, ", ".join(KERNELS))
        )
    if kernel == "exact":
        _counters.resolved_exact += 1
        return "exact"
    if kernel == "packed":
        if _np is None:
            raise RuntimeError(
                "kernel='packed' requires numpy (install the repro[fast] "
                "extra); use kernel='auto' or 'exact' without it"
            )
        _counters.resolved_packed += 1
        return "packed"
    if _np is not None and width >= PACKED_MIN_WIDTH:
        _counters.resolved_packed += 1
        return "packed"
    _counters.resolved_exact += 1
    return "exact"


class PackedRow:
    """A :class:`SparseRow`-compatible row over a dense int64 array.

    Immutable and always GCD-normalised, exactly like ``SparseRow``:
    ``gcd(*numerators, denominator) == 1``, ``denominator > 0``, equal
    rows compare and hash equal (including against a ``SparseRow`` with
    the same value).  The supported index universe is ``[-1, width - 2]``
    for the construction-time *width*; operations between rows of
    different widths pad to the larger one.
    """

    __slots__ = ("_dense", "denominator", "_max_abs", "_sparse")

    def __init__(self, dense, denominator: int):
        """Wrap an int64 array (normalised here; prefer the classmethods)."""
        if denominator == 0:
            raise ZeroDivisionError("PackedRow denominator is zero")
        if denominator < 0:
            denominator = -denominator
            dense = -dense
        if dense.size:
            magnitudes = _np.abs(dense)
            max_magnitude = int(magnitudes.max())
        else:
            max_magnitude = 0
        if max_magnitude == 0:
            dense = _np.zeros(dense.shape[0], dtype=_np.int64)
            denominator = 1
        elif max_magnitude > 1:
            # max_abs == 1 forces the numerator gcd to 1, so the reduce
            # pass (and the division) can be skipped entirely.
            divisor = gcd(int(_np.gcd.reduce(magnitudes)), denominator)
            if divisor > 1:
                dense = dense // divisor
                denominator //= divisor
                max_magnitude //= divisor
        self._dense = dense
        self.denominator = denominator
        self._max_abs = max_magnitude
        self._sparse: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, width: int) -> "PackedRow":
        return cls(_np.zeros(width, dtype=_np.int64), 1)

    @classmethod
    def from_sparse(cls, row: SparseRow, width: int) -> Optional["PackedRow"]:
        """Pack *row*, or ``None`` when it does not fit.

        A row fits when every index lies in ``[-1, width - 2]`` and every
        numerator's magnitude is at most ``2**63 - 1`` (the denominator
        may be arbitrarily large — it is kept as a Python int).
        """
        dense = _np.zeros(width, dtype=_np.int64)
        for index, numerator in zip(row.indices, row.numerators):
            if index < -1 or index >= width - 1:
                return None
            if not -_INT64_MAX <= numerator <= _INT64_MAX:
                return None
            dense[index + 1] = numerator
        return cls(dense, row.denominator)

    def to_sparse(self) -> SparseRow:
        """The same value as an exact :class:`SparseRow`."""
        indices, numerators = self._view()
        return SparseRow._make(list(indices), list(numerators), self.denominator)

    def _raw_sparse(self) -> SparseRow:
        """An exact view keeping the numerators *verbatim* (no gcd).

        ``_merge`` callers pick ``sa``/``sb``/``den`` against the raw
        numerator arrays of both operands, so the overflow fallback must
        hand :meth:`SparseRow._merge` the numerators unchanged —
        :meth:`to_sparse` renormalises by the row gcd, which under the
        stacked tableau's deferred renormalisation can be large, and a
        rescaled operand silently breaks the caller's convention.
        """
        indices, numerators = self._view()
        row = object.__new__(SparseRow)
        row.indices = indices
        row.numerators = numerators
        row.denominator = self.denominator
        return row

    # -- the sparse view (Python ints, shared with SparseRow interop) ------

    def _view(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        view = self._sparse
        if view is None:
            positions = _np.nonzero(self._dense)[0]
            indices = tuple(position - 1 for position in positions.tolist())
            numerators = tuple(self._dense[positions].tolist())
            view = (indices, numerators)
            self._sparse = view
        return view

    @property
    def indices(self) -> Tuple[int, ...]:
        return self._view()[0]

    @property
    def numerators(self) -> Tuple[int, ...]:
        return self._view()[1]

    @property
    def width(self) -> int:
        return self._dense.shape[0]

    def widened(self, width: int) -> "PackedRow":
        """The same row over a larger index universe."""
        if width <= self.width:
            return self
        dense = _np.zeros(width, dtype=_np.int64)
        dense[: self.width] = self._dense
        row = object.__new__(PackedRow)
        row._dense = dense
        row.denominator = self.denominator
        row._max_abs = self._max_abs
        row._sparse = self._sparse
        return row

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return int(_np.count_nonzero(self._dense))

    def is_zero(self) -> bool:
        return self._max_abs == 0

    def support(self) -> Tuple[int, ...]:
        return self._view()[0]

    def numerator_at(self, index: int) -> int:
        position = index + 1
        if 0 <= position < self._dense.shape[0]:
            return int(self._dense[position])
        return 0

    def get(self, index: int) -> Fraction:
        numerator = self.numerator_at(index)
        if not numerator:
            return _ZERO
        return Fraction(numerator, self.denominator)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        den = self.denominator
        indices, numerators = self._view()
        for index, numerator in zip(indices, numerators):
            yield index, Fraction(numerator, den)

    def iter_scaled(self) -> Iterator[Tuple[int, int]]:
        indices, numerators = self._view()
        return zip(indices, numerators)

    def to_dense(self, size: int, offset: int = 0) -> List[Fraction]:
        values = [_ZERO] * size
        den = self.denominator
        for index, numerator in self.iter_scaled():
            position = index - offset
            if 0 <= position < size:
                values[position] = Fraction(numerator, den)
        return values

    def to_dict(self):
        return dict(self.items())

    # -- fused row operations ----------------------------------------------

    def dot_numerator(self, other) -> int:
        if not isinstance(other, PackedRow):
            return self.to_sparse().dot_numerator(other)
        a, b = self._dense, other._dense
        if a.shape[0] != b.shape[0]:
            shared = min(a.shape[0], b.shape[0])
            a, b = a[:shared], b[:shared]
        # Each elementwise product is bounded by max_abs(a) * max_abs(b);
        # at most min(nnz) of them are nonzero.
        terms = min(len(self), len(other))
        if terms * self._max_abs * other._max_abs > _INT64_MAX:
            _count_fallback()
            return self.to_sparse().dot_numerator(other.to_sparse())
        return int(a @ b)

    def dot(self, other) -> Fraction:
        return Fraction(
            self.dot_numerator(other), self.denominator * other.denominator
        )

    def combine(self, ca: Rat, other, cb: Rat):
        ca = ca if type(ca) is Fraction else as_fraction(ca)
        cb = cb if type(cb) is Fraction else as_fraction(cb)
        den = self.denominator * ca.denominator
        den_b = other.denominator * cb.denominator
        sa = ca.numerator * den_b
        sb = cb.numerator * den
        return self._merge(other, sa, sb, den * den_b)

    def combine_int(self, ca: int, other, cb: int):
        return self._merge(
            other,
            ca * other.denominator,
            cb * self.denominator,
            self.denominator * other.denominator,
        )

    def _merge(self, other, sa: int, sb: int, den: int):
        """``(sa * self + sb * other) / den``, packed when it fits int64."""
        if not isinstance(other, PackedRow):
            # Mixed operands (the partner already fell back): stay exact.
            return self._raw_sparse()._merge(other, sa, sb, den)
        max_a = self._max_abs if sa else 0
        max_b = other._max_abs if sb else 0
        if abs(sa) * max_a + abs(sb) * max_b > _INT64_MAX:
            _count_fallback()
            return self._raw_sparse()._merge(other._raw_sparse(), sa, sb, den)
        a, b = self._dense, other._dense
        if a.shape[0] != b.shape[0]:
            width = max(a.shape[0], b.shape[0])
            a = self.widened(width)._dense
            b = other.widened(width)._dense
        if max_a == 0:
            out = b * sb
        elif max_b == 0:
            out = a * sa
        else:
            out = a * sa
            out += b * sb  # accumulate in place: one temporary fewer
        return PackedRow(out, den)

    def eliminate(self, index: int, pivot):
        s_c = self.numerator_at(index)
        if not s_c:
            return self
        p_c = pivot.numerator_at(index)
        if not p_c:
            raise ZeroDivisionError("pivot row has a zero at index %d" % index)
        return self._merge(pivot, p_c, -s_c, self.denominator * p_c)

    def pivot_normalized(self, index: int) -> "PackedRow":
        p_c = self.numerator_at(index)
        if not p_c:
            raise ZeroDivisionError("cannot normalise on a zero entry")
        return PackedRow(self._dense, p_c)

    def scaled(self, factor: Rat):
        factor = factor if type(factor) is Fraction else as_fraction(factor)
        if not factor:
            return PackedRow.zero(self.width)
        if abs(factor.numerator) * self._max_abs > _INT64_MAX:
            _count_fallback()
            return self.to_sparse().scaled(factor)
        return PackedRow(
            factor.numerator * self._dense,
            self.denominator * factor.denominator,
        )

    def __neg__(self) -> "PackedRow":
        row = object.__new__(PackedRow)
        row._dense = -self._dense
        row.denominator = self.denominator
        row._max_abs = self._max_abs
        row._sparse = None
        return row

    def __add__(self, other):
        return self.combine_int(1, other, 1)

    def __sub__(self, other):
        return self.combine_int(1, other, -1)

    def normalized_direction(self) -> "PackedRow":
        if self._max_abs == 0:
            return self
        divisor = int(_np.gcd.reduce(_np.abs(self._dense)))
        if divisor == 1 and self.denominator == 1:
            return self
        return PackedRow(self._dense // divisor, 1)

    # -- equality / hashing / printing -------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PackedRow, SparseRow)):
            return (
                self.denominator == other.denominator
                and self.indices == other.indices
                and self.numerators == other.numerators
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.indices, self.numerators, self.denominator))

    def __repr__(self) -> str:
        body = ", ".join(
            "%d: %s" % (index, value) for index, value in self.items()
        )
        return "PackedRow({%s})" % body


def pack_row(row, width: int):
    """Pack a :class:`SparseRow` into *width* slots, or return it unchanged.

    The transparent entry point the tableau and the projection layer use:
    rows that fit become :class:`PackedRow`, rows that do not (an index
    outside the universe, a numerator beyond int64) stay exact.
    """
    if isinstance(row, PackedRow):
        return row if row.width >= width else row.widened(width)
    packed = PackedRow.from_sparse(row, width)
    return row if packed is None else packed
