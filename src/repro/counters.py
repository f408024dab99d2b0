"""Run-scoped work counters: the one process-wide counting mechanism.

Every layer that wants to say how much work it did calls
:func:`count` with a dotted name (``"lp.pivots"``, ``"fm.lp_calls_saved"``,
``"smt.sat_calls"``, ...).  The counts land in the
:class:`collections.Counter` of the innermost :func:`recording` open in
the current :mod:`contextvars` context, and are dropped when none is
open, so library code pays one context-variable lookup per count.

A recording belongs to its context, not to the process: a thread starts
with no recording, so concurrent analyses never fold each other's work
together, and a nested recording captures its block's counts alone.
Work done on other threads is added explicitly, as the ``nonterm=auto``
race does with its two lanes after joining them.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

_current: ContextVar[Optional[Counter]] = ContextVar("repro_counters", default=None)


def count(name: str, n: int = 1) -> None:
    """Add *n* to counter *name* of the current recording, if any."""
    counter = _current.get()
    if counter is not None:
        counter[name] += n


@contextmanager
def recording() -> Iterator[Counter]:
    """Record the counts of the block into a fresh Counter (yielded)."""
    counter: Counter = Counter()
    token = _current.set(counter)
    try:
        yield counter
    finally:
        _current.reset(token)
