"""The total value ordering shared by every ordered SQL path.

SQL ``ORDER BY``, ``GROUP BY`` and ``DISTINCT`` need a *total, deterministic*
order over whatever values a column actually holds — including ``None`` and
mixed types, which Python's ``<`` refuses to compare.  :func:`sort_key`
defines that order once; the SQL executor's sorts and its per-column ranks
(:class:`repro.sql.catalog.ColumnOrder`) all go through it, so every
ordered path agrees.

The order, ascending:

1. non-null values before ``None`` (``None`` sorts last ascending, first
   descending);
2. within non-null values, by type class: numbers (``bool`` counts as its
   numeric value), then strings, then everything else;
3. within a class, the natural order (numeric, lexicographic, or ``repr``
   for the catch-all class).  Ties (``1`` vs ``True`` vs ``1.0``) keep
   their input order — sorts through this key are stable.

NaN is a number that Python's ``<`` cannot order, so it gets one fixed
place, as in PostgreSQL: after every other number (``inf`` included) and
before the strings; all NaNs tie.  Range comparisons, ``ORDER BY``,
``MIN``/``MAX`` and range pushdown all follow that place — ``x > 3``
matches a NaN ``x``, ``x <= 4`` does not.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

#: Type-class ranks: numbers < strings < everything else.
_NUMBER, _STRING, _OTHER = 0, 1, 2


def sort_key(value: Any) -> Tuple:
    """A total-order sort key: ``(is_null, type_class, comparable)``.

    NaN's key carries a fourth element so it sorts after ``inf``.
    """
    if value is None:
        return (1, 0, 0)
    if isinstance(value, bool):
        # bool is an int subclass; order it with the numbers by value
        return (0, _NUMBER, int(value))
    if isinstance(value, float) and math.isnan(value):
        # one past the (0, _NUMBER, inf) prefix: after every other number
        return (0, _NUMBER, math.inf, 1)
    if isinstance(value, (int, float)):
        return (0, _NUMBER, value)
    if isinstance(value, str):
        return (0, _STRING, value)
    return (0, _OTHER, repr(value))


def row_key(values) -> Tuple:
    """The tuple of :func:`sort_key` over several values (multi-column)."""
    return tuple(sort_key(value) for value in values)


def group_key(value: Any) -> Any:
    """A hashable identity for GROUP BY / DISTINCT bucketing.

    Python equality is the grouping equality — the same relation ``WHERE``
    and join probes use — so ``1``, ``1.0`` and ``True`` land in one group
    and the group's *representative* value is the first one seen in input
    order (deterministic).  Unhashable values group by ``repr``.
    """
    try:
        hash(value)
    except TypeError:
        return ("__repr__", repr(value))
    return value
