"""Pareto-dominance filtering for multi-objective design spaces.

A design *dominates* another when it is at least as good on every
objective and strictly better on at least one.  The frontier is the set
of non-dominated designs; designs with identical objective vectors are
all kept (neither dominates the other).  The property suite in
``tests/dse`` pins the invariants the exploration relies on: the
frontier contains no dominated point, is invariant to candidate order,
and every excluded candidate is dominated by some frontier member.

Objectives are ``(attribute, sense)`` pairs read off the evaluated
objects; :data:`OBJECTIVES` is the exploration's default triple —
maximize QPS, minimize area, minimize energy per query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: The exploration's objective triple over :class:`EvaluatedDesign`.
OBJECTIVES = (
    ("qps", "max"),
    ("area_mib", "min"),
    ("energy_per_query", "min"),
)


def _oriented(points: Sequence, objectives) -> np.ndarray:
    """(n, k) float matrix, oriented so larger is always better."""
    if not objectives:
        raise ConfigurationError("at least one objective is required")
    columns = []
    for attribute, sense in objectives:
        if sense not in ("max", "min"):
            raise ConfigurationError(
                f"objective sense must be 'max' or 'min', got {sense!r}"
            )
        values = np.array(
            [float(getattr(point, attribute)) for point in points], dtype=float
        )
        columns.append(values if sense == "max" else -values)
    return np.column_stack(columns)


def dominates(a, b, objectives=OBJECTIVES) -> bool:
    """True when design ``a`` Pareto-dominates design ``b``."""
    matrix = _oriented([a, b], objectives)
    at_least_as_good = bool(np.all(matrix[0] >= matrix[1]))
    strictly_better = bool(np.any(matrix[0] > matrix[1]))
    return at_least_as_good and strictly_better


def pareto_frontier(points: Sequence, objectives=OBJECTIVES) -> list:
    """The non-dominated subset of ``points``.

    Output order is canonical — sorted by the oriented objective vector,
    best first — so the frontier is invariant to the candidate order
    (ties on the full vector keep their relative input order, but equal
    vectors are interchangeable by construction).

    Candidates are visited in that order and each is checked only
    against the frontier found so far: a dominator is lexicographically
    better, so it was visited earlier, and if it was itself dominated
    then by transitivity some frontier member dominates the candidate
    too.  Cost is O(n log n + n * frontier size).
    """
    points = list(points)
    if not points:
        return []
    matrix = _oriented(points, objectives)
    # Stable sort, descending on the first objective, then the next ...
    order = np.lexsort(-matrix.T[::-1])
    frontier = np.empty_like(matrix)
    kept: list[int] = []
    for index in order:
        row = matrix[index]
        front = frontier[: len(kept)]
        if ((front >= row).all(axis=1) & (front > row).any(axis=1)).any():
            continue
        frontier[len(kept)] = row
        kept.append(int(index))
    return [points[index] for index in kept]
