"""Property suite pinning the Pareto-frontier invariants.

The exploration engine relies on four properties: the frontier has no
dominated member, every excluded candidate is dominated by a frontier
member, the frontier is invariant to candidate order, and — because the
iso-area constraint bounds a *minimized* objective — the frontier can
only grow when that constraint is relaxed.
"""

from dataclasses import dataclass

import pytest
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dse.pareto import OBJECTIVES, _oriented, dominates, pareto_frontier
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Candidate:
    qps: float
    area_mib: float
    energy_per_query: float

    @property
    def objectives(self):
        return (self.qps, self.area_mib, self.energy_per_query)


candidates = st.builds(
    Candidate,
    qps=st.floats(min_value=0.1, max_value=100.0),
    area_mib=st.floats(min_value=1.0, max_value=200.0),
    energy_per_query=st.floats(min_value=0.1, max_value=50.0),
)
candidate_lists = st.lists(candidates, min_size=0, max_size=40)
#: Few distinct values per objective: ties, duplicates and chains.
tied_candidates = st.builds(
    Candidate,
    qps=st.sampled_from([1.0, 2.0, 3.0]),
    area_mib=st.sampled_from([1.0, 2.0, 3.0]),
    energy_per_query=st.sampled_from([0.5, 1.0]),
)


def quadratic_frontier(points, objectives=OBJECTIVES):
    """The original all-pairs frontier: every point against every point."""
    points = list(points)
    if not points:
        return []
    matrix = _oriented(points, objectives)
    keep = np.ones(len(points), dtype=bool)
    for index in range(len(points)):
        row = matrix[index]
        dominated = (matrix >= row).all(axis=1) & (matrix > row).any(axis=1)
        if dominated.any():
            keep[index] = False
    frontier = [point for index, point in enumerate(points) if keep[index]]
    order = sorted(
        range(len(frontier)),
        key=lambda i: tuple(-v for v in matrix[keep][i]),
    )
    return [frontier[i] for i in order]


class TestDominates:
    def test_strictly_better_dominates(self):
        a = Candidate(qps=10.0, area_mib=100.0, energy_per_query=5.0)
        b = Candidate(qps=9.0, area_mib=100.0, energy_per_query=5.0)
        assert dominates(a, b) and not dominates(b, a)

    def test_equal_vectors_do_not_dominate(self):
        a = Candidate(qps=10.0, area_mib=100.0, energy_per_query=5.0)
        assert not dominates(a, a)

    def test_trade_off_does_not_dominate(self):
        fast = Candidate(qps=10.0, area_mib=100.0, energy_per_query=5.0)
        small = Candidate(qps=5.0, area_mib=50.0, energy_per_query=5.0)
        assert not dominates(fast, small) and not dominates(small, fast)

    @given(candidates, candidates)
    def test_antisymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))


class TestFrontier:
    def test_empty_input(self):
        assert pareto_frontier([]) == []

    def test_bad_objectives_raise(self):
        a = Candidate(qps=1.0, area_mib=1.0, energy_per_query=1.0)
        with pytest.raises(ConfigurationError, match="objective"):
            pareto_frontier([a], objectives=())
        with pytest.raises(ConfigurationError, match="sense"):
            pareto_frontier([a], objectives=(("qps", "biggest"),))

    @given(candidate_lists)
    def test_no_dominated_member(self, points):
        frontier = pareto_frontier(points)
        for a in frontier:
            for b in frontier:
                assert not dominates(a, b)

    @given(candidate_lists)
    def test_every_excluded_point_is_dominated(self, points):
        frontier = set(pareto_frontier(points))
        for point in points:
            if point not in frontier:
                assert any(dominates(f, point) for f in frontier)

    @given(candidate_lists, st.randoms(use_true_random=False))
    def test_candidate_order_invariance(self, points, rng):
        shuffled = list(points)
        rng.shuffle(shuffled)
        original = [p.objectives for p in pareto_frontier(points)]
        permuted = [p.objectives for p in pareto_frontier(shuffled)]
        assert original == permuted

    @given(candidate_lists)
    def test_idempotent(self, points):
        frontier = pareto_frontier(points)
        assert pareto_frontier(frontier) == frontier

    @given(candidate_lists)
    def test_duplicates_all_survive(self, points):
        doubled = list(points) + list(points)
        frontier = pareto_frontier(points)
        assert len(pareto_frontier(doubled)) == 2 * len(frontier)


class TestAgainstQuadraticOracle:
    """Same members, same order, same objects as the all-pairs scan."""

    @given(candidate_lists)
    def test_matches_on_random_candidates(self, points):
        result = pareto_frontier(points)
        expected = quadratic_frontier(points)
        assert [id(p) for p in result] == [id(p) for p in expected]

    @given(st.lists(tied_candidates, min_size=0, max_size=60))
    def test_matches_on_tied_candidates(self, points):
        result = pareto_frontier(points)
        expected = quadratic_frontier(points)
        assert [id(p) for p in result] == [id(p) for p in expected]

    @given(st.lists(tied_candidates, min_size=1, max_size=30))
    def test_matches_on_other_objectives(self, points):
        objectives = (("energy_per_query", "max"), ("qps", "min"))
        result = pareto_frontier(points, objectives)
        expected = quadratic_frontier(points, objectives)
        assert [id(p) for p in result] == [id(p) for p in expected]


class TestConstraintRelaxation:
    """Relaxing a budget on a *minimized* objective only grows the frontier.

    If a point is non-dominated among the designs within a tight area
    budget, any dominator admitted by a looser budget would need area at
    most the point's own — so it was already inside the tight budget, a
    contradiction.  (No such guarantee holds for budgets on quantities
    outside the objective vector, e.g. watts.)
    """

    @given(
        candidate_lists,
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_frontier_grows_under_area_relaxation(self, points, tight, slack):
        relaxed = tight + slack
        tight_frontier = pareto_frontier(
            [p for p in points if p.area_mib <= tight]
        )
        relaxed_frontier = pareto_frontier(
            [p for p in points if p.area_mib <= relaxed]
        )
        assert set(tight_frontier) <= set(relaxed_frontier)


class TestObjectives:
    def test_default_triple(self):
        assert OBJECTIVES == (
            ("qps", "max"),
            ("area_mib", "min"),
            ("energy_per_query", "min"),
        )
