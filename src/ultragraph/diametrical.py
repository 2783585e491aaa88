"""Diametrical graphs, threshold graphs, and the sweep ultrametricity test.

The diametrical graph joins the point pairs that realize the diameter.
The threshold graph at level r joins pairs at distance >= r.  Sweeping
r over the attained distances and asking each threshold graph to be
empty or complete multipartite decides ultrametricity without ever
checking a triangle.  The sweep reads `FiniteSpace.levels`, one
union-find pass over the pairs, and builds no threshold graph.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Partition, SimpleGraph
from .rationals import ZERO, as_rational, format_rational
from .spaces import (
    FiniteSpace,
    SpaceClass,
    ball_family,
    classify,
    diameter,
    distance_set,
    require_valid,
)


@dataclass(frozen=True)
class ThresholdEntry:
    """Classification of one threshold graph."""

    radius: Fraction
    parts: Partition | None  # None iff the graph is not complete multipartite

    @property
    def part_count(self) -> int | None:
        return None if self.parts is None else self.parts.block_count


@dataclass(frozen=True)
class SweepReport:
    """Per-threshold classifications plus the overall verdict.

    `verdict` is True iff every threshold graph is empty or complete
    multipartite, which holds exactly when the space is ultrametric,
    metric or not.
    """

    entries: tuple[ThresholdEntry, ...]
    verdict: bool


def _graph(space: FiniteSpace, lowest_rank: int) -> SimpleGraph:
    labels, n = space.labels, space.n
    edges = frozenset(
        frozenset((labels[i], labels[j]))
        for i, row in enumerate(space.ranks)
        for j in range(i + 1, n)
        if row[j] >= lowest_rank
    )
    return SimpleGraph(labels, edges)


def diametrical_graph(space: FiniteSpace) -> SimpleGraph:
    """Graph on the points whose edges are the diameter-realizing pairs.

    Empty exactly for one-point spaces; with two or more points a
    finite space attains its diameter, so the graph has an edge.
    """
    require_valid(space)
    return _graph(space, len(space.values) - 1)


def threshold_graph(space: FiniteSpace, r: Fraction | int | str) -> SimpleGraph:
    """Graph joining the point pairs at distance >= r."""
    require_valid(space)
    r = as_rational(r)
    if r <= ZERO:
        raise ValueError(f"threshold must be positive, got {format_rational(r)}")
    return _graph(space, bisect_left(space.values, r))


def _partition(space: FiniteSpace, classes: tuple[tuple[int, ...], ...]) -> Partition:
    labels = space.labels
    return Partition(tuple(frozenset(labels[p] for p in c) for c in classes))


def sweep(space: FiniteSpace) -> SweepReport:
    """Classify the threshold graph at every attained positive distance.

    Checking only the attained distances is exhaustive: between two
    consecutive distance values the edge set {d >= r} does not change,
    so each threshold graph for r in (0, diam] equals one of the swept
    graphs.  At an attained r the graph has an edge, so no swept level
    is empty; its parts, when it is complete multipartite, are the
    classes of "d < r" (see `FiniteSpace.levels`).  Requires at least
    two points.
    """
    require_valid(space)
    if space.n < 2:
        raise ValueError("sweep needs at least two points")
    entries = tuple(
        ThresholdEntry(
            space.values[k], None if classes is None else _partition(space, classes)
        )
        for k, classes in space.levels
    )
    return SweepReport(entries, all(entry.parts is not None for entry in entries))


def verify_parts_are_balls(space: FiniteSpace) -> bool:
    """Check that the diametrical graph's parts are the diameter-radius balls.

    Defined for ultrametric spaces with at least two points, where it
    must always return True: the parts of the (complete multipartite)
    diametrical graph coincide with the distinct open balls of radius
    equal to the diameter.  The parts are the classes of the top
    threshold level; the balls are computed point by point.
    """
    require_valid(space)
    if space.n < 2:
        raise ValueError("need at least two points")
    if classify(space) is not SpaceClass.ULTRAMETRIC:
        raise ValueError("space is not ultrametric")
    _, classes = space.levels[-1]
    parts = _partition(space, classes)
    balls = ball_family(space, diameter(space))
    return set(parts.blocks) == set(balls.balls)


def gap_condition(space: FiniteSpace) -> bool:
    """True iff every attained distance below the diameter is under half of it.

    Metric spaces satisfying this inherit the parts-are-balls structure
    of ultrametric spaces even when the strong triangle inequality
    fails; the strict inequality is sharp (doubling a distance to
    exactly the diameter breaks the structure).
    """
    require_valid(space)
    if space.n < 2:
        raise ValueError("need at least two points")
    if classify(space) < SpaceClass.METRIC_ONLY:
        raise ValueError("space does not satisfy the triangle inequality")
    diam = diameter(space)
    return all(
        2 * t < diam for t in distance_set(space) if ZERO < t < diam
    )
