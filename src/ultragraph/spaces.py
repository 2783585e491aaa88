"""Finite semimetric spaces with exact rational distance matrices.

A `FiniteSpace` is a labelled point set plus a square matrix of
`Fraction` distances.  Construction only enforces structure (shape,
distinct labels that documents can carry, exact entries); the distance axioms are checked by
`validate`, so malformed matrices can still be built and reported on.

Each derived fact is computed at most once per space and cached on it:
the sorted distinct entries, the rank of every entry among them, the
axiom check, the threshold levels and the class.  Order-only questions
(axioms, balls, threshold levels) compare integer ranks, not Fractions.

The threshold levels come from one union-find pass over the point
pairs in ascending distance order.  A valid space is ultrametric
exactly when "d < r" is an equivalence relation at every attained r,
so `classify` answers ULTRAMETRIC from those levels alone.  Only when
a level fails does it scan every point triple, to tell metric spaces
from semimetric ones.  The brute-force classifier that the tests hold
all of this to is `naive_classify` in the test suite's `util` module.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable

from ._canon import canonical_blocks, check_names
from .rationals import ZERO, as_rational, format_rational


class SpaceClass(IntEnum):
    """Strongest distance-axiom family a space satisfies."""

    SEMIMETRIC_ONLY = 0
    METRIC_ONLY = 1
    ULTRAMETRIC = 2


@dataclass(frozen=True)
class Violation:
    """One distance-axiom violation, anchored to a labelled entry pair."""

    kind: str  # "identity" | "symmetry" | "positivity"
    pair: tuple[str, str]
    detail: str

    def __str__(self) -> str:
        x, y = self.pair
        return f"{self.kind} violation at ({x}, {y}): {self.detail}"


@dataclass(frozen=True)
class FiniteSpace:
    """Labelled point set with an n x n matrix of exact rational distances."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("a space needs at least one point")
        check_names(labels, "point labels")
        n = len(labels)
        rows = tuple(tuple(as_rational(e) for e in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"matrix must be {n}x{n} to match the {n} labels")

    @classmethod
    def from_rows(
        cls,
        labels: Iterable[str],
        rows: Iterable[Iterable[Fraction | int | str]],
    ) -> "FiniteSpace":
        return cls(tuple(labels), tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def position(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"unknown point: {point!r}") from None

    def distance(self, x: str, y: str) -> Fraction:
        return self.matrix[self.position(x)][self.position(y)]

    @cached_property
    def _encoding(self) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
        # Entries are usually shared objects (the parser and the
        # constructions reuse one Fraction per value), so key them by
        # identity and hash each distinct object once: Fraction hashing
        # runs Python code.
        by_id: dict[int, Fraction] = {}
        for row in self.matrix:
            by_id.update(zip(map(id, row), row))
        values = tuple(sorted(set(by_id.values())))
        rank = {v: k for k, v in enumerate(values)}
        rank_by_id = {key: rank[e] for key, e in by_id.items()}
        ranks = tuple(
            tuple(map(rank_by_id.__getitem__, map(id, row))) for row in self.matrix
        )
        return values, ranks

    @property
    def values(self) -> tuple[Fraction, ...]:
        """Every distinct matrix entry, ascending; the distance set of a valid space."""
        return self._encoding[0]

    @property
    def ranks(self) -> tuple[tuple[int, ...], ...]:
        """Rank matrix: `values[ranks[i][j]] == matrix[i][j]`."""
        return self._encoding[1]

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        labels, m, ranks = self.labels, self.matrix, self.ranks
        positive = bisect_right(self.values, ZERO)  # lowest rank of a positive entry
        violations: list[Violation] = []
        for i in range(self.n):
            if m[i][i] != ZERO:
                violations.append(
                    Violation(
                        "identity",
                        (labels[i], labels[i]),
                        f"expected 0, found {format_rational(m[i][i])}",
                    )
                )
        for i, row in enumerate(ranks):
            for j in range(i + 1, self.n):
                if row[j] != ranks[j][i]:
                    violations.append(
                        Violation(
                            "symmetry",
                            (labels[i], labels[j]),
                            f"{format_rational(m[i][j])} != {format_rational(m[j][i])}",
                        )
                    )
                if row[j] < positive:
                    violations.append(
                        Violation(
                            "positivity",
                            (labels[i], labels[j]),
                            f"distance {format_rational(m[i][j])} is not positive",
                        )
                    )
        return tuple(violations)

    @cached_property
    def levels(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...] | None], ...]:
        """The threshold levels, one per attained positive distance r, ascending.

        Each level is (rank of r in `values`, classes).  The classes
        are those of "d < r" as ascending position tuples ordered by
        their first point, or None when that relation is not an
        equivalence, i.e. when the threshold graph {d >= r} is not
        complete multipartite.  One pass merges the pairs in ascending
        distance order with union-find: the classes before merging
        rank k are the components of {d < r}, and level k passes
        exactly when every pair inside a component is at distance
        below r, i.e. when #pairs(d < r) equals the sum of C(|C|, 2)
        over the components.  Validates the space first.
        """
        require_valid(self)
        n = self.n
        buckets: list[list[tuple[int, int]]] = [[] for _ in self.values]
        for i, row in enumerate(self.ranks):
            for j in range(i + 1, n):
                buckets[row[j]].append((i, j))
        owner = list(range(n))  # class id of each point
        members = [[i] for i in range(n)]  # points of each class id
        below = within = 0  # pairs with d < r; pairs inside one class
        levels = []
        for k in range(1, len(buckets)):  # rank 0 is the distance 0
            classes = None
            if below == within:
                classes = tuple(sorted(tuple(sorted(c)) for c in members if c))
            levels.append((k, classes))
            for i, j in buckets[k]:
                a, b = owner[i], owner[j]
                if a != b:
                    if len(members[a]) < len(members[b]):
                        a, b = b, a
                    within += len(members[a]) * len(members[b])
                    for p in members[b]:
                        owner[p] = a
                    members[a] += members[b]
                    members[b] = []
            below += len(buckets[k])
        return tuple(levels)

    @cached_property
    def _class(self) -> SpaceClass:
        if all(classes is not None for _, classes in self.levels):
            return SpaceClass.ULTRAMETRIC
        if _satisfies_triangle(self):
            return SpaceClass.METRIC_ONLY
        return SpaceClass.SEMIMETRIC_ONLY


@dataclass(frozen=True)
class BallFamily:
    """All distinct open balls of one radius, canonically ordered."""

    radius: Fraction
    balls: tuple[frozenset[str], ...]


def validate(space: FiniteSpace) -> list[Violation]:
    """Check the distance axioms; empty list means the space is valid.

    Reports, entry by entry: nonzero diagonal ("identity"), asymmetric
    pairs ("symmetry"), and nonpositive off-diagonal entries
    ("positivity").  The check runs once per space; later calls read
    its cached result.
    """
    return list(space._violations)


def require_valid(space: FiniteSpace) -> None:
    """Raise ValueError listing every axiom violation, if any."""
    violations = space._violations
    if violations:
        summary = "; ".join(str(v) for v in violations)
        raise ValueError(f"invalid space: {summary}")


def _satisfies_triangle(space: FiniteSpace) -> bool:
    # Common-denominator rescale to plain ints.  d(i, j) <= d(i, k) +
    # d(k, j) for every k is d(i, j) <= min over k, and k = i attains
    # d(i, j) itself, so the pair fails exactly when the minimum is lower.
    values = space.values
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    m = [list(map(scaled.__getitem__, row)) for row in space.ranks]
    return all(
        mi[j] <= min(map(add, mi, m[j]))
        for i, mi in enumerate(m)
        for j in range(i + 1, space.n)
    )


def classify(space: FiniteSpace) -> SpaceClass:
    """Strongest class the space satisfies; computed once per space.

    ULTRAMETRIC exactly when every threshold level of
    `FiniteSpace.levels` passes: "d < r" is transitive at every
    attained r iff d(x, z) <= max(d(x, y), d(y, z)) for all triples.
    Otherwise the triangle inequality decides between METRIC_ONLY and
    SEMIMETRIC_ONLY, by an O(n^3) scan over exact integers after a
    common-denominator rescale; that scan is the only triple scan, and
    it runs only on spaces that are not ultrametric.
    """
    require_valid(space)
    return space._class


def distance_set(space: FiniteSpace) -> list[Fraction]:
    """Strictly increasing list of all attained distances; always starts at 0."""
    require_valid(space)
    return list(space.values)


def diameter(space: FiniteSpace) -> Fraction:
    """Largest attained distance; 0 exactly for one-point spaces."""
    require_valid(space)
    return space.values[-1]


def open_ball(
    space: FiniteSpace, center: str, radius: Fraction | int | str
) -> frozenset[str]:
    """Points strictly closer than `radius` to `center` (always includes it)."""
    require_valid(space)
    r = as_rational(radius)
    if r <= ZERO:
        raise ValueError(f"radius must be positive, got {format_rational(r)}")
    return _ball(space, space.ranks[space.position(center)], r)


def _ball(space: FiniteSpace, ranks: tuple[int, ...], r: Fraction) -> frozenset[str]:
    cut = bisect_left(space.values, r)  # entries below r have ranks below cut
    return frozenset(label for label, k in zip(space.labels, ranks) if k < cut)


def _all_balls(space: FiniteSpace, r: Fraction) -> list[frozenset[str]]:
    return [_ball(space, row, r) for row in space.ranks]


def ball_family(space: FiniteSpace, radius: Fraction | int | str) -> BallFamily:
    """The deduplicated set of all open balls of one radius.

    For a finite space this is always a finite family covering every
    point; for ultrametric spaces at any attained radius it is moreover
    a partition (see `check_ball_coincidence`).
    """
    require_valid(space)
    r = as_rational(radius)
    if r <= ZERO:
        raise ValueError(f"radius must be positive, got {format_rational(r)}")
    distinct = dict.fromkeys(_all_balls(space, r))
    return BallFamily(radius=r, balls=canonical_blocks(distinct, space.labels))


def check_ball_coincidence(space: FiniteSpace, radius: Fraction | int | str) -> bool:
    """True iff any two intersecting balls of this radius are equal as sets.

    Guaranteed to hold on ultrametric spaces for every positive radius;
    callable on arbitrary spaces, where it may fail (which is exactly
    what the test suite probes).
    """
    require_valid(space)
    r = as_rational(radius)
    if r <= ZERO:
        raise ValueError(f"radius must be positive, got {format_rational(r)}")
    balls = list(dict.fromkeys(_all_balls(space, r)))
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if balls[i] & balls[j]:
                # distinct sets by construction, so any overlap is a failure
                return False
    return True
