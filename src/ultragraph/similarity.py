"""Weak similarity and isometry search between finite spaces.

Two spaces are weakly similar when some point bijection matches them up
to a strictly increasing bijection between their distance sets; with
the identity rescaling this degenerates to isometry.  Because the
rescaling must be increasing, it is forced once the distance sets are
sorted, and the search reduces to finding a bijection preserving each
distance's rank.

Each pair takes one of two routes.  Weak similarity preserves
ultrametricity, so a pair with exactly one ultrametric space is
dissimilar.  Two ultrametric spaces are matched through their merge
trees, with canonical codes as in Aho, Hopcroft and Ullman's rooted-tree
isomorphism.  Every other pair goes to individualization-refinement
(McKay and Piperno, "Practical graph isomorphism, II"), whose work is
bounded by `WORK_BUDGET`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterator

from .errors import InternalInvariantError, SearchBudgetExceeded
from .spaces import (
    FiniteSpace,
    SpaceClass,
    classify,
    distance_set,
    require_valid,
)

# Refined pair entries (n * n per refinement round) that one search may
# spend before it gives up.  Counting entries rather than nodes bounds
# the time at every n: a pair of 2000-point spaces gets twelve rounds,
# and at about half a microsecond per entry the whole budget is under
# half a minute.
WORK_BUDGET = 50_000_000

Ranks = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WeakSimilarity:
    """Witness: a point bijection plus the forced distance rescaling.

    `bijection` holds (x, phi(x)) pairs in the first space's label
    order; `scaling` holds (value in D(second), value in D(first))
    pairs, ascending in both coordinates, with (0, 0) first.  For every
    pair of points, d_first(x, y) = scaling applied to
    d_second(phi(x), phi(y)).
    """

    bijection: tuple[tuple[str, str], ...]
    scaling: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bijection", tuple(map(tuple, self.bijection)))
        object.__setattr__(self, "scaling", tuple(map(tuple, self.scaling)))

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.bijection)

    @cached_property
    def _scale(self) -> dict[Fraction, Fraction]:
        return dict(self.scaling)

    def apply_scaling(self, value: Fraction) -> Fraction:
        try:
            return self._scale[value]
        except KeyError:
            raise ValueError(f"{value!r} is not in the witness's distance set") from None

    @property
    def isometric(self) -> bool:
        """Whether the rescaling is the identity, i.e. the bijection is an isometry."""
        return all(r == d for r, d in self.scaling)

    def inverted(self) -> "WeakSimilarity":
        """The witness for the two spaces taken in the other order."""
        return WeakSimilarity(
            bijection=tuple((y, x) for x, y in self.bijection),
            scaling=tuple((d, r) for r, d in self.scaling),
        )


def find_weak_similarity(a: FiniteSpace, b: FiniteSpace) -> WeakSimilarity | None:
    """Search for a weak similarity from a to b; None when there is none.

    The rescaling, if any, must send the k-th smallest distance of b to
    the k-th smallest of a, so the search looks for a bijection under
    which every pair's distance rank matches.  Ultrametric pairs are
    matched through their merge trees; other pairs by
    individualization-refinement, which raises `SearchBudgetExceeded`
    when it spends `WORK_BUDGET` refined pair entries without an
    answer.  The returned witness is re-verified pairwise before
    returning.
    """
    require_valid(a)
    require_valid(b)
    if a.n != b.n or len(a.values) != len(b.values):
        return None
    ultrametric = a.is_ultrametric
    if ultrametric != b.is_ultrametric:
        return None
    if ultrametric:
        phi = _match_merge_trees(a, b)
    else:
        phi = _individualize_and_refine(a.ranks, b.ranks, len(a.values))
    if phi is None:
        return None
    witness = WeakSimilarity(
        bijection=tuple(zip(a.labels, map(b.labels.__getitem__, phi))),
        scaling=tuple(zip(b.values, a.values)),
    )
    if _equation_failures(a, b, witness):
        raise InternalInvariantError("similarity search returned a bad witness")
    return witness


def is_isometric(a: FiniteSpace, b: FiniteSpace) -> bool:
    """Whether some bijection preserves distances exactly.

    Equivalent to a weak similarity whose forced rescaling is the
    identity.  Raises `SearchBudgetExceeded` as `find_weak_similarity` does.
    """
    witness = find_weak_similarity(a, b)
    return witness is not None and witness.isometric


def _merge_tree(
    space: FiniteSpace, intern: dict[tuple, int]
) -> tuple[list[int], list[list[int]]]:
    """Canonical codes and children of an ultrametric space's merge tree.

    Nodes 0..n-1 are the points, with code 0.  Every later node is a
    class of some "d < r" with two or more children; it comes after its
    children, and the last node is the root.  A node's code interns the
    rank of its diameter with the sorted codes of its children, so
    equal codes mean isomorphic labelled subtrees, and one `intern`
    table shared by two trees gives them one naming.
    """
    n = space.n
    codes = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    node = list(range(n))  # the largest node built so far around each point
    size = [1] * n
    everything = (len(space.values), (tuple(range(n)),))
    for k, classes in (*space.levels, everything):
        for members in classes:
            if size[node[members[0]]] == len(members):
                continue  # the class was already a node below rank k
            kids = list(dict.fromkeys(map(node.__getitem__, members)))
            key = (k - 1, tuple(sorted(map(codes.__getitem__, kids))))
            codes.append(intern.setdefault(key, len(intern) + 1))
            children.append(kids)
            size.append(len(members))
            for p in members:
                node[p] = len(codes) - 1
    return codes, children


def _match_merge_trees(a: FiniteSpace, b: FiniteSpace) -> list[int] | None:
    """Rank-preserving bijection between two ultrametric spaces, or None.

    In an ultrametric space d(x, y) is the diameter of the smallest
    class holding both points, so a bijection preserves every rank
    exactly when it carries the labelled merge tree of a onto that of
    b.  Matching children in code order builds it.
    """
    intern: dict[tuple, int] = {}
    code_a, children_a = _merge_tree(a, intern)
    code_b, children_b = _merge_tree(b, intern)
    if code_a[-1] != code_b[-1]:
        return None
    phi = [0] * a.n
    stack = [(len(code_a) - 1, len(code_b) - 1)]
    while stack:
        u, w = stack.pop()
        if not children_a[u]:
            phi[u] = w
            continue
        stack += zip(
            sorted(children_a[u], key=code_a.__getitem__),
            sorted(children_b[w], key=code_b.__getitem__),
        )
    return phi


class _Refinement:
    """Joint colour refinement of two rank matrices, with its work count."""

    def __init__(self, ra: Ranks, rb: Ranks, ranks: int):
        self.ra, self.rb, self.ranks = ra, rb, ranks
        self.nodes = self.work = 0

    def _signatures(self, rows: Ranks, colours: list[int]) -> list[tuple]:
        # colour * ranks + rank names each (colour, rank) pair by one int
        shifted = [c * self.ranks for c in colours]
        return [
            (c, tuple(sorted(map(add, shifted, row)))) for c, row in zip(colours, rows)
        ]

    def refine(
        self, ca: list[int], cb: list[int]
    ) -> tuple[list[int], list[int]] | None:
        """Refine both colourings until stable; None when they part ways.

        A point's new colour names its old colour with the multiset of
        (rank, colour) over its row.  Names come from the sorted
        signatures of both spaces together, so equal colours in a and b
        stand for equal signatures.
        """
        self.nodes += 1
        n = len(ca)
        count = len(set(ca))
        while True:
            if self.work + n * n > WORK_BUDGET:
                raise SearchBudgetExceeded(self.nodes, self.work, WORK_BUDGET)
            self.work += n * n
            sa = self._signatures(self.ra, ca)
            sb = self._signatures(self.rb, cb)
            cells = Counter(sa)
            if cells != Counter(sb):
                return None
            names = {s: c for c, s in enumerate(sorted(cells))}
            ca = list(map(names.__getitem__, sa))
            cb = list(map(names.__getitem__, sb))
            if len(names) == count:
                return ca, cb
            count = len(names)


def _individualized(
    ca: list[int], cb: list[int], colour: int
) -> Iterator[tuple[list[int], list[int]]]:
    """Give the first point of `colour` in a, and in turn each point of
    `colour` in b, one fresh colour."""
    fresh = max(ca) + 1
    ca = ca.copy()
    ca[ca.index(colour)] = fresh
    for y, c in enumerate(cb):
        if c == colour:
            child = cb.copy()
            child[y] = fresh
            yield ca, child


def _individualize_and_refine(ra: Ranks, rb: Ranks, ranks: int) -> list[int] | None:
    """Rank-preserving bijection between two rank matrices, or None.

    Refine from one colour; while a cell of a has two or more points,
    individualize the first point of the smallest such cell against
    every point of that cell in b and refine again, depth first.  A
    discrete colouring matches colours one to one, and its stable
    signatures say that the matching preserves every rank.
    """
    search = _Refinement(ra, rb, ranks)
    n = len(ra)
    branches = [iter([([0] * n, [0] * n)])]
    while branches:
        child = next(branches[-1], None)
        if child is None:
            branches.pop()
            continue
        refined = search.refine(*child)
        if refined is None:
            continue
        ca, cb = refined
        cells = Counter(ca)
        if len(cells) == n:
            position = {c: y for y, c in enumerate(cb)}
            return list(map(position.__getitem__, ca))
        _, colour = min((size, c) for c, size in cells.items() if size > 1)
        branches.append(_individualized(ca, cb, colour))
    return None


def _equation_failures(
    a: FiniteSpace, b: FiniteSpace, w: WeakSimilarity
) -> list[tuple[str, str]]:
    # With the scaling pinned to the sorted distance sets, the witness
    # equation for a pair is equality of its ranks in a and in b.
    phi = [b.position(w.mapping[x]) for x in a.labels]
    rb, labels = b.ranks, a.labels
    bad = []
    for i, row in enumerate(a.ranks):
        image = rb[phi[i]]
        if row != tuple(map(image.__getitem__, phi)):
            bad += (
                (labels[i], labels[j])
                for j in range(i + 1, a.n)
                if row[j] != image[phi[j]]
            )
    return bad


def _check_witness(a: FiniteSpace, b: FiniteSpace, w: WeakSimilarity) -> None:
    if {x for x, _ in w.bijection} != set(a.labels):
        raise ValueError("witness bijection does not cover the first space's points")
    targets = [y for _, y in w.bijection]
    if len(set(targets)) != len(targets) or set(targets) != set(b.labels):
        raise ValueError("witness bijection is not a bijection onto the second space")
    rho_values = [r for r, _ in w.scaling]
    d_values = [d for _, d in w.scaling]
    # equality with the sorted distance sets pins both coordinates as
    # strictly increasing and onto, and puts (0, 0) first
    if rho_values != distance_set(b) or d_values != distance_set(a):
        raise ValueError(
            "witness scaling is not an increasing bijection of the distance sets"
        )
    failures = _equation_failures(a, b, w)
    if failures:
        x, y = failures[0]
        raise ValueError(
            f"witness equation fails at ({x}, {y}): distance does not match "
            "the rescaled image distance"
        )


def verify_class_preservation(
    a: FiniteSpace, b: FiniteSpace, w: WeakSimilarity
) -> bool:
    """Check that weak similarity preserves ultrametricity, both ways.

    Rejects invalid witnesses with ValueError; for valid ones returns
    whether a and b are ultrametric together or not at all, which must
    always be True.
    """
    require_valid(a)
    require_valid(b)
    _check_witness(a, b, w)
    return (classify(a) is SpaceClass.ULTRAMETRIC) == (
        classify(b) is SpaceClass.ULTRAMETRIC
    )
