"""Metric space constructions.

Covers the ways this package manufactures spaces: the 2/1 metric whose
diametrical graph is any prescribed nonempty graph, the counterexample
metric showing when a graph fails to force ultrametricity, entrywise
truncation, the bounded/unbounded rescaling pair, p-adic residue
spaces, nested-chain spaces with a prescribed distance set, and a
seeded random ultrametric generator for property tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .graphs import SimpleGraph, complement
from .rationals import ONE, ZERO, as_rational, format_rational, positive_rational
from .spaces import (
    FiniteSpace,
    SpaceClass,
    classify,
    diameter,
    require_valid,
)

TWO = Fraction(2)

# Largest n * n matrix a construction builds from a few parameters
# (n <= 2000); larger requests are refused before anything is allocated.
MAX_ENTRIES = 4_000_000


def metric_from_graph(g: SimpleGraph) -> FiniteSpace:
    """Distance 2 across edges, 1 across non-edges, 0 on the diagonal.

    Needs at least two vertices and one edge.  The result is a metric
    space of diameter exactly 2 whose diametrical graph is g itself.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if not g.edges:
        raise ValueError("graph must have at least one edge")
    verts = g.vertices
    rows = [
        [
            ZERO if u == v else (TWO if g.has_edge(u, v) else ONE)
            for v in verts
        ]
        for u in verts
    ]
    return FiniteSpace(verts, tuple(tuple(row) for row in rows))


def safe_graph_predicate(g: SimpleGraph) -> bool:
    """Whether every metric space with diametrical graph g must be ultrametric.

    Holds iff every connected component of the complement has at most
    two vertices, i.e. the complement is a matching plus isolated
    vertices: every vertex has at most one complement neighbour, so at
    least n - 2 neighbours in g.  A complement component with three or
    more vertices leaves room for a non-ultrametric metric realizing g
    (see `counterexample_metric`).  The graph must be nonempty.
    """
    if not g.edges:
        raise ValueError("graph must have at least one edge")
    return all(len(adj) >= g.n - 2 for adj in g.adjacency.values())


def _witness_triple(g: SimpleGraph) -> tuple[str, str, str]:
    """First vertex triple (by position) inducing a connected complement subgraph.

    Returns (x, z, y) with {x,z} and {z,y} complement edges; z is the
    lowest-position vertex adjacent to both others, x and y keep
    position order.  Deterministic, so counterexamples are reproducible.
    """
    co = complement(g)
    adjacency = co.adjacency
    for u1, u2, u3 in combinations(co.vertices, 3):
        for z, x, y in ((u1, u2, u3), (u2, u1, u3), (u3, u1, u2)):
            if x in adjacency[z] and y in adjacency[z]:
                return x, z, y
    raise ValueError("complement has no connected three-vertex subgraph")


def counterexample_metric(
    g: SimpleGraph,
    a: Fraction | int | str = Fraction(5, 4),
    b: Fraction | int | str = Fraction(7, 4),
) -> FiniteSpace | None:
    """A non-ultrametric metric with diametrical graph g, or None.

    Returns None exactly when `safe_graph_predicate(g)` holds.
    Otherwise picks the canonical witness triple (x, z, y) in the
    complement and builds the metric: 2 across edges of g, a on {x,z},
    b on {z,y}, and (a+b)/2 on every remaining pair.  All values lie in
    (1, 2], so the triangle inequality is automatic, the diameter stays
    2, and the diametrical graph stays g; either the pair {x,y} is a
    diameter edge dominating max(a, b), or the triangle x, z, y has
    three pairwise distinct sides. Both break the strong triangle
    inequality.
    """
    a = as_rational(a)
    b = as_rational(b)
    for name, value in (("a", a), ("b", b)):
        if not ONE < value < TWO:
            raise ValueError(
                f"{name} must lie strictly between 1 and 2, got {format_rational(value)}"
            )
    if a == b:
        raise ValueError("a and b must be distinct")
    if safe_graph_predicate(g):
        return None
    x, z, y = _witness_triple(g)
    mean = (a + b) / 2
    verts = g.vertices
    dist: dict[frozenset[str], Fraction] = {}
    for u, v in combinations(verts, 2):
        pair = frozenset((u, v))
        if pair in g.edges:
            dist[pair] = TWO
        elif pair == frozenset((x, z)):
            dist[pair] = a
        elif pair == frozenset((z, y)):
            dist[pair] = b
        else:
            dist[pair] = mean
    rows = [
        [ZERO if u == v else dist[frozenset((u, v))] for v in verts]
        for u in verts
    ]
    return FiniteSpace(verts, tuple(tuple(row) for row in rows))


def _map_values(space: FiniteSpace, images: list[Fraction]) -> FiniteSpace:
    """The space with every entry replaced by the image of its value;
    `images` lists them in the order of `space.values`."""
    rows = tuple(tuple(map(images.__getitem__, row)) for row in space.ranks)
    return FiniteSpace(space.labels, rows)


def truncate(space: FiniteSpace, r: Fraction | int | str) -> FiniteSpace:
    """Cap every distance at r (entrywise minimum).

    Preserves validity and ultrametricity; the new diameter is
    min(r, old diameter).
    """
    require_valid(space)
    r = positive_rational(r, "cap")
    return _map_values(space, [min(r, v) for v in space.values])


def _require_ultrametric(space: FiniteSpace) -> None:
    require_valid(space)
    if classify(space) is not SpaceClass.ULTRAMETRIC:
        raise ValueError("space is not ultrametric")


def bound_transform(space: FiniteSpace, dstar: Fraction | int | str) -> FiniteSpace:
    """Rescale an ultrametric space by t -> dstar*t/(1+t).

    The map is strictly increasing with fixed point 0, so the result is
    again ultrametric, with every distance strictly below dstar.
    Inverse of `unbound_transform` at the same dstar.
    """
    _require_ultrametric(space)
    dstar = positive_rational(dstar, "dstar")
    return _map_values(space, [dstar * t / (1 + t) for t in space.values])


def unbound_transform(space: FiniteSpace, dstar: Fraction | int | str) -> FiniteSpace:
    """Rescale an ultrametric space by s -> s/(dstar - s).

    Requires dstar strictly above every distance (a finite space always
    attains its diameter, so equality would divide by zero).  Inverse
    of `bound_transform` at the same dstar.
    """
    _require_ultrametric(space)
    dstar = as_rational(dstar)
    diam = diameter(space)
    if dstar <= diam:
        raise ValueError(
            f"dstar must exceed every distance; got {format_rational(dstar)} "
            f"with largest distance {format_rational(diam)}"
        )
    return _map_values(space, [s / (dstar - s) for s in space.values])


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def padic_space(p: int, k: int) -> FiniteSpace:
    """Residues mod p**k with distance p**(-v), v the p-adic valuation.

    Points are labelled "0" .. str(p**k - 1); the distance between
    distinct residues x and y is p**(-v) where p**v is the largest
    power of p dividing x - y (v < k for distinct residues).  Always
    ultrametric with diameter 1; the diametrical graph is complete
    p-partite with the residue classes mod p as parts.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    # checked before p**k or the primality test can run long: a prime
    # to a power past the budget's bit length is over budget
    if k >= MAX_ENTRIES.bit_length() or p ** (2 * k) > MAX_ENTRIES:
        raise ValueError(
            f"{p}**{k} points exceed the budget of {MAX_ENTRIES} matrix entries"
        )
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    count = p**k
    labels = tuple(str(i) for i in range(count))
    power = [Fraction(1, p**v) for v in range(k + 1)]

    def dist(x: int, y: int) -> Fraction:
        if x == y:
            return ZERO
        diff = abs(x - y)
        v = 0
        while diff % p == 0 and v < k:
            v += 1
            diff //= p
        return power[v]

    rows = tuple(
        tuple(dist(i, j) for j in range(count)) for i in range(count)
    )
    return FiniteSpace(labels, rows)


def space_from_distance_chain(
    values: list[Fraction | int | str],
) -> FiniteSpace:
    """Ultrametric space on m+1 points whose distance set is {0} plus `values`.

    `values` must be strictly decreasing and positive.  Points
    q0 .. qm are nested: d(qi, qj) = values[min(i, j)] for i != j, so
    each value is realized, and in any triple the two largest distances
    coincide.
    """
    vals = [as_rational(v) for v in values]
    if not vals:
        raise ValueError("need at least one distance value")
    if vals[-1] <= ZERO:
        raise ValueError("distance values must be positive")
    for prev, cur in zip(vals, vals[1:]):
        if cur >= prev:
            raise ValueError(
                f"values must be strictly decreasing: {format_rational(prev)} "
                f"followed by {format_rational(cur)}"
            )
    m = len(vals)
    labels = tuple(f"q{i}" for i in range(m + 1))
    rows = tuple(
        tuple(
            ZERO if i == j else vals[min(i, j)] for j in range(m + 1)
        )
        for i in range(m + 1)
    )
    return FiniteSpace(labels, rows)


_SCALE_STARTS = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(2, 3),
)
_SCALE_FACTORS = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
)


def _level_scales(rng: random.Random, levels: int) -> list[Fraction]:
    scales = [rng.choice(_SCALE_STARTS)]
    for _ in range(levels - 1):
        scales.append(scales[-1] * rng.choice(_SCALE_FACTORS))
    return scales


def random_ultrametric(n: int, levels: int = 4, seed: int = 0) -> FiniteSpace:
    """Seeded random ultrametric space on n points.

    Recursively splits the point set into at least two groups, at most
    `levels` times (the deepest level always splits down to single
    points); the distance between two points is the scale of the
    shallowest level separating them.  Scales are strictly decreasing
    rationals from a fixed grid, so arithmetic stays exact and the
    output always classifies as ultrametric.  Deterministic per seed.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    if n * n > MAX_ENTRIES:
        raise ValueError(f"{n} points exceed the budget of {MAX_ENTRIES} matrix entries")
    rng = random.Random(seed)
    labels = tuple(f"x{i}" for i in range(n))
    if n == 1:
        return FiniteSpace(labels, ((ZERO,),))
    scales = _level_scales(rng, levels)
    dist = [[ZERO] * n for _ in range(n)]

    def split(points: list[int], depth: int) -> None:
        if len(points) == 1:
            return
        if depth == levels - 1:
            groups = [[q] for q in points]
        else:
            shuffled = points[:]
            rng.shuffle(shuffled)
            count = rng.randint(2, len(points))
            groups = [[q] for q in shuffled[:count]]
            for q in shuffled[count:]:
                groups[rng.randrange(count)].append(q)
        scale = scales[depth]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for u in groups[gi]:
                    for v in groups[gj]:
                        dist[u][v] = dist[v][u] = scale
        for group in groups:
            split(group, depth + 1)

    split(list(range(n)), 0)
    return FiniteSpace(labels, tuple(tuple(row) for row in dist))
