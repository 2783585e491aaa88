"""Shared generators and naive oracles for the test suite.

The oracles here stay deliberately dumb: `naive_classify` walks every
ordered triple on raw Fractions, `naive_sweep` builds one frozenset
threshold graph per attained distance, and `naive_weak_similarity`
tries all bijections.  They are independent of the library's faster
code paths and exist to keep those honest.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from ultragraph import (
    FiniteSpace,
    SimpleGraph,
    SpaceClass,
    ThresholdEntry,
    ThresholdKind,
    distance_set,
    multipartite_parts,
    random_ultrametric,
)

ZERO = Fraction(0)


def naive_classify(space: FiniteSpace) -> SpaceClass:
    """Literal check of both triangle inequalities over all ordered triples."""
    n = space.n
    m = space.matrix
    triangle = True
    strong = True
    for x in range(n):
        for y in range(n):
            for z in range(n):
                dxy, dxz, dzy = m[x][y], m[x][z], m[z][y]
                if dxy > dxz + dzy:
                    triangle = False
                if dxy > max(dxz, dzy):
                    strong = False
    if not triangle:
        return SpaceClass.SEMIMETRIC_ONLY
    return SpaceClass.ULTRAMETRIC if strong else SpaceClass.METRIC_ONLY


def naive_threshold_graph(space: FiniteSpace, r: Fraction) -> SimpleGraph:
    """Pairs at distance >= r, compared as Fractions."""
    labels, m = space.labels, space.matrix
    edges = set()
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if m[i][j] >= r:
                edges.add(frozenset((labels[i], labels[j])))
    return SimpleGraph(labels, frozenset(edges))


def naive_sweep(space: FiniteSpace) -> list[ThresholdEntry]:
    """Classify a literal threshold graph at every attained positive distance."""
    entries = []
    for r in sorted({e for row in space.matrix for e in row}):
        if r == ZERO:
            continue
        graph = naive_threshold_graph(space, r)
        if not graph.edges:
            entries.append(ThresholdEntry(r, ThresholdKind.EMPTY, None))
            continue
        parts = multipartite_parts(graph)
        if parts is None:
            entries.append(ThresholdEntry(r, ThresholdKind.NOT_MULTIPARTITE, None))
        else:
            entries.append(ThresholdEntry(r, ThresholdKind.COMPLETE_MULTIPARTITE, parts))
    return entries


def space_from_upper(labels, entries) -> FiniteSpace:
    """Build a space from upper-triangle entries in combinations order."""
    labels = list(labels)
    n = len(labels)
    m = [[ZERO] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = Fraction(next(it))
    return FiniteSpace.from_rows(labels, m)


def triple_space(a, b, c) -> FiniteSpace:
    """Three points with d(a,b)=a, d(a,c)=b, d(b,c)=c."""
    return space_from_upper("abc", [a, b, c])


_GRID = [Fraction(8 + i, 8) for i in range(9)]  # 1 .. 2 in eighths


def random_grid_metric(rng: random.Random, n: int, base: Fraction = Fraction(1)) -> FiniteSpace:
    """Random symmetric matrix with values in [base, 2*base].

    Any such matrix satisfies the triangle inequality outright, so this
    draws from metric spaces that are usually not ultrametric.
    """
    values = [base * g for g in _GRID]
    labels = [f"p{i}" for i in range(n)]
    return space_from_upper(
        labels, [rng.choice(values) for _ in range(n * (n - 1) // 2)]
    )


def random_semimetric(rng: random.Random, n: int) -> FiniteSpace:
    """Random symmetric positive matrix; triangle inequality usually fails."""
    values = [Fraction(k, 2) for k in range(1, 13)]
    labels = [f"p{i}" for i in range(n)]
    return space_from_upper(
        labels, [rng.choice(values) for _ in range(n * (n - 1) // 2)]
    )


def random_space(kind: str, n: int, seed: int) -> FiniteSpace:
    """A seeded random ultrametric, grid metric or semimetric on n points."""
    if kind == "ultrametric":
        return random_ultrametric(n, 1 + seed % 4, seed=seed)
    rng = random.Random(seed)
    return random_grid_metric(rng, n) if kind == "grid" else random_semimetric(rng, n)


def random_metric_space(rng: random.Random, n: int) -> FiniteSpace:
    """A random metric space: half ultrametric, half grid metrics."""
    if rng.random() < 0.5:
        return random_ultrametric(n, rng.randint(1, 4), seed=rng.randrange(2**32))
    return random_grid_metric(rng, n)


def rescale_space(space: FiniteSpace, mapping: dict[Fraction, Fraction]) -> FiniteSpace:
    rows = tuple(tuple(mapping[e] for e in row) for row in space.matrix)
    return FiniteSpace(space.labels, rows)


def random_increasing_map(rng: random.Random, values) -> dict[Fraction, Fraction]:
    """Random strictly increasing image for a sorted distance set; 0 -> 0."""
    steps = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 2)]
    mapping = {ZERO: ZERO}
    total = ZERO
    for v in values:
        if v == ZERO:
            continue
        total += rng.choice(steps)
        mapping[v] = total
    return mapping


def shuffled_copy(rng: random.Random, space: FiniteSpace, prefix: str = "y") -> FiniteSpace:
    """Same space with points renamed and reordered."""
    n = space.n
    perm = list(range(n))
    rng.shuffle(perm)
    labels = tuple(f"{prefix}{i}" for i in range(n))
    rows = tuple(
        tuple(space.matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n)
    )
    return FiniteSpace(labels, rows)


def naive_weak_similarity(a: FiniteSpace, b: FiniteSpace) -> bool:
    """All-bijections search for a rank-preserving point bijection."""
    if a.n != b.n:
        return False
    da, db = distance_set(a), distance_set(b)
    if len(da) != len(db):
        return False
    rank_a = {v: i for i, v in enumerate(da)}
    rank_b = {v: i for i, v in enumerate(db)}
    n = a.n
    ra = [[rank_a[e] for e in row] for row in a.matrix]
    rb = [[rank_b[e] for e in row] for row in b.matrix]
    for perm in permutations(range(n)):
        if all(
            ra[i][j] == rb[perm[i]][perm[j]]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def graph_on(labels, pairs) -> SimpleGraph:
    return SimpleGraph.from_edges(labels, pairs)


def path_graph(labels) -> SimpleGraph:
    labels = list(labels)
    return graph_on(labels, zip(labels, labels[1:]))


def cycle_graph(labels) -> SimpleGraph:
    labels = list(labels)
    return graph_on(labels, list(zip(labels, labels[1:])) + [(labels[-1], labels[0])])


def complete_graph(labels) -> SimpleGraph:
    labels = list(labels)
    return graph_on(labels, combinations(labels, 2))


def all_graphs(n: int):
    """Every labeled graph on n vertices (2**C(n,2) of them)."""
    labels = [f"v{i}" for i in range(n)]
    pairs = list(combinations(labels, 2))
    for mask in range(1 << len(pairs)):
        yield graph_on(labels, [p for bit, p in enumerate(pairs) if mask >> bit & 1])


def all_matching_complements(n: int):
    """Complements of every matching (plus isolated vertices) on n labels.

    These are exactly the graphs whose complement components have at
    most two vertices each.
    """
    labels = [f"v{i}" for i in range(n)]

    def matchings(free):
        if not free:
            yield []
            return
        first, rest = free[0], free[1:]
        for tail in matchings(rest):  # first stays unmatched
            yield tail
        for i, other in enumerate(rest):
            reduced = rest[:i] + rest[i + 1 :]
            for tail in matchings(reduced):
                yield [(first, other)] + tail

    seen = set()
    for match in matchings(labels):
        key = frozenset(frozenset(p) for p in match)
        if key in seen:
            continue
        seen.add(key)
        matched = graph_on(labels, match)
        from ultragraph import complement

        yield complement(matched)


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    labels = [f"v{i}" for i in range(n)]
    return graph_on(
        labels, [e for e in combinations(labels, 2) if rng.random() < p]
    )


def random_connected_graph(rng: random.Random, n: int) -> SimpleGraph:
    from ultragraph import connected_components

    while True:
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        if connected_components(g).block_count == 1:
            return g
