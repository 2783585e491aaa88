"""Seeded input documents whose true answers are known by construction.

Everything here is written without the ultragraph package: the program
under test only ever sees the text of the documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import networkx as nx

ULTRAMETRIC = "ultrametric"
METRIC = "metric"
SEMIMETRIC = "semimetric"

# Ratios between consecutive levels of a hierarchy.  Mixing ratios below
# and above 1/2 makes the gap condition hold on some documents and fail
# on others; the primes keep the denominators non-trivial.
_LEVEL_RATIOS = (Fraction(2, 5), Fraction(3, 7), Fraction(4, 9), Fraction(3, 5), Fraction(5, 7))
_TOP_SCALES = (Fraction(7, 3), Fraction(11, 4), Fraction(13, 6), Fraction(9, 5))


def fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@dataclass
class Doc:
    """One space document plus what the benchmark knows about it."""

    name: str
    labels: list[str]
    matrix: list[list[Fraction]]
    truth: str
    graph: nx.Graph | None = None  # set for 2/1 metrics of a graph
    notes: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def text(self) -> str:
        lines = ["points: " + " ".join(self.labels)]
        lines += [" ".join(fmt(e) for e in row) for row in self.matrix]
        return "\n".join(lines) + "\n"


def _symmetric(n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(n)]


def ultrametric(rng: random.Random, name: str, n: int, branching: tuple[int, ...], prefix: str = "u") -> Doc:
    """Hierarchical ultrametric with len(branching) + 1 distance levels.

    The points, in random order, split into branching[0] groups of
    near-equal size at the largest scale, each group into branching[1]
    at the next, and so on; the last level splits every group into
    single points.  The distance of two points is the scale of the level
    that first separates them, and scales strictly decrease, so every
    triple has its two largest sides equal.  The shape is fixed by
    (n, branching), which keeps the work per document the same for every
    seed; the seed draws the point order and the scales.
    `notes["triples"]` lists equilateral triples at the smallest scale.
    """
    scales = [rng.choice(_TOP_SCALES)]
    for _ in branching:
        scales.append(scales[-1] * rng.choice(_LEVEL_RATIOS))
    points = list(range(n))
    rng.shuffle(points)
    m = _symmetric(n)
    triples: list[tuple[int, int, int]] = []

    def split(group: list[int], depth: int) -> None:
        if len(group) == 1:
            return
        if depth == len(branching):
            parts = [[p] for p in group]
            if len(group) >= 3:
                triples.append(tuple(group[:3]))
        else:
            count = min(branching[depth], len(group))
            size, extra = divmod(len(group), count)
            bounds = [i * size + min(i, extra) for i in range(count + 1)]
            parts = [group[a:b] for a, b in zip(bounds, bounds[1:])]
        s = scales[depth]
        for i, part in enumerate(parts):
            for other in parts[i + 1:]:
                for u in part:
                    row = m[u]
                    for v in other:
                        row[v] = s
                        m[v][u] = s
        for part in parts:
            split(part, depth + 1)

    split(points, 0)
    labels = [f"{prefix}{i}" for i in range(n)]
    return Doc(name, labels, m, ULTRAMETRIC, notes={"triples": triples})


def perturbed(rng: random.Random, name: str, n: int, branching: tuple[int, ...]) -> Doc:
    """An ultrametric document with one pair moved off the hierarchy.

    Takes an equilateral triple x, y, z at the smallest scale s and sets
    d(x, y) = c*s with 1 < c < 2.  Every other distance is at least s, so
    d(x, w) + d(w, y) >= 2s > c*s keeps the triangle inequality, while
    the triple x, y, z now has a unique largest side.
    """
    doc = ultrametric(rng, name, n, branching, prefix="v")
    x, y, _ = rng.choice(doc.notes["triples"])
    value = doc.matrix[x][y] * rng.choice((Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(5, 3)))
    doc.matrix[x][y] = doc.matrix[y][x] = value
    doc.truth = METRIC
    return doc


def grid_metric(rng: random.Random, name: str, n: int, steps: int) -> Doc:
    """Entries from the grid 1, 1 + 1/steps, ..., 2: metric outright.

    A planted triple with sides 2, 1, 1 makes the strong triangle
    inequality fail whatever the random entries are.
    """
    values = [1 + Fraction(i, steps) for i in range(steps + 1)]
    m = _symmetric(n)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice(values)
    x, y, z = rng.sample(range(n), 3)
    m[x][y] = m[y][x] = Fraction(2)
    m[x][z] = m[z][x] = m[y][z] = m[z][y] = Fraction(1)
    return Doc(name, [f"g{i}" for i in range(n)], m, METRIC)


def padic_distance(p: int, x: int, y: int) -> Fraction:
    """p**-v, where p**v is the largest power of p dividing x - y (0 if x = y)."""
    if x == y:
        return Fraction(0)
    diff, v = abs(x - y), 0
    while diff % p == 0:
        diff //= p
        v += 1
    return Fraction(1, p**v)


def padic(name: str, p: int, k: int) -> Doc:
    """Residues mod p**k with the p-adic distance."""
    count = p**k
    m = [[padic_distance(p, i, j) for j in range(count)] for i in range(count)]
    return Doc(name, [str(i) for i in range(count)], m, ULTRAMETRIC)


def relabelled(rng: random.Random, doc: Doc, name: str, prefix: str, rescale: dict | None = None) -> Doc:
    """Shuffled copy of `doc`; point i of the copy is point perm[i] of `doc`.

    `rescale` maps each distance value to its image (default identity).
    """
    n = doc.n
    perm = list(range(n))
    rng.shuffle(perm)
    src = doc.matrix
    image = rescale or {}
    m = [[image.get(src[perm[i]][perm[j]], src[perm[i]][perm[j]]) for j in range(n)] for i in range(n)]
    graph = None
    if doc.graph is not None:
        back = {p: i for i, p in enumerate(perm)}
        graph = nx.relabel_nodes(doc.graph, back)
    return Doc(name, [f"{prefix}{i}" for i in range(n)], m, doc.truth, graph=graph)


def increasing_map(rng: random.Random, values: list[Fraction]) -> dict[Fraction, Fraction]:
    """A random strictly increasing map of the sorted `values`, fixing 0."""
    steps = (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(2), Fraction(7, 2))
    image, total = {Fraction(0): Fraction(0)}, Fraction(0)
    for v in values:
        if v:
            total += rng.choice(steps)
            image[v] = total
    return image


def two_one_metric(name: str, graph: nx.Graph, prefix: str) -> Doc:
    """Distance 2 across edges of `graph` (nodes 0..n-1), 1 elsewhere."""
    n = graph.number_of_nodes()
    m = [[Fraction(0) if i == j else Fraction(1) for j in range(n)] for i in range(n)]
    for u, v in graph.edges():
        m[u][v] = m[v][u] = Fraction(2)
    return Doc(name, [f"{prefix}{i}" for i in range(n)], m, METRIC, graph=graph)
