"""Checks of the program's outputs against computations made apart from it.

Every check raises `CheckError` on the first disagreement.  Expected
values come from the benchmark's own documents (`inputs.Doc`) with
numpy and `fractions`, never from ultragraph.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import networkx as nx
import numpy as np

from inputs import METRIC, SEMIMETRIC, ULTRAMETRIC, Doc, fmt


class CheckError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def scaled(matrix: list[list[Fraction]]) -> np.ndarray:
    """Common-denominator integer matrix (order and sums are scale-free)."""
    scale = math.lcm(*{e.denominator for row in matrix for e in row})
    top = max(abs(e) for row in matrix for e in row) * scale
    expect(2 * top < 2**62, "scaled entries would overflow int64")
    return np.array([[e.numerator * (scale // e.denominator) for e in row] for row in matrix], dtype=np.int64)


def space_class(m: np.ndarray) -> str:
    """Strong triangle, else triangle inequality over all triples, one pivot at a time."""

    def holds(combine) -> bool:
        return not any((m > combine.outer(m[:, k], m[k, :])).any() for k in range(len(m)))

    return ULTRAMETRIC if holds(np.maximum) else METRIC if holds(np.add) else SEMIMETRIC


def below_classes(m: np.ndarray, r: int) -> list[frozenset[int]] | None:
    """Classes of the relation d < r if it is an equivalence, else None.

    The relation is reflexive and symmetric; it is transitive exactly
    when composing it with itself adds no pair.
    """
    rel = m < r
    as_float = rel.astype(np.float32)
    if ((as_float @ as_float > 0) != rel).any():
        return None
    return list({frozenset(np.flatnonzero(row).tolist()) for row in rel})


class AnalyzeExpectation:
    """What `analyze --json` must report for one document."""

    def __init__(self, doc: Doc):
        m = scaled(doc.matrix)
        found = space_class(m)
        expect(found == doc.truth, f"{doc.name}: construction says {doc.truth}, numpy says {found}")
        self.doc = doc
        self.cls = doc.truth
        values = sorted({e for row in doc.matrix for e in row})
        self.distances = [fmt(v) for v in values]
        self.diameter = values[-1]
        scale_of = {v: int(x) for v, x in zip((e for row in doc.matrix for e in row), m.flat)}
        self.levels = []
        for v in values[1:]:
            # a pair at distance v has an edge at level v, so the graph is never empty
            classes = below_classes(m, scale_of[v])
            if classes is None:
                self.levels.append((fmt(v), "not-multipartite", None))
            else:
                self.levels.append((fmt(v), "complete-multipartite", self._named(classes)))
        diam = scale_of[self.diameter]
        self.diametrical_edges = int(np.triu(m == diam, 1).sum())
        balls = below_classes(m, diam)
        self.diametrical_parts = None if balls is None else self._named(balls)
        metric = self.cls != SEMIMETRIC
        self.gap = all(2 * t < self.diameter for t in values[1:-1]) if metric else None
        self.balls = True if self.cls == ULTRAMETRIC else None

    def _named(self, classes: list[frozenset[int]]) -> set[frozenset[str]]:
        labels = self.doc.labels
        return {frozenset(labels[i] for i in c) for c in classes}

    def check(self, text: str) -> None:
        name = self.doc.name
        report = json.loads(text)
        expect(report["points"] == self.doc.labels, f"{name}: points differ")
        expect(report["class"] == self.cls, f"{name}: class {report['class']}, expected {self.cls}")
        expect(report["diameter"] == fmt(self.diameter), f"{name}: diameter {report['diameter']}")
        expect(report["distance_set"] == self.distances, f"{name}: distance set differs")
        dg = report["diametrical_graph"]
        expect(dg["edge_count"] == self.diametrical_edges, f"{name}: diametrical edge count {dg['edge_count']}")
        expect(dg["multipartite"] == (self.diametrical_parts is not None), f"{name}: diametrical multipartite flag")
        if self.diametrical_parts is not None:
            got = {frozenset(p) for p in dg["parts"]}
            expect(got == self.diametrical_parts, f"{name}: diametrical parts are not the diameter balls")
        sweep = report["sweep"]
        expect(sweep["verdict"] == (self.cls == ULTRAMETRIC), f"{name}: sweep verdict {sweep['verdict']}")
        entries = sweep["thresholds"]
        expect([e["r"] for e in entries] == [r for r, _, _ in self.levels], f"{name}: sweep levels differ")
        for entry, (r, kind, parts) in zip(entries, self.levels):
            expect(entry["class"] == kind, f"{name}: level {r} is {entry['class']}, expected {kind}")
            if parts is not None:
                got = {frozenset(p) for p in entry["parts"]}
                expect(got == parts, f"{name}: parts at level {r} are not the classes of d < {r}")
                expect(entry["k"] == len(parts), f"{name}: part count at level {r}")
        expect(report["gap_condition"] == self.gap, f"{name}: gap condition {report['gap_condition']}")
        expect(report["parts_are_balls"] == self.balls, f"{name}: parts_are_balls {report['parts_are_balls']}")


class CompareExpectation:
    """What `compare --json` must report for a pair: the verdict from
    networkx (2/1 metrics of graphs) or from the construction (b is a
    shuffled, increasingly rescaled copy of a)."""

    def __init__(self, a: Doc, b: Doc):
        self.name = f"{a.name}~{b.name}"
        self.a, self.b = a, b
        self.similar = nx.is_isomorphic(a.graph, b.graph) if a.graph is not None else True
        self.da = sorted({e for row in a.matrix for e in row})
        self.db = sorted({e for row in b.matrix for e in row})
        rank_a, rank_b = {v: i for i, v in enumerate(self.da)}, {v: i for i, v in enumerate(self.db)}
        self.rank_a = np.array([[rank_a[e] for e in row] for row in a.matrix])
        self.rank_b = np.array([[rank_b[e] for e in row] for row in b.matrix])

    def check(self, text: str, code: int) -> None:
        """The verdict, and any witness re-verified pair by pair."""
        name, a, b = self.name, self.a, self.b
        report = json.loads(text)
        expect(report["weakly_similar"] == self.similar, f"{name}: weakly_similar {report['weakly_similar']}")
        expect(code == (0 if self.similar else 1), f"{name}: exit code {code}")
        expect(report["isometric"] == (self.similar and self.da == self.db), f"{name}: isometric {report['isometric']}")
        witness = report["witness"]
        if not self.similar:
            expect(witness is None, f"{name}: witness for a dissimilar pair")
            return
        scaling = [(Fraction(r), Fraction(d)) for r, d in witness["scaling"]]
        expect([r for r, _ in scaling] == self.db and [d for _, d in scaling] == self.da,
               f"{name}: scaling is not the increasing bijection of the distance sets")
        bijection = witness["bijection"]
        expect(sorted(bijection) == sorted(a.labels) and sorted(bijection.values()) == sorted(b.labels),
               f"{name}: witness is not a bijection")
        where_b = {label: i for i, label in enumerate(b.labels)}
        phi = np.array([where_b[bijection[label]] for label in a.labels])
        bad = np.argwhere(self.rank_a != self.rank_b[np.ix_(phi, phi)])
        expect(len(bad) == 0, f"{name}: witness fails at pair {bad[:1].tolist()}")


def matrix_rows(name: str, text: str, labels: list[str]):
    """The rows of an output space document with the given points, one at a
    time, so that a check holds no more than a row of the matrix."""
    lines = (ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#"))
    header = next(lines, [])
    expect(header[:1] == ["points:"] and header[1:] == labels, f"{name}: output points differ")
    cache: dict[str, Fraction] = {}
    count = 0
    for tokens in lines:
        expect(count < len(labels) and len(tokens) == len(labels), f"{name}: output matrix shape")
        for token in tokens:
            if token not in cache:
                cache[token] = Fraction(token)
        yield [cache[token] for token in tokens]
        count += 1
    expect(count == len(labels), f"{name}: output matrix shape")


def check_matrix(name: str, text: str, labels: list[str], expected_row) -> None:
    """The output document holds exactly the entries `expected_row(i)`."""
    for i, row in enumerate(matrix_rows(name, text, labels)):
        want = expected_row(i)
        if row != want:
            j = next(j for j, (x, y) in enumerate(zip(row, want)) if x != y)
            raise CheckError(f"{name}: entry ({labels[i]}, {labels[j]}) is {fmt(row[j])}, expected {fmt(want[j])}")


def transformed(doc: Doc, kind: str, value: Fraction):
    """Rows of `transform <kind>` on `doc` with --r or --dstar `value`:
    min(r, t), d*.t/(1+t) or s/(d*-s) of each entry."""
    image = {}
    for t in {e for row in doc.matrix for e in row}:
        if kind == "truncate":
            image[t] = min(value, t)
        elif kind == "bound":
            image[t] = value * t / (1 + t)
        else:
            image[t] = t / (value - t)
    return lambda i: [image[e] for e in doc.matrix[i]]


def check_random(name: str, text: str, n: int, levels: int) -> None:
    """`construct random`: n points x0.., an ultrametric with at most `levels`
    positive distances.  The strong triangle inequality depends only on
    the order of the distances, so it is checked on their ranks."""
    ids: dict[Fraction, int] = {}
    m = np.empty((n, n), dtype=np.int16)
    for i, row in enumerate(matrix_rows(name, text, [f"x{i}" for i in range(n)])):
        m[i] = [ids.setdefault(e, len(ids)) for e in row]
        expect(len(ids) <= levels + 1, f"{name}: more than {levels} distances")
    values = sorted(ids)
    rank = np.empty(len(values), dtype=np.int16)
    rank[[ids[v] for v in values]] = np.arange(len(values))
    m = rank[m]
    expect(values[0] == 0 and (np.diag(m) == 0).all() and (m == m.T).all(), f"{name}: not symmetric with zero diagonal")
    expect((m + np.eye(n, dtype=np.int16) > 0).all(), f"{name}: non-positive off-diagonal entry")
    expect(space_class(m) == ULTRAMETRIC, f"{name}: not ultrametric")
