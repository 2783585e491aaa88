"""The workloads: seeded documents and the CLI operations run on them.

One op is one `ultragraph` command line.  A round is the list of ops a
workload runs; every run attempts whole rounds.  Each round has an odd
number of ops, so that the median op time is the time of the middle op,
not the mean of two unlike ones.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import networkx as nx

import checks
import inputs
from inputs import Doc, fmt

# The cubic-graph pairs do not depend on --seed.  Search time on them
# varies by a factor of 30 between random instances of one size, so a
# fresh draw per run would swamp any change; these instances are drawn
# once, graph j on n vertices from networkx with seed 10n + j.  Graphs
# (18, 1) and (20, 1) are left out: their ops take 2-7 s and 29-41 s,
# which would make one round longer than a run.
_CUBIC_POOL = ((16, 0), (16, 1), (16, 2), (16, 3), (18, 0), (18, 2), (20, 0))
_PARTNER_SEED = 100


@dataclass
class Op:
    name: str
    argv: list[str]
    out: Path
    pairs: int
    verify: Callable[[str, int], None]  # (output text, exit code); raises CheckError
    verified: set = field(default_factory=set)

    def check(self, code: int) -> None:
        """Verify the op's output; an output identical to one verified before
        shares its verdict."""
        text = self.out.read_bytes()
        key = (hashlib.sha256(text).digest(), code)
        if key not in self.verified:
            self.verify(text.decode(), code)
            self.verified.add(key)


class Builder:
    """Writes documents into `work` and makes the ops that read them."""

    def __init__(self, work: Path):
        self.work = work
        self.ops: list[Op] = []

    def _path(self, doc: Doc) -> str:
        path = self.work / f"{doc.name}.txt"
        path.write_text(doc.text())
        return str(path)

    def _add(self, name: str, argv: list[str], pairs: int, verify) -> None:
        out = self.work / f"out-{len(self.ops)}.txt"
        self.ops.append(Op(name, [*argv, "-o", str(out)], out, pairs, verify))

    def analyze(self, doc: Doc) -> None:
        expected = functools.cache(lambda: checks.AnalyzeExpectation(doc))

        def verify(text: str, code: int) -> None:
            checks.expect(code == 0, f"{doc.name}: exit code {code}")
            expected().check(text)

        self._add(f"analyze {doc.name}", ["analyze", "--json", self._path(doc)], doc.pairs, verify)

    def compare(self, a: Doc, b: Doc) -> None:
        expected = functools.cache(lambda: checks.CompareExpectation(a, b))
        self._add(
            f"compare {a.name} {b.name}",
            ["compare", "--json", self._path(a), self._path(b)],
            a.pairs + b.pairs,
            lambda text, code: expected().check(text, code),
        )

    def transform(self, doc: Doc, kind: str, value: Fraction) -> None:
        expected = functools.cache(lambda: checks.transformed(doc, kind, value))
        flag = "--r" if kind == "truncate" else "--dstar"
        name = f"transform {kind} {doc.name}"

        def verify(text: str, code: int) -> None:
            checks.expect(code == 0, f"{name}: exit code {code}")
            checks.check_matrix(name, text, doc.labels, expected())

        self._add(name, ["transform", kind, flag, fmt(value), self._path(doc)], doc.pairs, verify)

    def construct_padic(self, p: int, k: int) -> None:
        name = f"construct padic {p} {k}"
        count = p**k

        def row(i: int) -> list[Fraction]:
            return [inputs.padic_distance(p, i, j) for j in range(count)]

        def verify(text: str, code: int) -> None:
            checks.expect(code == 0, f"{name}: exit code {code}")
            checks.check_matrix(name, text, [str(i) for i in range(count)], row)

        self._add(name, ["construct", "padic", "--p", str(p), "--k", str(k)], count * (count - 1) // 2, verify)

    def construct_random(self, n: int, levels: int, seed: int) -> None:
        name = f"construct random {n} {levels} {seed}"

        def verify(text: str, code: int) -> None:
            checks.expect(code == 0, f"{name}: exit code {code}")
            checks.check_random(name, text, n, levels)

        argv = ["construct", "random", "--n", str(n), "--levels", str(levels), "--seed", str(seed)]
        self._add(name, argv, n * (n - 1) // 2, verify)


def _analyze_ultra(b: Builder, rng: random.Random, seed: int) -> None:
    for n, branching in ((150, (2, 2, 2, 2, 2, 2)), (180, (3, 3, 3)), (200, (3, 2, 2)), (240, (5,))):
        b.analyze(inputs.ultrametric(rng, f"ultra{n}", n, branching))
    b.analyze(inputs.padic("padic-3-5", 3, 5))


def cubic_pairs(b: Builder) -> None:
    """Each pool graph against a shuffled copy and against another cubic graph."""
    for n, j in _CUBIC_POOL:
        g = nx.random_regular_graph(3, n, seed=10 * n + j)
        h = nx.random_regular_graph(3, n, seed=_PARTNER_SEED + 10 * n + j)
        a = inputs.two_one_metric(f"cubic{n}-{j}", g, "a")
        shuffle = random.Random(10 * n + j)
        copy = inputs.relabelled(shuffle, a, f"cubic{n}-{j}-copy", "b")
        other = inputs.relabelled(shuffle, inputs.two_one_metric("", h, "c"), f"cubic{n}-{j}-other", "c")
        b.compare(a, copy)
        b.compare(a, other)


def _compare(b: Builder, rng: random.Random, seed: int) -> None:
    cubic_pairs(b)
    shapes = (
        ((100, (2, 2, 2, 2, 2)), False),
        ((120, (3, 2, 2)), True),
        ((140, (3, 3, 2)), True),
        ((160, (2, 2, 2, 2)), True),
        ((200, (4, 3)), True),
    )
    for (n, branching), rescale in shapes:
        a = inputs.ultrametric(rng, f"ultra{n}", n, branching)
        values = sorted({e for row in a.matrix for e in row})
        image = inputs.increasing_map(rng, values) if rescale else None
        copy = inputs.relabelled(rng, a, f"ultra{n}-copy", "w", image)
        b.compare(a, copy)


def _between(doc: Doc, rng: random.Random) -> Fraction:
    """A truncation cap strictly between two attained distances."""
    values = sorted({e for row in doc.matrix for e in row})
    i = rng.randrange(1, len(values) - 1)
    return (values[i] + 2 * values[i + 1]) / 3


def _transform(b: Builder, rng: random.Random, seed: int) -> None:
    t400 = inputs.ultrametric(rng, "tree400", 400, (4, 3, 2))
    t320 = inputs.ultrametric(rng, "tree320", 320, (2, 2, 2, 2, 2))
    t350 = inputs.ultrametric(rng, "tree350", 350, (3, 2, 2, 2))
    t300 = inputs.ultrametric(rng, "tree300", 300, (5, 2))
    b.transform(t400, "truncate", _between(t400, rng))
    b.transform(t320, "truncate", _between(t320, rng))
    b.transform(t350, "bound", rng.choice((Fraction(5, 2), Fraction(7, 3), Fraction(9, 4))))
    b.transform(t300, "bound", rng.choice((Fraction(3), Fraction(11, 5))))
    diam = max(max(row) for row in t300.matrix)
    b.transform(t300, "unbound", diam + rng.choice((Fraction(1, 3), Fraction(2, 7), Fraction(5, 4))))
    b.construct_padic(5, 4)
    b.construct_random(700, 5, seed)


WORKLOADS = {
    "analyze-ultra": _analyze_ultra,
    "compare": _compare,
    "transform": _transform,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The round of `workload` for `seed`, its documents written to `work`."""
    b = Builder(work)
    WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"), seed)
    return b.ops


def warmups(workload: str, work: Path) -> list[Op]:
    """One small op of each command the workload runs, for lazy set-up."""
    b = Builder(work)
    rng = random.Random(0)
    tiny = inputs.ultrametric(rng, "warm-ultra", 12, (2, 2))
    if workload == "analyze-ultra":
        b.analyze(tiny)
    elif workload == "compare":
        b.compare(tiny, inputs.relabelled(rng, tiny, "warm-copy", "w"))
    else:
        b.transform(tiny, "truncate", _between(tiny, rng))
        b.transform(tiny, "bound", Fraction(2))
        b.transform(tiny, "unbound", Fraction(5))
        b.construct_padic(2, 3)
        b.construct_random(10, 3, 0)
    return b.ops
