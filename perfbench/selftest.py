"""Self-test of the output checkers: each accepts the program's real output
and rejects a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if any checker misses a corruption.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from ultragraph import cli  # noqa: E402

FAILURES: list[str] = []


def case(name: str, op: workloads.Op, corrupt) -> None:
    """`op` must pass on its own output and fail once `corrupt` edits it."""
    code = cli.main(op.argv)
    text = op.out.read_text()
    op.verify(text, code)
    try:
        op.verify(corrupt(text), code)
    except checks.CheckError as exc:
        print(f"ok    {name}: {exc}")
    else:
        FAILURES.append(name)
        print(f"MISS  {name}")


def edit_json(text: str, change) -> str:
    report = json.loads(text)
    change(report)
    return json.dumps(report)


def wrong_class(report: dict) -> None:
    report["class"] = "metric" if report["class"] == "ultrametric" else "ultrametric"


def drop_level(report: dict) -> None:
    del report["sweep"]["thresholds"][len(report["sweep"]["thresholds"]) // 2]


def merge_parts(report: dict) -> None:
    entry = next(e for e in report["sweep"]["thresholds"] if e["parts"] and len(e["parts"]) > 2)
    entry["parts"][0] += entry["parts"].pop()


def swap_witness(a: inputs.Doc, b: inputs.Doc):
    """Swap the images of two points so that the bijection breaks a pair."""
    da = sorted({e for row in a.matrix for e in row})
    db = sorted({e for row in b.matrix for e in row})
    where_b = {label: i for i, label in enumerate(b.labels)}

    def valid(phi: dict) -> bool:
        img = [where_b[phi[label]] for label in a.labels]
        return all(
            da.index(a.matrix[i][j]) == db.index(b.matrix[img[i]][img[j]])
            for i in range(a.n) for j in range(a.n)
        )

    def change(report: dict) -> None:
        phi = report["witness"]["bijection"]
        for x in a.labels:
            for y in a.labels:
                swapped = dict(phi, **{x: phi[y], y: phi[x]})
                if x != y and not valid(swapped):
                    report["witness"]["bijection"] = swapped
                    return
        raise RuntimeError("no swap breaks the witness")

    return change


def alter_entry(text: str) -> str:
    lines = text.splitlines()
    row = lines[3].split()
    row[1] = inputs.fmt(Fraction(row[1]) + Fraction(1, 7))
    lines[3] = " ".join(row)
    return "\n".join(lines) + "\n"


def main() -> int:
    rng = random.Random(7)
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        b = workloads.Builder(Path(tmp))
        ultra = inputs.ultrametric(rng, "ultra", 40, (3, 2, 2))
        b.analyze(ultra)
        b.analyze(inputs.perturbed(rng, "perturbed", 40, (2, 2)))
        b.analyze(inputs.grid_metric(rng, "grid", 30, 4))
        copy = inputs.relabelled(rng, ultra, "copy", "w", inputs.increasing_map(rng, sorted({e for r in ultra.matrix for e in r})))
        b.compare(ultra, copy)
        cubic = inputs.two_one_metric("cubic", nx.random_regular_graph(3, 12, seed=5), "a")
        cubic_copy = inputs.relabelled(rng, cubic, "cubic-copy", "b")
        other = inputs.relabelled(rng, inputs.two_one_metric("", nx.random_regular_graph(3, 12, seed=7), "c"), "other", "c")
        b.compare(cubic, cubic_copy)
        b.compare(cubic, other)
        b.transform(ultra, "truncate", Fraction(1))
        b.transform(ultra, "bound", Fraction(5, 2))
        b.transform(ultra, "unbound", Fraction(4))
        b.construct_padic(3, 3)
        b.construct_random(30, 4, 1)
        by_name = {op.name: op for op in b.ops}

        case("analyze: wrong class", by_name["analyze ultra"], lambda t: edit_json(t, wrong_class))
        case("analyze: wrong class (non-ultrametric)", by_name["analyze perturbed"], lambda t: edit_json(t, wrong_class))
        case("analyze: dropped level", by_name["analyze ultra"], lambda t: edit_json(t, drop_level))
        case("analyze: dropped level (non-ultrametric)", by_name["analyze grid"], lambda t: edit_json(t, drop_level))
        case("analyze: two parts merged", by_name["analyze ultra"], lambda t: edit_json(t, merge_parts))
        case("compare: two witness points swapped (ultrametric)", by_name["compare ultra copy"],
             lambda t: edit_json(t, swap_witness(ultra, copy)))
        case("compare: two witness points swapped (cubic)", by_name["compare cubic cubic-copy"],
             lambda t: edit_json(t, swap_witness(cubic, cubic_copy)))
        case("compare: flipped verdict", by_name["compare cubic other"],
             lambda t: edit_json(t, lambda r: r.update(weakly_similar=not r["weakly_similar"])))
        for kind in ("truncate", "bound", "unbound"):
            case(f"transform {kind}: one altered entry", by_name[f"transform {kind} ultra"], alter_entry)
        case("construct padic: one altered entry", by_name["construct padic 3 3"], alter_entry)
        case("construct random: one altered entry", by_name["construct random 30 4 1"], alter_entry)
    if FAILURES:
        print(f"{len(FAILURES)} corruption(s) not caught", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
