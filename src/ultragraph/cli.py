"""Command-line interface.

Subcommands: analyze, sweep, graph, construct, transform, compare,
predicate.  Exit codes: 0 success; 1 a check-style command answered
"no" (predicate false, compare dissimilar); 2 input or parse error;
3 internal invariant violation or any other unexpected exception (a
bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from ._canon import format_block
from .constructions import (
    bound_transform,
    counterexample_metric,
    metric_from_graph,
    padic_space,
    random_ultrametric,
    safe_graph_predicate,
    space_from_distance_chain,
    truncate,
    unbound_transform,
)
from .diametrical import (
    SweepReport,
    diametrical_graph,
    gap_condition,
    sweep,
    threshold_graph,
    verify_parts_are_balls,
)
from .errors import InternalInvariantError, ParseError
from .graphs import Partition
from .rationals import format_rational, parse_rational
from .serialization import emit_graph, emit_space, load_graph, load_space, to_dot
from .similarity import find_weak_similarity
from .spaces import FiniteSpace, SpaceClass, classify, distance_set, require_valid

_CLASS_NAMES = {
    SpaceClass.SEMIMETRIC_ONLY: "semimetric",
    SpaceClass.METRIC_ONLY: "metric",
    SpaceClass.ULTRAMETRIC: "ultrametric",
}


@dataclass(frozen=True)
class AnalysisReport:
    """Everything `analyze` reports about one space."""

    space: FiniteSpace
    space_class: SpaceClass
    diametrical_edges: int  # pairs at the diameter
    diametrical_parts: Partition | None
    sweep_report: SweepReport | None  # None for one-point spaces
    gap: bool | None  # None unless the triangle inequality holds and n >= 2
    parts_are_balls: bool | None  # None unless ultrametric and n >= 2


def analyze_space(space: FiniteSpace) -> AnalysisReport:
    require_valid(space)
    space_class = classify(space)
    many = space.n >= 2
    sweep_report = sweep(space) if many else None
    top = len(space.values) - 1  # rank of the diameter
    return AnalysisReport(
        space=space,
        space_class=space_class,
        # each diameter pair appears twice in the matrix; one point gives 1 // 2 == 0
        diametrical_edges=sum(row.count(top) for row in space.ranks) // 2,
        # the top threshold level is the diametrical graph
        diametrical_parts=sweep_report.entries[-1].parts if many else None,
        sweep_report=sweep_report,
        gap=(
            gap_condition(space)
            if many and space_class >= SpaceClass.METRIC_ONLY
            else None
        ),
        parts_are_balls=(
            verify_parts_are_balls(space)
            if many and space_class is SpaceClass.ULTRAMETRIC
            else None
        ),
    )


def _partition_lists(parts: Partition, order: Sequence[str]) -> list[list[str]]:
    position = {label: i for i, label in enumerate(order)}
    return [sorted(b, key=position.__getitem__) for b in parts.blocks]


def _sweep_json(report: SweepReport, order: Sequence[str]) -> dict:
    return {
        "verdict": report.verdict,
        "thresholds": [
            {
                "r": format_rational(entry.radius),
                "class": (
                    "not-multipartite" if entry.parts is None else "complete-multipartite"
                ),
                "k": entry.part_count,
                "parts": (
                    None
                    if entry.parts is None
                    else _partition_lists(entry.parts, order)
                ),
            }
            for entry in report.entries
        ],
    }


def _provenance(argv: Sequence[str]) -> dict:
    return {
        "tool": "ultragraph",
        "version": __version__,
        "command": " ".join(argv),
    }


def _report_json(report: AnalysisReport, argv: Sequence[str]) -> dict:
    order, values = report.space.labels, report.space.values
    return {
        "provenance": _provenance(argv),
        "points": list(order),
        "class": _CLASS_NAMES[report.space_class],
        "diameter": format_rational(values[-1]),
        "distance_set": [format_rational(v) for v in values],
        "diametrical_graph": {
            "edge_count": report.diametrical_edges,
            "multipartite": report.diametrical_parts is not None,
            "parts": (
                None
                if report.diametrical_parts is None
                else _partition_lists(report.diametrical_parts, order)
            ),
        },
        "sweep": (
            None
            if report.sweep_report is None
            else _sweep_json(report.sweep_report, order)
        ),
        "gap_condition": report.gap,
        "parts_are_balls": report.parts_are_balls,
    }


def _sweep_text(report: SweepReport, order: Sequence[str]) -> list[str]:
    lines = []
    verdict = "ultrametric" if report.verdict else "not ultrametric"
    lines.append(f"sweep verdict:     {verdict}")
    for entry in report.entries:
        if entry.parts is None:
            detail = "not multipartite"
        else:
            parts = " ".join(format_block(b, order) for b in entry.parts.blocks)
            detail = f"complete multipartite  k={entry.part_count}  parts: {parts}"
        lines.append(f"  r={format_rational(entry.radius)}  {detail}")
    return lines


def _flag(value: bool | None) -> str:
    return "n/a" if value is None else ("true" if value else "false")


def _report_text(report: AnalysisReport, argv: Sequence[str]) -> str:
    order, values = report.space.labels, report.space.values
    lines = [
        f"# ultragraph {__version__} -- {' '.join(argv)}",
        f"points:            {len(order)} ({' '.join(order)})",
        f"class:             {_CLASS_NAMES[report.space_class]}",
        f"diameter:          {format_rational(values[-1])}",
        "distance set:      " + " ".join(format_rational(v) for v in values),
    ]
    if report.diametrical_parts is None:
        summary = "not multipartite"
    else:
        blocks = " ".join(format_block(b, order) for b in report.diametrical_parts.blocks)
        summary = f"complete multipartite, parts: {blocks}"
    lines.append(f"diametrical graph: {report.diametrical_edges} edges; {summary}")
    lines.append(f"gap condition:     {_flag(report.gap)}")
    lines.append(f"parts are balls:   {_flag(report.parts_are_balls)}")
    if report.sweep_report is not None:
        lines.extend(_sweep_text(report.sweep_report, order))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    report = analyze_space(space)
    if args.json:
        text = json.dumps(_report_json(report, args.argv), indent=2) + "\n"
    else:
        text = _report_text(report, args.argv)
    _write_output(text, args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    report = sweep(space)
    if args.json:
        payload = {
            "provenance": _provenance(args.argv),
            "sweep": _sweep_json(report, space.labels),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(_sweep_text(report, space.labels)) + "\n"
    _write_output(text, args.output)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    if args.threshold is None:
        graph = diametrical_graph(space)
    else:
        graph = threshold_graph(space, parse_rational(args.threshold))
    text = to_dot(graph) if args.dot else emit_graph(graph)
    _write_output(text, args.output)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "metric-from-graph":
        space = metric_from_graph(load_graph(args.graph))
    elif args.kind == "padic":
        space = padic_space(args.p, args.k)
    elif args.kind == "chain":
        space = space_from_distance_chain([parse_rational(v) for v in args.values])
    else:  # random
        space = random_ultrametric(args.n, args.levels, args.seed)
    _write_output(emit_space(space), args.output)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    if args.kind == "bound":
        if args.dstar is None:
            raise ValueError("bound requires --dstar")
        result = bound_transform(space, parse_rational(args.dstar))
    elif args.kind == "unbound":
        if args.dstar is None:
            raise ValueError("unbound requires --dstar")
        result = unbound_transform(space, parse_rational(args.dstar))
    else:  # truncate
        if args.r is None:
            raise ValueError("truncate requires --r")
        result = truncate(space, parse_rational(args.r))
    _write_output(emit_space(result), args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    a = load_space(args.space_a)
    b = load_space(args.space_b)
    witness = find_weak_similarity(a, b)
    isometric = witness is not None and distance_set(a) == distance_set(b)
    if args.json:
        payload = {
            "provenance": _provenance(args.argv),
            "weakly_similar": witness is not None,
            "isometric": isometric,
            "witness": (
                None
                if witness is None
                else {
                    "bijection": {x: y for x, y in witness.bijection},
                    "scaling": [
                        [format_rational(r), format_rational(d)]
                        for r, d in witness.scaling
                    ],
                }
            ),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"weakly similar: {'yes' if witness is not None else 'no'}",
            f"isometric:      {'yes' if isometric else 'no'}",
        ]
        if witness is not None:
            pairs = " ".join(f"{x}->{y}" for x, y in witness.bijection)
            scale = " ".join(
                f"{format_rational(r)}->{format_rational(d)}"
                for r, d in witness.scaling
            )
            lines.append(f"bijection:      {pairs}")
            lines.append(f"scaling:        {scale}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0 if witness is not None else 1


def _cmd_predicate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    safe = safe_graph_predicate(graph)
    if safe:
        _write_output(
            "safe: every metric space with this diametrical graph is ultrametric\n",
            args.output,
        )
        return 0
    if args.counterexample:
        space = counterexample_metric(
            graph, parse_rational(args.a), parse_rational(args.b)
        )
        _write_output(emit_space(space), args.output)
    else:
        _write_output(
            "unsafe: some metric space with this diametrical graph is not ultrametric\n",
            args.output,
        )
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultragraph",
        description=(
            "Finite metric spaces over exact rationals: diametrical/threshold "
            "graphs, ultrametricity tests, constructions, comparisons."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ultragraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("analyze", help="full report for a space document")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")
    add_output(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("sweep", help="threshold-graph sweep report only")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")
    add_output(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("graph", help="diametrical (or threshold) graph of a space")
    p.add_argument("space")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of an edge list")
    p.add_argument("--threshold", default=None, metavar="R", help="use the threshold graph at R")
    add_output(p)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("construct", help="emit a generated space document")
    kinds = p.add_subparsers(dest="kind", required=True)
    q = kinds.add_parser("metric-from-graph", help="2/1 metric with a prescribed diametrical graph")
    q.add_argument("graph")
    add_output(q)
    q.set_defaults(handler=_cmd_construct)
    q = kinds.add_parser("padic", help="residues mod p**k with the p-adic distance")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    add_output(q)
    q.set_defaults(handler=_cmd_construct)
    q = kinds.add_parser("chain", help="nested space with a prescribed distance set")
    q.add_argument("--values", nargs="+", required=True, metavar="V")
    add_output(q)
    q.set_defaults(handler=_cmd_construct)
    q = kinds.add_parser("random", help="seeded random ultrametric space")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--levels", type=int, default=4)
    q.add_argument("--seed", type=int, default=0)
    add_output(q)
    q.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("transform", help="rescale or truncate a space document")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, flag in (("bound", "--dstar"), ("unbound", "--dstar"), ("truncate", "--r")):
        q = kinds.add_parser(kind)
        q.add_argument(flag, required=True)
        q.add_argument("space")
        add_output(q)
        # default the flag the other transforms use so the handler can
        # read both attributes unconditionally
        q.set_defaults(handler=_cmd_transform, dstar=None, r=None)

    p = sub.add_parser("compare", help="isometry and weak-similarity verdict")
    p.add_argument("space_a")
    p.add_argument("space_b")
    p.add_argument("--json", action="store_true")
    add_output(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("predicate", help="does this graph force ultrametricity?")
    p.add_argument("graph")
    p.add_argument("--counterexample", action="store_true")
    p.add_argument("--a", default="5/4", help="first witness distance in (1, 2)")
    p.add_argument("--b", default="7/4", help="second witness distance in (1, 2)")
    add_output(p)
    p.set_defaults(handler=_cmd_predicate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 2 if code not in (0, None) else 0
    args.argv = [parser.prog, *argv]
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # anything else is a bug; keep exit 1 meaning "answered no"
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
