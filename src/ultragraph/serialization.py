"""Text formats for spaces and graphs, plus DOT export.

Space document: a `points:` header naming the points, then one matrix
row per point.  Entries are exact rational strings: "p/q", an integer,
or a decimal (parsed without floating-point rounding).

    points: a b c
    0 2 2
    2 0 1
    2 1 0

Graph document: a `vertices:` header, then one edge per line "u v".

    vertices: a b c
    a b
    b c

Blank lines and lines starting with '#' are ignored in both formats.
Emitters are canonical: emitting what was parsed from emitted output
reproduces it byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from ._canon import check_names
from .errors import ParseError
from .graphs import SimpleGraph
from .rationals import format_rational, parse_rational
from .spaces import FiniteSpace


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    return lines


def parse_space(text: str, origin: str = "<input>") -> FiniteSpace:
    """Parse a space document; ParseError messages carry origin:line."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"{origin}: empty document")
    lineno, header = lines[0]
    if not header.startswith("points:"):
        raise ParseError(f"{origin}:{lineno}: expected a 'points:' header line")
    labels = header[len("points:"):].split()
    if not labels:
        raise ParseError(f"{origin}:{lineno}: no point names after 'points:'")
    n = len(labels)
    body = lines[1:]
    if len(body) != n:
        raise ParseError(
            f"{origin}:{lineno}: expected {n} matrix rows for {n} points, found {len(body)}"
        )
    # Documents repeat a handful of distinct tokens: parse each once, and
    # let equal entries share one Fraction object.
    parsed: dict[str, Fraction] = {}
    rows = []
    for row_index, (row_lineno, line) in enumerate(body):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(
                f"{origin}:{row_lineno}: row {row_index + 1} has {len(tokens)} entries, expected {n}"
            )
        row = []
        for col, token in enumerate(tokens, start=1):
            value = parsed.get(token)
            if value is None:
                try:
                    value = parsed[token] = parse_rational(token)
                except ParseError as exc:
                    raise ParseError(f"{origin}:{row_lineno}: entry {col}: {exc}") from None
                except ValueError:
                    raise ParseError(
                        f"{origin}:{row_lineno}: entry {col} ({token!r}) is not a rational"
                    ) from None
            row.append(value)
        rows.append(tuple(row))
    try:
        return FiniteSpace(tuple(labels), tuple(rows))
    except ValueError as exc:
        raise ParseError(f"{origin}: {exc}") from None


def emit_space(space: FiniteSpace) -> str:
    """Canonical space document for a space; exact round trip via parse_space."""
    texts = [format_rational(v) for v in space.values]  # each distinct value once
    lines = ["points: " + " ".join(space.labels)]
    lines.extend(" ".join(map(texts.__getitem__, row)) for row in space.ranks)
    return "\n".join(lines) + "\n"


def parse_graph(text: str, origin: str = "<input>") -> SimpleGraph:
    """Parse a graph document; rejects loops, repeats, unknown endpoints."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"{origin}: empty document")
    lineno, header = lines[0]
    if not header.startswith("vertices:"):
        raise ParseError(f"{origin}:{lineno}: expected a 'vertices:' header line")
    vertices = header[len("vertices:"):].split()
    if not vertices:
        raise ParseError(f"{origin}:{lineno}: no vertex names after 'vertices:'")
    try:
        check_names(vertices, "vertex names")
    except ValueError as exc:
        raise ParseError(f"{origin}:{lineno}: {exc}") from None
    known = set(vertices)
    edges: set[frozenset[str]] = set()
    for edge_lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"{origin}:{edge_lineno}: expected an edge line 'u v', got {line!r}"
            )
        u, v = tokens
        for name in (u, v):
            if name not in known:
                raise ParseError(f"{origin}:{edge_lineno}: unknown vertex {name!r}")
        if u == v:
            raise ParseError(f"{origin}:{edge_lineno}: loop edge on {u!r}")
        pair = frozenset((u, v))
        if pair in edges:
            raise ParseError(f"{origin}:{edge_lineno}: duplicate edge {u} {v}")
        edges.add(pair)
    return SimpleGraph(tuple(vertices), frozenset(edges))


def emit_graph(g: SimpleGraph) -> str:
    """Canonical graph document: header plus position-sorted edge lines."""
    lines = ["vertices: " + " ".join(g.vertices)]
    for u, v in g.edge_list():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: SimpleGraph) -> str:
    """DOT rendering: vertices in declared order, edges position-sorted."""
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for u, v in g.edge_list():
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_space(path: str | Path) -> FiniteSpace:
    path = Path(path)
    return parse_space(path.read_text(), origin=str(path))


def load_graph(path: str | Path) -> SimpleGraph:
    path = Path(path)
    return parse_graph(path.read_text(), origin=str(path))
