"""Simple graphs: complements, components, complete-multipartite parts.

Vertices are names; edges are unordered pairs.  `multipartite_parts`
is the structural workhorse: it recognizes complete multipartite graphs
and recovers their (unique) part partition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from ._canon import canonical_blocks, check_names
from .errors import InternalInvariantError
from .spaces import FiniteSpace, diameter


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple graph: no loops, no multi-edges, unordered pairs."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        object.__setattr__(self, "vertices", vertices)
        if not vertices:
            raise ValueError("a graph needs at least one vertex")
        check_names(vertices, "vertex names")
        known = set(vertices)
        edges = frozenset(frozenset(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for edge in edges:
            if len(edge) != 2:
                raise ValueError(f"not an edge between two distinct vertices: {set(edge)!r}")
            if not edge <= known:
                raise ValueError(f"edge endpoint not among the vertices: {set(edge - known)!r}")

    @classmethod
    def from_edges(
        cls, vertices: Iterable[str], edges: Iterable[Iterable[str]] = ()
    ) -> "SimpleGraph":
        return cls(tuple(vertices), frozenset(frozenset(e) for e in edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        neighbors: dict[str, set[str]] = {v: set() for v in self.vertices}
        for edge in self.edges:
            u, v = tuple(edge)
            neighbors[u].add(v)
            neighbors[v].add(u)
        return {v: frozenset(adj) for v, adj in neighbors.items()}

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as position-ordered pairs, sorted; canonical for output."""
        pos = self._position
        pairs = [tuple(sorted(e, key=pos.__getitem__)) for e in self.edges]
        return sorted(pairs, key=lambda p: (pos[p[0]], pos[p[1]]))


@dataclass(frozen=True)
class Partition:
    """Nonempty, pairwise-disjoint blocks (builders check coverage)."""

    blocks: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        seen: set[str] = set()
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            if block & seen:
                raise ValueError("partition blocks must be pairwise disjoint")
            seen |= block

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def members(self) -> frozenset[str]:
        return frozenset().union(*self.blocks)


def complement(g: SimpleGraph) -> SimpleGraph:
    """Same vertices; a pair is an edge iff it was not one."""
    verts = g.vertices
    edges = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            pair = frozenset((verts[i], verts[j]))
            if pair not in g.edges:
                edges.add(pair)
    return SimpleGraph(verts, frozenset(edges))


def connected_components(g: SimpleGraph) -> Partition:
    """Maximal path-connected vertex sets; isolated vertices form singletons."""
    adjacency = g.adjacency
    unseen = set(g.vertices)
    blocks: list[frozenset[str]] = []
    while unseen:
        start = unseen.pop()
        component = {start}
        queue = deque([start])
        while queue:
            for w in adjacency[queue.popleft()]:
                if w not in component:
                    component.add(w)
                    queue.append(w)
        unseen -= component
        blocks.append(frozenset(component))
    return Partition(canonical_blocks(blocks, g.vertices))


def multipartite_parts(g: SimpleGraph) -> Partition | None:
    """The part partition if g is complete multipartite, else None.

    Vertices are grouped by identical closed non-neighborhood (the
    vertex plus everything it is not adjacent to); for a complete
    multipartite graph these groups are exactly the parts.  The
    grouping is then verified literally: no edge inside a group, every
    cross-group pair an edge.  Graphs needing fewer than two parts
    (empty graphs, single vertices) return None.
    """
    verts = g.vertices
    adjacency = g.adjacency
    all_verts = frozenset(verts)
    groups: dict[frozenset[str], set[str]] = {}
    for v in verts:
        key = all_verts - adjacency[v]  # closed non-neighborhood: contains v
        groups.setdefault(key, set()).add(v)
    if len(groups) < 2:
        return None
    block_of = {}
    for key, members in groups.items():
        block = frozenset(members)
        for v in members:
            block_of[v] = block
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u, v = verts[i], verts[j]
            adjacent = v in adjacency[u]
            if block_of[u] is block_of[v]:
                if adjacent:
                    return None
            elif not adjacent:
                return None
    return Partition(canonical_blocks(set(block_of.values()), verts))


def _bfs_distances(g: SimpleGraph, source: str) -> dict[str, int]:
    adjacency = g.adjacency
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def graph_metric(g: SimpleGraph) -> FiniteSpace:
    """Shortest-path distances of a connected graph as a FiniteSpace."""
    n = g.n
    rows: list[list[Fraction]] = []
    for v in g.vertices:
        dist = _bfs_distances(g, v)
        if len(dist) != n:
            missing = next(u for u in g.vertices if u not in dist)
            raise ValueError(
                f"graph is disconnected: no path between {v!r} and {missing!r}"
            )
        rows.append([Fraction(dist[u]) for u in g.vertices])
    return FiniteSpace(g.vertices, tuple(tuple(row) for row in rows))


def is_classical_diametrical(g: SimpleGraph) -> bool:
    """Whether every vertex has exactly one partner at graph diameter.

    Computes the same answer two ways and cross-checks them: (1) count
    each vertex's diameter-realizing partners in the shortest-path
    metric; (2) take the graph whose edges are the diameter pairs,
    complement it, and ask for complete multipartite parts all of size
    two.  The two routes provably agree for |V| >= 3; disagreement
    raises InternalInvariantError.

    |V| = 2 is a convention corner: the single-edge graph passes the
    unique-partner test, but route (2) degenerates because one part of
    size two is below the two-part minimum for a complete multipartite
    graph.  The unique-partner answer (True) is returned.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if connected_components(g).block_count != 1:
        raise ValueError("graph must be connected")
    space = graph_metric(g)
    diam = diameter(space)
    unique_partner = all(
        sum(1 for d in row if d == diam) == 1 for row in space.matrix
    )

    from .diametrical import diametrical_graph  # local import to avoid a cycle

    parts = multipartite_parts(complement(diametrical_graph(space)))
    paired_parts = parts is not None and all(len(b) == 2 for b in parts.blocks)
    if g.n >= 3 and unique_partner != paired_parts:
        raise InternalInvariantError(
            "diameter-partner test and complement-parts test disagree "
            f"on a {g.n}-vertex graph"
        )
    return unique_partner
