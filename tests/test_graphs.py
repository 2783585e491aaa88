import random
from itertools import combinations

import pytest

from ultragraph import (
    SimpleGraph,
    complement,
    connected_components,
    diameter,
    diametrical_graph,
    graph_metric,
    is_classical_diametrical,
    multipartite_parts,
)
from util import (
    all_graphs,
    complete_graph,
    cycle_graph,
    graph_on,
    path_graph,
    random_connected_graph,
    random_graph,
)


def test_graph_structure_is_enforced():
    with pytest.raises(ValueError, match="distinct"):
        SimpleGraph.from_edges("aab", [])
    with pytest.raises(ValueError, match="two distinct"):
        SimpleGraph.from_edges("ab", [("a", "a")])
    with pytest.raises(ValueError, match="endpoint"):
        SimpleGraph.from_edges("ab", [("a", "z")])
    with pytest.raises(ValueError, match="two distinct"):
        SimpleGraph("abc", frozenset({frozenset("abc")}))


def test_frozen_edges_are_kept_and_others_frozen():
    edge = frozenset("ab")
    assert next(iter(SimpleGraph("abc", frozenset({edge})).edges)) is edge
    assert SimpleGraph("abc", [("b", "a")]).edges == {edge}


def test_complement_of_complete_graph_is_empty():
    assert complement(complete_graph("abc")).edges == frozenset()


def test_complement_is_an_involution():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        assert complement(complement(g)) == g


def test_complement_of_path():
    assert complement(path_graph("abc")).edges == {frozenset("ac")}


def test_connected_components_examples():
    empty = graph_on("abc", [])
    assert connected_components(empty).blocks == (
        frozenset("a"),
        frozenset("b"),
        frozenset("c"),
    )
    assert connected_components(path_graph("abc")).blocks == (frozenset("abc"),)
    scattered = graph_on("abcde", [("a", "b"), ("c", "d")])
    assert connected_components(scattered).blocks == (
        frozenset("ab"),
        frozenset("cd"),
        frozenset("e"),
    )


def test_connected_components_of_complete_graph_is_one_block():
    assert connected_components(complete_graph("abcdef")).block_count == 1


def test_multipartite_parts_examples():
    assert multipartite_parts(complete_graph("abc")).blocks == (
        frozenset("a"),
        frozenset("b"),
        frozenset("c"),
    )
    # the three-vertex path is the star with two leaves
    assert multipartite_parts(path_graph("abc")).blocks == (
        frozenset("ac"),
        frozenset("b"),
    )
    assert multipartite_parts(path_graph("abcd")) is None


def test_multipartite_parts_rejects_empty_and_single_vertex():
    assert multipartite_parts(graph_on("abc", [])) is None
    assert multipartite_parts(graph_on("a", [])) is None


def test_multipartite_parts_verified_literally():
    # whenever parts come back: no edge inside a block, every cross pair
    # an edge, and non-adjacency classes equal the blocks
    rng = random.Random(17)
    produced = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.95))
        parts = multipartite_parts(g)
        if parts is None:
            continue
        produced += 1
        block_of = {v: b for b in parts.blocks for v in b}
        assert set(block_of) == set(g.vertices)
        for u, v in combinations(g.vertices, 2):
            if block_of[u] is block_of[v]:
                assert not g.has_edge(u, v)
            else:
                assert g.has_edge(u, v)
    assert produced > 20  # the generator actually exercises the positive path


def test_graph_metric_examples():
    s = graph_metric(path_graph("abc"))
    assert s.distance("a", "c") == 2
    assert s.distance("a", "b") == 1
    assert s.distance("b", "c") == 1

    c4 = graph_metric(cycle_graph("abcd"))
    assert c4.distance("a", "c") == 2
    assert c4.distance("b", "d") == 2
    assert c4.distance("a", "b") == 1

    k4 = graph_metric(complete_graph("abcd"))
    assert all(
        k4.distance(u, v) == 1 for u, v in combinations("abcd", 2)
    )


def test_graph_metric_rejects_disconnected_naming_the_pair():
    g = graph_on("abcd", [("a", "b")])
    with pytest.raises(ValueError, match="no path between"):
        graph_metric(g)


@pytest.mark.parametrize(
    "labels,expected",
    [("abcd", True), ("abcdef", True), ("abc", False), ("abcde", False)],
)
def test_classical_diametrical_cycles_and_path(labels, expected):
    if len(labels) == 3 and expected is False:
        assert is_classical_diametrical(path_graph("abc")) is False
    else:
        assert is_classical_diametrical(cycle_graph(labels)) is expected


def test_classical_diametrical_two_vertex_convention():
    # the single edge passes the unique-partner definition; the
    # complement-parts oracle below holds only from three vertices on
    assert is_classical_diametrical(graph_on("ab", [("a", "b")])) is True


def test_classical_diametrical_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        is_classical_diametrical(graph_on("abc", [("a", "b")]))


def _unique_partner(g):
    space = graph_metric(g)
    diam = diameter(space)
    return all(sum(1 for d in row if d == diam) == 1 for row in space.matrix)


def _paired_complement_parts(g):
    parts = multipartite_parts(complement(diametrical_graph(graph_metric(g))))
    return parts is not None and all(len(b) == 2 for b in parts.blocks)


def test_both_diametrical_tests_agree_on_small_connected_graphs():
    rng = random.Random(41)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(3, 8))
        assert _unique_partner(g) == _paired_complement_parts(g)
        assert is_classical_diametrical(g) == _unique_partner(g)


def test_all_connected_graphs_up_to_five_vertices_agree():
    for n in range(3, 6):
        for g in all_graphs(n):
            if connected_components(g).block_count != 1:
                continue
            assert _unique_partner(g) == _paired_complement_parts(g)
