import random
from fractions import Fraction
from itertools import combinations

import pytest

from ultragraph import (
    SpaceClass,
    bound_transform,
    classify,
    counterexample_metric,
    diameter,
    diametrical_graph,
    distance_set,
    metric_from_graph,
    multipartite_parts,
    padic_space,
    random_ultrametric,
    safe_graph_predicate,
    space_from_distance_chain,
    truncate,
    unbound_transform,
)
from util import complete_graph, cycle_graph, graph_on, path_graph, triple_space

F = Fraction


def test_metric_from_graph_single_edge():
    s = metric_from_graph(graph_on("xy", [("x", "y")]))
    assert s.distance("x", "y") == 2


def test_metric_from_graph_path_rule():
    s = metric_from_graph(path_graph("abc"))
    assert s.distance("a", "b") == 2
    assert s.distance("b", "c") == 2
    assert s.distance("a", "c") == 1


def test_metric_from_graph_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="one edge"):
        metric_from_graph(graph_on("ab", []))
    with pytest.raises(ValueError, match="two vertices"):
        metric_from_graph(graph_on("a", []))


def test_metric_from_graph_is_metric_with_diameter_two():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        labels = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(labels, 2) if rng.random() < 0.5]
        if not edges:
            edges = [tuple(labels[:2])]
        s = metric_from_graph(graph_on(labels, edges))
        assert classify(s) >= SpaceClass.METRIC_ONLY
        assert diameter(s) == 2


def test_safe_graph_predicate_examples():
    assert safe_graph_predicate(path_graph("abc")) is True
    assert safe_graph_predicate(cycle_graph("abcde")) is False
    assert safe_graph_predicate(complete_graph("abcd")) is True


def test_safe_graph_predicate_rejects_empty_graph():
    with pytest.raises(ValueError, match="one edge"):
        safe_graph_predicate(graph_on("abc", []))


def test_counterexample_none_for_safe_graphs():
    assert counterexample_metric(path_graph("abc")) is None


def test_counterexample_for_the_five_cycle():
    c5 = cycle_graph("abcde")
    s = counterexample_metric(c5, F(5, 4), F(7, 4))
    assert diameter(s) == 2
    assert diametrical_graph(s) == c5
    assert classify(s) is SpaceClass.METRIC_ONLY


def test_counterexample_for_edge_plus_isolated_vertex():
    g = graph_on("xzy", [("x", "y")])
    s = counterexample_metric(g)
    assert diametrical_graph(s) == g
    assert classify(s) is not SpaceClass.ULTRAMETRIC
    assert classify(s) >= SpaceClass.METRIC_ONLY


def test_counterexample_is_deterministic():
    c5 = cycle_graph("abcde")
    assert counterexample_metric(c5) == counterexample_metric(c5)
    # canonical witness triple: first position-ordered triple connected
    # in the complement is (a, b, d) with center d
    s = counterexample_metric(c5)
    assert s.distance("a", "d") == F(5, 4)
    assert s.distance("d", "b") == F(7, 4)


def test_counterexample_rejects_bad_witness_values():
    c5 = cycle_graph("abcde")
    with pytest.raises(ValueError, match="between 1 and 2"):
        counterexample_metric(c5, F(1), F(3, 2))
    with pytest.raises(ValueError, match="between 1 and 2"):
        counterexample_metric(c5, F(3, 2), F(2))
    with pytest.raises(ValueError, match="distinct"):
        counterexample_metric(c5, F(3, 2), F(3, 2))


def test_truncate_examples():
    s = triple_space(2, 2, 1)
    assert truncate(s, 2) == s
    assert truncate(s, 5) == s
    assert distance_set(truncate(s, 1)) == [0, 1]
    t = truncate(s, F(3, 2))
    assert distance_set(t) == [0, 1, F(3, 2)]
    assert classify(t) is SpaceClass.ULTRAMETRIC


def test_truncate_rejects_nonpositive_cap():
    with pytest.raises(ValueError, match="positive"):
        truncate(triple_space(2, 2, 1), 0)


def test_bound_transform_pointwise_values():
    s = space_from_distance_chain([1])  # two points at distance 1
    assert bound_transform(s, 1).distance("q0", "q1") == F(1, 2)
    assert bound_transform(s, 1).distance("q0", "q0") == 0


def test_bound_transform_example_and_class():
    t = bound_transform(triple_space(2, 2, 1), 3)
    assert t.distance("a", "b") == 2
    assert t.distance("a", "c") == 2
    assert t.distance("b", "c") == F(3, 2)
    assert classify(t) is SpaceClass.ULTRAMETRIC
    assert all(e < 3 for row in t.matrix for e in row)


def test_unbound_transform_pointwise_value():
    s = space_from_distance_chain([F(1, 2)])
    assert unbound_transform(s, 1).distance("q0", "q1") == 1


def test_unbound_transform_example():
    t = unbound_transform(triple_space(2, 2, 1), 3)
    assert t.distance("a", "b") == 2
    assert t.distance("b", "c") == F(1, 2)
    assert classify(t) is SpaceClass.ULTRAMETRIC


def test_transforms_reject_non_ultrametric_input():
    with pytest.raises(ValueError, match="not ultrametric"):
        bound_transform(triple_space(2, 1, 1), 3)
    with pytest.raises(ValueError, match="not ultrametric"):
        unbound_transform(triple_space(2, 1, 1), 3)


def test_unbound_transform_requires_strict_majorant():
    s = triple_space(2, 2, 1)
    with pytest.raises(ValueError, match="exceed"):
        unbound_transform(s, 2)


def test_transform_round_trips_exactly():
    rng = random.Random(61)
    for _ in range(50):
        s = random_ultrametric(rng.randint(1, 10), rng.randint(1, 4), seed=rng.randrange(2**32))
        dstar = diameter(s) + F(rng.randint(1, 9), rng.randint(1, 9))
        assert bound_transform(unbound_transform(s, dstar), dstar) == s
        assert unbound_transform(bound_transform(s, dstar), dstar) == s


def test_transforms_preserve_the_diametrical_graph():
    rng = random.Random(67)
    for _ in range(40):
        s = random_ultrametric(rng.randint(2, 10), rng.randint(1, 4), seed=rng.randrange(2**32))
        dstar = diameter(s) + F(rng.randint(1, 5), 3)
        assert diametrical_graph(bound_transform(s, dstar)) == diametrical_graph(s)
        assert diametrical_graph(unbound_transform(s, dstar)) == diametrical_graph(s)


def test_padic_space_examples():
    p31 = padic_space(3, 1)
    assert all(
        p31.distance(u, v) == 1 for u, v in combinations(p31.labels, 2)
    )
    parts = multipartite_parts(diametrical_graph(p31))
    assert parts.block_count == 3
    assert all(len(b) == 1 for b in parts.blocks)

    p32 = padic_space(3, 2)
    assert p32.distance("0", "3") == F(1, 3)
    assert p32.distance("0", "1") == 1
    parts = multipartite_parts(diametrical_graph(p32))
    assert set(parts.blocks) == {
        frozenset({"0", "3", "6"}),
        frozenset({"1", "4", "7"}),
        frozenset({"2", "5", "8"}),
    }

    p23 = padic_space(2, 3)
    parts = multipartite_parts(diametrical_graph(p23))
    assert set(parts.blocks) == {
        frozenset({"0", "2", "4", "6"}),
        frozenset({"1", "3", "5", "7"}),
    }


def test_padic_space_rejects_bad_parameters():
    with pytest.raises(ValueError, match="prime"):
        padic_space(4, 1)
    with pytest.raises(ValueError, match="at least 1"):
        padic_space(3, 0)
    with pytest.raises(ValueError, match="budget"):
        padic_space(5, 7)
    with pytest.raises(ValueError, match="budget"):
        padic_space(2, 10**9)  # refused before 2**k is computed
    with pytest.raises(ValueError, match="budget"):
        padic_space(2**61 - 1, 1)  # refused before trial division runs


def test_distance_chain_examples():
    two = space_from_distance_chain([1])
    assert two.n == 2
    assert two.distance("q0", "q1") == 1

    s = space_from_distance_chain([2, 1])
    assert s.distance("q0", "q1") == 2
    assert s.distance("q0", "q2") == 2
    assert s.distance("q1", "q2") == 1

    chain = space_from_distance_chain([4, 2, 1])
    assert distance_set(chain) == [0, 1, 2, 4]
    assert classify(chain) is SpaceClass.ULTRAMETRIC


def test_distance_chain_distance_set_is_exact():
    rng = random.Random(71)
    for _ in range(30):
        m = rng.randint(1, 8)
        values = []
        top = F(rng.randint(5, 40), rng.randint(1, 4))
        for _ in range(m):
            values.append(top)
            top *= F(rng.randint(1, 3), 4)
        s = space_from_distance_chain(values)
        assert distance_set(s) == [0] + sorted(values)


def test_distance_chain_rejects_bad_input():
    with pytest.raises(ValueError, match="decreasing"):
        space_from_distance_chain([1, 2])
    with pytest.raises(ValueError, match="positive"):
        space_from_distance_chain([2, 0])
    with pytest.raises(ValueError, match="at least one"):
        space_from_distance_chain([])


def test_random_ultrametric_small_cases():
    assert random_ultrametric(1).n == 1
    two = random_ultrametric(2, seed=123)
    assert two.n == 2
    assert classify(two) is SpaceClass.ULTRAMETRIC


def test_random_ultrametric_refuses_more_than_2000_points():
    with pytest.raises(ValueError, match="budget"):
        random_ultrametric(2001)


def test_random_ultrametric_is_deterministic_per_seed():
    assert random_ultrametric(9, 3, seed=5) == random_ultrametric(9, 3, seed=5)
    assert random_ultrametric(9, 3, seed=5) != random_ultrametric(9, 3, seed=6)


def test_random_ultrametric_always_classifies_ultrametric():
    # pinned against the naive oracle in test_spaces; here the library
    # classifier screens a wider spread of shapes
    rng = random.Random(73)
    for _ in range(200):
        s = random_ultrametric(
            rng.randint(1, 20), rng.randint(1, 6), seed=rng.randrange(2**32)
        )
        assert classify(s) is SpaceClass.ULTRAMETRIC
