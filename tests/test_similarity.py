import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    FiniteSpace,
    SearchBudgetExceeded,
    SimpleGraph,
    WeakSimilarity,
    diametrical_graph,
    distance_set,
    find_weak_similarity,
    is_isometric,
    metric_from_graph,
    random_ultrametric,
    similarity,
    verify_class_preservation,
)
from util import (
    random_grid_metric,
    random_increasing_map,
    random_metric_space,
    random_semimetric,
    random_space,
    naive_weak_similarity,
    rescale_space,
    shuffled_copy,
    space_from_upper,
    triple_space,
)

F = Fraction


def test_find_weak_similarity_rescaled_example():
    a = triple_space(2, 2, 1)
    b = triple_space(20, 20, 3)
    w = find_weak_similarity(a, b)
    assert w is not None
    assert w.scaling == ((F(0), F(0)), (F(3), F(1)), (F(20), F(2)))


def test_find_weak_similarity_distinguishes_rank_patterns():
    assert find_weak_similarity(triple_space(2, 2, 1), triple_space(2, 1, 1)) is None


def test_find_weak_similarity_identity():
    a = triple_space(2, 2, 1)
    w = find_weak_similarity(a, a)
    assert w is not None
    assert w.mapping == {"a": "a", "b": "b", "c": "c"}
    assert all(r == d for r, d in w.scaling)


def test_is_isometric_examples():
    a = triple_space(2, 2, 1)
    assert is_isometric(a, a) is True
    assert is_isometric(a, triple_space(20, 20, 3)) is False
    assert is_isometric(a, triple_space(1, 2, 2)) is True


def test_verify_class_preservation_examples():
    a = triple_space(2, 2, 1)
    b = triple_space(20, 20, 3)
    assert verify_class_preservation(a, b, find_weak_similarity(a, b)) is True

    c = triple_space(2, 1, 1)
    d = triple_space(4, 3, 3)
    w = find_weak_similarity(c, d)
    assert w is not None
    assert verify_class_preservation(c, d, w) is True

    ident = find_weak_similarity(a, a)
    assert verify_class_preservation(a, a, ident) is True


def test_verify_class_preservation_rejects_bad_witnesses():
    a = triple_space(2, 2, 1)
    b = triple_space(20, 20, 3)
    w = find_weak_similarity(a, b)
    swapped = WeakSimilarity(
        bijection=(("a", "b"), ("b", "a"), ("c", "c")), scaling=w.scaling
    )
    with pytest.raises(ValueError, match="witness"):
        verify_class_preservation(a, b, swapped)
    bad_scale = WeakSimilarity(
        bijection=w.bijection,
        scaling=((F(0), F(0)), (F(3), F(2)), (F(20), F(1))),
    )
    with pytest.raises(ValueError, match="witness"):
        verify_class_preservation(a, b, bad_scale)


def _rescaled_pair(rng, n):
    a = random_metric_space(rng, n) if rng.random() < 0.7 else random_semimetric(rng, n)
    mapping = random_increasing_map(rng, distance_set(a))
    b = shuffled_copy(rng, rescale_space(a, mapping))
    return a, b


def test_rescaled_pairs_are_recognized_with_faithful_witnesses():
    rng = random.Random(83)
    for _ in range(120):
        n = rng.randint(2, 8)
        a, b = _rescaled_pair(rng, n)
        w = find_weak_similarity(a, b)
        assert w is not None
        assert verify_class_preservation(a, b, w) is True
        # the bijection must carry diameter pairs to diameter pairs
        ga = diametrical_graph(a)
        gb = diametrical_graph(b)
        mapped = {frozenset(w.mapping[v] for v in e) for e in ga.edges}
        assert mapped == gb.edges


def test_weak_similarity_is_an_equivalence_on_random_triples():
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = random_metric_space(rng, n)
        # reflexive
        assert find_weak_similarity(a, a) is not None
        b = shuffled_copy(rng, rescale_space(a, random_increasing_map(rng, distance_set(a))), "y")
        c = shuffled_copy(rng, rescale_space(b, random_increasing_map(rng, distance_set(b))), "z")
        wab = find_weak_similarity(a, b)
        wbc = find_weak_similarity(b, c)
        assert wab is not None and wbc is not None
        # symmetric: the inverted witness validates in the other order
        assert verify_class_preservation(b, a, wab.inverted()) is True
        # transitive: composing witnesses yields a valid witness a -> c
        composed = WeakSimilarity(
            bijection=tuple((x, wbc.mapping[wab.mapping[x]]) for x in a.labels),
            scaling=tuple(
                (rc, wab.apply_scaling(wbc.apply_scaling(rc)))
                for rc in distance_set(c)
            ),
        )
        assert verify_class_preservation(a, c, composed) is True


def test_search_agrees_with_all_bijections_oracle():
    rng = random.Random(97)
    positives = negatives = 0
    for _ in range(250):
        n = rng.randint(2, 6)
        if rng.random() < 0.5:
            a, b = _rescaled_pair(rng, n)
        else:
            a = random_metric_space(rng, n)
            b = shuffled_copy(rng, random_metric_space(rng, n))
        found = find_weak_similarity(a, b) is not None
        assert found == naive_weak_similarity(a, b)
        positives += found
        negatives += not found
    assert positives > 50 and negatives > 50


def test_search_handles_larger_spaces():
    rng = random.Random(101)
    s = random_ultrametric(24, 4, seed=424242)
    t = shuffled_copy(rng, rescale_space(s, random_increasing_map(rng, distance_set(s))))
    w = find_weak_similarity(s, t)
    assert w is not None
    assert verify_class_preservation(s, t, w) is True


def test_mismatched_sizes_and_distance_counts_return_none():
    a = triple_space(2, 2, 1)
    b = random_grid_metric(random.Random(0), 4)
    assert find_weak_similarity(a, b) is None
    c = FiniteSpace.from_rows("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert find_weak_similarity(a, c) is None  # |D| differs


def test_isometric_property_reads_the_scaling():
    a = triple_space(2, 2, 1)
    assert find_weak_similarity(a, triple_space(1, 2, 2)).isometric is True
    assert find_weak_similarity(a, triple_space(20, 20, 3)).isometric is False


def _two_one(graph, prefix: str) -> FiniteSpace:
    """The 2/1 metric of a networkx graph with at least one edge.

    Points come in sorted node order, so a relabelled copy of a graph
    gives a permuted matrix, not the same one under new names.
    """
    name = lambda v: f"{prefix}{v}"  # noqa: E731
    return metric_from_graph(
        SimpleGraph.from_edges(
            map(name, sorted(graph.nodes)), [(name(u), name(v)) for u, v in graph.edges]
        )
    )


def _agrees_with_networkx(nx, g, h):
    a, b = _two_one(g, "a"), _two_one(h, "b")
    w = find_weak_similarity(a, b)
    assert (w is not None) == nx.is_isomorphic(g, h)
    if w is not None:
        assert verify_class_preservation(a, b, w) is True
    return w is not None


def test_two_one_metrics_of_random_graphs_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(107)
    found = []
    for _ in range(300):
        n = rng.randint(2, 12)
        g = nx.gnm_random_graph(n, rng.randint(1, n * (n - 1) // 2), seed=rng.randrange(2**32))
        if rng.random() < 0.5:
            order = list(g.nodes)
            rng.shuffle(order)
            h = nx.relabel_nodes(g, dict(zip(g.nodes, order)))
        else:
            h = nx.gnm_random_graph(n, g.number_of_edges(), seed=rng.randrange(2**32))
        found.append(_agrees_with_networkx(nx, g, h))
    assert 100 < sum(found) < 250


@pytest.mark.parametrize("n", [16, 20, 24, 30])
def test_two_one_metrics_of_cubic_graphs_match_networkx(n):
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    for seed in range(3):
        g = nx.random_regular_graph(3, n, seed=10 * n + seed)
        order = list(g.nodes)
        rng.shuffle(order)
        assert _agrees_with_networkx(nx, g, nx.relabel_nodes(g, dict(zip(g.nodes, order))))
        _agrees_with_networkx(nx, g, nx.random_regular_graph(3, n, seed=100 + 10 * n + seed))


def _perturbed(rng, space):
    """One pair's distance moved to another attained value."""
    labels, rows = space.labels, [list(row) for row in space.matrix]
    i, j = rng.sample(range(space.n), 2)
    rows[i][j] = rows[j][i] = rng.choice([v for v in distance_set(space)[1:]])
    return FiniteSpace.from_rows(labels, rows)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 7),
    kinds=st.tuples(*[st.sampled_from(["ultrametric", "grid", "semimetric"])] * 2),
    relation=st.sampled_from(["copy", "unrelated", "perturbed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_agrees_with_all_bijections_property(n, kinds, relation, seed):
    rng = random.Random(seed)
    a = random_space(kinds[0], n, seed)
    if relation == "copy":
        b = shuffled_copy(rng, rescale_space(a, random_increasing_map(rng, distance_set(a))))
    elif relation == "unrelated":
        b = shuffled_copy(rng, random_space(kinds[1], n, seed + 1))
    else:
        b = shuffled_copy(rng, _perturbed(rng, a))
    w = find_weak_similarity(a, b)
    assert (w is not None) == naive_weak_similarity(a, b)
    if w is not None:
        assert verify_class_preservation(a, b, w) is True


def test_ultrametric_pairs_of_one_tree_shape_differ_by_rank_labels():
    # ((a b)_1 c)_2 beside (d e)_1, against the same shape with (d e)_2
    a = space_from_upper("abcde", [1, 2, 3, 3, 2, 3, 3, 3, 3, 1])
    b = space_from_upper("abcde", [1, 2, 3, 3, 2, 3, 3, 3, 3, 2])
    assert a.is_ultrametric and b.is_ultrametric
    assert len(distance_set(a)) == len(distance_set(b))
    assert find_weak_similarity(a, b) is None
    assert naive_weak_similarity(a, b) is False


def test_cubic_pair_that_backtracking_could_not_decide():
    # random_regular_graph(3, 24) seeds 0 and 100: not isomorphic
    nx = pytest.importorskip("networkx")
    g = nx.random_regular_graph(3, 24, seed=0)
    h = nx.random_regular_graph(3, 24, seed=100)
    assert _agrees_with_networkx(nx, g, h) is False


def test_shuffled_ultrametric_that_backtracking_could_not_decide():
    s = random_ultrametric(100, 5, seed=100)
    t = shuffled_copy(random.Random(100), s)
    w = find_weak_similarity(s, t)
    assert w is not None and w.isometric
    assert verify_class_preservation(s, t, w) is True
    # two points with different rank profiles: swapping their targets
    # cannot give another witness
    profile = {x: sorted(s.ranks[s.position(x)]) for x in s.labels}
    x = s.labels[0]
    y = next(y for y in s.labels if profile[y] != profile[x])
    swapped = WeakSimilarity(
        bijection=tuple(
            (p, w.mapping[{x: y, y: x}.get(p, p)]) for p in s.labels
        ),
        scaling=w.scaling,
    )
    with pytest.raises(ValueError, match="witness equation fails"):
        verify_class_preservation(s, t, swapped)


def _rook_and_shrikhande():
    cells = [(i, j) for i in range(4) for j in range(4)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    def graph(adjacent):
        name = lambda p: f"v{p[0]}{p[1]}"  # noqa: E731
        pairs = [(name(p), name(q)) for p, q in combinations(cells, 2) if adjacent(p, q)]
        return SimpleGraph.from_edges(map(name, cells), pairs)

    rook = graph(lambda p, q: p[0] == q[0] or p[1] == q[1])
    shrikhande = graph(lambda p, q: ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in steps)
    return metric_from_graph(rook), metric_from_graph(shrikhande)


def test_rook_graph_and_shrikhande_graph_are_not_similar():
    # both strongly regular with parameters (16, 6, 2, 2): colour
    # refinement alone leaves one cell, so only individualization tells them apart
    rook, shrikhande = _rook_and_shrikhande()
    assert [len(diametrical_graph(s).edges) for s in (rook, shrikhande)] == [48, 48]
    assert find_weak_similarity(rook, shrikhande) is None
    rng = random.Random(16)
    for s in (rook, shrikhande):
        t = shuffled_copy(rng, s)
        assert verify_class_preservation(s, t, find_weak_similarity(s, t)) is True


def test_exhausted_budget_raises_its_own_error(monkeypatch):
    rook, shrikhande = _rook_and_shrikhande()
    monkeypatch.setattr(similarity, "WORK_BUDGET", 1000)
    with pytest.raises(SearchBudgetExceeded) as info:
        find_weak_similarity(rook, shrikhande)
    assert not isinstance(info.value, ValueError)
    assert info.value.work <= 1000 < info.value.work + 16 * 16
    # ultrametric pairs take the merge-tree route, which has no budget
    s = random_ultrametric(60, 4, seed=5)
    assert find_weak_similarity(s, shuffled_copy(random.Random(5), s)) is not None
