import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    FiniteSpace,
    SpaceClass,
    ball_family,
    classify,
    diameter,
    diametrical_graph,
    distance_set,
    gap_condition,
    metric_from_graph,
    multipartite_parts,
    padic_space,
    random_ultrametric,
    sweep,
    threshold_graph,
    truncate,
    verify_parts_are_balls,
)
from util import (
    naive_classify,
    naive_sweep,
    naive_threshold_graph,
    path_graph,
    random_grid_metric,
    random_semimetric,
    random_space,
    space_from_upper,
    triple_space,
)

F = Fraction


def test_diametrical_graph_one_point_space_is_empty():
    g = diametrical_graph(random_ultrametric(1))
    assert g.edges == frozenset()
    assert g.vertices == ("x0",)


def test_diametrical_graph_of_221_is_the_two_leaf_star():
    g = diametrical_graph(triple_space(2, 2, 1))
    assert g.edges == {frozenset("ab"), frozenset("ac")}


def test_diametrical_graph_inverts_metric_from_graph():
    g = path_graph("abcd")
    assert diametrical_graph(metric_from_graph(g)) == g


def test_threshold_graph_examples():
    s = triple_space(2, 2, 1)
    assert threshold_graph(s, 1).edges == {
        frozenset("ab"),
        frozenset("ac"),
        frozenset("bc"),
    }
    assert threshold_graph(s, diameter(s)) == diametrical_graph(s)
    assert threshold_graph(s, 3).edges == frozenset()


def test_threshold_graph_rejects_nonpositive_threshold():
    with pytest.raises(ValueError, match="positive"):
        threshold_graph(triple_space(2, 2, 1), 0)


def test_threshold_at_diameter_equals_diametrical_graph():
    rng = random.Random(11)
    for _ in range(60):
        s = (
            random_grid_metric(rng, rng.randint(2, 7))
            if rng.random() < 0.5
            else random_semimetric(rng, rng.randint(2, 7))
        )
        assert threshold_graph(s, diameter(s)) == diametrical_graph(s)


def test_threshold_edges_shrink_as_the_threshold_grows():
    rng = random.Random(13)
    for _ in range(40):
        s = random_grid_metric(rng, rng.randint(2, 7))
        values = distance_set(s)[1:]
        for r1, r2 in zip(values, values[1:]):
            assert threshold_graph(s, r2).edges <= threshold_graph(s, r1).edges


def test_sweep_ultrametric_example():
    report = sweep(triple_space(2, 2, 1))
    assert report.verdict is True
    by_radius = {e.radius: e for e in report.entries}
    assert set(by_radius) == {1, 2}
    assert by_radius[F(1)].parts is not None
    assert by_radius[F(1)].part_count == 3
    assert by_radius[F(2)].part_count == 2
    assert set(by_radius[F(2)].parts.blocks) == {frozenset("a"), frozenset("bc")}


def test_sweep_metric_only_example():
    report = sweep(triple_space(2, 1, 1))
    assert report.verdict is False
    top = [e for e in report.entries if e.radius == 2][0]
    assert top.parts is None


def test_sweep_two_point_space():
    report = sweep(space_from_upper("ab", [F(7, 3)]))
    assert report.verdict is True
    assert len(report.entries) == 1
    assert report.entries[0].part_count == 2


def test_sweep_rejects_single_point():
    with pytest.raises(ValueError, match="two points"):
        sweep(random_ultrametric(1))


def test_sweep_thresholds_are_the_positive_distances_ascending():
    rng = random.Random(19)
    for _ in range(30):
        s = random_grid_metric(rng, rng.randint(2, 7))
        report = sweep(s)
        assert [e.radius for e in report.entries] == distance_set(s)[1:]


def test_sweep_verdict_matches_classification_oracle():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 8)
        s = (
            random_grid_metric(rng, n)
            if rng.random() < 0.5
            else random_ultrametric(n, rng.randint(1, 4), seed=rng.randrange(2**32))
        )
        assert sweep(s).verdict == (classify(s) is SpaceClass.ULTRAMETRIC)


def test_sweep_parts_stay_within_point_count_for_ultrametrics():
    rng = random.Random(37)
    for _ in range(50):
        s = random_ultrametric(rng.randint(2, 12), rng.randint(1, 4), seed=rng.randrange(2**32))
        report = sweep(s)
        for entry in report.entries:
            assert entry.parts is not None
            assert 2 <= entry.part_count <= s.n


def test_verify_parts_are_balls_examples():
    assert verify_parts_are_balls(triple_space(2, 2, 1)) is True
    assert verify_parts_are_balls(padic_space(3, 2)) is True
    assert verify_parts_are_balls(space_from_upper("ab", [F(1)])) is True


def test_verify_parts_are_balls_enforces_preconditions():
    with pytest.raises(ValueError, match="not ultrametric"):
        verify_parts_are_balls(triple_space(2, 1, 1))
    with pytest.raises(ValueError, match="two points"):
        verify_parts_are_balls(random_ultrametric(1))


def test_ultrametric_dichotomy_on_random_spaces():
    rng = random.Random(43)
    for _ in range(100):
        s = random_ultrametric(rng.randint(2, 16), rng.randint(1, 4), seed=rng.randrange(2**32))
        g = diametrical_graph(s)
        assert g.edges
        assert multipartite_parts(g) is not None
        assert verify_parts_are_balls(s)


def test_gap_condition_examples():
    assert gap_condition(space_from_upper("abc", [3, 3, 1])) is True  # D = {0,1,3}
    assert gap_condition(triple_space(2, 2, 1)) is False  # 2*1 == 2 is not enough
    assert gap_condition(space_from_upper("ab", [F(5)])) is True  # vacuous


def test_gap_condition_enforces_preconditions():
    with pytest.raises(ValueError, match="triangle"):
        gap_condition(triple_space(6, 2, 2))
    with pytest.raises(ValueError, match="two points"):
        gap_condition(random_ultrametric(1))


def _gapped_metric(rng, parts, diam=F(1)):
    """Multipartite pattern: cross distance `diam`, intra distances < diam/2.

    Intra-part values sit in [diam/5, 2*diam/5], so triangles inside a
    part close automatically and the gap condition holds; mixed triples
    have two sides equal to the diameter.  Usually not ultrametric.
    """
    labels = [f"p{i}" for i in range(sum(parts))]
    block_of = []
    for b, size in enumerate(parts):
        block_of += [b] * size
    grid = [diam * F(5 + i, 25) for i in range(6)]  # diam/5 .. 2diam/5
    n = len(labels)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = diam if block_of[i] != block_of[j] else rng.choice(grid)
            rows[i][j] = rows[j][i] = d
    return FiniteSpace.from_rows(labels, rows)


def test_gap_condition_spaces_keep_the_parts_are_balls_structure():
    # metric spaces whose sub-diameter distances are all below half the
    # diameter have a complete multipartite diametrical graph whose
    # parts are the diameter-radius balls, ultrametric or not
    rng = random.Random(47)
    non_ultra = 0
    for _ in range(80):
        count = rng.randint(2, 4)
        parts = [rng.randint(1, 4) for _ in range(count)]
        s = _gapped_metric(rng, parts)
        assert classify(s) >= SpaceClass.METRIC_ONLY
        assert gap_condition(s) is True
        got = multipartite_parts(diametrical_graph(s))
        assert got is not None
        assert set(got.blocks) == set(ball_family(s, diameter(s)).balls)
        if classify(s) is SpaceClass.METRIC_ONLY:
            non_ultra += 1
    assert non_ultra > 10  # the family genuinely leaves ultrametric territory


def test_truncation_matches_threshold_graphs_for_ultrametrics():
    rng = random.Random(53)
    for _ in range(60):
        s = random_ultrametric(rng.randint(2, 12), rng.randint(1, 4), seed=rng.randrange(2**32))
        for r in distance_set(s)[1:]:
            assert diametrical_graph(truncate(s, r)) == threshold_graph(s, r)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["ultrametric", "grid", "semimetric"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_and_threshold_graphs_match_the_literal_oracle(kind, n, seed):
    s = random_space(kind, n, seed)
    values = distance_set(s)
    for low, high in zip(values, values[1:] + [values[-1] + 1]):
        for r in (high, (low + high) / 2):
            assert threshold_graph(s, r) == naive_threshold_graph(s, r)
    if n >= 2:
        report = sweep(s)
        assert report.entries == tuple(naive_sweep(s))
        assert report.verdict == (naive_classify(s) is SpaceClass.ULTRAMETRIC)
