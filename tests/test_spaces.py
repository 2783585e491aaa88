import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    FiniteSpace,
    SpaceClass,
    ball_family,
    check_ball_coincidence,
    classify,
    diameter,
    distance_set,
    metric_from_graph,
    open_ball,
    padic_space,
    random_ultrametric,
    validate,
)
from util import (
    naive_classify,
    path_graph,
    random_grid_metric,
    random_semimetric,
    random_space,
    triple_space,
)

F = Fraction


def test_validate_smallest_valid_space():
    s = FiniteSpace.from_rows("ab", [[0, 1], [1, 0]])
    assert validate(s) == []


def test_validate_reports_symmetry_violation():
    s = FiniteSpace.from_rows("ab", [[0, 1], [2, 0]])
    (v,) = validate(s)
    assert v.kind == "symmetry"
    assert v.pair == ("a", "b")


def test_validate_reports_identity_violation():
    s = FiniteSpace.from_rows("ab", [[1, 1], [1, 0]])
    (v,) = validate(s)
    assert v.kind == "identity"
    assert v.pair == ("a", "a")


def test_validate_reports_missing_positivity():
    s = FiniteSpace.from_rows("ab", [[0, 0], [0, 0]])
    (v,) = validate(s)
    assert v.kind == "positivity"


def test_dimension_mismatch_is_structural():
    with pytest.raises(ValueError, match="matrix"):
        FiniteSpace.from_rows("abc", [[0, 1], [1, 0]])


def test_floats_are_rejected():
    with pytest.raises(ValueError, match="float"):
        FiniteSpace.from_rows("ab", [[0, 0.5], [0.5, 0]])


@pytest.mark.parametrize(
    "sides,expected",
    [
        ((2, 2, 1), SpaceClass.ULTRAMETRIC),
        ((2, 1, 1), SpaceClass.METRIC_ONLY),
        ((5, 1, 1), SpaceClass.SEMIMETRIC_ONLY),
    ],
)
def test_classify_three_point_examples(sides, expected):
    assert classify(triple_space(*sides)) is expected


def test_classify_rejects_invalid_space():
    s = FiniteSpace.from_rows("ab", [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="symmetry"):
        classify(s)


def test_classify_matches_naive_triple_oracle():
    # the library rescales to integers for speed; pin it to the literal
    # Fraction version on a spread of random spaces
    rng = random.Random(1201)
    for _ in range(250):
        n = rng.randint(1, 7)
        maker = rng.choice(
            [
                lambda: random_grid_metric(rng, n) if n >= 2 else random_ultrametric(1),
                lambda: random_semimetric(rng, n) if n >= 2 else random_ultrametric(1),
                lambda: random_ultrametric(n, rng.randint(1, 3), seed=rng.randrange(2**32)),
            ]
        )
        s = maker()
        assert classify(s) is naive_classify(s)


def test_classify_is_permutation_invariant():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        s = random_grid_metric(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = tuple(
            tuple(s.matrix[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )
        relabeled = FiniteSpace(tuple(s.labels[p] for p in perm), rows)
        assert classify(relabeled) is classify(s)


def test_distance_set_one_point():
    assert distance_set(random_ultrametric(1)) == [0]


def test_distance_set_three_point_example():
    assert distance_set(triple_space(2, 2, 1)) == [0, 1, 2]


def test_distance_set_of_two_one_metric():
    # a nonempty, non-complete graph leaves both a 2 and a 1 in the matrix
    s = metric_from_graph(path_graph("abc"))
    assert distance_set(s) == [0, 1, 2]


def test_distance_set_contains_zero_with_diameter_last():
    rng = random.Random(23)
    for _ in range(40):
        s = random_grid_metric(rng, rng.randint(2, 6))
        values = distance_set(s)
        assert values[0] == 0
        assert values == sorted(set(values))
        assert values[-1] == diameter(s)


def test_diameter_examples():
    assert diameter(random_ultrametric(1)) == 0
    assert diameter(triple_space(2, 2, 1)) == 2
    assert diameter(padic_space(3, 2)) == 1


def test_open_ball_examples():
    s = triple_space(2, 2, 1)
    assert open_ball(s, "a", 2) == {"a"}
    assert open_ball(s, "b", 2) == {"b", "c"}
    assert open_ball(s, "a", 3) == {"a", "b", "c"}


def test_open_ball_rejects_bad_arguments():
    s = triple_space(2, 2, 1)
    with pytest.raises(ValueError, match="radius"):
        open_ball(s, "a", 0)
    with pytest.raises(ValueError, match="unknown point"):
        open_ball(s, "zz", 1)


def test_ball_family_examples():
    s = triple_space(2, 2, 1)
    fam = ball_family(s, 2)
    assert fam.balls == (frozenset("a"), frozenset({"b", "c"}))
    assert ball_family(s, 5).balls == (frozenset({"a", "b", "c"}),)


def test_ball_family_padic_radius_one_gives_residues_mod_p():
    fam = ball_family(padic_space(3, 2), 1)
    assert {frozenset(b) for b in fam.balls} == {
        frozenset({"0", "3", "6"}),
        frozenset({"1", "4", "7"}),
        frozenset({"2", "5", "8"}),
    }


def test_ball_family_covers_and_deduplicates():
    rng = random.Random(99)
    for _ in range(30):
        s = random_grid_metric(rng, rng.randint(2, 7))
        for r in distance_set(s)[1:]:
            fam = ball_family(s, r)
            assert len(set(fam.balls)) == len(fam.balls)
            assert frozenset().union(*fam.balls) == set(s.labels)
            assert all(fam.balls)


def test_ball_coincidence_examples():
    assert check_ball_coincidence(triple_space(2, 2, 1), 2) is True
    assert check_ball_coincidence(triple_space(2, 1, 1), 2) is False
    # at or below the smallest positive distance every ball is a singleton
    assert check_ball_coincidence(triple_space(2, 2, 1), 1) is True


def test_ultrametric_balls_partition_at_every_attained_radius():
    rng = random.Random(31)
    for _ in range(60):
        s = random_ultrametric(rng.randint(2, 14), rng.randint(1, 4), seed=rng.randrange(2**32))
        for r in distance_set(s)[1:]:
            assert check_ball_coincidence(s, r)
            fam = ball_family(s, r)
            assert sum(len(b) for b in fam.balls) == s.n  # pairwise disjoint cover


def test_exact_decimal_parsing_no_binary_rounding():
    s = FiniteSpace.from_rows("ab", [["0", "0.1"], ["0.1", "0"]])
    assert s.matrix[0][1] == F(1, 10)
    assert s.matrix[0][1] != F(0.1)  # binary 0.1 is a different rational
    t = FiniteSpace.from_rows("ab", [["0", "1/3"], ["1/3", "0"]])
    assert t.matrix[0][1] * 3 == 1


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["ultrametric", "grid", "semimetric"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_and_balls_match_the_literal_oracles(kind, n, seed):
    s = random_space(kind, n, seed)
    assert classify(s) is naive_classify(s)
    values = distance_set(s)
    for r in values[1:] + [values[-1] + F(1, 3)]:
        balls = set()
        for x in s.labels:
            literal = frozenset(y for y in s.labels if s.distance(x, y) < r)
            assert open_ball(s, x, r) == literal
            balls.add(literal)
        disjoint = all(not a & b for a, b in combinations(balls, 2))
        assert check_ball_coincidence(s, r) is disjoint
