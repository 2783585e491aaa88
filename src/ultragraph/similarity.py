"""Weak similarity and isometry search between finite spaces.

Two spaces are weakly similar when some point bijection matches them up
to a strictly increasing bijection between their distance sets; with
the identity rescaling this degenerates to isometry.  Because the
rescaling must be increasing, it is forced once the distance sets are
sorted, and the search reduces to finding a bijection preserving each
distance's rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import InternalInvariantError
from .spaces import (
    FiniteSpace,
    SpaceClass,
    classify,
    distance_set,
    require_valid,
)


@dataclass(frozen=True)
class WeakSimilarity:
    """Witness: a point bijection plus the forced distance rescaling.

    `bijection` holds (x, phi(x)) pairs in the first space's label
    order; `scaling` holds (value in D(second), value in D(first))
    pairs, ascending in both coordinates, with (0, 0) first.  For every
    pair of points, d_first(x, y) = scaling applied to
    d_second(phi(x), phi(y)).
    """

    bijection: tuple[tuple[str, str], ...]
    scaling: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bijection", tuple(map(tuple, self.bijection)))
        object.__setattr__(self, "scaling", tuple(map(tuple, self.scaling)))

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.bijection)

    @cached_property
    def _scale(self) -> dict[Fraction, Fraction]:
        return dict(self.scaling)

    def apply_scaling(self, value: Fraction) -> Fraction:
        try:
            return self._scale[value]
        except KeyError:
            raise ValueError(f"{value!r} is not in the witness's distance set") from None

    def inverted(self) -> "WeakSimilarity":
        """The witness for the two spaces taken in the other order."""
        return WeakSimilarity(
            bijection=tuple((y, x) for x, y in self.bijection),
            scaling=tuple((d, r) for r, d in self.scaling),
        )


def find_weak_similarity(a: FiniteSpace, b: FiniteSpace) -> WeakSimilarity | None:
    """Search for a weak similarity from a to b; None when there is none.

    The rescaling, if any, must send the k-th smallest distance of b to
    the k-th smallest of a, so the search looks for a bijection under
    which every pair's distance rank matches.  Backtracking assigns the
    most-constrained points first, candidates being points with the
    same multiset of incident ranks.  The returned witness is
    re-verified pairwise before returning.
    """
    require_valid(a)
    require_valid(b)
    n = a.n
    if n != b.n:
        return None
    da, db = a.values, b.values
    if len(da) != len(db):
        return None
    ra, rb = a.ranks, b.ranks
    profile_a = [tuple(sorted(ra[i][j] for j in range(n) if j != i)) for i in range(n)]
    profile_b = [tuple(sorted(rb[i][j] for j in range(n) if j != i)) for i in range(n)]
    if sorted(profile_a) != sorted(profile_b):
        return None
    candidates = [
        [j for j in range(n) if profile_b[j] == profile_a[i]] for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    assigned = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        ri = ra[i]
        for j in candidates[i]:
            if used[j]:
                continue
            rj = rb[j]
            if all(ri[order[q]] == rj[assigned[order[q]]] for q in range(pos)):
                assigned[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                assigned[i] = -1
                used[j] = False
        return False

    if not extend(0):
        return None
    witness = WeakSimilarity(
        bijection=tuple((a.labels[i], b.labels[assigned[i]]) for i in range(n)),
        scaling=tuple(zip(db, da)),
    )
    if _equation_failures(a, b, witness):
        raise InternalInvariantError("similarity search returned a bad witness")
    return witness


def is_isometric(a: FiniteSpace, b: FiniteSpace) -> bool:
    """Whether some bijection preserves distances exactly.

    Equivalent to: equal distance sets plus a rank-preserving bijection
    (the forced rescaling is then the identity).
    """
    require_valid(a)
    require_valid(b)
    if distance_set(a) != distance_set(b):
        return False
    return find_weak_similarity(a, b) is not None


def _equation_failures(
    a: FiniteSpace, b: FiniteSpace, w: WeakSimilarity
) -> list[tuple[str, str]]:
    scale = dict(w.scaling)
    phi = w.mapping
    bad = []
    for x, y in combinations(a.labels, 2):
        rho = b.distance(phi[x], phi[y])
        if rho not in scale or a.distance(x, y) != scale[rho]:
            bad.append((x, y))
    return bad


def _check_witness(a: FiniteSpace, b: FiniteSpace, w: WeakSimilarity) -> None:
    if {x for x, _ in w.bijection} != set(a.labels):
        raise ValueError("witness bijection does not cover the first space's points")
    targets = [y for _, y in w.bijection]
    if len(set(targets)) != len(targets) or set(targets) != set(b.labels):
        raise ValueError("witness bijection is not a bijection onto the second space")
    rho_values = [r for r, _ in w.scaling]
    d_values = [d for _, d in w.scaling]
    # equality with the sorted distance sets pins both coordinates as
    # strictly increasing and onto, and puts (0, 0) first
    if rho_values != distance_set(b) or d_values != distance_set(a):
        raise ValueError(
            "witness scaling is not an increasing bijection of the distance sets"
        )
    failures = _equation_failures(a, b, w)
    if failures:
        x, y = failures[0]
        raise ValueError(
            f"witness equation fails at ({x}, {y}): distance does not match "
            "the rescaled image distance"
        )


def verify_class_preservation(
    a: FiniteSpace, b: FiniteSpace, w: WeakSimilarity
) -> bool:
    """Check that weak similarity preserves ultrametricity, both ways.

    Rejects invalid witnesses with ValueError; for valid ones returns
    whether a and b are ultrametric together or not at all, which must
    always be True.
    """
    require_valid(a)
    require_valid(b)
    _check_witness(a, b, w)
    return (classify(a) is SpaceClass.ULTRAMETRIC) == (
        classify(b) is SpaceClass.ULTRAMETRIC
    )
