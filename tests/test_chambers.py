"""Chamber-by-chamber equivalence of the integer root core, the verifier's
own ambient check and a Fraction Gram-inverse reference.

The reference is the decomposition the package used before the integer
core: solve against the Gram matrix of the simple roots in exact rationals,
recompose to check span membership, then require integral one-sign
coordinates.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import innerlie.certkit as certkit
from innerlie import (
    RootSystemError,
    SimpleSystem,
    all_simple_systems,
    build_root_system,
    root_vector,
)

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)]


def _gram_inverse(simples):
    n = len(simples)
    gram = [[simples[i].dot(simples[j]) for j in range(n)] for i in range(n)]
    aug = [gram[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise RootSystemError("simple roots are linearly dependent")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def reference_decomposition(rs, simples):
    """Every root's coordinates over `simples`; RootSystemError if not a base."""
    if len(simples) != rs.rank or not all(rs.is_root(s) for s in simples):
        raise RootSystemError("not rank-many roots")
    inverse = _gram_inverse(simples)
    table = {}
    for v in rs.sorted_roots:
        rhs = [v.dot(s) for s in simples]
        coeffs = [sum((row[j] * rhs[j] for j in range(len(simples))), Fraction(0))
                  for row in inverse]
        recomposed = [sum((c * s.coords[d] for c, s in zip(coeffs, simples)), Fraction(0))
                      for d in range(v.ambient_dim)]
        if recomposed != list(v.coords):
            raise RootSystemError("outside the span")
        if any(c.denominator != 1 for c in coeffs):
            raise RootSystemError("non-integral")
        if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
            raise RootSystemError("mixed-sign")
        table[v] = tuple(int(c) for c in coeffs)
    return table


def integer_decomposition(rs, simples):
    system = SimpleSystem(simples)
    rs.validate_base(system)
    return {v: system.decompose(v) for v in rs.sorted_roots}


PATHS = {
    "integer": integer_decomposition,
    "verifier": certkit._claimed_coordinates,
    "reference": reference_decomposition,
}


def accepted(path, rs, simples):
    try:
        PATHS[path](rs, simples)
    except RootSystemError:
        return False
    return True


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_every_chamber_decomposes_identically(family, rank):
    rs = build_root_system(family, rank)
    for system in all_simple_systems(rs):
        expected = reference_decomposition(rs, system.simples)
        assert integer_decomposition(rs, system.simples) == expected
        assert certkit._claimed_coordinates(rs, system.simples) == expected


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_bases_accepted_are_exactly_the_chambers(family, rank):
    """Over every rank-subset of the roots, each path accepts exactly the
    simple systems of the Weyl chambers."""
    rs = build_root_system(family, rank)
    chambers = {system.key() for system in all_simple_systems(rs)}
    found = {path: set() for path in ("integer", "verifier")}
    for simples in combinations(rs.sorted_roots, rank):
        for path in found:
            if accepted(path, rs, simples):
                found[path].add(frozenset(simples))
    assert found["integer"] == chambers
    assert found["verifier"] == chambers


B2_NEGATIVES = {
    "not unimodular": [root_vector(1, 1), root_vector(1, -1)],
    "mixed sign": [root_vector(1, 0), root_vector(0, 1)],
    "dependent": [root_vector(1, 0), root_vector(-1, 0)],
}


@pytest.mark.parametrize("case", sorted(B2_NEGATIVES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_non_bases_rejected_by_every_path(case, path):
    rs = build_root_system("B", 2)
    with pytest.raises(RootSystemError):
        PATHS[path](rs, B2_NEGATIVES[case])
