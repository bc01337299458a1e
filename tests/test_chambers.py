"""Chamber-by-chamber equivalence of the root core's base check, the
verifier's height walk over the claimed base and a Gram-matrix reference.
The core's check, `RootSystem.validate_base` (the "integer" path), runs the
walk the verifier runs (`walk`) and returns its table, keyed by RootVector;
it stores nothing.

The reference solves against the Gram matrix of the simple roots, not by a
walk: on the tuple of twice each ambient coordinate that a RootVector is,
read as plain ints, it takes the doubled Gram matrix's determinant and
adjugate once per base (`_adjugate`), gives each root det times its
coordinates, recomposes them to check span membership, then requires
integral one-sign coordinates.  It is integer arithmetic of its own, with
no RootVector operation.
"""

from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import innerlie.certkit as certkit
import innerlie.verify as verify
import innerlie.walk as walk
from innerlie.rootsys import (
    RootSystemError,
    SimpleSystem,
    all_simple_systems,
    build_root_system,
    reflect,
    root_vector,
)

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _adjugate(simples):
    """(d, X) for the doubled Gram matrix G of `simples`, with d = +-det G
    and X = d * G^-1 = +-adj G, both integral: Bareiss's fraction-free
    Gauss-Jordan elimination of [G | I], which ends at [d*I | X].  Every
    division is exact, each entry being a minor of [G | I]."""
    n = len(simples)
    rows = [[_dot(a, b) for b in simples] + [int(i == j) for j in range(n)]
            for i, a in enumerate(simples)]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise RootSystemError("simple roots are linearly dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(n):
            if r != col:
                lead = rows[r][col]
                rows[r] = [(top[col] * x - lead * y) // previous for x, y in zip(rows[r], top)]
        previous = top[col]
    return previous, [row[n:] for row in rows]


# (root system, simples) -> the reference table, or the reason it refused
# them: the chamber tests meet the same bases more than once.
_REFERENCE = {}


def reference_decomposition(rs, simples):
    """Every root's coordinates over `simples`; RootSystemError if not a base.
    Each table is computed once and shared; callers do not change it."""
    key = (rs, tuple(simples))
    if key not in _REFERENCE:
        try:
            _REFERENCE[key] = _reference_decomposition(rs, simples)
        except RootSystemError as exc:
            _REFERENCE[key] = str(exc)
    if isinstance(_REFERENCE[key], str):
        raise RootSystemError(_REFERENCE[key])
    return _REFERENCE[key]


def _reference_decomposition(rs, simples):
    if len(simples) != rs.rank or not all(rs.is_root(s) for s in simples):
        raise RootSystemError("not rank-many roots")
    det, adjugate = _adjugate(simples)
    table = {}
    for root in rs.sorted_roots:
        pairings = [_dot(root, s) for s in simples]
        scaled = [_dot(row, pairings) for row in adjugate]  # det times the coordinates
        recomposed = [_dot(scaled, column) for column in zip(*simples)]
        if recomposed != [det * c for c in root]:
            raise RootSystemError("outside the span")
        if any(c % det for c in scaled):
            raise RootSystemError("non-integral")
        coeffs = [c // det for c in scaled]
        if any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs):
            raise RootSystemError("mixed-sign")
        table[root] = tuple(coeffs)
    return table


def integer_decomposition(rs, simples):
    return rs.validate_base(SimpleSystem(simples))


def verifier_decomposition(rs, simples):
    """The verifier's check, on the roots as they are: each is its tuple of
    doubled coordinates."""
    return walk._claimed_coordinates(walk._table(rs.roots, rs.base.simples), rs.rank, simples)


PATHS = {
    "integer": integer_decomposition,
    "verifier": verifier_decomposition,
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
    """In every chamber the coordinates, and for each single painted node
    the positive and the compact roots, agree with the Gram-matrix reference."""
    rs = build_root_system(family, rank)
    nodes = range(rank)
    for simples in (system.simples for system in all_simple_systems(rs)):
        assert integer_decomposition(rs, simples) == reference_decomposition(rs, simples)
        assert verifier_roots(rs, simples, nodes) == reference_roots(rs, simples, nodes)


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_bases_accepted_are_exactly_the_chambers(family, rank):
    """Over every rank-subset of the roots, the base check accepts exactly
    the simple systems of the Weyl chambers.  The "integer" path alone runs
    here: the "verifier" path is the same walk, and the chambers come from
    `all_simple_systems`, which does not use it."""
    rs = build_root_system(family, rank)
    chambers = {system.key() for system in all_simple_systems(rs)}
    found = {frozenset(simples) for simples in combinations(rs.sorted_roots, rank)
             if accepted("integer", rs, simples)}
    assert found == chambers


B2_NEGATIVES = {
    "not unimodular": [root_vector(1, 1), root_vector(1, -1)],
    "mixed sign": [root_vector(1, 0), root_vector(0, 1)],
    "dependent": [root_vector(1, 0), root_vector(-1, 0)],
    # Every root is a one-signed integral combination of these two, but the
    # second is half a root: only the root-membership check refuses it.
    "half a simple root": [root_vector(1, -1), root_vector(0, "1/2")],
    "one root short": [root_vector(1, 0)],
}


@pytest.mark.parametrize("case", sorted(B2_NEGATIVES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_non_bases_rejected_by_every_path(case, path):
    rs = build_root_system("B", 2)
    with pytest.raises(RootSystemError):
        PATHS[path](rs, B2_NEGATIVES[case])


# ---------------------------------------------------------------------------
# The height walk beyond the exhaustive small ranks
# ---------------------------------------------------------------------------

def _reached(rs, simples):
    """The roots reached from `simples` by adding claimed simples, as the
    verifier's walk reaches them before its covering test."""
    reached = set(simples)
    frontier = list(simples)
    while frontier:
        v = frontier.pop()
        for s in simples:
            w = v + s
            if rs.is_root(w) and w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def _b4_claims():
    e = [root_vector(*(int(i == j) for j in range(4))) for i in range(4)]
    a1, a2, a3, a4 = build_root_system("B", 4).base.simples
    return {
        "B3 base plus -e1": [e[0] - e[1], e[1] - e[2], e[2], -e[0]],
        "duplicated simple": [a1, a1, a3, a4],
        "alpha and -alpha, padded": [a1, -a1, a3, a4],
    }


def test_b3_base_plus_minus_e1_reaches_half_the_roots_of_b4():
    """This claim reaches 18 of the 32 roots, each with its negative, so a
    test of "reached at least half the roots" alone would accept it."""
    rs = build_root_system("B", 4)
    reached = _reached(rs, _b4_claims()["B3 base plus -e1"])
    assert len(reached) == 18 and 2 * len(reached) >= len(rs.roots)
    assert all(-v in reached for v in reached)


@pytest.mark.parametrize("case", sorted(_b4_claims()))
def test_b4_non_bases_rejected(case):
    simples = _b4_claims()[case]
    rs = build_root_system("B", 4)
    for path in PATHS:
        assert not accepted(path, rs, simples)
    data = certkit.analyze_pair("so(5,4)")
    data["ordering"]["simples"] = [verify._vec_to_json(s) for s in simples]
    assert certkit.verify_data(data).reason == "ordering invalid"


PROPERTY_SYSTEMS = [("B", 5), ("D", 5), ("F4", 4), ("E6", 6), ("E8", 8)]
WORDS = st.lists(st.integers(0, 7), max_size=12)


def _reflected_base(rs, word):
    """The standard base moved by the simple reflections named in `word`."""
    simples = list(rs.base.simples)
    for i in word:
        mirror = rs.base.simples[i % rs.rank]
        simples = [reflect(s, mirror) for s in simples]
    return simples


def verifier_roots(rs, simples, nodes):
    """For the grading painted at each single node, the verifier's positive
    and compact positive roots over `simples`, from their painted parities."""
    return [walk._claimed_roots(
                SimpleNamespace(system=rs, grading=SimpleNamespace(painted=(node,))), simples)
            for node in nodes]


def reference_roots(rs, simples, nodes):
    """For each single painted node, the roots with nonnegative reference
    coordinates over `simples`, and those of them whose coordinates over the
    standard base are even there."""
    positive = {v for v, c in reference_decomposition(rs, simples).items() if min(c) >= 0}
    standard = reference_decomposition(rs, rs.base.simples)
    return [(positive, {v for v in positive if standard[v][node] % 2 == 0}) for node in nodes]


@pytest.mark.parametrize("family,rank", PROPERTY_SYSTEMS)
@settings(derandomize=True, max_examples=5, deadline=None)
@given(word=WORDS)
def test_reflected_bases_decompose_as_the_reference(family, rank, word):
    """Coordinates over a moved base, and the positive and the compact roots
    of the grading painted at each single node, agree with the Gram-matrix
    reference."""
    rs = build_root_system(family, rank)
    simples = _reflected_base(rs, word)
    assert verifier_decomposition(rs, simples) == reference_decomposition(rs, simples)
    nodes = range(rank)
    assert verifier_roots(rs, simples, nodes) == reference_roots(rs, simples, nodes)


@pytest.mark.parametrize("family,rank", PROPERTY_SYSTEMS)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(word=WORDS, position=st.integers(0, 7), replacement=st.integers(0, 239))
def test_swapped_simple_accepted_exactly_when_the_reference_accepts(
        family, rank, word, position, replacement):
    rs = build_root_system(family, rank)
    simples = _reflected_base(rs, word)
    simples[position % rank] = rs.sorted_roots[replacement % len(rs.sorted_roots)]
    assert accepted("verifier", rs, simples) == accepted("reference", rs, simples)
