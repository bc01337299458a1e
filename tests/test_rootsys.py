from fractions import Fraction
from itertools import product

import pytest

from innerlie import (
    RootSystemError,
    RootVector,
    all_simple_systems,
    build_root_system,
    reflect,
    root_vector,
)

F = Fraction


def brute_force_a2_roots():
    """Independent oracle: all +-(e_i - e_j) in R^3."""
    roots = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                coords = [0, 0, 0]
                coords[i], coords[j] = 1, -1
                roots.add(RootVector(coords))
    return roots


def test_a2_enumeration_matches_brute_force():
    rs = build_root_system("A", 2)
    assert rs.roots == brute_force_a2_roots()
    assert set(rs.positive_roots) == {
        root_vector(1, -1, 0), root_vector(0, 1, -1), root_vector(1, 0, -1)
    }


def test_g2_root_lengths():
    rs = build_root_system("G2", 2)
    assert len(rs.roots) == 12
    lengths = sorted(v.norm_sq() for v in rs.roots)
    assert lengths[:6] == [F(2)] * 6 and lengths[6:] == [F(6)] * 6


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 2), ("A", 2, 6), ("A", 7, 56), ("A", 8, 72),
    ("B", 2, 8), ("B", 4, 32), ("B", 8, 128),
    ("C", 2, 8), ("C", 3, 18), ("C", 8, 128),
    ("D", 3, 12), ("D", 4, 24), ("D", 8, 112),
    ("G2", 2, 12), ("F4", 4, 48), ("E6", 6, 72), ("E8", 8, 240),
])
def test_closed_form_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == count
    assert len(rs.positive_roots) == count // 2
    assert all(-v in rs.roots for v in rs.roots)


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("D", 2), ("G2", 3), ("F4", 2), ("E6", 7), ("E8", 6), ("H", 2),
])
def test_invalid_family_rank_rejected(family, rank):
    with pytest.raises(RootSystemError):
        build_root_system(family, rank)


_CHAIN = lambda n: [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _expected_cartan(family, rank):
    m = _CHAIN(rank)
    if family == "B":
        m[rank - 2][rank - 1] = -2
    elif family == "C":
        m[rank - 1][rank - 2] = -2
    elif family == "D":
        m[rank - 2][rank - 1] = m[rank - 1][rank - 2] = 0
        m[rank - 3][rank - 1] = m[rank - 1][rank - 3] = -1
    elif family == "G2":
        m = [[2, -1], [-3, 2]]
    elif family == "F4":
        m = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    elif family in ("E6", "E8"):
        # chain 1-3-4-...-r with node 2 attached to node 4
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)]
        for i, j in edges:
            m[i][j] = m[j][i] = -1
    return tuple(tuple(row) for row in m)


@pytest.mark.parametrize("family,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6), ("E8", 8),
])
def test_cartan_matrices_standard(family, rank):
    rs = build_root_system(family, rank)
    assert rs.cartan_matrix() == _expected_cartan(family, rank)


def test_reflect_defining_properties():
    rs = build_root_system("A", 2)
    a1, a2 = rs.base.simples
    assert reflect(a1, a1) == -a1
    assert reflect(a1, a2) == a1 + a2
    for v in rs.roots:
        for m in rs.roots:
            assert reflect(reflect(v, m), m) == v


def test_reflect_g2_short_in_long():
    rs = build_root_system("G2", 2)
    alpha, beta = rs.base.simples  # alpha short, beta long
    assert alpha.norm_sq() < beta.norm_sq()
    assert reflect(alpha, beta) == alpha + beta


def test_reflect_zero_mirror_rejected():
    with pytest.raises(RootSystemError):
        reflect(root_vector(1, 0), root_vector(0, 0))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G2", 2), ("F4", 4)])
def test_reflection_permutes_roots(family, rank):
    rs = build_root_system(family, rank)
    for mirror in rs.roots:
        assert {reflect(v, mirror) for v in rs.roots} == rs.roots


def test_reflection_permutes_e8_sampled():
    rs = build_root_system("E8", 8)
    for mirror in rs.sorted_roots[::24]:
        assert {reflect(v, mirror) for v in rs.roots} == rs.roots


def test_root_strings():
    a2 = build_root_system("A", 2)
    a1, al2 = a2.base.simples
    assert a2.root_string(a1, al2) == (0, 1)
    b2 = build_root_system("B", 2)
    short = root_vector(0, 1)
    long = root_vector(1, -1)
    assert b2.root_string(short, long) == (0, 2)
    # orthogonal non-interacting pair: empty string
    a3 = build_root_system("A", 3)
    first, _, last = a3.base.simples
    assert a3.root_string(first, last) == (0, 0)


def test_root_string_rejects_bad_input():
    rs = build_root_system("A", 2)
    a1, a2 = rs.base.simples
    with pytest.raises(RootSystemError):
        rs.root_string(a1, a1)
    with pytest.raises(RootSystemError):
        rs.root_string(a1, root_vector(2, 0, -2))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 3), ("G2", 2), ("F4", 4)])
def test_root_string_bounds(family, rank):
    rs = build_root_system(family, rank)
    for alpha, beta in product(rs.roots, repeat=2):
        if alpha in (beta, -beta):
            continue
        p, q = rs.root_string(alpha, beta)
        assert p <= 0 <= q and q - p <= 3


def test_n_squared_values():
    a2 = build_root_system("A", 2)
    a1, al2 = a2.base.simples
    assert a2.n_squared(a1, al2) == 1
    b2 = build_root_system("B", 2)
    assert b2.n_squared(root_vector(0, 1), root_vector(1, -1)) == 1
    a3 = build_root_system("A", 3)
    first, _, last = a3.base.simples
    assert a3.n_squared(first, last) == 0
    g2 = build_root_system("G2", 2)
    alpha, beta = g2.base.simples
    assert g2.n_squared(alpha, beta) == 3  # q=3, p=0, |alpha|^2=2


def test_n_squared_vanishes_iff_sum_not_root():
    rs = build_root_system("B", 3)
    for alpha, beta in product(rs.roots, repeat=2):
        if alpha in (beta, -beta):
            continue
        assert (rs.n_squared(alpha, beta) == 0) == (not rs.is_root(alpha + beta))


@pytest.mark.parametrize("rank", [2, 3])
def test_so_1_2n_string_symmetries(rank):
    """N identities used by the special obstruction branch, on B_n data."""
    rs = build_root_system("B", rank)
    psi1 = RootVector([int(i == 0) for i in range(rank)])
    psi2 = RootVector([int(i == 1) for i in range(rank)])
    phi1 = psi1 + psi2
    assert rs.n_squared(psi1, psi2) == rs.n_squared(psi1, -psi2)
    assert rs.n_squared(phi1, -psi1) == rs.n_squared(psi1, psi2)


def test_is_root_membership():
    a2 = build_root_system("A", 2)
    assert a2.is_root(root_vector(1, -1, 0))
    assert not a2.is_root(root_vector(2, -2, 0))
    b2 = build_root_system("B", 2)
    assert not b2.is_root(root_vector(1, 2))  # psi1 + 2 psi2 for the rank-2 data


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6),
])
def test_cartan_integers(family, rank):
    rs = build_root_system(family, rank)
    for alpha, beta in product(rs.roots, repeat=2):
        if alpha in (beta, -beta):
            continue
        value = 2 * alpha.dot(beta) / beta.norm_sq()
        assert value.denominator == 1 and abs(value) <= 3


def test_base_decomposition_one_signed():
    for family, rank in [("A", 3), ("B", 4), ("D", 4), ("F4", 4), ("E6", 6), ("E8", 8)]:
        rs = build_root_system(family, rank)
        for root in rs.roots:
            coeffs = rs.base.decompose(root)
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_simple_system_rejects_outside_span():
    rs = build_root_system("E6", 6)
    with pytest.raises(RootSystemError):
        rs.base.decompose(root_vector(0, 0, 0, 0, 0, 0, 0, 1))


def test_all_simple_systems_counts():
    # One simple system per Weyl chamber: |W(A2)| = 6, |W(B2)| = 8, |W(G2)| = 12.
    assert len(all_simple_systems(build_root_system("A", 2))) == 6
    assert len(all_simple_systems(build_root_system("B", 2))) == 8
    assert len(all_simple_systems(build_root_system("G2", 2))) == 12


def test_vector_arithmetic_exact():
    v = RootVector(["1/2", "-1/2", 0])
    w = root_vector(1, 1, 0)
    assert v + w == RootVector([F(3, 2), F(1, 2), 0])
    assert -v == RootVector([F(-1, 2), F(1, 2), 0])
    assert 2 * v == root_vector(1, -1, 0)
    assert v.dot(w) == 0
    assert (v - v).is_zero()
