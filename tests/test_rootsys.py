from fractions import Fraction
from itertools import product

import pytest

import innerlie.verify as verify
import innerlie.walk as walk
from innerlie.rootsys import (
    InvariantViolation,
    RootSystem,
    RootSystemError,
    SimpleSystem,
    all_simple_systems,
    build_root_system,
    reflect,
    root_vector,
    show,
)

F = Fraction


def dot(a, b):
    """The ambient pairing of two doubled roots, a quarter of theirs."""
    return F(sum(x * y for x, y in zip(a, b)), 4)


def plus(*roots):
    """The vector sum of doubled roots (`+` on tuples concatenates)."""
    return tuple(map(sum, zip(*roots)))


def minus(v):
    return tuple(-x for x in v)


def brute_force_a2_roots():
    """Independent oracle: all +-(e_i - e_j) in R^3."""
    roots = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                coords = [0, 0, 0]
                coords[i], coords[j] = 1, -1
                roots.add(root_vector(*coords))
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
    lengths = sorted(dot(v, v) for v in rs.roots)
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
    assert all(minus(v) in rs.roots for v in rs.roots)


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
    assert rs.cartan == _expected_cartan(family, rank)


def test_reflect_defining_properties():
    rs = build_root_system("A", 2)
    a1, a2 = rs.base.simples
    assert reflect(a1, a1) == minus(a1)
    assert reflect(a1, a2) == plus(a1, a2)
    for v in rs.roots:
        for m in rs.roots:
            assert reflect(reflect(v, m), m) == v


def test_reflect_g2_short_in_long():
    rs = build_root_system("G2", 2)
    alpha, beta = rs.base.simples  # alpha short, beta long
    assert dot(alpha, alpha) < dot(beta, beta)
    assert reflect(alpha, beta) == plus(alpha, beta)


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


def _string(rs, alpha, beta):
    """The n with beta + n*alpha a root, read off the root set."""
    return [n for n in range(-4, 5) if rs.is_root(tuple(b + n * a for a, b in zip(alpha, beta)))]


def test_root_strings():
    a2 = build_root_system("A", 2)
    a1, al2 = a2.base.simples
    assert _string(a2, a1, al2) == [0, 1]
    b2 = build_root_system("B", 2)
    short = root_vector(0, 1)
    long = root_vector(1, -1)
    assert _string(b2, short, long) == [0, 1, 2]
    # orthogonal non-interacting pair: empty string
    a3 = build_root_system("A", 3)
    first, _, last = a3.base.simples
    assert _string(a3, first, last) == [0]


def _n2(rs, alpha, beta):
    """The verifier's N^2, on the doubled roots."""
    return verify._n_squared(rs.roots, alpha, beta)


def test_n_squared_values():
    a2 = build_root_system("A", 2)
    a1, al2 = a2.base.simples
    assert _n2(a2, a1, al2) == 1
    b2 = build_root_system("B", 2)
    assert _n2(b2, root_vector(0, 1), root_vector(1, -1)) == 1
    a3 = build_root_system("A", 3)
    first, _, last = a3.base.simples
    assert _n2(a3, first, last) == 0
    g2 = build_root_system("G2", 2)
    alpha, beta = g2.base.simples
    assert _n2(g2, alpha, beta) == 3  # q=3, p=0, |alpha|^2=2


def test_n_squared_vanishes_iff_sum_not_root():
    rs = build_root_system("B", 3)
    for alpha, beta in product(rs.roots, repeat=2):
        if alpha in (beta, minus(beta)):
            continue
        assert (_n2(rs, alpha, beta) == 0) == (not rs.is_root(plus(alpha, beta)))


@pytest.mark.parametrize("rank", [2, 3])
def test_so_1_2n_string_symmetries(rank):
    """N identities used by the special obstruction branch, on B_n data."""
    rs = build_root_system("B", rank)
    psi1 = root_vector(*(int(i == 0) for i in range(rank)))
    psi2 = root_vector(*(int(i == 1) for i in range(rank)))
    phi1 = plus(psi1, psi2)
    assert _n2(rs, psi1, psi2) == _n2(rs, psi1, minus(psi2))
    assert _n2(rs, phi1, minus(psi1)) == _n2(rs, psi1, psi2)


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
        if alpha in (beta, minus(beta)):
            continue
        value = 2 * dot(alpha, beta) / dot(beta, beta)
        assert value.denominator == 1 and abs(value) <= 3


def test_base_decomposition_one_signed():
    for family, rank in [("A", 3), ("B", 4), ("D", 4), ("F4", 4), ("E6", 6), ("E8", 8)]:
        rs = build_root_system(family, rank)
        for root in rs.roots:
            coeffs = rs.coordinates(root)
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_standard_coordinates_equal_the_gram_inverse_reference(catalog8):
    """For every root system of the rank-8 catalog, the standard base's
    coordinates are those the Gram-matrix reference of the chamber tests
    gives, read from the verifier's table of them."""
    from test_chambers import _reference_decomposition

    systems = {id(pair.system): pair.system for pair in catalog8}.values()
    assert len(systems) == 18
    for rs in systems:
        table = walk._table(rs.roots, rs.base.simples)[2]
        reference = _reference_decomposition(rs, rs.base.simples)
        assert {v: rs.coordinates(v) for v in rs.sorted_roots} == reference, rs
        assert all(rs.coordinates(v) is table[v] for v in rs.sorted_roots), rs


def test_a_base_with_a_non_integral_cartan_pairing_is_refused():
    """The orbit's reflections divide exactly only when every Cartan pairing
    is an integer; 2<a, b>/<b, b> = 2/5 here, refused before the orbit."""
    with pytest.raises(InvariantViolation, match="non-integral Cartan pairing"):
        RootSystem("X", 2, SimpleSystem([root_vector(1, 0), root_vector(1, 2)]))


def test_simple_system_rejects_outside_span():
    rs = build_root_system("E6", 6)
    with pytest.raises(RootSystemError):
        rs.coordinates(root_vector(0, 0, 0, 0, 0, 0, 0, 1))


def test_all_simple_systems_counts():
    # One simple system per Weyl chamber: |W(A2)| = 6, |W(B2)| = 8, |W(G2)| = 12.
    assert len(all_simple_systems(build_root_system("A", 2))) == 6
    assert len(all_simple_systems(build_root_system("B", 2))) == 8
    assert len(all_simple_systems(build_root_system("G2", 2))) == 12


def test_vector_arithmetic_exact():
    v = root_vector("1/2", "-1/2", 0)
    w = root_vector(1, 1, 0)
    assert plus(v, w) == root_vector(F(3, 2), F(1, 2), 0)
    assert minus(v) == root_vector(F(-1, 2), F(1, 2), 0)
    assert plus(v, v) == root_vector(1, -1, 0)
    assert dot(v, w) == 0
    assert not any(plus(v, minus(v)))


@pytest.mark.parametrize("value", [0, 3, -3, F(1, 2), F(-7, 2), F(6, 2), "1/2", "-5/2", "4/2", "-0"])
def test_root_vector_round_trips_values_in_half_integers(value):
    v = root_vector(value, 0)
    assert v == (int(2 * F(value)), 0)
    assert type(v) is tuple and all(type(c) is int for c in v)
    assert v == root_vector(F(value), 0) == root_vector(str(F(value)), "0")


@pytest.mark.parametrize("value", ["1/3", F(1, 3), F(5, 4), "1/4"])
def test_root_vector_refuses_values_outside_half_integers(value):
    with pytest.raises(RootSystemError):
        root_vector(0, value)


def test_vec_to_json_writes_lowest_terms():
    from innerlie.verify import _vec_to_json
    for c in range(-40, 41):
        v = root_vector(F(c, 2))
        assert _vec_to_json(v) == [str(F(c, 2))]
    assert _vec_to_json(root_vector(1, "-1/2", 0)) == ["1", "-1/2", "0"]


def test_dot_and_norm_return_ambient_values():
    """The test-local pairing divides the doubled one by 4."""
    assert {dot(v, v) for v in build_root_system("E8", 8).roots} == {F(2)}
    half = root_vector(*["1/2"] * 8)
    assert dot(half, root_vector(1, 1, 0, 0, 0, 0, 0, 0)) == 1
    assert dot(half, half) == 2
    assert isinstance(dot(half, half), F)


def test_repr_shows_ambient_coordinates():
    """`show` prints a root as the ambient values it holds twice."""
    assert show(root_vector("1/2", -1, 0, "-3/2")) == "(1/2, -1, 0, -3/2)"
    assert show(root_vector(2, 0)) == "(2, 0)"
    assert repr(build_root_system("F4", 4).base) == (
        "SimpleSystem[(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (1/2, -1/2, -1/2, -1/2)]")


def test_require_root_names_a_non_root_in_ambient_values():
    with pytest.raises(RootSystemError) as caught:
        build_root_system("B", 2).require_root(root_vector(1, "1/2"))
    assert str(caught.value) == "(1, 1/2) is not a root of B2"


def test_reflect_stays_integral_and_refuses_to_leave_half_integers():
    rs = build_root_system("F4", 4)
    for v in rs.roots:
        for mirror in rs.base.simples:
            image = reflect(v, mirror)
            assert image in rs.roots and reflect(image, mirror) == v
    with pytest.raises(RootSystemError):
        reflect(root_vector(1, 0), root_vector(2, 1))


def test_a_root_is_its_doubled_coordinate_tuple():
    v = root_vector(1, "1/2")
    assert type(v) is tuple and v == (2, 1) and hash(v) == hash((2, 1))
    assert {(2, 1): "found"}[v] == "found"
    assert v in {(2, 1), (0, 0)} and {v: 0}[(2, 1)] == 0
    assert not hasattr(v, "coords") and not hasattr(v, "__dict__")


def test_root_and_simple_systems_are_read_only():
    """`build_root_system` shares each system with every pair, so setting or
    deleting an attribute of one raises, and the catalog still builds."""
    from innerlie import pairs

    rs = build_root_system("A", 2)
    for target in (rs, rs.base):
        for name in (*type(target).__slots__, "extra"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(target, name, frozenset())
            with pytest.raises(AttributeError, match="read-only"):
                delattr(target, name)
    assert len(rs.roots) == 6 and rs.base.rank == 2
    assert pairs.pair_by_name("su(2,1)").system is rs
    spec = pairs._spellings()["su(2,1)"]
    assert pairs._make_pair.__wrapped__(**spec).dim_g == 8  # rebuilt past the pair cache


def test_root_order_is_the_ambient_lexicographic_order():
    for family in ("A", "B", "C", "D", "E8"):
        rs = build_root_system(family, 8)
        ambient = sorted(rs.roots, key=lambda v: [F(c, 2) for c in v])
        assert sorted(rs.roots) == list(rs.sorted_roots) == ambient


# ---------------------------------------------------------------------------
# The orbit and the standard bases against references of the test tree
# ---------------------------------------------------------------------------

def _reference_base(family, rank):
    """The standard simple roots in ambient coordinates, as Fractions, each
    then doubled to a tuple of ints: E6 is the first six E8 simples."""
    half = F(1, 2)

    def unit(i, size):
        return [F(int(j == i)) for j in range(size)]

    def minus(a, b):
        return [x - y for x, y in zip(a, b)]

    if family == "A":
        ambient = [minus(unit(i, rank + 1), unit(i + 1, rank + 1)) for i in range(rank)]
    elif family in ("B", "C", "D"):
        ambient = [minus(unit(i, rank), unit(i + 1, rank)) for i in range(rank - 1)]
        last = {"B": unit(rank - 1, rank), "C": [2 * c for c in unit(rank - 1, rank)],
                "D": [x + y for x, y in zip(unit(rank - 2, rank), unit(rank - 1, rank))]}
        ambient.append(last[family])
    elif family == "G2":
        ambient = [[F(1), F(-1), F(0)], [F(-2), F(1), F(1)]]
    elif family == "F4":
        ambient = [minus(unit(1, 4), unit(2, 4)), minus(unit(2, 4), unit(3, 4)), unit(3, 4),
                   [half, -half, -half, -half]]
    else:
        ambient = [[half, -half, -half, -half, -half, -half, -half, half],
                   [F(1), F(1)] + [F(0)] * 6]
        ambient += [minus(unit(j - 2, 8), unit(j - 3, 8)) for j in range(3, 9)]
        ambient = ambient[:rank]
    doubled = [[2 * c for c in v] for v in ambient]
    assert all(c.denominator == 1 for v in doubled for c in v)
    return [tuple(int(c) for c in v) for v in doubled]


def _two_sided_orbit(simples):
    """The orbit of `simples` (tuples of ints) under their reflections
    v -> v - k*s, k = 2(v.s)/(s.s), climbing and descending alike."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    reached = list(simples)
    roots = set(reached)
    for v in reached:
        for s in simples:
            k, remainder = divmod(2 * dot(v, s), dot(s, s))
            assert not remainder
            image = tuple(a - k * b for a, b in zip(v, s))
            if image not in roots:
                roots.add(image)
                reached.append(image)
    return roots


def test_orbit_and_standard_base_equal_the_test_references():
    """For every root system of the rank-16 catalog, the standard base is the
    reference spelled in ambient Fractions, and the roots, with their order,
    are the two-sided reflection orbit of that base."""
    from innerlie.pairs import catalog
    from innerlie.rootsys import _base_coords

    systems = sorted({(pair.family, pair.rank) for pair in catalog(16)})
    assert len(systems) == 34
    for family, rank in systems:
        base = _reference_base(family, rank)
        assert [tuple(v) for v in _base_coords(family, rank)] == base, (family, rank)
        rs = build_root_system(family, rank)
        orbit = _two_sided_orbit(base)
        assert rs.roots == orbit, (family, rank)
        assert [tuple(v) for v in rs.sorted_roots] == sorted(orbit), (family, rank)
