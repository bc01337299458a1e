from fractions import Fraction

import pytest

from innerlie import (
    find_admissible_ordering,
    pair_by_name,
    standard_ordering,
)
from innerlie.balanced import assemble_system, noncompact_witness
from innerlie.ordering import make_ordering
from innerlie.rootsys import (
    RootVector,
    all_simple_systems,
    build_root_system,
    root_vector,
)

H = Fraction(1, 2)


def test_standard_su21_fails_partner_property():
    pair = pair_by_name("su(2,1)")
    assert standard_ordering(pair).mode == "diagnostic"


def test_g2_reflected_system_satisfies_property():
    pair = pair_by_name("g2(2)")
    ordering = find_admissible_ordering(pair)
    assert ordering.mode == "partner_property"
    alpha, beta = pair.system.base.simples
    assert set(ordering.system.simples) == {-beta, alpha + beta}


def test_so14_special_mode():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    assert ordering.mode == "so_1_2n_special"
    assert ordering.system.key() == pair.system.base.key()
    assert ordering.noncompact_simples == (root_vector(0, 1),)


EXPECTED_NC = {
    # reflected noncompact simples, pinned from the construction data
    "g2(2)": {root_vector(2, -1, -1), root_vector(-1, 0, 1)},          # {-beta, alpha+beta}
    "f4(-20)": {RootVector([-H, H, H, H]), RootVector([H, -H, -H, H])},  # {-a4, a4+a3}
    "f4(4)": {root_vector(0, -1, 1, 0), root_vector(0, 1, 0, -1)},       # {-a1, a1+a2}
    "e8(8)": {RootVector([-H, H, H, H, H, H, H, -H]),
              RootVector([-H, H, -H, -H, -H, -H, -H, H])},               # {-a1, a1+a3}
    "e8(-24)": {root_vector(0, 0, 0, 0, 0, 1, -1, 0),
                root_vector(0, 0, 0, 0, -1, 0, 1, 0)},                   # {-a8, a8+a7}
    "e6(2)": {root_vector(-1, -1, 0, 0, 0, 0, 0, 0),
              root_vector(1, 0, 1, 0, 0, 0, 0, 0)},                      # {-a2, a2+a4}
    "e6(-14)": {RootVector([-H, H, H, H, H, H, H, -H]),
                RootVector([-H, H, -H, -H, -H, -H, -H, H])},             # {-a1, a1+a3}
}


@pytest.mark.parametrize("name", sorted(EXPECTED_NC))
def test_exceptional_reflected_noncompact_parts(name):
    pair = pair_by_name(name)
    ordering = find_admissible_ordering(pair)
    assert ordering.mode == "partner_property"
    assert set(ordering.noncompact_simples) == EXPECTED_NC[name]


def test_every_non_special_pair_gets_partner_mode(catalog8):
    for pair in catalog8:
        ordering = find_admissible_ordering(pair)
        if pair.is_so_1_2n:
            assert ordering.mode == "so_1_2n_special"
        else:
            assert ordering.mode == "partner_property"


def test_reflected_systems_are_genuine(catalog8):
    """Beside validate_base, an independent check in doubled integers: each
    positive root is recomposed from its split with coefficients >= 0, and
    the positive roots are half the roots and, with their negatives, all."""
    for pair in catalog8:
        ordering = find_admissible_ordering(pair)
        pair.system.validate_base(ordering.system)
        assert len(ordering.positives) == len(pair.system.roots) // 2
        assert set(ordering.positives) | {-v for v in ordering.positives} == pair.system.roots
        assert set(ordering.compact_simples) | set(ordering.noncompact_simples) == set(ordering.system.simples)
        assert not set(ordering.compact_simples) & set(ordering.noncompact_simples)
        simples = ordering.compact_simples + ordering.noncompact_simples
        for root, (n, m) in ordering.split.items():
            assert min(n + m) >= 0, (pair.name, root)
            recomposed = [sum(c * s[i] for c, s in zip(n + m, simples)) for i in range(len(root))]
            assert tuple(recomposed) == root, (pair.name, root)


def test_reflected_base_of_every_simple_root_small_ranks():
    """Each simple reflection of the standard base, painted or not, is a
    base that validate_base accepts, in every family at small rank."""
    for family, rank in [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]:
        rs = build_root_system(family, rank)
        for p in range(rank):
            reflected = rs.reflected_base(p)
            assert list(reflected.simples) == sorted(reflected.simples)
            coords = rs.validate_base(reflected)
            assert set(coords) == rs.roots, (family, rank, p)


def brute_force_partner_property(system, pair):
    nc = [s for s in system.simples if not pair.grading.is_compact(s)]
    for psi in nc:
        if not any((psi + other) in pair.system.roots for other in nc):
            return False
    return True


@pytest.mark.parametrize("name", ["su(2,1)", "so(3,2)", "so(1,4)", "g2(2)"])
def test_rank2_chamber_exhaustive_agreement(name):
    pair = pair_by_name(name)
    for system in all_simple_systems(pair.system):
        assert (make_ordering(pair, system).mode == "partner_property") == \
            brute_force_partner_property(system, pair)


def test_decompose_over_simple_root():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    phi = ordering.compact_simples[0]
    n, m = ordering.split[phi]
    assert n == (1,) and m == (0,)


def test_decompose_over_refuses_a_negative_root():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    assert -ordering.compact_simples[0] not in ordering.split


def test_decompose_over_g2_compact_root():
    pair = pair_by_name("g2(2)")
    ordering = find_admissible_ordering(pair)
    alpha = root_vector(1, -1, 0)  # equals psi1 + psi2 over the reflected base
    n, m = ordering.split[alpha]
    assert n == () and m == (1, 1)


def test_decompose_over_su21_highest_root():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    n, m = ordering.split[root_vector(1, 0, -1)]
    assert n == (1,) and m == (1,)


def test_noncompact_witness_su21():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    assert noncompact_witness(assemble_system(ordering, pair), 0) == root_vector(1, 0, -1)


def test_noncompact_witness_so14():
    pair = pair_by_name("so(1,4)")
    ordering = standard_ordering(pair)
    assert ordering.compact_simples == (root_vector(1, -1),)
    assert noncompact_witness(assemble_system(ordering, pair), 0) == root_vector(1, 0)


def test_noncompact_witness_never_simple(catalog8):
    for pair in catalog8:
        if pair.rank > 4:
            continue
        ordering = find_admissible_ordering(pair)
        simples = set(ordering.system.simples)
        system = assemble_system(ordering, pair)
        for j in range(len(ordering.compact_simples)):
            witness = noncompact_witness(system, j)
            assert witness not in simples
            assert not pair.grading.is_compact(witness)
            assert witness in ordering.positives

