from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

import innerlie.verify as verify
import innerlie.walk as walk
from innerlie import (
    RootSystemError,
    build_certificate,
    find_admissible_ordering,
    pair_by_name,
    verify_certificate,
)
from innerlie.pluriclosed import find_noncompact_interacting_pair, instantiate_relation
from innerlie.rootsys import root_vector

F = Fraction


def test_relation_orthogonal_pair_vanishes():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    relation = instantiate_relation(root_vector(1, 1), root_vector(1, -1), ordering, pair)
    assert relation.coeffs == {}


def test_relation_so14_both_terms():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    relation = instantiate_relation(root_vector(1, 0), root_vector(0, 1), ordering, pair)
    # N2(psi1,psi2)(x_{phi1} - x_{psi1} - x_{psi2}) + N2(psi1,-psi2)(x_{phi2} + x_{psi2} - x_{psi1})
    # with both structure constants equal to 1; the psi2 contributions cancel.
    assert relation.coeffs == {
        root_vector(1, 1): F(1),
        root_vector(1, -1): F(1),
        root_vector(1, 0): F(-2),
    }


def test_relation_so14_single_term():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    relation = instantiate_relation(root_vector(1, 1), root_vector(0, 1), ordering, pair)
    assert relation.coeffs == {
        root_vector(1, 0): F(1),
        root_vector(0, 1): F(1),
        root_vector(1, 1): F(-1),
    }


def test_relation_rejects_equal_roots():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    with pytest.raises(RootSystemError):
        instantiate_relation(root_vector(1, 0), root_vector(1, 0), ordering, pair)


def test_relation_requires_positive_roots():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    with pytest.raises(RootSystemError):
        instantiate_relation(root_vector(-1, 0), root_vector(0, 1), ordering, pair)


def test_interacting_pair_g2():
    pair = pair_by_name("g2(2)")
    ordering = find_admissible_ordering(pair)
    psi1, psi2, phi = find_noncompact_interacting_pair(ordering, pair)
    alpha, beta = pair.system.base.simples
    assert {psi1, psi2} == {-beta, alpha + beta}
    assert phi == psi1 + psi2 == alpha
    assert pair.grading.is_compact(phi)
    assert not pair.system.is_root(phi + psi1)
    assert phi in ordering.positives  # positive over the reflected base


def test_interacting_pair_f4m20():
    pair = pair_by_name("f4(-20)")
    ordering = find_admissible_ordering(pair)
    psi1, psi2, phi = find_noncompact_interacting_pair(ordering, pair)
    a3 = pair.system.base.simples[2]
    assert phi == a3
    assert not pair.system.is_root(phi + psi1)


def test_interacting_pair_requires_partner_mode():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    with pytest.raises(RootSystemError):
        find_noncompact_interacting_pair(ordering, pair)


def test_at_most_one_double_sum_root(catalog8):
    """At most one of psi1 + 2 psi2, psi2 + 2 psi1 is a root, over all
    simple-root pairs of every catalog system."""
    seen = set()
    for pair in catalog8:
        key = (pair.family, pair.rank)
        if key in seen:
            continue
        seen.add(key)
        rs = pair.system
        for psi1, psi2 in permutations(rs.base.simples, 2):
            assert not (rs.is_root(psi1 + 2 * psi2) and rs.is_root(psi2 + 2 * psi1))


# The compact form as a negative control.  With every x_a = -1 (the unit
# metric of the compact form, where every root is compact) the right side of
# each relation equals -<a, b>, so the unit metric solves every relation and
# no obstruction exists there.  Equivalently, the coefficients of each
# relation sum to <a, b>.  A flipped sign e cancels at x = -1 (e^2 = 1), so
# this identity cannot see it; it does see a wrong N^2 and a difference
# folded onto a negative root.  The builder takes its relations from
# `verify._derived_relation`, so this pins the one statement of the formula.
ONE_PAIR_PER_SYSTEM = [
    "su(2,1)", "so(1,4)", "g2(2)", "su(3,2)", "so(1,8)", "sp(4,R)", "so(8)*", "f4(-20)",
    "su(4,3)", "so(1,12)", "sp(6,R)", "so(12)*", "e6(-14)", "su(5,4)", "so(1,16)", "sp(8,R)",
    "so(16)*", "e8(-24)"]


def test_one_pair_per_root_system(catalog8):
    systems = [(pair.family, pair.rank) for pair in map(pair_by_name, ONE_PAIR_PER_SYSTEM)]
    assert sorted(systems) == sorted({(pair.family, pair.rank) for pair in catalog8})


@pytest.mark.parametrize("name", ONE_PAIR_PER_SYSTEM)
def test_derived_relation_sums_to_the_pairing(name):
    """Over every ordered pair of distinct positive roots of the admissible
    ordering, on doubled vectors: the coefficients sum to the doubled dot
    product over 4, and every key is a positive root."""
    pair = pair_by_name(name)
    simples = find_admissible_ordering(pair).system.simples
    positive, _ = walk._claimed_roots(pair, simples)
    for alpha, beta in permutations(sorted(positive), 2):
        derived = verify._derived_relation(pair.system.roots, positive, alpha, beta)
        assert sum(derived.values()) == Fraction(sum(map(mul, alpha, beta)), 4), (alpha, beta)
        assert set(derived) <= positive, (alpha, beta)


def test_certificate_g2_frozen():
    pair = pair_by_name("g2(2)")
    ordering = find_admissible_ordering(pair)
    cert = build_certificate(ordering, pair)
    alpha, beta = pair.system.base.simples
    assert cert.branch == "generic"
    assert cert.conclusion_root == -beta  # the noncompact simple with phi + psi1 not a root
    assert cert.conclusion_coeffs == {
        -beta: F(6), alpha + beta: F(6), alpha: F(-6)}
    assert cert.combination == (F(-1), F(1))
    assert verify_certificate(cert, pair) == (True, None)


def test_certificate_so14_frozen():
    pair = pair_by_name("so(1,4)")
    ordering = find_admissible_ordering(pair)
    cert = build_certificate(ordering, pair)
    assert cert.branch == "so_1_2n"
    assert cert.roots == {
        "psi1": root_vector(1, 0), "psi2": root_vector(0, 1),
        "phi1": root_vector(1, 1), "phi2": root_vector(1, -1)}
    # coefficient vector (1, 3, -2, -1) over (x_psi2, x_psi1, x_phi1, x_phi2)
    assert cert.conclusion_coeffs == {
        root_vector(0, 1): F(1), root_vector(1, 0): F(3),
        root_vector(1, 1): F(-2), root_vector(1, -1): F(-1)}
    assert cert.conclusion_root == root_vector(1, 0)
    assert verify_certificate(cert, pair) == (True, None)


def test_certificates_over_small_catalog(small_pairs):
    for pair in small_pairs:
        ordering = find_admissible_ordering(pair)
        cert = build_certificate(ordering, pair)
        assert (cert.branch == "so_1_2n") == pair.is_so_1_2n
        ok, reason = verify_certificate(cert, pair)
        assert ok, f"{pair.name}: {reason}"


def test_certificate_e8_at_scale():
    pair = pair_by_name("e8(8)")
    ordering = find_admissible_ordering(pair)
    cert = build_certificate(ordering, pair)
    assert verify_certificate(cert, pair) == (True, None)


def _fresh_cert(name="g2(2)"):
    pair = pair_by_name(name)
    ordering = find_admissible_ordering(pair)
    return pair, build_certificate(ordering, pair)


def test_tamper_combination_elimination_fails():
    pair, cert = _fresh_cert()
    tampered = cert._replace(combination=(cert.combination[0] + 1, cert.combination[1]))
    ok, reason = verify_certificate(tampered, pair)
    assert not ok and reason == "elimination failed"


def test_tamper_sign_constraint_flagged():
    pair, cert = _fresh_cert()
    signs = dict(cert.variable_signs)
    some_root = next(iter(signs))
    signs[some_root] = -signs[some_root]
    tampered = cert._replace(variable_signs=signs)
    ok, reason = verify_certificate(tampered, pair)
    assert not ok and reason == "sign pattern violated"


def test_tamper_relation_coefficient_detected():
    pair, cert = _fresh_cert()
    relation = cert.relations[0]
    coeffs = dict(relation.coeffs)
    some_root = next(iter(coeffs))
    coeffs[some_root] += 1
    tampered_relation = relation._replace(coeffs=coeffs)
    tampered = cert._replace(relations=(tampered_relation, cert.relations[1]))
    ok, reason = verify_certificate(tampered, pair)
    assert not ok and reason == "relation mismatch"


def test_tamper_conclusion_detected():
    pair, cert = _fresh_cert()
    coeffs = dict(cert.conclusion_coeffs)
    some_root = next(iter(coeffs))
    coeffs[some_root] += 1
    tampered = cert._replace(conclusion_coeffs=coeffs)
    ok, reason = verify_certificate(tampered, pair)
    assert not ok and reason == "conclusion mismatch"


def test_tamper_branch_detected():
    pair, cert = _fresh_cert()
    tampered = cert._replace(branch="so_1_2n")
    ok, reason = verify_certificate(tampered, pair)
    assert not ok


def test_conclusion_signs_prove_contradiction(small_pairs):
    """The combined right side is strictly positive for admissible sign data
    while the left side is a diagonal toral value, constrained negative."""
    for pair in small_pairs:
        ordering = find_admissible_ordering(pair)
        cert = build_certificate(ordering, pair)
        assert cert.conclusion_coeffs
        for root, value in cert.conclusion_coeffs.items():
            if pair.grading.is_compact(root):
                assert value < 0
            else:
                assert value > 0
