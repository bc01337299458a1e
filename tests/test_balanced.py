from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import innerlie.verify as verify
from innerlie import (
    InfeasibleOrdering,
    RootSystemError,
    assemble_system,
    find_admissible_ordering,
    pair_by_name,
    scan_binvariant,
    solve_constructive,
    solve_for_pair,
    solve_so1_2n,
    standard_ordering,
    verify_balanced,
)
from innerlie.balanced import BalancedMetric, _relation_values
from innerlie.ordering import make_ordering
from innerlie.pairs import CompactnessGrading, InnerPair
from innerlie.rootsys import (
    InvariantViolation,
    SimpleSystem,
    all_simple_systems,
    build_root_system,
    root_vector,
)

F = Fraction


def unit_metric(ordering):
    return BalancedMetric(g={r: F(1) for r in ordering.positives}, ordering=ordering)


def weighted_sums(metric, pair):
    """Independent oracle: recompute both sides of the identity from scratch."""
    dim = pair.system.ambient_dim
    compact = [F(0)] * dim
    noncompact = [F(0)] * dim
    for root, value in metric.g.items():
        target = compact if pair.grading.is_compact(root) else noncompact
        for i, c in enumerate(root):
            target[i] += value * c
    return compact, noncompact


def test_assemble_g2_shape():
    pair = pair_by_name("g2(2)")
    ordering = find_admissible_ordering(pair)
    system = assemble_system(ordering, pair)
    # one relation per simple root, four non-simple positive unknowns
    assert len(ordering.compact_simples) + len(ordering.noncompact_simples) == 2
    assert len(system.signs) == 4
    compact = {root for root, sign in system.signs.items() if sign == -1}
    assert compact == {root_vector(1, -1, 0), root_vector(-1, -1, 2)}
    assert all(not any(ordering.split[root][0]) for root in compact)  # in the noncompact span
    assert len(ordering.positives) == 6


def test_assemble_unknowns_match_positives(catalog8):
    for pair in catalog8[:12]:
        ordering = find_admissible_ordering(pair)
        system = assemble_system(ordering, pair)
        assert len(system.signs) + pair.rank == len(pair.system.roots) // 2


def test_assemble_su21_standard_has_empty_sigma():
    pair = pair_by_name("su(2,1)")
    system = assemble_system(standard_ordering(pair), pair)
    assert set(system.signs.values()) == {1}  # every compact positive root is simple here


@pytest.mark.parametrize("name", ["su(2,1)", "su(3,2)", "su(4,3)"])
def test_su_standard_ordering_infeasible(name):
    pair = pair_by_name(name)
    ordering = standard_ordering(pair)
    with pytest.raises(InfeasibleOrdering) as excinfo:
        solve_constructive(assemble_system(ordering, pair))
    assert excinfo.value.simple_root in ordering.noncompact_simples
    assert "non-positive" in str(excinfo.value)


def test_su21_standard_ordering_reason_names_its_simple_in_ambient_values():
    pair = pair_by_name("su(2,1)")
    with pytest.raises(InfeasibleOrdering) as excinfo:
        solve_constructive(assemble_system(standard_ordering(pair), pair))
    assert excinfo.value.simple_root == root_vector(0, 1, -1) == (0, 2, -2)
    assert excinfo.value.reason == (
        "su(2,1): the relation for noncompact simple (0, 1, -1) has a non-positive "
        "right-hand side (no compact positive root outside the base carries its coordinate)")


def test_solve_g2_frozen_regression():
    pair = pair_by_name("g2(2)")
    metric = solve_for_pair(pair)
    assert metric.g == {
        root_vector(-1, -1, 2): F(4),
        root_vector(-1, 0, 1): F(8),
        root_vector(0, -1, 1): F(1),
        root_vector(1, -2, 1): F(1),
        root_vector(1, -1, 0): F(1),
        root_vector(2, -1, -1): F(2),
    }
    assert verify_balanced(metric, pair)
    compact, noncompact = weighted_sums(metric, pair)
    assert compact == noncompact


def test_solve_deterministic():
    pair = pair_by_name("f4(4)")
    assert solve_for_pair(pair).g == solve_for_pair(pair).g


def test_solve_e8_at_scale():
    pair = pair_by_name("e8(8)")
    metric = solve_for_pair(pair)
    assert len(metric.g) == 120
    assert min(metric.g.values()) > 0
    assert verify_balanced(metric, pair)
    compact, noncompact = weighted_sums(metric, pair)
    assert compact == noncompact


def test_solve_so1_2n_n2():
    metric = solve_so1_2n(2, 1, 2)
    assert metric.g == {
        root_vector(1, 0): F(3),   # z_1
        root_vector(0, 1): F(1),   # z_2 = y - x
        root_vector(1, -1): F(1),  # x
        root_vector(1, 1): F(2),   # y
    }
    pair = pair_by_name("so(1,4)")
    assert verify_balanced(metric, pair)


def test_solve_so1_2n_boundary_rejected():
    with pytest.raises(RootSystemError, match="z_2"):
        solve_so1_2n(2, 1, 1)
    with pytest.raises(RootSystemError):
        solve_so1_2n(2, 2, 1)  # x > y forces z_n <= 0
    with pytest.raises(RootSystemError):
        solve_so1_2n(1, 1, 2)
    with pytest.raises(RootSystemError):
        solve_so1_2n(2, 0, 2)


def test_solve_so1_2n_n3():
    """so(1,6) is odd-dimensional, so it is not in the catalog, and the
    closed form refuses it with the catalog's reason."""
    with pytest.raises(RootSystemError, match=r"'so\(1,6\)' is not in the catalog"):
        solve_so1_2n(3, 1, 2)


def test_solve_so1_2n_n4():
    metric = solve_so1_2n(4, 1, 2)
    shorts = [metric.g[root_vector(*(int(j == i) for j in range(4)))] for i in range(4)]
    assert shorts == [F(9), F(7), F(5), F(3)]
    assert verify_balanced(metric, pair_by_name("so(1,8)"))


def test_so1_2n_rational_family():
    metric = solve_so1_2n(2, F(1, 3), F(1, 2))
    assert verify_balanced(metric, pair_by_name("so(1,4)"))
    assert all(v > 0 for v in metric.g.values())


def su12_pair():
    """The su(1,2)-painted grading on A2 (blocks {e1}, {e2, e3})."""
    system = build_root_system("A", 2)
    return InnerPair(name="su(1,2)", family="A", rank=2, params={"p": 1, "q": 2},
                     system=system, grading=CompactnessGrading(system, (0,)),
                     dim_g=8, dim_k=4)


def test_verify_balanced_hand_oracle_true():
    pair = su12_pair()
    chamber = SimpleSystem([root_vector(-1, 1, 0), root_vector(1, 0, -1)])  # e2 > e1 > e3
    ordering = make_ordering(pair, chamber)
    assert set(ordering.positives) == {
        root_vector(-1, 1, 0), root_vector(0, 1, -1), root_vector(1, 0, -1)}
    assert verify_balanced(unit_metric(ordering), pair)


def test_verify_balanced_hand_oracle_false():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    assert not verify_balanced(unit_metric(ordering), pair)


def test_verify_balanced_rejects_wrong_domain():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    metric = unit_metric(ordering)
    del metric.g[root_vector(1, 0, -1)]
    with pytest.raises(RootSystemError):
        verify_balanced(metric, pair)


def test_scan_su21_finds_unit_balanced_chambers():
    pair = pair_by_name("su(2,1)")
    found = scan_binvariant(pair)
    assert found
    keys = {ordering.system.key() for ordering in found}
    expected = SimpleSystem([root_vector(1, 0, -1), root_vector(0, -1, 1)])  # e1 > e3 > e2
    assert expected.key() in keys
    for ordering in found:
        assert verify_balanced(unit_metric(ordering), pair)


def test_scan_su32_nonempty():
    found = scan_binvariant(pair_by_name("su(3,2)"))
    assert found
    for ordering in found:
        assert verify_balanced(unit_metric(ordering), pair_by_name("su(3,2)"))


def test_scan_so32_and_g2_empty():
    assert scan_binvariant(pair_by_name("so(3,2)")) == []
    assert scan_binvariant(pair_by_name("g2(2)")) == []


def test_scan_refuses_above_bound():
    with pytest.raises(RootSystemError, match="refusing"):
        scan_binvariant(pair_by_name("su(4,3)"))


def test_relation_values_agree_with_the_verifier_on_every_kind_of_chamber(small_pairs):
    """Every chamber of the rank-2 pairs and every 25th of each rank-4 pair:
    the simple values `_relation_values` gives a metric make it balanced by
    the verifier's check, and raising one of them by 1 breaks it."""
    checked = 0
    for pair in small_pairs:
        if pair.rank not in (2, 4):
            continue
        step = 1 if pair.rank == 2 else 25
        for k, base in enumerate(islice(all_simple_systems(pair.system), 0, None, step)):
            ordering = make_ordering(pair, base)
            system = assemble_system(ordering, pair)
            g = {root: 1 + i % 3 for i, root in enumerate(system.signs)}
            g_vals, h_vals = _relation_values(system, g)
            g.update(zip(ordering.compact_simples + ordering.noncompact_simples, g_vals + h_vals))
            assert verify.check_balanced(pair, base.simples, g), (pair.name, k)
            g[base.simples[k % pair.rank]] += 1
            assert not verify.check_balanced(pair, base.simples, g), (pair.name, k)
            checked += 1
    assert checked == 274


def _reference_solve(ordering, pair):
    """The constructive scheme in three full passes, from the ordering's split
    and the grading alone: the values at g = 1 set phase 1's bumps, the values
    after phase 1 set phase 2's, and the values after phase 2 are the simple
    roots' own."""
    split = ordering.split
    simples = set(ordering.system.simples)
    sides = {root: -1 if pair.grading.is_compact(root) else 1
             for root in ordering.positives if root not in simples}

    def values(g):
        return ([sum(side * g[root] * split[root][0][j] for root, side in sides.items())
                 for j in range(len(ordering.compact_simples))],
                [-sum(side * g[root] * split[root][1][j] for root, side in sides.items())
                 for j in range(len(ordering.noncompact_simples))])

    def bump(root, coefficient, deficit):
        g[root] += max(1, -(-deficit // coefficient))

    g = dict.fromkeys(sides, 1)
    for j, value in enumerate(values(g)[0]):
        if value < 1:
            witness = next(root for root, side in sides.items() if side > 0 and split[root][0][j])
            bump(witness, split[witness][0][j], 1 - value)
    for j, value in enumerate(values(g)[1]):
        if value < 1:
            witness = next(root for root, side in sides.items()
                           if side < 0 and split[root][1][j] and not any(split[root][0]))
            bump(witness, split[witness][1][j], 1 - value)
    g_vals, h_vals = values(g)
    g.update(zip(ordering.compact_simples + ordering.noncompact_simples, g_vals + h_vals))
    return g


def test_solve_constructive_matches_a_three_pass_reference(small_pairs):
    """Every partner-mode chamber of the rank-2 and rank-3 pairs and every
    10th chamber of each rank-4 pair, 229 in all: the solver, which evaluates
    the relations once and then updates them on each bump, gives the
    reference's metric, whose phases each start from a full evaluation."""
    checked = 0
    for pair in small_pairs:
        step = 10 if pair.rank == 4 else 1
        for k, base in enumerate(islice(all_simple_systems(pair.system), 0, None, step)):
            ordering = make_ordering(pair, base)
            if ordering.mode == "partner_property":
                metric = solve_constructive(assemble_system(ordering, pair))
                assert metric.g == _reference_solve(ordering, pair), (pair.name, k)
                checked += 1
    assert checked == 229


# ---------------------------------------------------------------------------
# Negative control: the compact form, where every root is compact, admits no
# balanced metric (the paper's contrast with compact Lie groups)
# ---------------------------------------------------------------------------

def compact_g2():
    system = build_root_system("G2", 2)
    return InnerPair(name="g2 compact", family="G2", rank=2, system=system,
                     grading=CompactnessGrading(system, ()), dim_g=14, dim_k=14)


def test_compact_form_unit_metric_not_balanced():
    pair = compact_g2()
    unit = {root: F(1) for root in pair.system.positive_roots}
    assert not verify.check_balanced(pair, pair.system.base.simples, unit)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(weights=st.lists(st.fractions(min_value=F(1, 100), max_value=100), min_size=6, max_size=6))
def test_compact_form_no_positive_metric_balanced(weights):
    """With every root compact the identity reads sum g_a a = 0, whose pairing
    with delta is a sum of positive terms."""
    pair = compact_g2()
    g = dict(zip(pair.system.positive_roots, weights))
    assert not verify.check_balanced(pair, pair.system.base.simples, g)


def test_compact_form_pipeline_raises():
    with pytest.raises(InvariantViolation):
        solve_for_pair(compact_g2())
