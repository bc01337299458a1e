from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from innerlie import (
    chern_report,
    find_admissible_ordering,
    pair_by_name,
    solve_for_pair,
    standard_ordering,
    weyl_delta,
)
from innerlie.balanced import BalancedMetric
from innerlie.ordering import make_ordering
from innerlie.rootsys import SimpleSystem, root_vector

F = Fraction


def test_weyl_delta_a2():
    ordering = standard_ordering(pair_by_name("su(2,1)"))
    assert weyl_delta(ordering) == root_vector(2, 0, -2)


def test_weyl_delta_negated_ordering():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    reversed_system = SimpleSystem([-s for s in ordering.system.simples])
    reversed_ordering = make_ordering(pair, reversed_system)
    assert weyl_delta(reversed_ordering) == -weyl_delta(ordering)


def test_weyl_delta_nonzero_for_g2_reflected():
    pair = pair_by_name("g2(2)")
    ordering = find_admissible_ordering(pair)
    assert not weyl_delta(ordering).is_zero()


def test_chern_scalar_vanishes_on_balanced():
    for name in ["g2(2)", "so(1,4)", "f4(4)", "su(3,2)"]:
        pair = pair_by_name(name)
        metric = solve_for_pair(pair)
        assert chern_report(metric, metric.ordering, pair).scalar_curvature == 0


def test_chern_scalar_nonzero_on_unbalanced():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    unit = BalancedMetric(g={r: F(1) for r in ordering.positives}, ordering=ordering)
    value = chern_report(unit, ordering, pair).scalar_curvature
    # imbalance (0,2,-2) against delta (2,0,-2), doubled
    assert value == 2 * root_vector(0, 2, -2).dot(root_vector(2, 0, -2)) == 8


def test_chern_scalar_linear_in_metric():
    pair = pair_by_name("su(2,1)")
    ordering = standard_ordering(pair)
    unit = BalancedMetric(g={r: F(1) for r in ordering.positives}, ordering=ordering)
    scaled = BalancedMetric(g={r: F(7, 3) for r in ordering.positives}, ordering=ordering)
    assert chern_report(scaled, ordering, pair).scalar_curvature == \
        F(7, 3) * chern_report(unit, ordering, pair).scalar_curvature


def test_chern_report_flags():
    pair = pair_by_name("so(1,4)")
    metric = solve_for_pair(pair)
    report = chern_report(metric, metric.ordering, pair)
    assert report.scalar_curvature == 0
    assert report.delta_nonzero and report.kodaira_flag
    assert report.delta == weyl_delta(metric.ordering)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(["su(2,1)", "g2(2)", "so(3,2)", "su(3,2)", "so(1,4)"]),
       data=st.data())
def test_chern_scalar_equals_the_fraction_formula(name, data):
    """The integer sum over a common denominator equals 2 sum +-g_a <a, delta>
    summed in Fractions, on positive metrics balanced or not."""
    pair = pair_by_name(name)
    metric = solve_for_pair(pair)
    ordering = metric.ordering
    weights = st.fractions(min_value=F(1, 1000), max_value=1000)
    g = {root: data.draw(st.one_of(weights, st.just(metric.g[root])))
         for root in ordering.positives}
    delta = weyl_delta(ordering)
    expected = 2 * sum((-g[a] if pair.grading.is_compact(a) else g[a]) * a.dot(delta)
                       for a in ordering.positives)
    assert chern_report(g, ordering, pair).scalar_curvature == expected
