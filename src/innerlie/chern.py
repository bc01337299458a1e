"""Chern-Ricci data: the sum of positive roots, Ricci values and the scalar.

The distinguished toral element is represented by its inner-product dual,
the coordinate sum of the positive roots, so every pairing below is a plain
dot product.  All reported scalars are meaningful up to one global positive
normalization; the assertions made (vanishing, nonzero, sign) do not depend
on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, NamedTuple

from .balanced import BalancedMetric
from .ordering import AdmissibleOrdering
from .pairs import InnerPair
from .rootsys import RootVector


class ChernReport(NamedTuple):
    delta: RootVector
    scalar_curvature: Fraction
    delta_nonzero: bool
    kodaira_flag: bool  # negative Kodaira dimension asserted when delta != 0


def weyl_delta(ordering: AdmissibleOrdering) -> RootVector:
    """Coordinate sum of the ordering's positive roots, column by column."""
    return RootVector._from_doubled(map(sum, zip(*ordering.positives)))


def chern_report(metric: BalancedMetric | Mapping[RootVector, Fraction],
                 ordering: AdmissibleOrdering, pair: InnerPair) -> ChernReport:
    """delta and the scalar 2 * sum over positive roots a of +-g_a <a, delta>
    (+ for noncompact a); each doubled pairing is 4 <a, delta>, an integer.
    The sum is taken in integers over the common denominator `den` of g."""
    g = metric.g if isinstance(metric, BalancedMetric) else metric
    den = lcm(*(value.denominator for value in g.values()))
    delta = weyl_delta(ordering)
    total = 0
    for root in ordering.positives:
        pairing = sum(map(mul, root, delta))
        if pairing:
            value = g[root]
            term = pairing * value.numerator * (den // value.denominator)
            total += -term if pair.grading.is_compact(root) else term
    nonzero = not delta.is_zero()
    return ChernReport(
        delta=delta,
        scalar_curvature=Fraction(total, 2 * den),
        delta_nonzero=nonzero,
        kodaira_flag=nonzero)
