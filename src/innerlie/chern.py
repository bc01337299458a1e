"""The certificate's Chern block: delta, the sum of positive roots, and the scalar.

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
from typing import Mapping

from . import verify
from .balanced import BalancedMetric
from .ordering import AdmissibleOrdering
from .pairs import InnerPair


def weyl_delta(ordering: AdmissibleOrdering) -> tuple:
    """Coordinate sum of the ordering's positive roots, column by column."""
    return tuple(map(sum, zip(*ordering.positives)))


def chern_report(metric: BalancedMetric | Mapping[tuple, Fraction],
                 ordering: AdmissibleOrdering, pair: InnerPair) -> dict:
    """The Chern block: delta, the scalar 2 * sum over positive roots a of
    +-g_a <a, delta> (+ for noncompact a) as a string, and delta != 0 as both
    delta_nonzero and kodaira_flag.  Each doubled pairing is 4 <a, delta>, an
    integer, and the sum is taken in integers over the common denominator of g."""
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
    nonzero = any(delta)
    return {
        "delta": verify._vec_to_json(delta),
        "scalar_curvature": str(Fraction(total, 2 * den)),
        "delta_nonzero": nonzero,
        "kodaira_flag": nonzero,
    }
