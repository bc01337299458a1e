"""The certificate's Chern block: delta, the sum of positive roots, and the scalar.

The distinguished toral element is represented by its inner-product dual,
the coordinate sum of the positive roots, so every pairing below is a plain
dot product.  All reported scalars are meaningful up to one global positive
normalization; the assertions made (vanishing, nonzero, sign) do not depend
on it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, sub
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
    delta_nonzero and kodaira_flag.  On the doubled roots and delta of the
    ordering's chamber record the scalar is <n - c, delta> / 2, n and c being
    the noncompact and compact column sums of `verify._side_sums`, exact."""
    g = metric.g if isinstance(metric, BalancedMetric) else metric
    c, n = verify._side_sums({root: verify._exact(value.numerator, value.denominator)
                              for root, value in g.items()}, ordering.chamber)
    delta = ordering.chamber[-1]
    nonzero = any(delta)
    return {
        "delta": verify._vec_to_json(delta),
        "scalar_curvature": str(Fraction(sum(map(mul, map(sub, n, c), delta)), 2)),
        "delta_nonzero": nonzero,
        "kodaira_flag": nonzero,
    }
