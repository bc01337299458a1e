"""Assembly and constructive solution of the balanced linear system.

With g_a > 0 the unknown per positive root a, the balanced identity

    sum_{a compact positive} g_a * a  =  sum_{a noncompact positive} g_a * a

is equivalent, coefficient by coefficient over the simple roots, to one
relation per simple root.  `assemble_system` states it once, as the side
(+1 noncompact, -1 compact) of each non-simple positive root; the relation
values and both witness searches read those signs.  The constructive scheme
assigns 1 to every non-simple positive root and then bumps selected
witnesses by the least positive integer making each simple-root value at
least 1: noncompact witnesses fix the compact-simple relations without
disturbing each other, and compact witnesses from the span of the
noncompact simples fix the noncompact-simple relations without feeding
back.  The relation values take one full pass over the signs, and each
bump then updates the values it changes.  The solvers build without
checking their output; callers check a metric with `verify_balanced`, or a
whole certificate with `verify.verify_data` or `verify.verify_file`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import verify
from .ordering import (
    MODE_SPECIAL,
    AdmissibleOrdering,
    find_admissible_ordering,
    make_ordering,
)
from .pairs import InnerPair, pair_by_name
from .rootsys import (
    InvariantViolation,
    RootSystemError,
    all_simple_systems,
    show,
)


class InfeasibleOrdering(Exception):
    """The balanced system has no positive solution for this ordering."""

    def __init__(self, simple_root: tuple, reason: str):
        self.simple_root = simple_root
        self.reason = reason
        super().__init__(reason)


class BalancedSystem(NamedTuple):
    """The balanced relations for one ordering: the side of each non-simple
    positive root, +1 noncompact and -1 compact, in `ordering.split` order."""

    pair: InnerPair
    ordering: AdmissibleOrdering
    signs: dict[tuple, int]


class BalancedMetric(NamedTuple):
    """Strictly positive rational coefficient per positive root."""

    g: dict[tuple, Fraction]
    ordering: AdmissibleOrdering


def assemble_system(ordering: AdmissibleOrdering, pair: InnerPair) -> BalancedSystem:
    simples, compact = set(ordering.system.simples), ordering.chamber[1]
    return BalancedSystem(pair, ordering, {root: -1 if root in compact else 1
                                           for root in ordering.split if root not in simples})


def noncompact_witness(system: BalancedSystem, j: int) -> tuple:
    """First noncompact root of `system.signs` with a nonzero coefficient
    along the j-th compact simple."""
    split = system.ordering.split
    for root, sign in system.signs.items():
        if sign > 0 and split[root][0][j]:
            return root
    raise InvariantViolation(
        f"{system.pair.name}: no noncompact witness for compact simple "
        f"{show(system.ordering.compact_simples[j])}; this contradicts the "
        "trivial-centralizer argument")


def _relation_values(system: BalancedSystem, g: dict[tuple, Fraction | int]):
    """Evaluate the right-hand sides: one value per compact and noncompact simple.

    Each is a column sum over the roots of `system.signs`: sign * g times
    their compact-simple coefficients, then minus that for the noncompact
    ones.  Exact for integer and Fraction values of g alike.
    """
    split, k = system.ordering.split, len(system.ordering.compact_simples)
    weights = [sign * g[root] for root, sign in system.signs.items()]
    rows = [n + m for n, m in map(split.__getitem__, system.signs)]
    sums = [sum(map(mul, weights, column)) for column in zip(*rows)]
    return sums[:k], [-value for value in sums[k:]]


def solve_constructive(system: BalancedSystem) -> BalancedMetric:
    """Run the constructive assignment; raises InfeasibleOrdering on the
    diagnostic path (non-admissible orderings such as the standard su(p,q) one).

    Bumps are the least positive integers achieving value >= 1, so the
    output is deterministic and integer-valued.
    """
    ordering = system.ordering
    pair = system.pair
    split = ordering.split
    compact = [root for root, sign in system.signs.items() if sign < 0]

    # Diagnostic: a noncompact simple with no compact positive carrying its
    # coordinate forces the corresponding value <= 0 for every positive choice.
    for j, psi in enumerate(ordering.noncompact_simples):
        if not any(split[root][1][j] for root in compact):
            raise InfeasibleOrdering(
                psi,
                f"{pair.name}: the relation for noncompact simple {show(psi)} has a "
                "non-positive right-hand side (no compact positive root outside "
                "the base carries its coordinate)")

    witnesses = [noncompact_witness(system, j)  # hard failure if absent
                 for j in range(len(ordering.compact_simples))]

    g = dict.fromkeys(system.signs, 1)  # integers until the metric is packaged
    g_vals, h_vals = _relation_values(system, g)

    def bump(root: tuple, coefficient: int, deficit: int) -> None:
        steps = max(1, -((-deficit) // coefficient))  # ceil for positive coefficient
        g[root] += steps
        value = system.signs[root] * steps
        n, m = split[root]
        for j, c in enumerate(n):
            g_vals[j] += value * c
        for j, c in enumerate(m):
            h_vals[j] -= value * c

    # One pass per phase, over the values as the phase found them.  A
    # noncompact witness is a positive root, so its bump can only raise the
    # compact values; a witness from the span of the noncompact simples is
    # zero on the compact simples, so its bump leaves them alone and can only
    # raise the noncompact ones.  Each bump lifts its value to at least 1.
    for j, value in enumerate(list(g_vals)):
        if value < 1:
            bump(witnesses[j], split[witnesses[j]][0][j], 1 - value)

    for j, value in enumerate(list(h_vals)):
        if value < 1:
            witness = next((root for root in compact  # in the span: zero on the compact simples
                            if split[root][1][j] and not any(split[root][0])), None)
            if witness is None:
                raise InfeasibleOrdering(
                    ordering.noncompact_simples[j],
                    f"{pair.name}: the constructive scheme has no witness in the "
                    f"span of the noncompact simples for {show(ordering.noncompact_simples[j])}")
            bump(witness, split[witness][1][j], 1 - value)

    g.update(zip(ordering.compact_simples + ordering.noncompact_simples, g_vals + h_vals))
    fractions = {value: Fraction(value) for value in set(g.values())}  # one per distinct value
    return BalancedMetric(g={root: fractions[value] for root, value in g.items()}, ordering=ordering)


def solve_so1_2n(n: int, x=Fraction(1), y=Fraction(2)) -> BalancedMetric:
    """Closed-form family for the catalog's so(1,2n) with the standard ordering.

    Assigns x to the positive differences, y to the positive sums and
    determines the short-root coefficients z_i by exact expansion:

        z_i = (x + y)(n - i) + (y - x)(i - 1),  i = 1..n,

    all positive exactly when y > x > 0.  The choice (x, y) is validated
    by the arithmetic, and any non-positive z_i is rejected by index.  An n
    with no catalog pair, odd n included, raises the catalog's RootSystemError.
    """
    return _so1_2n_metric(find_admissible_ordering(pair_by_name(f"so(1,{2 * n})")), x, y)


def _so1_2n_metric(ordering: AdmissibleOrdering, x=Fraction(1), y=Fraction(2)) -> BalancedMetric:
    """`solve_so1_2n` over the standard ordering of an so(1,2n) pair."""
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise RootSystemError("coefficients x, y must be positive")
    n = ordering.system.rank
    z = [(x + y) * (n - i) + (y - x) * (i - 1) for i in range(1, n + 1)]
    for i, value in enumerate(z, start=1):
        if value <= 0:
            raise RootSystemError(
                f"coefficient z_{i} = {value} is not positive for (x, y) = ({x}, {y})")
    g: dict[tuple, Fraction] = {}
    for root in ordering.positives:
        support = [i for i, c in enumerate(root) if c != 0]
        if len(support) == 1:
            g[root] = z[support[0]]
        elif root[support[0]] == -root[support[1]]:
            g[root] = x
        else:
            g[root] = y
    return BalancedMetric(g=g, ordering=ordering)


def verify_balanced(metric: BalancedMetric, pair: InnerPair) -> bool:
    """Exact equality of the two weighted root sums, checked by the
    verifier's own arithmetic (`verify.check_balanced`); raises
    RootSystemError when the metric's domain is not the positive roots."""
    return verify.check_balanced(pair, metric.ordering.system.simples, metric.g)


def solve_for_pair(pair: InnerPair) -> BalancedMetric:
    """Route a catalog pair through the appropriate solver."""
    ordering = find_admissible_ordering(pair)
    if ordering.mode == MODE_SPECIAL:
        return _so1_2n_metric(ordering)
    return solve_constructive(assemble_system(ordering, pair))


# `scan_binvariant` enumerates every Weyl chamber, so it refuses pairs of
# larger rank instead of sampling.
SCAN_RANK_BOUND = 4


def scan_binvariant(pair: InnerPair):
    """All orderings for which the unit metric g = 1 is balanced, by the
    verifier's check (`verify.check_balanced`)."""
    if pair.rank > SCAN_RANK_BOUND:
        raise RootSystemError(
            f"{pair.name} has rank {pair.rank} > bound {SCAN_RANK_BOUND}; "
            "refusing a non-exhaustive scan")
    found = []
    for system in all_simple_systems(pair.system):
        ordering = make_ordering(pair, system)
        if verify.check_balanced(pair, system.simples, dict.fromkeys(ordering.positives, 1)):
            found.append(ordering)
    return found
