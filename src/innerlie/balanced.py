"""Assembly and constructive solution of the balanced linear system.

With g_a > 0 the unknown per positive root a, the balanced identity

    sum_{a compact positive} g_a * a  =  sum_{a noncompact positive} g_a * a

is equivalent, coefficient by coefficient over the simple roots, to one
relation per simple root.  The constructive scheme assigns 1 to every free
coefficient and then bumps selected witnesses by the least positive integer
making each simple-root value at least 1: noncompact witnesses fix the
compact-simple relations without disturbing each other, and witnesses from
the compact span of the noncompact simples fix the noncompact-simple
relations without feeding back.  Every produced metric is re-verified by
summing both sides of the identity exactly; nothing is trusted from the
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ordering import (
    MODE_SPECIAL,
    AdmissibleOrdering,
    decompose_over,
    find_admissible_ordering,
    noncompact_witness,
    make_ordering,
)
from .pairs import CompactnessGrading, InnerPair
from .rootsys import (
    InvariantViolation,
    RootSystemError,
    RootVector,
    all_simple_systems,
    build_root_system,
)


class InfeasibleOrdering(Exception):
    """The balanced system has no positive solution for this ordering."""

    def __init__(self, simple_root: RootVector, reason: str):
        self.simple_root = simple_root
        self.reason = reason
        super().__init__(reason)


@dataclass
class BalancedSystem:
    """The balanced relations for one ordering, in simple-root coordinates."""

    pair: InnerPair
    ordering: AdmissibleOrdering
    spanned_compact: tuple[RootVector, ...]    # compact, non-simple, in the noncompact-simple span
    unspanned_compact: tuple[RootVector, ...]  # remaining compact non-simple positives
    nc_nonsimple: tuple[RootVector, ...]       # noncompact non-simple positives

    @property
    def unknowns(self) -> int:
        return len(self.ordering.positives)


@dataclass
class BalancedMetric:
    """Strictly positive rational coefficient per positive root."""

    g: dict[RootVector, Fraction]
    ordering: AdmissibleOrdering


def assemble_system(ordering: AdmissibleOrdering, pair: InnerPair) -> BalancedSystem:
    simples = set(ordering.system.simples)
    spanned_compact, unspanned_compact, nc_nonsimple = [], [], []
    for root in ordering.positives:
        if root in simples:
            continue
        if pair.grading.is_compact(root):
            n, _ = decompose_over(ordering, root)
            # in the span of the noncompact simples iff zero on the compact ones
            if any(n):
                unspanned_compact.append(root)
            else:
                spanned_compact.append(root)
        else:
            nc_nonsimple.append(root)
    return BalancedSystem(pair=pair, ordering=ordering,
                          spanned_compact=tuple(spanned_compact),
                          unspanned_compact=tuple(unspanned_compact),
                          nc_nonsimple=tuple(nc_nonsimple))


def _relation_values(system: BalancedSystem, g: dict[RootVector, Fraction | int]):
    """Evaluate the right-hand sides: one value per compact and noncompact simple.

    Exact for integer and Fraction values of g alike.
    """
    ordering = system.ordering
    k, l = len(ordering.compact_simples), len(ordering.noncompact_simples)
    g_vals = [0] * k
    h_vals = [0] * l
    for root in system.nc_nonsimple:
        n, m = decompose_over(ordering, root)
        for j in range(k):
            g_vals[j] += g[root] * n[j]
        for j in range(l):
            h_vals[j] -= g[root] * m[j]
    for root in system.unspanned_compact:
        n, m = decompose_over(ordering, root)
        for j in range(k):
            g_vals[j] -= g[root] * n[j]
        for j in range(l):
            h_vals[j] += g[root] * m[j]
    for root in system.spanned_compact:
        _, m = decompose_over(ordering, root)
        for j in range(l):
            h_vals[j] += g[root] * m[j]
    return g_vals, h_vals


def solve_constructive(system: BalancedSystem) -> BalancedMetric:
    """Run the constructive assignment; raises InfeasibleOrdering on the
    diagnostic path (non-admissible orderings such as the standard su(p,q) one).

    Bumps are the least positive integers achieving value >= 1, so the
    output is deterministic and integer-valued.
    """
    ordering = system.ordering
    pair = system.pair

    # Diagnostic: a noncompact simple with no compact positive carrying its
    # coordinate forces the corresponding value <= 0 for every positive choice.
    for j, psi in enumerate(ordering.noncompact_simples):
        witnesses = [root for root in system.spanned_compact + system.unspanned_compact
                     if decompose_over(ordering, root)[1][j] != 0]
        if not witnesses:
            raise InfeasibleOrdering(
                psi,
                f"{pair.name}: the relation for noncompact simple {psi!r} has a "
                "non-positive right-hand side (no compact positive root outside "
                "the base carries its coordinate)")

    for j in range(len(ordering.compact_simples)):
        noncompact_witness(ordering, pair, j)  # hard failure if absent

    free = system.nc_nonsimple + system.spanned_compact + system.unspanned_compact
    g = {root: 1 for root in free}  # integers until the metric is packaged

    def bump(root: RootVector, coefficient: int, deficit: int) -> None:
        steps = -((-deficit) // coefficient)  # ceil for positive coefficient
        g[root] += max(1, steps)

    for _ in range(len(ordering.system.simples) + 1):
        g_vals, h_vals = _relation_values(system, g)
        stable = True
        for j, value in enumerate(g_vals):
            if value < 1:
                witness = noncompact_witness(ordering, pair, j)
                n, _ = decompose_over(ordering, witness)
                bump(witness, n[j], 1 - value)
                stable = False
        if stable:
            break
    else:
        raise InvariantViolation(f"{pair.name}: compact relations did not stabilize")

    for _ in range(len(ordering.noncompact_simples) + 1):
        g_vals, h_vals = _relation_values(system, g)
        stable = True
        for j, value in enumerate(h_vals):
            if value < 1:
                witness = next(
                    (root for root in system.spanned_compact
                     if decompose_over(ordering, root)[1][j] != 0), None)
                if witness is None:
                    raise InfeasibleOrdering(
                        ordering.noncompact_simples[j],
                        f"{pair.name}: the constructive scheme has no witness in the "
                        f"span of the noncompact simples for {ordering.noncompact_simples[j]!r}")
                _, m = decompose_over(ordering, witness)
                bump(witness, m[j], 1 - value)
                stable = False
        if stable:
            break
    else:
        raise InvariantViolation(f"{pair.name}: noncompact relations did not stabilize")

    g_vals, h_vals = _relation_values(system, g)
    metric = {root: Fraction(value) for root, value in g.items()}
    for phi, value in zip(ordering.compact_simples, g_vals):
        metric[phi] = Fraction(value)
    for psi, value in zip(ordering.noncompact_simples, h_vals):
        metric[psi] = Fraction(value)
    result = BalancedMetric(g=metric, ordering=ordering)
    if any(v <= 0 for v in metric.values()):
        raise InvariantViolation(f"{pair.name}: constructive scheme left a non-positive value")
    if not verify_balanced(result, pair):
        raise InvariantViolation(f"{pair.name}: constructive output fails the balanced identity")
    return result


def so_1_2n_pair(n: int) -> InnerPair:
    """so(1,2n) built directly.  Odd n gives an odd-dimensional algebra
    outside the catalog, but the closed-form solver is valid for any n >= 2."""
    system = build_root_system("B", n)
    return InnerPair(name=f"so(1,{2 * n})", family="B", rank=n,
                     params={"p": 0, "q": n}, system=system,
                     grading=CompactnessGrading(system, (n - 1,)),
                     dim_g=n * (2 * n + 1), dim_k=n * (2 * n - 1))


def solve_so1_2n(n: int, x=Fraction(1), y=Fraction(2)) -> BalancedMetric:
    """Closed-form family for so(1,2n) with the standard ordering.

    Assigns x to the positive differences, y to the positive sums and
    determines the short-root coefficients z_i by exact expansion:

        z_i = (x + y)(n - i) + (y - x)(i - 1),  i = 1..n,

    all positive exactly when y > x > 0.  The choice (x, y) is validated
    by the arithmetic, and any non-positive z_i is rejected by index.
    """
    if n < 2:
        raise RootSystemError("so(1,2n) needs n >= 2")
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise RootSystemError("coefficients x, y must be positive")
    pair = so_1_2n_pair(n)
    ordering = find_admissible_ordering(pair)
    z = [(x + y) * (n - i) + (y - x) * (i - 1) for i in range(1, n + 1)]
    for i, value in enumerate(z, start=1):
        if value <= 0:
            raise RootSystemError(
                f"coefficient z_{i} = {value} is not positive for (x, y) = ({x}, {y})")
    g: dict[RootVector, Fraction] = {}
    for root in ordering.positives:
        support = [i for i, c in enumerate(root.coords) if c != 0]
        if len(support) == 1:
            g[root] = z[support[0]]
        elif root.coords[support[0]] == -root.coords[support[1]]:
            g[root] = x
        else:
            g[root] = y
    metric = BalancedMetric(g=g, ordering=ordering)
    if not verify_balanced(metric, pair):
        raise InvariantViolation("so(1,2n) closed form fails the balanced identity")
    return metric


def verify_balanced(metric: BalancedMetric, pair: InnerPair) -> bool:
    """Exact equality of the two weighted root sums; solver-independent.

    The sums are taken in integer coordinates over the standard base, whose
    map to the ambient space is injective, so equality there is equality of
    the ambient vectors.
    """
    positives = metric.ordering.positives
    if set(metric.g) != set(positives):
        raise RootSystemError("metric domain does not match the positive roots")
    rs = pair.system
    compact_sum = [0] * rs.rank
    noncompact_sum = [0] * rs.rank
    for root in positives:
        target = compact_sum if pair.grading.is_compact(root) else noncompact_sum
        value = metric.g[root]
        for i, c in enumerate(rs.coordinates(root)):
            if c:
                target[i] += value * c
    return compact_sum == noncompact_sum


def family_metric(system: BalancedSystem, metric: BalancedMetric, t) -> BalancedMetric:
    """Scale the span-of-noncompact_simples compact coefficients by t >= 1 and recompute the
    noncompact-simple values; solutions come in families."""
    t = Fraction(t)
    if t < 1:
        raise RootSystemError("family scaling requires t >= 1")
    g = dict(metric.g)
    for root in system.spanned_compact:
        g[root] = metric.g[root] * t
    probe = {root: g[root] for root in
             system.nc_nonsimple + system.spanned_compact + system.unspanned_compact}
    g_vals, h_vals = _relation_values(system, probe)
    for phi, value in zip(system.ordering.compact_simples, g_vals):
        g[phi] = value
    for psi, value in zip(system.ordering.noncompact_simples, h_vals):
        g[psi] = value
    return BalancedMetric(g=g, ordering=metric.ordering)


def solve_for_pair(pair: InnerPair, x=Fraction(1), y=Fraction(2)) -> BalancedMetric:
    """Route a catalog pair through the appropriate solver."""
    ordering = find_admissible_ordering(pair)
    if ordering.mode == MODE_SPECIAL:
        return solve_so1_2n(pair.rank, x, y)
    return solve_constructive(assemble_system(ordering, pair))


def scan_binvariant(pair: InnerPair, exhaustive_rank_bound: int = 4):
    """All orderings for which the unit metric g = 1 is balanced.

    Enumerates every Weyl chamber, so it refuses pairs whose rank exceeds
    the bound instead of sampling.
    """
    if pair.rank > exhaustive_rank_bound:
        raise RootSystemError(
            f"{pair.name} has rank {pair.rank} > bound {exhaustive_rank_bound}; "
            "refusing a non-exhaustive scan")
    found = []
    for system in all_simple_systems(pair.system):
        ordering = make_ordering(pair, system)
        unit = BalancedMetric(
            g={root: Fraction(1) for root in ordering.positives}, ordering=ordering)
        if verify_balanced(unit, pair):
            found.append(ordering)
    return found
