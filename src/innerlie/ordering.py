"""Selection of an invariant complex structure via a choice of simple roots.

An ordering is admissible when every noncompact simple root has a noncompact
partner whose sum is again a root; the one exception is the so(1,2n) family,
where the noncompact simples of every chamber form a singleton and the
standard ordering is used instead.

The search follows the constructive argument.  The standard base never
works: one painted node leaves a single noncompact simple, which has no
partner.  A single reflection about that simple root does work for every
catalog pair outside so(1,2n); if it fails, the grading is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairs import InnerPair
from .rootsys import (
    InvariantViolation,
    RootSystemError,
    RootVector,
    SimpleSystem,
)

MODE_PARTNER = "partner_property"
MODE_SPECIAL = "so_1_2n_special"
MODE_DIAGNOSTIC = "diagnostic"


@dataclass
class AdmissibleOrdering:
    """A simple system split into compact and noncompact parts."""

    system: SimpleSystem
    positives: tuple[RootVector, ...]
    compact_simples: tuple[RootVector, ...]
    noncompact_simples: tuple[RootVector, ...]
    mode: str

    def __post_init__(self):
        index = {s: i for i, s in enumerate(self.system.simples)}
        self.compact_index = tuple(index[s] for s in self.compact_simples)
        self.noncompact_index = tuple(index[s] for s in self.noncompact_simples)


def make_ordering(pair: InnerPair, system: SimpleSystem, mode: str | None = None) -> AdmissibleOrdering:
    """Wrap a simple system for a pair, classifying or validating its mode."""
    pair.system.validate_base(system)
    positives = pair.system.positives(system)
    compact_simples = tuple(s for s in system.simples if pair.grading.is_compact(s))
    noncompact_simples = tuple(s for s in system.simples if not pair.grading.is_compact(s))
    if mode is None:
        if pair.is_so_1_2n and system.key() == pair.system.base.key():
            mode = MODE_SPECIAL
        elif _has_partners(noncompact_simples, pair):
            mode = MODE_PARTNER
        else:
            mode = MODE_DIAGNOSTIC
    elif mode == MODE_PARTNER and not _has_partners(noncompact_simples, pair):
        raise RootSystemError("ordering does not satisfy the noncompact-partner property")
    elif mode == MODE_SPECIAL and not pair.is_so_1_2n:
        raise RootSystemError("the special mode is reserved for the so(1,2n) family")
    return AdmissibleOrdering(system=system, positives=positives,
                              compact_simples=compact_simples,
                              noncompact_simples=noncompact_simples, mode=mode)


def standard_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base of the pair, classified (possibly diagnostic)."""
    return make_ordering(pair, pair.system.base)


def _has_partners(noncompact_simples, pair: InnerPair) -> bool:
    rs = pair.system
    coords = [rs.coordinates(s) for s in noncompact_simples]
    return all(
        any(rs.root_at(map(sum, zip(psi, other))) is not None for other in coords)
        for psi in coords
    )


def satisfies_partner_property(system: SimpleSystem, pair: InnerPair) -> bool:
    """True iff every noncompact simple has a noncompact partner summing to a root."""
    pair.system.validate_base(system)
    return _has_partners([s for s in system.simples if not pair.grading.is_compact(s)], pair)


def find_admissible_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base for so(1,2n); otherwise the standard base reflected
    about its noncompact simple root, which must have the partner property.
    """
    rs = pair.system
    if pair.is_so_1_2n:
        return make_ordering(pair, rs.base, mode=MODE_SPECIAL)
    for p, psi in enumerate(rs.base.simples):
        if pair.grading.is_compact(psi):
            continue
        reflected = []
        for i in range(rs.rank):  # s_p(a_i) = a_i - C[i][p] a_p
            coords = [0] * rs.rank
            coords[i] += 1
            coords[p] -= rs.cartan[i][p]
            reflected.append(rs.root_at(coords))
        ordering = make_ordering(pair, SimpleSystem(sorted(reflected)))
        if ordering.mode == MODE_PARTNER:
            return ordering
    raise InvariantViolation(
        f"{pair.name}: no single reflection of the standard base about a noncompact "
        "simple root has the partner property; this indicates a grading bug")


def decompose_over(ordering: AdmissibleOrdering, root: RootVector):
    """Coefficients of a root split along (compact simples, noncompact simples)."""
    coeffs = ordering.system.decompose(root)
    n = tuple(coeffs[i] for i in ordering.compact_index)
    m = tuple(coeffs[i] for i in ordering.noncompact_index)
    return n, m


def noncompact_witness(ordering: AdmissibleOrdering, pair: InnerPair, j: int) -> RootVector:
    """Smallest noncompact positive non-simple root with a nonzero coefficient
    along the j-th compact simple."""
    phi = ordering.compact_simples[j]
    column = ordering.compact_index[j]
    simples = set(ordering.system.simples)
    for root in ordering.positives:  # lexicographic order
        if root in simples or pair.grading.is_compact(root):
            continue
        if ordering.system.decompose(root)[column] != 0:
            return root
    raise InvariantViolation(
        f"{pair.name}: no noncompact witness for compact simple {phi!r}; "
        "this contradicts the trivial-centralizer argument")
