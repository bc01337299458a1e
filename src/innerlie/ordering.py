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
from functools import cached_property

from .pairs import InnerPair
from .rootsys import InvariantViolation, RootVector, SimpleSystem

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

    @cached_property
    def split(self) -> dict[RootVector, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each positive root's coefficients split along (compact simples,
        noncompact simples), computed once per ordering on first use."""
        index = {s: i for i, s in enumerate(self.system.simples)}
        compact = [index[s] for s in self.compact_simples]
        noncompact = [index[s] for s in self.noncompact_simples]
        table = {}
        for root in self.positives:
            coeffs = self.system.decompose(root)
            table[root] = (tuple(coeffs[i] for i in compact),
                           tuple(coeffs[i] for i in noncompact))
        return table


def make_ordering(pair: InnerPair, system: SimpleSystem) -> AdmissibleOrdering:
    """Wrap a simple system for a pair and classify its mode."""
    pair.system.validate_base(system)
    return _classify(pair, system)


def _classify(pair: InnerPair, system: SimpleSystem) -> AdmissibleOrdering:
    """`make_ordering` for a system whose coordinate table is already filled."""
    positives = pair.system.positives(system)
    compact_simples = tuple(s for s in system.simples if pair.grading.is_compact(s))
    noncompact_simples = tuple(s for s in system.simples if not pair.grading.is_compact(s))
    if pair.is_so_1_2n and system.key() == pair.system.base.key():
        mode = MODE_SPECIAL
    elif _has_partners(noncompact_simples, pair):
        mode = MODE_PARTNER
    else:
        mode = MODE_DIAGNOSTIC
    return AdmissibleOrdering(system=system, positives=positives,
                              compact_simples=compact_simples,
                              noncompact_simples=noncompact_simples, mode=mode)


def standard_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base of the pair, classified (possibly diagnostic)."""
    return _classify(pair, pair.system.base)


def _has_partners(noncompact_simples, pair: InnerPair) -> bool:
    roots = pair.system.roots
    return all(any(psi + other in roots for other in noncompact_simples)
               for psi in noncompact_simples)


def find_admissible_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base for so(1,2n); otherwise the standard base reflected
    about its noncompact simple root, which must have the partner property.
    """
    if pair.is_so_1_2n:  # `_classify` gives its standard base the special mode
        return standard_ordering(pair)
    for p in pair.grading.painted:  # the noncompact simples of the standard base
        ordering = _classify(pair, pair.system.reflected_base(p))
        if ordering.mode == MODE_PARTNER:
            return ordering
    raise InvariantViolation(
        f"{pair.name}: no single reflection of the standard base about a noncompact "
        "simple root has the partner property; this indicates a grading bug")


def noncompact_witness(ordering: AdmissibleOrdering, pair: InnerPair, j: int) -> RootVector:
    """Smallest noncompact positive non-simple root with a nonzero coefficient
    along the j-th compact simple."""
    phi = ordering.compact_simples[j]
    simples = set(ordering.system.simples)
    for root, (n, _) in ordering.split.items():  # lexicographic order
        if n[j] and root not in simples and not pair.grading.is_compact(root):
            return root
    raise InvariantViolation(
        f"{pair.name}: no noncompact witness for compact simple {phi!r}; "
        "this contradicts the trivial-centralizer argument")
