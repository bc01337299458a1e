"""Selection of an invariant complex structure via a choice of simple roots.

An ordering is admissible when every noncompact simple root has a noncompact
partner whose sum is again a root; the one exception is the so(1,2n) family,
where the noncompact simples of every chamber form a singleton and the
standard ordering is used instead.

The search follows the constructive argument.  The standard base never
works: one painted node leaves a single noncompact simple, which has no
partner.  A single reflection about that simple root does work for every
catalog pair outside so(1,2n); if it fails, the grading is wrong.  The
witnesses the balanced solver bumps are chosen in `balanced`, from the
ordering's `split`.
"""

from __future__ import annotations

from typing import NamedTuple

from .pairs import InnerPair
from .rootsys import InvariantViolation, RootVector, SimpleSystem

MODE_PARTNER = "partner_property"
MODE_SPECIAL = "so_1_2n_special"
MODE_DIAGNOSTIC = "diagnostic"


class AdmissibleOrdering(NamedTuple):
    """A simple system split into compact and noncompact parts, with its
    positive roots in lexicographic order and each one's coefficients split
    along (compact simples, noncompact simples)."""

    system: SimpleSystem
    positives: tuple[RootVector, ...]
    compact_simples: tuple[RootVector, ...]
    noncompact_simples: tuple[RootVector, ...]
    mode: str
    split: dict[RootVector, tuple[tuple[int, ...], tuple[int, ...]]]


def make_ordering(pair: InnerPair, system: SimpleSystem) -> AdmissibleOrdering:
    """Check a simple system for a pair, split its positive roots by the
    coordinates `validate_base` returns (compact simples first, so they split
    at one index; a root's are of one sign, so positive when above zero's),
    and classify its mode."""
    compact = tuple(s for s in system.simples if pair.grading.is_compact(s))
    noncompact = tuple(s for s in system.simples if not pair.grading.is_compact(s))
    coords = pair.system.validate_base(SimpleSystem(compact + noncompact))
    k, zero = len(compact), (0,) * system.rank
    split = {}
    for v in pair.system.sorted_roots:
        c = coords[v]
        if c > zero:
            split[v] = c[:k], c[k:]
    if pair.is_so_1_2n and system.key() == pair.system.base.key():
        mode = MODE_SPECIAL
    elif _has_partners(noncompact, pair):
        mode = MODE_PARTNER
    else:
        mode = MODE_DIAGNOSTIC
    return AdmissibleOrdering(system=system, positives=tuple(split), compact_simples=compact,
                              noncompact_simples=noncompact, mode=mode, split=split)


def standard_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base of the pair, classified (possibly diagnostic)."""
    return make_ordering(pair, pair.system.base)


def _has_partners(noncompact_simples, pair: InnerPair) -> bool:
    roots = pair.system.roots
    return all(any(psi + other in roots for other in noncompact_simples)
               for psi in noncompact_simples)


def find_admissible_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base for so(1,2n); otherwise the standard base reflected
    about its noncompact simple root, which must have the partner property.
    """
    if pair.is_so_1_2n:  # `make_ordering` gives its standard base the special mode
        return standard_ordering(pair)
    for p in pair.grading.painted:  # the noncompact simples of the standard base
        ordering = make_ordering(pair, pair.system.reflected_base(p))
        if ordering.mode == MODE_PARTNER:
            return ordering
    raise InvariantViolation(
        f"{pair.name}: no single reflection of the standard base about a noncompact "
        "simple root has the partner property; this indicates a grading bug")
