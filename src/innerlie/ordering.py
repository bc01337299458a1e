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

from operator import add, itemgetter
from typing import NamedTuple

from .pairs import InnerPair
from .rootsys import InvariantViolation, SimpleSystem
from .walk import _claimed_chamber

MODE_PARTNER = "partner_property"
MODE_SPECIAL = "so_1_2n_special"
MODE_DIAGNOSTIC = "diagnostic"


class AdmissibleOrdering(NamedTuple):
    """A simple system split into compact and noncompact parts, with its
    positive roots in lexicographic order and each one's coefficients split
    along (compact simples, noncompact simples)."""

    system: SimpleSystem
    positives: tuple[tuple, ...]
    compact_simples: tuple[tuple, ...]
    noncompact_simples: tuple[tuple, ...]
    mode: str
    split: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]]
    chamber: tuple  # its record by the walk, `walk._claimed_chamber`


def make_ordering(pair: InnerPair, system: SimpleSystem) -> AdmissibleOrdering:
    """Check a simple system for a pair, split its positive roots by their
    labels' bytes in its chamber record (coordinates over the system, compact
    simples' first, so they split at one index), and classify its mode."""
    chamber = _claimed_chamber(pair, system.simples)
    positive, compact_roots, labels = chamber[:3]
    compact = tuple(s for s in system.simples if s in compact_roots)
    noncompact = tuple(s for s in system.simples if s not in compact_roots)
    pick = itemgetter(*map(system.simples.index, compact + noncompact))
    k, label_of, split = len(compact), dict(zip(positive, labels)), {}
    for v in pair.system.sorted_roots:
        if v in label_of:
            c = pick(label_of[v].to_bytes(system.rank, "little"))
            split[v] = c[:k], c[k:]
    if pair.is_so_1_2n and system.key() == pair.system.base.key():
        mode = MODE_SPECIAL
    elif _has_partners(noncompact, pair):
        mode = MODE_PARTNER
    else:
        mode = MODE_DIAGNOSTIC
    return AdmissibleOrdering(system=system, positives=tuple(split), compact_simples=compact,
                              noncompact_simples=noncompact, mode=mode, split=split,
                              chamber=chamber)


def standard_ordering(pair: InnerPair) -> AdmissibleOrdering:
    """The standard base of the pair, classified (possibly diagnostic)."""
    return make_ordering(pair, pair.system.base)


def _has_partners(noncompact_simples, pair: InnerPair) -> bool:
    roots = pair.system.roots
    return all(any(tuple(map(add, psi, other)) in roots for other in noncompact_simples)
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
