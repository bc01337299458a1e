"""The height walk: the positive roots and coordinates of a claimed base, and
the check that it is one.  The builder (`rootsys`) and the verifier
(`certkit`) both read it; it imports nothing of the package.

A root is its doubled ambient vector, a tuple of ints, and the walk names it
by an integer key (`_RADIX`).  The compact roots of a grading are those
whose coordinates over the standard base sum to an even number at the
painted nodes, the Z2 character of the root lattice that they define
(`_compact`, the one statement of that parity).

Every table here and in `certkit` is keyed by value and built on first use.
`_table` (per root set and standard base: the keys both ways and the
standard coordinates), `_compact` (per grading) and `certkit._texts` (per
root set) are unbounded, one entry per catalog root system or grading.  The
bounded ones let a process walk a chamber (a pair with its claimed simples),
and derive a relation, once rather than once per certificate:

- `_chamber_roots` and `_chamber` (256 entries each, room for the 199
  chambers of rank <= 16), keyed by the root set, the standard base, the
  claimed simples as read and the painted nodes.  The first holds the
  positive and the compact positive roots (frozensets); the second adds each
  side's roots and their columns, and delta (tuples).
- `certkit._relation` (1024 entries), keyed by the root set, alpha, beta and
  whether alpha - beta is positive, the four values that decide a relation;
  `_derived_relation` hands each caller a dict of its own.

Each is sound because it is a pure function of the values in its key, holds
nothing of a certificate, stores only immutable entries and never stores a
refusal (`lru_cache` keeps no exception, so a refused claim is walked, and
refused, again).  Full, the bounded ones take at most about 13.2 MiB (256
chambers of B16 or C16, the largest rank-16 records, in both chamber
caches), 4.1 MiB more when `_chamber_roots` holds 256 other chambers, and
0.6 MiB (1024 rank-16 relations), by tracemalloc.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, neg


class RootSystemError(ValueError):
    """Invalid root-system input (bad family/rank, non-root argument...)."""


# The height walk names a doubled root v by its key, sum v[i] * _RADIX**i.
# Every doubled coordinate of a catalog root has size at most 4 (C's 2e_i,
# G2's (-2, 1, 1)), so a root plus a simple root has coordinates of size at
# most 8, far below _RADIX / 2: key(v + s) = key(v) + key(s), key(-v) = -key(v),
# and no two vectors the walk meets share a key.
_RADIX = 256


@lru_cache(maxsize=None)
def _table(roots: frozenset, base: tuple) -> tuple[dict, dict, dict]:
    """({key: root}, {root: key}, {root: its coordinates over the standard
    base}) for a root set, built once per set."""
    units = [_RADIX ** i for i in range(len(next(iter(roots))))]
    key_of = {v: sum(map(mul, v, units)) for v in roots}
    keys = {k: v for v, k in key_of.items()}, key_of
    return (*keys, _claimed_coordinates(keys, len(base), base))


def _claimed_walk(table: tuple, rank: int, simples) -> list:
    """[(key, label)] by height over a root set's `_table` (its two key maps
    are all that is read): the claimed simples' keys, the i-th labelled
    _RADIX**i, then each new key that is a reached key plus a simple's,
    labelled with its parent's label plus that simple's, so that a positive
    root's label is its coordinates, packed.  A claimed simple is looked up
    among the roots, never packed.

    The claim is a base exactly when it has `rank` members, all roots, and
    the reached set R with -R is every root: the simples then span the root
    space, so each root has unique coordinates over them, of one sign in R
    and in -R.  A genuine base passes, each positive root being a simple plus
    a positive root of smaller height.  Anything else raises RootSystemError.
    """
    if len(simples) != rank:
        raise RootSystemError(f"expected {rank} simple roots, got {len(simples)}")
    by_key, key_of = table[:2]
    keys = [key_of.get(s) for s in simples]
    if None in keys:
        raise RootSystemError("a claimed simple root is not a root")
    steps = [(k, _RADIX ** i) for i, k in enumerate(keys)]
    reached, unseen = list(steps), by_key.keys() - keys
    for v, c in reached:  # grows as the walk goes, one height after another
        for s, unit in steps:
            w = v + s
            if w in unseen:
                unseen.remove(w)
                reached.append((w, c + unit))
    if not unseen.isdisjoint(map(neg, unseen)):  # a root and its negative both unreached
        raise RootSystemError("the claimed simple roots do not reach every root up to sign")
    return reached


def _claimed_coordinates(table: tuple, rank: int, simples) -> dict:
    """Coordinates of every root over a claimed base (see `_claimed_walk`),
    read from the bytes of the labels: each is 0 to 6."""
    by_key, coords = table[0], {}
    for k, label in _claimed_walk(table, rank, simples):
        c = coords[by_key[k]] = tuple(label.to_bytes(rank, "little"))
        coords[by_key[-k]] = tuple(map(neg, c))
    return coords


@lru_cache(maxsize=None)
def _compact(roots: frozenset, base: tuple, painted: tuple) -> frozenset:
    """The roots whose standard coordinates sum to an even number at `painted`."""
    return frozenset([v for v, c in _table(roots, base)[2].items()
                      if sum([c[i] for i in painted]) % 2 == 0])


@lru_cache(maxsize=256)
def _chamber_roots(roots: frozenset, base: tuple, simples: tuple,
                   painted: tuple) -> tuple[frozenset, frozenset]:
    """(positive roots, compact positive roots) over a claimed base (see
    `_claimed_walk`): the roots the walk reaches, and those among them in the
    grading's compact set.  A refused claim raises, so nothing of it is stored."""
    table = _table(roots, base)
    by_key, reached = table[0], _claimed_walk(table, len(base), simples)
    positive = frozenset([by_key[k] for k, _ in reached])
    return positive, positive & _compact(roots, base, painted)


@lru_cache(maxsize=256)
def _chamber(roots: frozenset, base: tuple, simples: tuple, painted: tuple) -> tuple:
    """`_chamber_roots`'s two sets, each side as (its roots in their set's
    order, their columns), and delta, the column sum of the positive roots."""
    positive, compact = _chamber_roots(roots, base, simples, painted)
    empty = ((),) * len(base[0])  # the columns of no roots, each summing to 0
    sides = [(tuple(side), tuple(zip(*side)) or empty) for side in (compact, positive - compact)]
    return (positive, compact, *sides, tuple(map(sum, zip(*positive))))


def _claimed_chamber(pair, simples) -> tuple:
    """`_chamber` for a pair (its system and painted nodes) and the claimed simples."""
    rs = pair.system
    return _chamber(rs.roots, rs.base.simples, tuple(simples), pair.grading.painted)


def _claimed_roots(pair, simples) -> tuple[frozenset, frozenset]:
    """`_chamber_roots` for a pair and the claimed simples."""
    rs = pair.system
    return _chamber_roots(rs.roots, rs.base.simples, tuple(simples), pair.grading.painted)
