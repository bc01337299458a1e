"""Exact root systems: integer coordinates inside, epsilon coordinates outside.

Families A-D at variable rank plus G2, F4, E6 and E8, realized with the
classical coordinates (E6 sits inside the E8 ambient space, spanned by the
first six E8 simple roots).  A root is a RootVector, the tuple of twice each
ambient coordinate (all lie in (1/2)Z) as an int, the same tuple as the
verifier's doubled vector; the roots are the positive-root orbit of the
standard simples (`RootSystem`) and its negatives, in those coordinates.
`Fraction` is left to ambient values read or returned (`dot`) and to
metric, relation and curvature values.  No floating point is used anywhere.

Every base's integer coordinates are the height walk of `walk`, which also
checks the base and which the verifier runs too: the standard base's table is
`walk`'s record of the root set (`coordinates`), and any other base's is what
`validate_base` returns; a SimpleSystem holds only its simples.  Sums of
roots are tested against the root set as ambient vectors, the names the
package and the certificates give to roots.  Root strings and N^2 are the
verifier's (`verify._derived_relation`).

The inner product is the Euclidean one on the ambient coordinates.  The
Killing form restricted to the real span of the roots equals this product
times a positive constant depending only on the algebra; every assertion
made downstream (exact vanishing, strict signs, root membership) is
invariant under positive scaling, so the constant is never needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .walk import RootSystemError, _claimed_coordinates, _table

FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6", "E8")

_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E8": 8}

_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "G2": lambda r: 12,
    "F4": lambda r: 48,
    "E6": lambda r: 72,
    "E8": lambda r: 240,
}


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug, not bad user input."""


class RootVector(tuple):
    """Immutable vector of the ambient epsilon basis with coordinates in (1/2)Z,
    held as the tuple of twice each coordinate: hash, equality and order are
    those of that int tuple.

    The constructor takes ambient values (int, Fraction or "1/2"); `+`, `-`
    and `k * v` are vector operations, not tuple concatenation or repetition."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[Fraction | int | str]):
        doubled = [2 * Fraction(c) for c in coords]
        if any(c.denominator != 1 for c in doubled):
            raise RootSystemError(f"coordinates {[str(c / 2) for c in doubled]} not all in (1/2)Z")
        return tuple.__new__(cls, [c.numerator for c in doubled])

    @classmethod
    def _from_doubled(cls, doubled: Iterable[int]) -> "RootVector":
        return tuple.__new__(cls, doubled)

    def dot(self, other: "RootVector") -> Fraction:
        if len(self) != len(other):
            raise RootSystemError("ambient dimension mismatch")
        return Fraction(sum(map(mul, self, other)), 4)

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return not any(self)

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector._from_doubled(map(add, self, other))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector._from_doubled(map(sub, self, other))

    def __neg__(self) -> "RootVector":
        return RootVector._from_doubled(map(neg, self))

    def __rmul__(self, scalar) -> "RootVector":
        return RootVector(Fraction(scalar) * c / 2 for c in self)

    __mul__ = __rmul__

    def __reduce__(self):  # for copy and pickle, which would call the constructor on doubled values
        return RootVector._from_doubled, (tuple(self),)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(Fraction(c, 2)) for c in self) + ")"


def root_vector(*coords) -> RootVector:
    """Shorthand constructor: root_vector(1, -1, 0)."""
    return RootVector(coords)


def reflect(v: RootVector, mirror: RootVector) -> RootVector:
    """Reflect v in the hyperplane orthogonal to mirror.

    Involutive, and maps the root system to itself whenever both arguments
    are roots of the same system; an image outside (1/2)Z raises.
    """
    nsq = sum(map(mul, mirror, mirror))
    if nsq == 0:
        raise RootSystemError("cannot reflect in the zero vector")
    twice_dot = 2 * sum(map(mul, v, mirror))
    scaled = [nsq * a - twice_dot * b for a, b in zip(v, mirror)]
    if any(c % nsq for c in scaled):
        raise RootSystemError(f"the reflection of {v!r} in {mirror!r} leaves (1/2)Z")
    return RootVector._from_doubled(c // nsq for c in scaled)


class _Frozen:
    """Slots set once, in `__init__` by `_set`: assigning or deleting one raises."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for slot, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__


class SimpleSystem(_Frozen):
    """An ordered choice of simple roots, nothing more: the coordinates of the
    roots over it come from `RootSystem.validate_base`, which checks it."""

    __slots__ = ("simples", "rank")

    def __init__(self, simples: Sequence[RootVector]):
        simples = tuple(simples)
        if not simples:
            raise RootSystemError("a simple system needs at least one root")
        self._set(simples, len(simples))

    def key(self) -> frozenset[RootVector]:
        return frozenset(self.simples)

    def __repr__(self) -> str:
        return f"SimpleSystem{list(self.simples)!r}"


def _cartan(simples: Sequence[RootVector]) -> tuple[tuple[int, ...], ...]:
    """C[i][j] = 2<a_i, a_j> / <a_j, a_j>."""
    rows = [[divmod(2 * sum(map(mul, a, b)), sum(map(mul, b, b))) for b in simples]
            for a in simples]
    if any(remainder for row in rows for _, remainder in row):
        raise InvariantViolation("non-integral Cartan pairing")
    return tuple(tuple(value for value, _ in row) for row in rows)


class RootSystem(_Frozen):
    """Read-only set of roots with a distinguished (standard) base, shared
    by every caller of `build_root_system`.

    The positive roots are the orbit of the simples climbing by reflections:
    a reached v and a simple s give v - k*s when k = 2(v.s)/(s.s) < 0.  That
    is every positive root and nothing else (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2): s_a permutes the positive roots
    other than the simple a, and each non-simple positive b has a simple a with
    <b, a^v> > 0, so b climbs from s_a b, positive and of lower height.  The
    roots are these and their negatives; their coordinates over the standard
    base are `walk`'s table of the root set (`coordinates`), whose walk
    checks again that they are every root.
    """

    __slots__ = ("family", "rank", "base", "cartan", "sorted_roots", "roots", "ambient_dim")

    def __init__(self, family: str, rank: int, base: SimpleSystem):
        cartan = _cartan(base.simples)
        # k is a sum of Cartan integers (checked by _cartan) times v's coordinates,
        # so exact.  Inline, since `reflect` must check (1/2)Z for any input.
        mirrors = [(s, sum(map(mul, s, s))) for s in base.simples]
        reached = list(base.simples)
        positive = set(reached)
        for v in reached:  # grows as the orbit climbs, one height after another
            for s, nsq in mirrors:
                k = 2 * sum(map(mul, v, s)) // nsq
                if k < 0:
                    image = RootVector._from_doubled([a - k * b for a, b in zip(v, s)])
                    if image not in positive:
                        positive.add(image)
                        reached.append(image)
        sorted_roots = tuple(sorted([*reached, *map(neg, reached)]))
        self._set(family, rank, base, cartan, sorted_roots, frozenset(sorted_roots),
                  len(sorted_roots[0]))

    def is_root(self, v: RootVector) -> bool:
        return v in self.roots

    def require_root(self, v: RootVector) -> None:
        if not self.is_root(v):
            raise RootSystemError(f"{v!r} is not a root of {self.family}{self.rank}")

    def coordinates(self, v: RootVector) -> tuple[int, ...]:
        """Integer coordinates of a root over the standard base."""
        self.require_root(v)
        return _table(self.roots, self.base.simples)[2][v]

    @property
    def positive_roots(self) -> tuple[RootVector, ...]:
        """Positive roots of the standard base, in lexicographic order."""
        standard = _table(self.roots, self.base.simples)[2]
        return tuple(v for v in self.sorted_roots if min(standard[v]) >= 0)

    def validate_base(self, system: SimpleSystem) -> dict[RootVector, tuple[int, ...]]:
        """The integer coordinates of every root over `system`, all of one sign,
        which proves `system` a genuine simple system for this root system.

        The check is the height walk, `walk._claimed_coordinates`; anything
        but a base raises RootSystemError.  Nothing is stored.
        """
        return _claimed_coordinates(_table(self.roots, self.base.simples), self.rank,
                                    system.simples)

    def reflected_base(self, p: int) -> SimpleSystem:
        """The standard base reflected in its p-th simple root, sorted."""
        mirror = self.base.simples[p]
        return SimpleSystem(sorted(reflect(a, mirror) for a in self.base.simples))

    def __repr__(self) -> str:
        return f"RootSystem({self.family}, rank={self.rank}, roots={len(self.roots)})"


def _base_coords(family: str, rank: int) -> list[RootVector]:
    """The standard simple roots in doubled ambient coordinates, as a
    RootVector holds them: F4's and E8's half-integer simples have +-1."""
    doubled = RootVector._from_doubled

    def unit(i, size=rank, scale=2):
        return [scale * (j == i) for j in range(size)]

    if family == "A":
        return [doubled(map(sub, unit(i, rank + 1), unit(i + 1, rank + 1))) for i in range(rank)]
    if family in ("B", "C", "D"):
        chain = [doubled(map(sub, unit(i), unit(i + 1))) for i in range(rank - 1)]
        if family == "B":
            return chain + [doubled(unit(rank - 1))]
        if family == "C":
            return chain + [doubled(unit(rank - 1, scale=4))]
        return chain + [doubled(map(add, unit(rank - 2), unit(rank - 1)))]
    if family == "G2":
        return [doubled((2, -2, 0)), doubled((-4, 2, 2))]
    if family == "F4":
        return [doubled((0, 2, -2, 0)), doubled((0, 0, 2, -2)), doubled((0, 0, 0, 2)),
                doubled((1, -1, -1, -1))]
    # E8 base; E6 takes its first six simple roots in the same ambient space.
    e8 = [doubled((1, -1, -1, -1, -1, -1, -1, 1)), doubled(map(add, unit(0, 8), unit(1, 8)))]
    e8 += [doubled(map(sub, unit(j - 2, 8), unit(j - 3, 8))) for j in range(3, 9)]
    return e8[:6] if family == "E6" else e8


def _validate_family(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise RootSystemError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family in _EXCEPTIONAL_RANK:
        if rank != _EXCEPTIONAL_RANK[family]:
            raise RootSystemError(f"{family} has fixed rank {_EXCEPTIONAL_RANK[family]}, got {rank}")
        return
    minimum = {"A": 1, "B": 2, "C": 1, "D": 3}[family]
    if rank < minimum:
        raise RootSystemError(f"family {family} requires rank >= {minimum}, got {rank}")


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system as the reflection orbit of the standard base.

    Deterministic; the result is validated against the closed-form root count
    for the family and is immutable afterwards, hence shared via the cache.
    """
    _validate_family(family, rank)
    system = RootSystem(family, rank, SimpleSystem(_base_coords(family, rank)))
    expected = _ROOT_COUNT[family](rank)
    if len(system.roots) != expected:
        raise InvariantViolation(
            f"{family}{rank}: generated {len(system.roots)} roots, expected {expected}")
    return system


def all_simple_systems(rs: RootSystem) -> list[SimpleSystem]:
    """Every simple system of rs (one per Weyl chamber), by reflection BFS.

    Intended for small ranks; enumerating E8 chambers is out of scope.
    """
    order = [frozenset(rs.base.simples)]
    seen = set(order)
    for current in order:  # grows as the search goes, one reflection after another
        for mirror in sorted(current):
            image = frozenset(reflect(v, mirror) for v in current)
            if image not in seen:
                seen.add(image)
                order.append(image)
    return [SimpleSystem(sorted(s)) for s in order]
