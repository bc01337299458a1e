"""Exact root systems: integer coordinates inside, epsilon coordinates outside.

Families A-D at variable rank plus G2, F4, E6 and E8, realized with the
classical coordinates (E6 sits inside the E8 ambient space, spanned by the
first six E8 simple roots).  Each root system is generated once in integer
coordinates over its standard base, by the simple reflections written with
the Cartan matrix, and each root is mapped once to its ambient RootVector,
whose coordinates are `fractions.Fraction`s.  No floating point is used
anywhere in this package.

Checking a simple system, decomposing roots over it and walking root strings
all work on those integer tuples; the ambient vectors are the names the rest
of the package and the certificates give to roots.

The inner product is the Euclidean one on the ambient coordinates.  The
Killing form restricted to the real span of the roots equals this product
times a positive constant depending only on the algebra; every assertion
made downstream (exact vanishing, strict signs, root membership) is
invariant under positive scaling, so the constant is never needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence
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


class RootSystemError(ValueError):
    """Invalid root-system input (bad family/rank, non-root argument...)."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug, not bad user input."""


class RootVector:
    """Immutable vector of exact rationals in the ambient epsilon basis."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Iterable[Fraction | int | str]):
        self.coords = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coords)
        self._hash = None

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    def dot(self, other: "RootVector") -> Fraction:
        if len(self.coords) != len(other.coords):
            raise RootSystemError("ambient dimension mismatch")
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "RootVector":
        return RootVector(-c for c in self.coords)

    def __rmul__(self, scalar) -> "RootVector":
        s = scalar if isinstance(scalar, Fraction) else Fraction(scalar)
        return RootVector(s * c for c in self.coords)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, RootVector) and self.coords == other.coords)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __lt__(self, other: "RootVector") -> bool:
        return self.coords < other.coords

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def root_vector(*coords) -> RootVector:
    """Shorthand constructor: root_vector(1, -1, 0)."""
    return RootVector(coords)


def reflect(v: RootVector, mirror: RootVector) -> RootVector:
    """Reflect v in the hyperplane orthogonal to mirror.

    Involutive, and maps the root system to itself whenever both arguments
    are roots of the same system.
    """
    nsq = mirror.norm_sq()
    if nsq == 0:
        raise RootSystemError("cannot reflect in the zero vector")
    return v - (2 * v.dot(mirror) / nsq) * mirror


def _unimodular_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix of determinant +-1, by integer row operations.

    Each column is reduced by Euclid's algorithm, so the pivots left are the
    gcds of the remaining column entries and their product is +-det.  Raises
    RootSystemError when the rows are dependent or the determinant is not
    +-1 (the inverse would not be integral).
    """
    n = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        while True:
            live = [r for r in range(col, n) if rows[r][col]]
            if not live:
                raise RootSystemError("simple roots are linearly dependent")
            pivot = min(live, key=lambda r: abs(rows[r][col]))
            rows[col], rows[pivot] = rows[pivot], rows[col]
            head = rows[col]
            reduced = True
            for r in range(col + 1, n):
                if rows[r][col]:
                    q = rows[r][col] // head[col]
                    rows[r] = [a - q * b for a, b in zip(rows[r], head)]
                    reduced = reduced and not rows[r][col]
            if reduced:
                break
        if abs(rows[col][col]) != 1:
            raise RootSystemError("roots have non-integral coordinates over the base")
    for col in reversed(range(n)):
        head = rows[col] = [rows[col][col] * a for a in rows[col]]  # pivot -1 becomes 1
        for r in range(col):
            if rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], head)]
    return [row[n:] for row in rows]


class SimpleSystem:
    """An ordered choice of simple roots.

    `RootSystem.validate_base` checks it and stores in it the integer
    coordinates of every root over it, which `decompose` and `is_positive`
    then read.  The stored table is replaced whole, never changed in place,
    so sharing a SimpleSystem across threads stays safe.
    """

    def __init__(self, simples: Sequence[RootVector]):
        self.simples = tuple(simples)
        if not self.simples:
            raise RootSystemError("a simple system needs at least one root")
        self.rank = len(self.simples)
        self._coords: dict[RootVector, tuple[int, ...]] = {}

    def decompose(self, root: RootVector) -> tuple[int, ...]:
        """Integer coordinates of a root over the simple roots, all of one sign.

        Defined for the roots of the last root system that validated this
        base; any other vector raises RootSystemError.
        """
        try:
            return self._coords[root]
        except KeyError:
            raise RootSystemError(
                f"{root!r} is not a root of a system this base was validated for") from None

    def is_positive(self, root: RootVector) -> bool:
        return all(c >= 0 for c in self.decompose(root))

    def combine(self, coeffs: Sequence[Fraction | int]) -> RootVector:
        """The ambient vector sum_k coeffs[k] * simples[k]."""
        terms = [(c, s.coords) for c, s in zip(coeffs, self.simples) if c]
        return RootVector(sum((c * v[d] for c, v in terms), Fraction(0))
                          for d in range(self.simples[0].ambient_dim))

    def key(self) -> frozenset[RootVector]:
        return frozenset(self.simples)

    def __repr__(self) -> str:
        return f"SimpleSystem{list(self.simples)!r}"


def _cartan(simples: Sequence[RootVector]) -> tuple[tuple[int, ...], ...]:
    """C[i][j] = 2<a_i, a_j> / <a_j, a_j>."""
    rows = []
    for a in simples:
        row = []
        for b in simples:
            value = 2 * a.dot(b) / b.norm_sq()
            if value.denominator != 1:
                raise InvariantViolation("non-integral Cartan pairing")
            row.append(int(value))
        rows.append(tuple(row))
    return tuple(rows)


class RootSystem:
    """Immutable set of roots with a distinguished (standard) base.

    Each root is held both as its ambient RootVector and as its integer
    coordinates over the standard base (`coordinates`, `root_at`).
    """

    def __init__(self, family: str, rank: int, base: SimpleSystem):
        self.family = family
        self.rank = rank
        self.base = base
        self.cartan = _cartan(base.simples)
        by_root = {base.combine(c): c for c in _closure(self.cartan)}
        self.sorted_roots = tuple(sorted(by_root))
        self.roots = frozenset(self.sorted_roots)
        self.ambient_dim = self.sorted_roots[0].ambient_dim
        self._coords = {v: by_root[v] for v in self.sorted_roots}
        self._roots_at = {c: v for v, c in self._coords.items()}

    def is_root(self, v: RootVector) -> bool:
        return v in self.roots

    def require_root(self, v: RootVector) -> None:
        if not self.is_root(v):
            raise RootSystemError(f"{v!r} is not a root of {self.family}{self.rank}")

    def coordinates(self, v: RootVector) -> tuple[int, ...]:
        """Integer coordinates of a root over the standard base."""
        try:
            return self._coords[v]
        except KeyError:
            raise RootSystemError(f"{v!r} is not a root of {self.family}{self.rank}") from None

    def root_at(self, coords: Sequence[int]) -> RootVector | None:
        """The root with these standard-base coordinates, or None."""
        return self._roots_at.get(tuple(coords))

    @property
    def positive_roots(self) -> tuple[RootVector, ...]:
        """Positive roots of the standard base, in lexicographic order."""
        return self.positives(self.base)

    def positives(self, system: SimpleSystem) -> tuple[RootVector, ...]:
        """Positive roots with respect to a validated simple system."""
        return tuple(v for v in self.sorted_roots if system.is_positive(v))

    def root_string(self, alpha: RootVector, beta: RootVector) -> tuple[int, int]:
        """The alpha-string through beta: maximal p <= 0 <= q with
        beta + n*alpha a root for all p <= n <= q."""
        a, b = self.coordinates(alpha), self.coordinates(beta)
        if a == b or all(x == -y for x, y in zip(a, b)):
            raise RootSystemError("root string requires alpha != ±beta")

        def is_root_at(n: int) -> bool:
            return tuple(y + n * x for x, y in zip(a, b)) in self._roots_at

        q = 0
        while is_root_at(q + 1):
            q += 1
        p = 0
        while is_root_at(p - 1):
            p -= 1
        return p, q

    def n_squared(self, alpha: RootVector, beta: RootVector) -> Fraction:
        """Squared structure constant N_{alpha,beta}^2 = q(1-p)/2 * |alpha|^2.

        Vanishes exactly when alpha + beta is not a root.
        """
        p, q = self.root_string(alpha, beta)
        return Fraction(q * (1 - p), 2) * alpha.norm_sq()

    def cartan_matrix(self, base: SimpleSystem | None = None) -> tuple[tuple[int, ...], ...]:
        """C[i][j] = 2<a_i, a_j> / <a_j, a_j> over the given (default standard) base."""
        return self.cartan if base is None else _cartan(base.simples)

    def validate_base(self, system: SimpleSystem) -> None:
        """Check that `system` is a genuine simple system for this root system,
        and store in it the coordinates of every root over it.

        Requires rank-many roots whose standard-base coordinate matrix has an
        integral inverse (a genuine base is unimodular; a singular matrix
        means dependent roots), and a one-sign decomposition of every root.
        """
        if system.rank != self.rank:
            raise RootSystemError(f"expected {self.rank} simple roots, got {system.rank}")
        for s in system.simples:
            self.require_root(s)
        inverse = _unimodular_inverse([self._coords[s] for s in system.simples])
        columns = tuple(zip(*inverse))
        table = {}
        for v, c in self._coords.items():
            coeffs = tuple(sum(map(mul, c, column)) for column in columns)
            if min(coeffs) < 0 < max(coeffs):
                raise RootSystemError(f"{v!r} has mixed-sign coordinates over the base")
            table[v] = coeffs
        system._coords = table

    def __repr__(self) -> str:
        return f"RootSystem({self.family}, rank={self.rank}, roots={len(self.roots)})"


def _base_coords(family: str, rank: int) -> list[RootVector]:
    F = Fraction
    if family == "A":
        dim = rank + 1
        return [RootVector([F(int(j == i)) - F(int(j == i + 1)) for j in range(dim)]) for i in range(rank)]
    if family in ("B", "C", "D"):
        def unit(i):
            return [F(int(j == i)) for j in range(rank)]
        chain = [RootVector([a - b for a, b in zip(unit(i), unit(i + 1))]) for i in range(rank - 1)]
        if family == "B":
            return chain + [RootVector(unit(rank - 1))]
        if family == "C":
            return chain + [RootVector([2 * c for c in unit(rank - 1)])]
        last = [a + b for a, b in zip(unit(rank - 2), unit(rank - 1))]
        return chain + [RootVector(last)]
    if family == "G2":
        return [root_vector(1, -1, 0), root_vector(-2, 1, 1)]
    if family == "F4":
        return [
            root_vector(0, 1, -1, 0),
            root_vector(0, 0, 1, -1),
            root_vector(0, 0, 0, 1),
            RootVector([F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)]),
        ]
    # E8 base; E6 takes its first six simple roots in the same ambient space.
    half = Fraction(1, 2)
    e8 = [RootVector([half, -half, -half, -half, -half, -half, -half, half]),
          root_vector(1, 1, 0, 0, 0, 0, 0, 0)]
    for j in range(3, 9):
        coords = [0] * 8
        coords[j - 2] = 1
        coords[j - 3] = -1
        e8.append(RootVector(coords))
    return e8[:6] if family == "E6" else e8


def _closure(cartan: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Orbit of the simple roots under the simple reflections, in integer
    coordinates over the base (equals the root set).

    s_j(v) = v - <v, a_j^vee> a_j, where <v, a_j^vee> = sum_i v_i C[i][j].
    """
    rank = len(cartan)
    columns = tuple(zip(*cartan))
    simples = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    roots = set(simples)
    frontier = simples
    while frontier:
        new = []
        for v in frontier:
            for j, column in enumerate(columns):
                pairing = sum(map(mul, v, column))
                if pairing:
                    image = v[:j] + (v[j] - pairing,) + v[j + 1:]
                    if image not in roots:
                        roots.add(image)
                        new.append(image)
        frontier = new
    return roots


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
    """Construct the root system by reflection closure from the standard base.

    Deterministic; the result is validated against the closed-form root count
    for the family and is immutable afterwards, hence shared via the cache.
    """
    _validate_family(family, rank)
    system = RootSystem(family, rank, SimpleSystem(_base_coords(family, rank)))
    expected = _ROOT_COUNT[family](rank)
    if len(system.roots) != expected:
        raise InvariantViolation(
            f"{family}{rank}: generated {len(system.roots)} roots, expected {expected}")
    if any(system.root_at([-c for c in system.coordinates(v)]) is None for v in system.sorted_roots):
        raise InvariantViolation(f"{family}{rank}: root set not closed under negation")
    system.validate_base(system.base)
    return system


def all_simple_systems(rs: RootSystem, max_count: int | None = None) -> list[SimpleSystem]:
    """Every simple system of rs (one per Weyl chamber), by reflection BFS.

    Bounded searches only: `max_count`, when given, aborts once exceeded.
    Intended for small ranks; enumerating E8 chambers is out of scope.
    """
    start = frozenset(rs.base.simples)
    seen = {start}
    order = [start]
    queue = [start]
    while queue:
        current = queue.pop(0)
        for mirror in sorted(current):
            image = frozenset(reflect(v, mirror) for v in current)
            if image not in seen:
                seen.add(image)
                order.append(image)
                queue.append(image)
                if max_count is not None and len(seen) > max_count:
                    raise RootSystemError("simple-system enumeration exceeded its bound")
    return [SimpleSystem(sorted(s)) for s in order]
