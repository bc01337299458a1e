"""Catalog of even-dimensional inner symmetric pairs with compactness grading.

A pair is a root system plus a Z2 grading of its root lattice splitting the
roots into compact and noncompact ones.  The grading is stored as painted-node
data on the fixed standard base: a root is noncompact exactly when the parity
of its coefficient sum over the painted simple roots is odd.  The grading is
stated once, relative to the standard base, and is never mutated when the
choice of positive roots changes.

Every catalog entry is validated against the known dimensions of the
subalgebra pair: rank + |R| must equal dim g and rank + |R_compact| must
equal dim k, both exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .rootsys import (
    RootSystem,
    RootSystemError,
    RootVector,
    SimpleSystem,
    build_root_system,
)


class CatalogError(RuntimeError):
    """Catalog data is inconsistent (a bug in the tables, not user input)."""


@dataclass(frozen=True)
class CompactnessGrading:
    """Z2 grading of the root lattice given by painted standard simple roots."""

    system: RootSystem
    painted: tuple[int, ...]  # 0-based indices into the standard base

    def is_compact(self, root: RootVector) -> bool:
        coeffs = self.system.coordinates(root)
        return sum(abs(coeffs[i]) for i in self.painted) % 2 == 0

    def compact_count(self) -> int:
        return sum(1 for v in self.system.sorted_roots if self.is_compact(v))


def compactness(grading: CompactnessGrading, root: RootVector) -> str:
    return "compact" if grading.is_compact(root) else "noncompact"


@dataclass(eq=False)
class InnerPair:
    """One catalog entry: root system, grading, and expected dimensions."""

    name: str
    family: str
    rank: int
    params: dict = field(default_factory=dict)
    system: RootSystem = None
    grading: CompactnessGrading = None
    dim_g: int = 0
    dim_k: int = 0
    aliases: tuple[str, ...] = ()

    @property
    def painted_node(self) -> int:
        """1-based index of the painted simple root in the standard base."""
        return self.grading.painted[0] + 1

    @property
    def is_so_1_2n(self) -> bool:
        return self.family == "B" and self.params.get("p") == 0

    def __repr__(self) -> str:
        return f"InnerPair({self.name}, dim g={self.dim_g}, dim k={self.dim_k})"


def infer_grading(system: RootSystem, expected_dim_k: int,
                  conventional_index: int) -> CompactnessGrading:
    """Single-painted-node grading reproducing the expected dim k.

    The conventional node (from the family's block structure, or from the
    known data for the exceptional pairs) is tried first and must pass the
    dimension test; otherwise all nodes are searched and any ambiguity or
    failure is reported loudly as a catalog bug.
    """
    candidate = CompactnessGrading(system, (conventional_index,))
    if system.rank + candidate.compact_count() == expected_dim_k:
        return candidate
    matches = [
        i for i in range(system.rank)
        if system.rank + CompactnessGrading(system, (i,)).compact_count() == expected_dim_k
    ]
    if len(matches) == 1:
        return CompactnessGrading(system, (matches[0],))
    raise CatalogError(
        f"no single painted node of {system.family}{system.rank} "
        f"reproduces dim k = {expected_dim_k} (candidates: {matches})")


def _make_pair(name, family, rank, params, dim_g, dim_k, painted_index, aliases=()):
    system = build_root_system(family, rank)
    if dim_g != rank + len(system.roots):
        raise CatalogError(f"{name}: dim g = {dim_g} != rank + |R| = {rank + len(system.roots)}")
    if dim_g % 2 != 0:
        raise CatalogError(f"{name}: dim g = {dim_g} is odd")
    grading = infer_grading(system, dim_k, painted_index)
    if rank + grading.compact_count() != dim_k:
        raise CatalogError(f"{name}: painted node fails the dim k test")
    return InnerPair(name=name, family=family, rank=rank, params=params,
                     system=system, grading=grading, dim_g=dim_g, dim_k=dim_k,
                     aliases=tuple(aliases))


def _su(p: int, q: int) -> InnerPair:
    n = p + q
    aliases = (f"su({q},{p})",) if q != p else ()
    return _make_pair(
        name=f"su({p},{q})", family="A", rank=n - 1, params={"p": p, "q": q},
        dim_g=n * n - 1, dim_k=p * p + q * q - 1,
        painted_index=p - 1, aliases=aliases)


def _so_odd(p: int, q: int, aliases=()) -> InnerPair:
    # so(2p+1, 2q): indices 1..q carry the so(2q) planes.
    return _make_pair(
        name=f"so({2 * p + 1},{2 * q})", family="B", rank=p + q,
        params={"p": p, "q": q},
        dim_g=(p + q) * (2 * p + 2 * q + 1),
        dim_k=p * (2 * p + 1) + q * (2 * q - 1),
        painted_index=q - 1, aliases=aliases)


def _sp_split(n: int) -> InnerPair:
    # The paper's sp(2n, R) with k = u(2n); type C at rank 2n.
    r = 2 * n
    return _make_pair(
        name=f"sp({r},R)", family="C", rank=r, params={"n": n},
        dim_g=r * (2 * r + 1), dim_k=r * r,
        painted_index=r - 1)


def _sp_pq(p: int, q: int) -> InnerPair:
    aliases = (f"sp({q},{p})",) if q != p else ()
    return _make_pair(
        name=f"sp({p},{q})", family="C", rank=p + q, params={"p": p, "q": q},
        dim_g=(p + q) * (2 * p + 2 * q + 1),
        dim_k=p * (2 * p + 1) + q * (2 * q + 1),
        painted_index=q - 1, aliases=aliases)


def _so_star(n: int) -> InnerPair:
    r = 2 * n
    return _make_pair(
        name=f"so({4 * n})*", family="D", rank=r, params={"n": n},
        dim_g=r * (2 * r - 1), dim_k=r * r,
        painted_index=r - 1)


def _so_even(p: int, q: int) -> InnerPair:
    aliases = (f"so({2 * q},{2 * p})",) if q != p else ()
    return _make_pair(
        name=f"so({2 * p},{2 * q})", family="D", rank=p + q,
        params={"p": p, "q": q},
        dim_g=(p + q) * (2 * p + 2 * q - 1),
        dim_k=p * (2 * p - 1) + q * (2 * q - 1),
        painted_index=q - 1, aliases=aliases)


_EXCEPTIONAL = (
    # name, family, painted index (0-based), dim g, dim k
    ("g2(2)", "G2", 1, 14, 6),
    ("f4(4)", "F4", 0, 52, 24),
    ("f4(-20)", "F4", 3, 52, 36),
    ("e6(2)", "E6", 1, 78, 38),
    ("e6(-14)", "E6", 0, 78, 46),
    ("e8(8)", "E8", 0, 248, 120),
    ("e8(-24)", "E8", 7, 248, 136),
)


def _exceptional(name: str) -> InnerPair:
    name_, family, painted, dim_g, dim_k = next(e for e in _EXCEPTIONAL if e[0] == name)
    from .rootsys import _EXCEPTIONAL_RANK
    rank = _EXCEPTIONAL_RANK[family]
    return _make_pair(name=name_, family=family, rank=rank, params={},
                      dim_g=dim_g, dim_k=dim_k, painted_index=painted)


@lru_cache(maxsize=None)
def catalog(max_rank: int) -> tuple[InnerPair, ...]:
    """Every admissible pair of the thirteen families with rank <= max_rank.

    The two rank-2 coincidences sp(1,1) = so(1,4) and sp(2,R) = so(3,2)
    (the B2/C2 isomorphism) are emitted once, under their so(...) names,
    with the sp names kept as aliases.  Deterministic order: by rank, then
    by family row, then by parameters.
    """
    if max_rank < 2:
        return ()
    entries: list[tuple[tuple, InnerPair]] = []

    def add(row: int, pair: InnerPair) -> None:
        entries.append(((pair.rank, row, pair.name), pair))

    for total in range(3, max_rank + 2, 2):  # su(p,q), p + q odd, rank = p+q-1
        for q in range(1, total // 2 + 1):
            add(0, _su(total - q, q))
    for total in range(2, max_rank + 1, 2):  # so(2p+1, 2q), p + q even
        for q in range(1, total + 1):
            p = total - q
            aliases = ()
            if (p, q) == (0, 2):
                aliases = ("sp(1,1)",)
            elif (p, q) == (1, 1):
                aliases = ("sp(2,R)", "so(2,3)")
            add(1, _so_odd(p, q, aliases=aliases))
    for n in range(2, max_rank // 2 + 1):  # sp(2n, R) at rank 2n; n=1 is so(3,2)
        add(2, _sp_split(n))
    for total in range(4, max_rank + 1, 2):  # sp(p,q), p+q even; sp(1,1) is so(1,4)
        for q in range(1, total // 2 + 1):
            add(3, _sp_pq(total - q, q))
    for n in range(2, max_rank // 2 + 1):  # so(4n)*
        add(4, _so_star(n))
    for total in range(4, max_rank + 1, 2):  # so(2p, 2q), p+q even >= 4
        for q in range(1, total // 2 + 1):
            add(5, _so_even(total - q, q))
    for name, family, painted, dim_g, dim_k in _EXCEPTIONAL:
        pair = _exceptional(name)
        if pair.rank <= max_rank:
            add(6, pair)
    entries.sort(key=lambda item: item[0])
    return tuple(pair for _, pair in entries)


_PAREN = re.compile(r"^([a-z0-9]+)\(([^)]*)\)(\*?)$")


def pair_by_name(name: str) -> InnerPair:
    """Resolve a pair by name, accepting the documented aliases.

    Raises RootSystemError with an explanation for names outside the catalog
    (e.g. su(2,2), where p + q must be odd).
    """
    text = name.strip().lower().replace(" ", "")
    match = _PAREN.match(text)
    if not match:
        raise RootSystemError(f"cannot parse pair name {name!r}")
    head, args, star = match.groups()
    if star:
        if head != "so" or not args.isdigit():
            raise RootSystemError(f"cannot parse pair name {name!r}")
        m = int(args)
        if m % 4 != 0 or m < 8:
            raise RootSystemError(f"so({m})* is not in the catalog: need m = 4n with n >= 2")
        return _so_star(m // 4)
    if head in ("g2", "f4", "e6", "e8"):
        full = f"{head}({args})"
        if any(e[0] == full for e in _EXCEPTIONAL):
            return _exceptional(full)
        raise RootSystemError(f"{full} is not an even-dimensional inner-type real form")
    parts = args.split(",")
    if head == "sp" and len(parts) == 2 and parts[1] == "r":
        r = int(parts[0])
        if r % 2 != 0 or r < 2:
            raise RootSystemError(
                f"sp({r},R) is not in the catalog: it appears only at even rank")
        if r == 2:
            return _so_odd(1, 1, aliases=("sp(2,R)", "so(2,3)"))
        return _sp_split(r // 2)
    if len(parts) != 2 or not all(s.isdigit() for s in parts):
        raise RootSystemError(f"cannot parse pair name {name!r}")
    a, b = int(parts[0]), int(parts[1])
    if head == "su":
        p, q = max(a, b), min(a, b)
        if q < 1:
            raise RootSystemError(f"su({a},{b}) is not in the catalog: need p >= q >= 1")
        if (p + q) % 2 == 0:
            raise RootSystemError(f"su({a},{b}) is not in the catalog: p+q must be odd")
        return _su(p, q)
    if head == "sp":
        p, q = max(a, b), min(a, b)
        if q < 1 or (p + q) % 2 != 0:
            raise RootSystemError(f"sp({a},{b}) is not in the catalog: p+q must be even")
        if (p, q) == (1, 1):
            return _so_odd(0, 2, aliases=("sp(1,1)",))
        return _sp_pq(p, q)
    if head == "so":
        if a % 2 == 0 and b % 2 == 0:
            p, q = max(a, b) // 2, min(a, b) // 2
            if q < 1 or (p + q) % 2 != 0 or p + q < 4:
                raise RootSystemError(
                    f"so({a},{b}) is not in the catalog: p+q must be even and >= 4")
            return _so_even(p, q)
        odd, even = (a, b) if a % 2 == 1 else (b, a)
        if odd % 2 != 1 or even % 2 != 0 or even < 2:
            raise RootSystemError(f"so({a},{b}) is not an inner even-dimensional pair")
        p, q = (odd - 1) // 2, even // 2
        if (p + q) % 2 != 0:
            raise RootSystemError(f"so({a},{b}) is not in the catalog: p+q must be even")
        aliases = ()
        if (p, q) == (0, 2):
            aliases = ("sp(1,1)",)
        elif (p, q) == (1, 1):
            aliases = ("sp(2,R)", "so(2,3)")
        return _so_odd(p, q, aliases=aliases)
    raise RootSystemError(f"cannot parse pair name {name!r}")


def split_positive(pair: InnerPair, system: SimpleSystem):
    """Partition the positive roots of an ordering by compactness."""
    pair.system.validate_base(system)
    positives = pair.system.positives(system)
    compact = tuple(v for v in positives if pair.grading.is_compact(v))
    noncompact = tuple(v for v in positives if not pair.grading.is_compact(v))
    return compact, noncompact
