"""Catalog of even-dimensional inner symmetric pairs with compactness grading.

A pair is a root system plus a Z2 grading of its root lattice splitting the
roots into compact and noncompact ones.  The grading is stored as painted-node
data on the fixed standard base: a root is noncompact exactly when the parity
of its coefficient sum over the painted simple roots is odd.  The grading is
stated once, relative to the standard base, and is never mutated when the
choice of positive roots changes.  The grading holds the set of compact
roots that `walk._compact` tabulates, the same set the verifier reads.

Every catalog entry paints its conventional node and is validated against the
known dimensions of the subalgebra pair: rank + |R| must equal dim g and
rank + |R_compact| must equal dim k, both exactly; no other node is tried.

The catalog is stated once, as data: each family gives the arguments of
`_make_pair` for its pairs, and `catalog` builds them.  A name is a key into
a table of the spellings of every pair with rank <= MAX_RANK, so which
names exist is decided by the catalog alone.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .rootsys import (
    RootSystem,
    RootSystemError,
    RootVector,
    _Frozen,
    build_root_system,
)
from .walk import _compact


# The largest rank a pair name may build.  It bounds the work a name can ask
# for, from the command line or from a certificate being verified.
MAX_RANK = 16


class CatalogError(RuntimeError):
    """Catalog data is inconsistent (a bug in the tables, not user input)."""


class CompactnessGrading(_Frozen):
    """Z2 grading of the root lattice given by painted standard simple roots."""

    __slots__ = ("system", "painted", "_compact")

    def __init__(self, system: RootSystem, painted: tuple[int, ...]):  # 0-based indices
        self._set(system, painted, _compact(system.roots, system.base.simples, painted))

    def is_compact(self, root: RootVector) -> bool:
        self.system.require_root(root)
        return root in self._compact

    def compact_count(self) -> int:
        return len(self._compact)


class InnerPair(_Frozen):
    """One catalog entry: root system, grading and expected dimensions, equal
    only to itself and read-only, `params` too: every caller shares the pair."""

    __slots__ = ("name", "family", "rank", "params", "system", "grading", "dim_g", "dim_k",
                 "aliases")

    def __init__(self, name: str, family: str, rank: int, params: Mapping | None = None,
                 system: RootSystem = None, grading: CompactnessGrading = None,
                 dim_g: int = 0, dim_k: int = 0, aliases: tuple[str, ...] = ()):
        self._set(name, family, rank, MappingProxyType(dict(params or {})), system, grading,
                  dim_g, dim_k, aliases)

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
    """The grading painted at the conventional node (0-based index), which
    must reproduce the expected dim k; a mismatch is a catalog bug and
    raises CatalogError naming the node (1-based, as `painted_node`).
    """
    grading = CompactnessGrading(system, (conventional_index,))
    if system.rank + grading.compact_count() != expected_dim_k:
        raise CatalogError(f"painted node {conventional_index + 1} of {system.family}"
                           f"{system.rank} does not give dim k = {expected_dim_k}")
    return grading


@lru_cache(maxsize=None)
def _make_pair(name, family, rank, dim_g, dim_k, painted_index, aliases=(), **params):
    """The pair, built once.  Its callers hand it only specs of rank <= MAX_RANK
    (`catalog` refuses a larger bound, `pair_by_name` looks names up among
    them), so the cache holds only valid catalog pairs."""
    system = build_root_system(family, rank)
    if dim_g != rank + len(system.roots):
        raise CatalogError(f"{name}: dim g = {dim_g} != rank + |R| = {rank + len(system.roots)}")
    if dim_g % 2 != 0:
        raise CatalogError(f"{name}: dim g = {dim_g} is odd")
    grading = infer_grading(system, dim_k, painted_index)
    return InnerPair(name=name, family=family, rank=rank, params=params,
                     system=system, grading=grading, dim_g=dim_g, dim_k=dim_k,
                     aliases=tuple(aliases))


def _su(p: int, q: int) -> dict:
    n = p + q
    aliases = (f"su({q},{p})",) if q != p else ()
    return dict(
        name=f"su({p},{q})", family="A", rank=n - 1, p=p, q=q,
        dim_g=n * n - 1, dim_k=p * p + q * q - 1,
        painted_index=p - 1, aliases=aliases)


def _so_odd(p: int, q: int) -> dict:
    # so(2p+1, 2q): indices 1..q carry the so(2q) planes.  The rank-2 pairs
    # are also sp(1,1) and sp(2,R), by the B2/C2 isomorphism.
    aliases = {(0, 2): ("sp(1,1)",), (1, 1): ("sp(2,R)", "so(2,3)")}.get((p, q), ())
    return dict(
        name=f"so({2 * p + 1},{2 * q})", family="B", rank=p + q,
        p=p, q=q,
        dim_g=(p + q) * (2 * p + 2 * q + 1),
        dim_k=p * (2 * p + 1) + q * (2 * q - 1),
        painted_index=q - 1, aliases=aliases)


def _sp_split(n: int) -> dict:
    # The paper's sp(2n, R) with k = u(2n); type C at rank 2n.
    r = 2 * n
    return dict(
        name=f"sp({r},R)", family="C", rank=r, n=n,
        dim_g=r * (2 * r + 1), dim_k=r * r,
        painted_index=r - 1)


def _sp_pq(p: int, q: int) -> dict:
    aliases = (f"sp({q},{p})",) if q != p else ()
    return dict(
        name=f"sp({p},{q})", family="C", rank=p + q, p=p, q=q,
        dim_g=(p + q) * (2 * p + 2 * q + 1),
        dim_k=p * (2 * p + 1) + q * (2 * q + 1),
        painted_index=q - 1, aliases=aliases)


def _so_star(n: int) -> dict:
    r = 2 * n
    return dict(
        name=f"so({4 * n})*", family="D", rank=r, n=n,
        dim_g=r * (2 * r - 1), dim_k=r * r,
        painted_index=r - 1)


def _so_even(p: int, q: int) -> dict:
    aliases = (f"so({2 * q},{2 * p})",) if q != p else ()
    return dict(
        name=f"so({2 * p},{2 * q})", family="D", rank=p + q,
        p=p, q=q,
        dim_g=(p + q) * (2 * p + 2 * q - 1),
        dim_k=p * (2 * p - 1) + q * (2 * q - 1),
        painted_index=q - 1, aliases=aliases)


_EXCEPTIONAL = (
    # name, family, rank, painted index (0-based), dim g, dim k
    ("g2(2)", "G2", 2, 1, 14, 6),
    ("f4(4)", "F4", 4, 0, 52, 24),
    ("f4(-20)", "F4", 4, 3, 52, 36),
    ("e6(2)", "E6", 6, 1, 78, 38),
    ("e6(-14)", "E6", 6, 0, 78, 46),
    ("e8(8)", "E8", 8, 0, 248, 120),
    ("e8(-24)", "E8", 8, 7, 248, 136),
)


def _specs(max_rank: int) -> list[dict]:
    """The `_make_pair` arguments of every pair with rank <= max_rank, in
    catalog order: by rank, then by family row, then by name."""
    entries: list[tuple[tuple, dict]] = []

    def add(row: int, spec: dict) -> None:
        entries.append(((spec["rank"], row, spec["name"]), spec))

    for total in range(3, max_rank + 2, 2):  # su(p,q), p + q odd, rank = p+q-1
        for q in range(1, total // 2 + 1):
            add(0, _su(total - q, q))
    for total in range(2, max_rank + 1, 2):  # so(2p+1, 2q), p + q even
        for q in range(1, total + 1):
            add(1, _so_odd(total - q, q))
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
    for name, family, rank, painted, dim_g, dim_k in _EXCEPTIONAL:
        if rank <= max_rank:
            add(6, dict(name=name, family=family, rank=rank,
                        dim_g=dim_g, dim_k=dim_k, painted_index=painted))
    entries.sort(key=lambda item: item[0])
    return [spec for _, spec in entries]


@lru_cache(maxsize=None)
def catalog(max_rank: int) -> tuple[InnerPair, ...]:
    """Every admissible pair of the thirteen families with rank <= max_rank.

    The two rank-2 coincidences sp(1,1) = so(1,4) and sp(2,R) = so(3,2)
    (the B2/C2 isomorphism) are emitted once, under their so(...) names,
    with the sp names kept as aliases.  Deterministic order: by rank, then
    by family row, then by parameters.  A max_rank over MAX_RANK raises
    before any spec is listed.
    """
    if max_rank > MAX_RANK:
        raise RootSystemError(f"max rank {max_rank} > bound {MAX_RANK}; the catalog "
                              f"holds the pairs of rank <= {MAX_RANK}")
    return tuple(_make_pair(**spec) for spec in _specs(max_rank))


def _normal(spelling: str) -> str:
    return spelling.strip().lower().replace(" ", "")


@lru_cache(maxsize=None)
def _spellings() -> dict[str, dict]:
    """The spec of every pair with rank <= MAX_RANK under each of its
    spellings, normalized: its name, its aliases and, for a name with two
    numbers, the name with the two swapped."""
    table = {}
    for spec in _specs(MAX_RANK):
        name = spec["name"]
        swapped = re.sub(r"\((\d+),(\d+)\)$", r"(\2,\1)", name)
        for spelling in (name, swapped, *spec.get("aliases", ())):
            table[_normal(spelling)] = spec
    return table


def pair_by_name(name: str) -> InnerPair:
    """The catalog pair spelled `name`, in any case and spacing.

    Raises RootSystemError for a spelling of no pair with rank <= MAX_RANK
    (e.g. su(2,2), where p + q must be odd).
    """
    spec = _spellings().get(_normal(name))
    if spec is None:
        raise RootSystemError(
            f"{name!r} is not in the catalog of pairs of rank <= {MAX_RANK}; "
            f"innerlie catalog --max-rank {MAX_RANK} lists them")
    return _make_pair(**spec)
