"""The certificate format and its solver-independent end-to-end verifier.

Verification re-derives every verdict straight from the parsed JSON, using
only the root set, the standard base and the painted nodes of the catalog.
A strict reader takes each rational only in the form str(Fraction) writes, of
bounded length.  A vector spelled as the writer (`_vec_to_json`, stated next
to the reader) spells a catalog root is resolved by one lookup in its root
set's text table (`_texts`), and any other by the strict parse of each
coordinate, so every root becomes its doubled ambient vector, the tuple of
integers the catalog holds for it; every check is integer arithmetic on
those, with metric values, relation coefficients and weights kept exact (an
int when integral, else a Fraction).  The claimed simple roots are checked,
and the positive and compact roots read, by the height walk of `walk`, once
per chamber (a pair with its claimed simples); `walk`'s docstring also
describes this module's caches, `_spellings`, `_texts` and `_relation`.  The
verifier uses no code of the solvers or of the integer root core: of the
package it imports `pairs`, `rootsys` and `walk` alone.
The pluriclosed relation is stated once, in `_derived_relation`: the builder
takes each relation from it, so on the builder's own output the relation
check holds by construction, and what checks the formula itself is the
Fraction reference in `tests/test_verifier_reference.py` and the golden
digests.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, neg, sub
from typing import NamedTuple

from .pairs import InnerPair, pair_by_name
from .rootsys import RootSystemError
from .walk import _claimed_chamber, _claimed_roots

SCHEMA_VERSION = 1


class VerificationResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# Every root, in the catalog as here, is its doubled ambient vector, a tuple
# of integers (coordinates lie in (1/2)Z); the height walk (`walk`) names
# each root by an integer key instead.  The verifier reads the root set, the
# standard base and the painted nodes as they are, but no method of
# `rootsys`; its sums are `map(add, ...)` tuples and key sums.  The builder
# shares the walk and reads the verifier's relations (`_derived_relation`),
# never the other way round.

# A rational in a certificate is the JSON string str(Fraction) writes, with at
# most MAX_DIGITS digits on each side of the bar, which bounds the size of the
# numbers a file can feed the arithmetic.
MAX_DIGITS = 64
# `verify_file` reads at most this many bytes; a larger file is refused
# before it is parsed.  The largest rank-16 certificate is about 78 KB.
MAX_BYTES = 1 << 20
_DIGITS = rf"[1-9][0-9]{{0,{MAX_DIGITS - 1}}}"  # no leading zero
_RATIONAL = re.compile(rf"(0|-?{_DIGITS})(?:/({_DIGITS}))?")
_MALFORMED = (KeyError, TypeError, ValueError)


def _fail(reason: str) -> VerificationResult:
    return VerificationResult(False, reason)


def _exact(numerator: int, denominator: int) -> int | Fraction:
    """numerator / denominator: an int when integral, else a Fraction."""
    if numerator % denominator:
        return Fraction(numerator, denominator)
    return numerator // denominator


def _rational(text, scale: int = 1) -> int | Fraction:
    """scale times the value of a canonical rational string.

    Raises ValueError for anything else: "-0", "01", "p/0", "p/1" and a
    fraction not in lowest terms included.
    """
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError("not a rational string")
    numerator, denominator = int(match[1]), int(match[2] or 1)
    if match[2] == "1" or gcd(numerator, denominator) != 1:
        raise ValueError("a fraction over 1 or not in lowest terms")
    return _exact(scale * numerator, denominator)


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a JSON array")
    return value


def _integer(value) -> int:
    """A JSON integer; TypeError for anything else, a boolean included."""
    if type(value) is not int:
        raise TypeError("expected a JSON integer")
    return value


def _fields(value, *keys) -> list:
    """The values at `keys`, in order, of a JSON object with exactly those keys:
    TypeError for another value or key count, KeyError for a missing key."""
    if not isinstance(value, dict) or len(value) != len(keys):
        raise TypeError("expected a JSON object with its schema's keys")
    return [value[key] for key in keys]


class _Halves(dict):
    """Doubled coordinate -> its ambient value in lowest terms ("1/2", "-3/2",
    "0", "-3"), each string made on first use."""

    def __missing__(self, c: int) -> str:
        text = self[c] = f"{c}/2" if c % 2 else str(c // 2)
        return text


_HALVES = _Halves()


def _vec_to_json(v: tuple) -> list[str]:
    """The ambient coordinates in lowest terms."""
    return list(map(_HALVES.__getitem__, v))


def _coeffs_to_json(coeffs: dict[tuple, Fraction], spelled: dict) -> list:
    """The entries of `coeffs`, each root spelled by `spelled` (`_spellings`)."""
    return [{"root": list(spelled[root]), "c": str(value)}
            for root, value in sorted(coeffs.items())]


class _Reader:
    """Reads the vectors and coefficients of one certificate over the root
    system `rs`, whose vectors all have its ambient length.

    A vector spelled as certificates spell a root of `rs` is that root, found
    by one lookup in the root set's text table (`_texts`); any other is read
    coordinate by coordinate, strictly.  A coordinate outside (1/2)Z stays a
    Fraction, so a vector holding one equals no doubled root.  Each distinct
    coefficient string is parsed once; the memo lives as long as the reader
    and holds only strings, since `_rational` refuses anything else (a memo
    holding the int 1 would take True and 1.0, which equal it).
    """

    def __init__(self, rs):
        self.dim = rs.ambient_dim
        self._roots = _texts(rs.roots)
        self._rationals: dict[str, int | Fraction] = {}

    def vector(self, value) -> tuple:
        """2v for a JSON list of `dim` coordinate strings; ValueError for
        another length, before any entry is read."""
        if len(_array(value)) != self.dim:
            raise ValueError("vector of the wrong length")
        root = self._roots.get(tuple(value))  # TypeError for a list or an object
        return tuple([_rational(c, 2) for c in value]) if root is None else root

    def rational(self, text) -> int | Fraction:
        """`_rational(text)`, each distinct string parsed once."""
        value = self._rationals.get(text)  # TypeError for a list or an object
        if value is None:
            value = self._rationals[text] = _rational(text)
        return value

    def coefficients(self, value, field: str = "c", parse=None) -> dict:
        """{2 * root: parse(value)} for a JSON array of objects whose keys are
        "root" and `field` alone, `parse` being `rational` unless given;
        ValueError for an extra key or a repeated root."""
        parse = parse or self.rational
        items = _array(value)
        out = {self.vector(item["root"]): parse(item[field]) for item in items}
        # Each item has both keys by now, so a total of 2 per item means no other.
        if len(out) != len(items) or sum(map(len, items)) != 2 * len(items):
            raise ValueError("a repeated root, or a key outside the schema")
        return out


@lru_cache(maxsize=None)
def _spellings(roots: frozenset) -> dict:
    """{a root: its coordinates as a certificate spells them, a tuple} for a
    root set, built once per set: the builder spells each root from it."""
    return {v: tuple(_vec_to_json(v)) for v in roots}


@lru_cache(maxsize=None)
def _texts(roots: frozenset) -> dict:
    """`_spellings` of a root set inverted, built once per set."""
    return {text: v for v, text in _spellings(roots).items()}


def _side_sums(metric: dict, chamber: tuple) -> list:
    """The compact and the noncompact sum of metric[a] * a over the positive
    roots a of the chamber, column by column."""
    sums = []
    for roots, columns in chamber[3:5]:
        weights = [metric[root] for root in roots]
        sums.append([sum(map(mul, weights, column)) for column in columns])
    return sums


def _n_squared(roots, alpha: tuple, beta: tuple) -> int | Fraction:
    """N^2 = q(1-p)/2 * |alpha|^2 from the alpha-string p..q through beta.

    On doubled vectors |alpha|^2 is a quarter of alpha.alpha, so this is
    q(1-p) * alpha.alpha / 8.
    """
    def shifted(n):
        return tuple(b + n * a for a, b in zip(alpha, beta))

    q = 0
    while shifted(q + 1) in roots:
        q += 1
    p = 0
    while shifted(p - 1) in roots:
        p -= 1
    return _exact(q * (1 - p) * sum(map(mul, alpha, alpha)), 8)


def _accumulate(coeffs: dict, root: tuple, value) -> None:
    """coeffs[root] += value, keeping only nonzero entries."""
    total = coeffs.get(root, 0) + value
    if total:
        coeffs[root] = total
    else:
        coeffs.pop(root, None)


def _add_symmetric(matrix: dict, weight, a: tuple, b: tuple) -> None:
    """matrix += weight * (a b^T + b a^T) on and above the diagonal, with the
    diagonal halved (each product lands once), over the nonzero entries."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    entry = (i, j) if i <= j else (j, i)
                    matrix[entry] = matrix.get(entry, 0) + weight * x * y


def _derived_relation(roots, positive, alpha: tuple, beta: tuple) -> dict:
    """The right side of the relation for (alpha, beta), re-derived from root
    strings, with the difference term folded onto its positive representative;
    `roots` holds every root and `positive` the positive ones, all doubled.
    Each call gets its own dict, copied from `_relation`'s entry."""
    return dict(_relation(frozenset(roots), alpha, beta, tuple(map(sub, alpha, beta)) in positive))


@lru_cache(maxsize=1024)
def _relation(roots: frozenset, alpha: tuple, beta: tuple, difference_positive: bool) -> tuple:
    """`_derived_relation`'s items: these four values decide them."""
    derived: dict[tuple, int | Fraction] = {}
    total = tuple(map(add, alpha, beta))
    if total in roots:
        n2 = _n_squared(roots, alpha, beta)
        _accumulate(derived, total, n2)
        _accumulate(derived, alpha, -n2)
        _accumulate(derived, beta, -n2)
    difference = tuple(map(sub, alpha, beta))
    if difference in roots:
        n2 = _n_squared(roots, alpha, tuple(map(neg, beta)))
        sign = 1 if difference_positive else -1
        _accumulate(derived, difference if sign > 0 else tuple(map(sub, beta, alpha)), n2)
        _accumulate(derived, beta, sign * n2)
        _accumulate(derived, alpha, -sign * n2)
    return tuple(derived.items())


def _verify_pluriclosed_payload(payload, read: _Reader, pair: InnerPair,
                                positive: set, compact: set) -> VerificationResult:
    """Check the sign contradiction on doubled roots: `positive` holds the
    positive roots and `compact` the compact ones among them.  The
    block combines exactly two relations, counted before either is read,
    and its `roots` name their roots as `build_certificate` does."""
    try:
        branch, labels, relations, combination, conclusion_root, conclusion_coeffs, signs = \
            _fields(payload, "branch", "roots", "relations", "combination", "conclusion_root",
                    "conclusion_coeffs", "variable_signs")
        if len(_array(relations)) != 2 or len(_array(combination)) != 2:
            raise ValueError("a certificate combines exactly two relations")
        combination = [_rational(c) for c in combination]
        if not isinstance(labels, dict):
            raise TypeError("expected a JSON object")
        labels = {label: read.vector(v) for label, v in labels.items()}
        conclusion_root = read.vector(conclusion_root)
        conclusion_coeffs = read.coefficients(conclusion_coeffs)
        signs = read.coefficients(signs, "sign", _integer)
    except _MALFORMED:
        return _fail("malformed certificate")
    if branch != ("so_1_2n" if pair.is_so_1_2n else "generic"):
        return _fail("branch mismatch")

    # Both sides of the elimination carry the factor 4 of doubled vectors.
    matrix: dict[tuple[int, int], int | Fraction] = {}
    combined: dict[tuple, int | Fraction] = {}
    named, touched = [], set()
    roots = pair.system.roots
    for weight, item in zip(combination, relations):
        try:
            alpha, beta, stored = _fields(item, "alpha", "beta", "coeffs")
            alpha, beta, stored = read.vector(alpha), read.vector(beta), read.coefficients(stored)
        except _MALFORMED:
            return _fail("malformed certificate")
        if not (alpha in positive and beta in positive):
            return _fail("relation roots invalid")
        if _derived_relation(roots, positive, alpha, beta) != stored:
            return _fail("relation mismatch")
        _add_symmetric(matrix, weight, alpha, beta)
        for root, value in stored.items():
            _accumulate(combined, root, weight * value)
        touched.update(stored)
        named.append((alpha, beta))

    if conclusion_root not in roots:
        return _fail("relation roots invalid")
    target: dict[tuple[int, int], int] = {}
    _add_symmetric(target, 1, conclusion_root, conclusion_root)
    if {entry: value for entry, value in matrix.items() if value} != target:
        return _fail("elimination failed")
    if combined != conclusion_coeffs:
        return _fail("conclusion mismatch")
    if not combined:
        return _fail("sign pattern violated")
    if signs.keys() != touched:  # one sign for each root the relations touch
        return _fail("relation roots invalid")
    for root, sign in signs.items():
        if sign != (-1 if root in compact else 1):
            return _fail("sign pattern violated")
    # Each combined value has its root's sign: > 0 noncompact, < 0 compact.
    if any((value > 0) == (root in compact) for root, value in combined.items()):
        return _fail("sign pattern violated")

    # psi1 and psi2 are the first relation's roots, phi (phi1) is the second
    # one's alpha, paired with psi1, and psi1 is the conclusion root.
    (psi1, psi2), (phi, partner) = named
    expected = {"psi1": psi1, "psi2": psi2}
    if pair.is_so_1_2n:
        expected.update(phi1=phi, phi2=tuple(map(sub, psi1, psi2)))
    else:
        expected["phi"] = phi
    if labels != expected or partner != psi1 or conclusion_root != psi1:
        return _fail("relation roots invalid")
    return VerificationResult(True)


def check_balanced(pair: InnerPair, simples, g: dict) -> bool:
    """Whether the metric `g` (root -> value) satisfies the balanced
    identity over the base `simples`, by `verify_data`'s arithmetic, on
    values kept as it reads them (an int when integral); RootSystemError
    when `simples` is not a base or the domain of `g` is not its positive
    roots."""
    chamber = _claimed_chamber(pair, simples)
    if g.keys() != chamber[0]:
        raise RootSystemError("metric domain does not match the positive roots")
    compact, noncompact = _side_sums({root: _exact(value.numerator, value.denominator)
                                      for root, value in g.items()}, chamber)
    return compact == noncompact


def check_obstruction(pair: InnerPair, simples, payload) -> VerificationResult:
    """`verify_data`'s check of a pluriclosed block (`pluriclosed_payload`)
    over the base `simples`."""
    try:
        claimed = _claimed_roots(pair, simples)
    except RootSystemError:
        return _fail("ordering invalid")
    return _verify_pluriclosed_payload(payload, _Reader(pair.system), pair, *claimed)


def _pair_block(block) -> tuple:
    """(name, family, rank, painted node, dim g, dim k); raises TypeError
    unless name and family are strings and the four counts are integers."""
    fields = _fields(block, "name", "family", "rank", "painted_node", "dim_g", "dim_k")
    fields[2:] = map(_integer, fields[2:])
    if not all(isinstance(v, str) for v in fields[:2]):
        raise TypeError("pair name and family must be strings")
    return fields


def verify_data(data: dict) -> VerificationResult:
    """Recompute every verdict of a parsed certificate from its raw payload."""
    if not isinstance(data, dict) or "schema_version" not in data:
        return _fail("schema mismatch")
    if type(data["schema_version"]) is not int:
        return _fail("malformed certificate")
    if data["schema_version"] != SCHEMA_VERSION:
        return _fail("schema mismatch")
    try:
        _, block, ordering, metric, balanced_verdict, payload, chern, _ = _fields(
            data, "schema_version", "pair", "ordering", "metric", "balanced_verdict",
            "pluriclosed_certificate", "chern_report", "provenance")
        fields = _pair_block(block)
        mode, simples = _fields(ordering, "mode", "simples")
        simples, metric = _array(simples), _array(metric)
    except _MALFORMED:
        return _fail("malformed certificate")

    try:
        pair = pair_by_name(fields[0])
    except RootSystemError:
        return _fail("pair unknown")
    # The name must be the catalog's own spelling, not another that resolves to the pair.
    if [pair.name, pair.family, pair.rank, pair.painted_node, pair.dim_g, pair.dim_k] != fields:
        return _fail("pair mismatch")

    # Bounds before any arithmetic: one metric entry per positive root, and
    # every vector of the ambient length (checked as read).
    rs = pair.system
    if len(metric) != len(rs.roots) // 2:
        return _fail("metric domain mismatch")
    read = _Reader(rs)
    try:
        simples = [read.vector(s) for s in simples]
        metric = read.coefficients(metric)
    except _MALFORMED:
        return _fail("malformed certificate")
    try:
        chamber = _claimed_chamber(pair, simples)
    except RootSystemError:
        return _fail("ordering invalid")
    positive, compact, _, _, _, delta = chamber
    if mode != ("so_1_2n_special" if pair.is_so_1_2n else "partner_property"):
        return _fail("ordering invalid")

    if set(metric) != positive:
        return _fail("metric domain mismatch")
    if min(metric.values()) <= 0:
        return _fail("positivity violated")
    compact_sum, noncompact_sum = _side_sums(metric, chamber)
    if compact_sum != noncompact_sum or balanced_verdict is not True:
        return _fail("balanced identity failed")

    result = _verify_pluriclosed_payload(payload, read, pair, positive, compact)
    if not result.ok:
        return result

    try:
        delta_stored, scalar_stored, delta_nonzero, kodaira_flag = _fields(
            chern, "delta", "scalar_curvature", "delta_nonzero", "kodaira_flag")
        delta_stored, scalar_stored = read.vector(delta_stored), _rational(scalar_stored)
    except _MALFORMED:
        return _fail("malformed certificate")
    if delta != delta_stored:
        return _fail("delta mismatch")
    if not any(delta) or delta_nonzero is not True:
        return _fail("delta zero")
    # The scalar, 2 * sum (n - c) * delta, vanishes since the sums n and c are equal.
    if scalar_stored != 0:
        return _fail("chern scalar nonzero")
    if kodaira_flag is not True:
        return _fail("flag mismatch")
    return VerificationResult(True)


def verify_file(path: str) -> VerificationResult:
    """Verify a certificate file; a file over MAX_BYTES gives "file too
    large", and unreadable bytes, text that is not UTF-8 and anything the
    JSON reader refuses, including nesting too deep and integers too long,
    give "parse error"."""
    try:
        with open(path, "rb") as handle:
            # read(n) allocates n bytes first: size it from the file, and read on
            # if it fills (a pipe or a device reports 0, and a file may grow).
            size = min(os.fstat(handle.fileno()).st_size, MAX_BYTES) + 1
            raw = handle.read(size)
            if len(raw) == size:
                raw += handle.read(MAX_BYTES + 1 - size)
    except OSError:
        return _fail("parse error")
    if len(raw) > MAX_BYTES:
        return _fail("file too large")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return _fail("parse error")
    return verify_data(data)
