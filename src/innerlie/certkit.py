"""Certificate files and the solver-independent end-to-end verifier.

A certificate packages, for one pair: the chosen ordering, the metric
coefficients, the pluriclosed contradiction data and the Chern report,
all as exact rational strings.  Serialization is canonical JSON (sorted
keys, lowest-terms "p/q" payloads), so identical inputs produce identical
bytes apart from the provenance timestamp.

Verification here re-derives every verdict from the raw payload using only
the root set, the standard base and the painted nodes of the catalog, with
its own arithmetic on ambient coordinates; it shares no code path with the
solvers or the integer root core, so it stays an independent check of the
same mathematics.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from operator import mul

from . import __version__
from .pairs import InnerPair, pair_by_name
from .rootsys import RootSystemError, RootVector

SCHEMA_VERSION = 1
TOOL_NAME = "innerlie"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass
class VerificationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class AnalysisCertificate:
    schema_version: int
    pair_name: str
    family: str
    rank: int
    painted_node: int
    dim_g: int
    dim_k: int
    ordering_mode: str
    simples: tuple[RootVector, ...]
    metric: dict[RootVector, Fraction]
    balanced_verdict: bool
    pluriclosed: dict
    chern: dict
    provenance: dict


def _vec_to_json(v: RootVector) -> list[str]:
    return [str(c) for c in v.coords]


def _vec_from_json(data) -> RootVector:
    return RootVector([Fraction(c) for c in data])


def _coeffs_to_json(coeffs: dict[RootVector, Fraction]) -> list:
    return [{"root": _vec_to_json(root), "c": str(value)}
            for root, value in sorted(coeffs.items())]


def _coeffs_from_json(data) -> dict[RootVector, Fraction]:
    return {_vec_from_json(item["root"]): Fraction(item["c"]) for item in data}


def analyze_pair(pair_or_name, x=Fraction(1), y=Fraction(2)) -> AnalysisCertificate:
    """Run the full pipeline on one catalog pair and package the results."""
    from .balanced import solve_for_pair, verify_balanced
    from .chern import chern_report
    from .pluriclosed import build_certificate

    pair = pair_or_name if isinstance(pair_or_name, InnerPair) else pair_by_name(pair_or_name)
    metric = solve_for_pair(pair, x, y)
    ordering = metric.ordering
    balanced_ok = verify_balanced(metric, pair)
    pluri = build_certificate(ordering, pair)
    chern = chern_report(metric, ordering, pair)
    if not (balanced_ok and chern.scalar_curvature == 0 and chern.delta_nonzero):
        raise RootSystemError(f"{pair.name}: pipeline produced an inconsistent result")

    pluri_payload = {
        "branch": pluri.branch,
        "roots": {label: _vec_to_json(root) for label, root in sorted(pluri.roots.items())},
        "relations": [
            {"alpha": _vec_to_json(r.alpha), "beta": _vec_to_json(r.beta),
             "coeffs": _coeffs_to_json(r.coeffs)}
            for r in pluri.relations
        ],
        "combination": [str(c) for c in pluri.combination],
        "conclusion_root": _vec_to_json(pluri.conclusion_root),
        "conclusion_coeffs": _coeffs_to_json(pluri.conclusion_coeffs),
        "variable_signs": [
            {"root": _vec_to_json(root), "sign": sign}
            for root, sign in sorted(pluri.variable_signs.items())
        ],
    }
    chern_payload = {
        "delta": _vec_to_json(chern.delta),
        "scalar_curvature": str(chern.scalar_curvature),
        "delta_nonzero": chern.delta_nonzero,
        "kodaira_flag": chern.kodaira_flag,
    }
    return AnalysisCertificate(
        schema_version=SCHEMA_VERSION,
        pair_name=pair.name,
        family=pair.family,
        rank=pair.rank,
        painted_node=pair.painted_node,
        dim_g=pair.dim_g,
        dim_k=pair.dim_k,
        ordering_mode=ordering.mode,
        simples=ordering.system.simples,
        metric=dict(metric.g),
        balanced_verdict=balanced_ok,
        pluriclosed=pluri_payload,
        chern=chern_payload,
        provenance={
            "tool": TOOL_NAME,
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    )


def to_dict(cert: AnalysisCertificate) -> dict:
    return {
        "schema_version": cert.schema_version,
        "pair": {
            "name": cert.pair_name,
            "family": cert.family,
            "rank": cert.rank,
            "painted_node": cert.painted_node,
            "dim_g": cert.dim_g,
            "dim_k": cert.dim_k,
        },
        "ordering": {
            "mode": cert.ordering_mode,
            "simples": [_vec_to_json(s) for s in cert.simples],
        },
        "metric": _coeffs_to_json(cert.metric),
        "balanced_verdict": cert.balanced_verdict,
        "pluriclosed_certificate": cert.pluriclosed,
        "chern_report": cert.chern,
        "provenance": cert.provenance,
    }


def from_dict(data: dict) -> AnalysisCertificate:
    pair = data["pair"]
    return AnalysisCertificate(
        schema_version=data["schema_version"],
        pair_name=pair["name"],
        family=pair["family"],
        rank=pair["rank"],
        painted_node=pair["painted_node"],
        dim_g=pair["dim_g"],
        dim_k=pair["dim_k"],
        ordering_mode=data["ordering"]["mode"],
        simples=tuple(_vec_from_json(s) for s in data["ordering"]["simples"]),
        metric=_coeffs_from_json(data["metric"]),
        balanced_verdict=data["balanced_verdict"],
        pluriclosed=data["pluriclosed_certificate"],
        chern=data["chern_report"],
        provenance=data["provenance"],
    )


def serialize(cert: AnalysisCertificate) -> str:
    return json.dumps(to_dict(cert), sort_keys=True, indent=2) + "\n"


def parse(text: str) -> AnalysisCertificate:
    return from_dict(json.loads(text))


def save(cert: AnalysisCertificate, path: str) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(serialize(cert))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path: str) -> AnalysisCertificate:
    with open(path) as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# Independent verification (root-system and catalog primitives only)
#
# The verifier names roots by their ambient vectors and does its own exact
# arithmetic on them.  It reads the root set, the standard base and the
# painted nodes, but none of the integer coordinate tables of `rootsys`, so
# the fast core and the checker share no arithmetic.
# ---------------------------------------------------------------------------

def _fail(reason: str) -> VerificationResult:
    return VerificationResult(False, reason)


def _doubled(v: RootVector) -> tuple[int, ...]:
    """2v as integers; every root coordinate lies in (1/2)Z."""
    return tuple(2 * c.numerator // c.denominator for c in v.coords)


def _scaled_inverse(matrix: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(d, A) with matrix^-1 = A / d, by fraction-free Gauss-Jordan elimination.

    Every division is exact (Bareiss); raises RootSystemError if singular.
    """
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    previous = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            raise RootSystemError("simple roots are linearly dependent")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        head = aug[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(head[k] * a - f * b) // previous for a, b in zip(aug[i], head)]
        previous = head[k]
    return previous, [row[n:] for row in aug]


class _AmbientBase:
    """Decomposition over claimed simple roots in doubled ambient integers.

    The Gram matrix of the doubled simples is inverted once, as an integer
    matrix over a common denominator; each root is then decomposed by
    integer products.  The rounded coordinates must recompose to the root
    exactly, which holds only when the true ones are integers, and must be
    of one sign.
    """

    def __init__(self, simples):
        self.basis = [_doubled(s) for s in simples]
        gram = [[sum(map(mul, a, b)) for b in self.basis] for a in self.basis]
        self.scale, self.solve = _scaled_inverse(gram)
        self.columns = list(zip(*self.basis))

    def coordinates(self, v: RootVector) -> tuple[int, ...]:
        w = _doubled(v)
        rhs = [sum(map(mul, w, b)) for b in self.basis]
        coeffs = tuple(sum(map(mul, row, rhs)) // self.scale for row in self.solve)
        if tuple(sum(map(mul, coeffs, column)) for column in self.columns) != w:
            raise RootSystemError(f"{v!r} has no integral coordinates over the base")
        if min(coeffs) < 0 < max(coeffs):
            raise RootSystemError(f"{v!r} has mixed-sign coordinates over the base")
        return coeffs


def _claimed_coordinates(rs, simples) -> dict[RootVector, tuple[int, ...]]:
    """Coordinates of every root of rs over claimed simple roots.

    Raises RootSystemError unless the claim is a genuine base: rank-many
    roots, independent, with every root decomposing integrally, exactly and
    with one sign.
    """
    if len(simples) != rs.rank:
        raise RootSystemError(f"expected {rs.rank} simple roots, got {len(simples)}")
    for s in simples:
        if not rs.is_root(s):
            raise RootSystemError(f"{s!r} is not a root")
    base = _AmbientBase(simples)
    return {v: base.coordinates(v) for v in rs.sorted_roots}


def _n_squared(roots, alpha: RootVector, beta: RootVector) -> Fraction:
    """q(1-p)/2 * |alpha|^2 from the alpha-string p..q through beta."""
    q = 0
    while beta + (q + 1) * alpha in roots:
        q += 1
    p = 0
    while beta + (p - 1) * alpha in roots:
        p -= 1
    return Fraction(q * (1 - p), 2) * alpha.norm_sq()


def _verify_pluriclosed_payload(payload: dict, pair: InnerPair, is_positive,
                                is_compact) -> VerificationResult:
    rs = pair.system
    try:
        branch = payload["branch"]
        relations = payload["relations"]
        combination = [Fraction(c) for c in payload["combination"]]
        conclusion_root = _vec_from_json(payload["conclusion_root"])
        conclusion_coeffs = _coeffs_from_json(payload["conclusion_coeffs"])
        signs = {_vec_from_json(item["root"]): item["sign"]
                 for item in payload["variable_signs"]}
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return _fail("malformed certificate")
    if (branch == "so_1_2n") != pair.is_so_1_2n:
        return _fail("branch mismatch")
    if len(relations) != len(combination):
        return _fail("malformed certificate")

    dim = rs.ambient_dim
    combined_matrix = [[Fraction(0)] * dim for _ in range(dim)]
    combined: dict[RootVector, Fraction] = {}
    for weight, item in zip(combination, relations):
        try:
            alpha = _vec_from_json(item["alpha"])
            beta = _vec_from_json(item["beta"])
            stored = _coeffs_from_json(item["coeffs"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return _fail("malformed certificate")
        if not (rs.is_root(alpha) and rs.is_root(beta)):
            return _fail("relation roots invalid")
        if not (is_positive(alpha) and is_positive(beta)):
            return _fail("relation roots invalid")
        derived: dict[RootVector, Fraction] = {}

        def accumulate(root, value):
            derived[root] = derived.get(root, Fraction(0)) + value
            if derived[root] == 0:
                del derived[root]

        if rs.is_root(alpha + beta):
            n2 = _n_squared(rs.roots, alpha, beta)
            accumulate(alpha + beta, n2)
            accumulate(alpha, -n2)
            accumulate(beta, -n2)
        if rs.is_root(alpha - beta):
            n2 = _n_squared(rs.roots, alpha, -beta)
            sign = 1 if is_positive(alpha - beta) else -1
            accumulate(alpha - beta if sign > 0 else beta - alpha, n2)
            accumulate(beta, sign * n2)
            accumulate(alpha, -sign * n2)
        if derived != stored:
            return _fail("relation mismatch")
        for i in range(dim):
            for j in range(dim):
                combined_matrix[i][j] += weight * (
                    alpha.coords[i] * beta.coords[j] + alpha.coords[j] * beta.coords[i])
        for root, value in stored.items():
            combined[root] = combined.get(root, Fraction(0)) + weight * value
            if combined[root] == 0:
                del combined[root]

    if not rs.is_root(conclusion_root):
        return _fail("relation roots invalid")
    for i in range(dim):
        for j in range(dim):
            target = 2 * conclusion_root.coords[i] * conclusion_root.coords[j]
            if combined_matrix[i][j] != target:
                return _fail("elimination failed")
    if combined != conclusion_coeffs:
        return _fail("conclusion mismatch")
    if not combined:
        return _fail("sign pattern violated")
    for root, sign in signs.items():
        if not rs.is_root(root):
            return _fail("relation roots invalid")
        if sign != (-1 if is_compact(root) else 1):
            return _fail("sign pattern violated")
    for root, value in combined.items():
        true_sign = -1 if is_compact(root) else 1
        if signs.get(root) != true_sign:
            return _fail("sign pattern violated")
        if (value > 0) != (true_sign > 0):
            return _fail("sign pattern violated")
    return VerificationResult(True)


def _pair_block_typed(cert: AnalysisCertificate) -> bool:
    """name and family are strings; the four counts are integers, not booleans."""
    counts = (cert.rank, cert.painted_node, cert.dim_g, cert.dim_k)
    return (isinstance(cert.pair_name, str) and isinstance(cert.family, str)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in counts))


def verify_data(data: dict) -> VerificationResult:
    """Recompute every verdict of a parsed certificate from its raw payload."""
    if not isinstance(data, dict) or "schema_version" not in data:
        return _fail("schema mismatch")
    if data["schema_version"] != SCHEMA_VERSION:
        return _fail("schema mismatch")
    try:
        cert = from_dict(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return _fail("malformed certificate")
    if not _pair_block_typed(cert):
        return _fail("malformed certificate")

    try:
        pair = pair_by_name(cert.pair_name)
    except RootSystemError:
        return _fail("pair unknown")
    if (pair.rank, pair.painted_node, pair.dim_g, pair.dim_k, pair.family) != (
            cert.rank, cert.painted_node, cert.dim_g, cert.dim_k, cert.family):
        return _fail("pair mismatch")

    rs = pair.system
    try:
        coords = _claimed_coordinates(rs, cert.simples)
    except RootSystemError:
        return _fail("ordering invalid")
    if cert.ordering_mode not in ("partner_property", "so_1_2n_special"):
        return _fail("ordering invalid")
    if (cert.ordering_mode == "so_1_2n_special") != pair.is_so_1_2n:
        return _fail("ordering invalid")

    # The grading is parity over the painted nodes of the standard base; it is
    # additive, so a root's parity follows from its claimed coordinates and
    # the parities of the claimed simples.
    standard = _AmbientBase(rs.base.simples)
    simple_parity = [sum(abs(standard.coordinates(s)[i]) for i in pair.grading.painted) % 2
                     for s in cert.simples]

    def is_compact(root: RootVector) -> bool:
        return sum(map(mul, coords[root], simple_parity)) % 2 == 0

    def is_positive(root: RootVector) -> bool:
        return all(c >= 0 for c in coords[root])

    positives = [root for root in rs.sorted_roots if is_positive(root)]
    if set(cert.metric) != set(positives):
        return _fail("metric domain mismatch")
    if any(value <= 0 for value in cert.metric.values()):
        return _fail("positivity violated")

    dim = rs.ambient_dim
    compact_sum = [Fraction(0)] * dim
    noncompact_sum = [Fraction(0)] * dim
    delta = [Fraction(0)] * dim
    for root in positives:
        target = compact_sum if is_compact(root) else noncompact_sum
        weight = cert.metric[root]
        for i, c in enumerate(root.coords):
            if c:
                target[i] += weight * c
                delta[i] += c
    if compact_sum != noncompact_sum or not cert.balanced_verdict:
        return _fail("balanced identity failed")

    result = _verify_pluriclosed_payload(cert.pluriclosed, pair, is_positive, is_compact)
    if not result.ok:
        return result

    try:
        delta_stored = _vec_from_json(cert.chern["delta"])
        scalar_stored = Fraction(cert.chern["scalar_curvature"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return _fail("malformed certificate")
    if RootVector(delta) != delta_stored:
        return _fail("delta mismatch")
    if not any(delta) or not cert.chern.get("delta_nonzero", False):
        return _fail("delta zero")
    scalar = 2 * sum((n - c) * d for n, c, d in zip(noncompact_sum, compact_sum, delta))
    if scalar != 0 or scalar_stored != scalar:
        return _fail("chern scalar nonzero")
    if cert.chern.get("kodaira_flag") is not True:
        return _fail("flag mismatch")
    return VerificationResult(True)


def verify_file(path: str) -> VerificationResult:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return _fail("parse error")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return _fail("parse error")
    return verify_data(data)
