"""The certificate verifier against a Fraction reference.

The reference below is the verifier the package used before it switched to
doubled integer coordinates: it parses every coordinate into a `Fraction`,
holds every vector as a tuple of ambient Fractions of its own (a catalog
root, the RootVector tuple of doubled coordinates c, is read as the
Fraction(c, 2)), decomposes roots over the claimed base by a
Bareiss-inverted Gram matrix, and recomputes root
strings, the elimination matrix, the balanced sums and the Chern data in
Fraction arithmetic.  The verifier in `certkit` must give the same
(ok, reason) on every catalog certificate and on a fixed set of tampered
copies of each.
"""

import copy
import json
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import SimpleNamespace

import pytest

import innerlie.certkit as certkit
import innerlie.verify as verify
import innerlie.walk as walk
from innerlie import catalog, find_admissible_ordering, pair_by_name
from innerlie.rootsys import RootSystemError, RootVector, reflect


# ---------------------------------------------------------------------------
# Reference: the Fraction verifier
# ---------------------------------------------------------------------------

def _fail(reason):
    return verify.VerificationResult(False, reason)


class _Vec(tuple):
    """An ambient vector of Fractions that keeps its hash once computed."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


@lru_cache(maxsize=None)  # only strings return, and a Fraction is immutable
def _fraction(text):
    """Fraction(text), for the one spelling str(Fraction) writes; ValueError
    for any other ("-0", "16/4", "01", a JSON number)."""
    value = Fraction(text)
    if str(value) != text:
        raise ValueError("not the canonical spelling")
    return value


def _vec(data):
    return _Vec(_fraction(c) for c in data)


def _coeffs(data):
    return {_vec(item["root"]): _fraction(item["c"]) for item in data}


def _ambient(v):
    """A catalog root as ambient Fractions; a RootVector holds twice each."""
    return _Vec(Fraction(c, 2) for c in v)


@lru_cache(maxsize=None)
def _ambient_roots(rs):
    return [_ambient(v) for v in rs.sorted_roots]


def _add(a, b):
    return _Vec(x + y for x, y in zip(a, b))


def _scaled(n, a):
    return _Vec(n * x for x in a)


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _doubled(v):
    return tuple(2 * c.numerator // c.denominator for c in v)


def _read(data):
    """The certificate's fields, with every vector an ambient Fraction tuple."""
    pair = data["pair"]
    return SimpleNamespace(
        pair_name=pair["name"], family=pair["family"], rank=pair["rank"],
        painted_node=pair["painted_node"], dim_g=pair["dim_g"], dim_k=pair["dim_k"],
        ordering_mode=data["ordering"]["mode"],
        simples=tuple(_vec(s) for s in data["ordering"]["simples"]),
        metric=_coeffs(data["metric"]),
        balanced_verdict=data["balanced_verdict"],
        pluriclosed=data["pluriclosed_certificate"],
        chern=data["chern_report"],
        provenance=data["provenance"])


def _scaled_inverse(matrix):
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
    def __init__(self, simples):
        self.basis = [_doubled(s) for s in simples]
        gram = [[sum(map(mul, a, b)) for b in self.basis] for a in self.basis]
        self.scale, self.solve = _scaled_inverse(gram)
        self.columns = list(zip(*self.basis))

    def coordinates(self, v):
        w = _doubled(v)
        rhs = [sum(map(mul, w, b)) for b in self.basis]
        coeffs = tuple(sum(map(mul, row, rhs)) // self.scale for row in self.solve)
        if tuple(sum(map(mul, coeffs, column)) for column in self.columns) != w:
            raise RootSystemError("no integral coordinates over the base")
        if min(coeffs) < 0 < max(coeffs):
            raise RootSystemError("mixed-sign coordinates over the base")
        return coeffs


def _claimed_coordinates(roots, rank, simples):
    if len(simples) != rank:
        raise RootSystemError("wrong number of simple roots")
    known = set(roots)
    for s in simples:
        if s not in known:
            raise RootSystemError("not a root")
    base = _AmbientBase(simples)
    return {v: base.coordinates(v) for v in roots}


# (pair name, claimed simples) -> the claimed coordinates of every root, the
# parity of each claimed simple at the painted nodes and the positive roots,
# or the reason the claim was refused: the tampers of one certificate mostly
# keep its chamber, so each is computed once.
_CHAMBERS = {}


def _reference_chamber(pair, simples):
    key = (pair.name, simples)
    if key not in _CHAMBERS:
        rs = pair.system
        roots = _ambient_roots(rs)
        try:
            coords = _claimed_coordinates(roots, rs.rank, simples)
        except RootSystemError as exc:
            _CHAMBERS[key] = str(exc)
        else:
            standard = _AmbientBase([_ambient(s) for s in rs.base.simples])
            parity = [sum(abs(standard.coordinates(s)[i]) for i in pair.grading.painted) % 2
                      for s in simples]
            positives = [root for root in roots if all(c >= 0 for c in coords[root])]
            _CHAMBERS[key] = coords, parity, positives
    if isinstance(_CHAMBERS[key], str):
        raise RootSystemError(_CHAMBERS[key])
    return _CHAMBERS[key]


def _n_squared(roots, alpha, beta):
    q = 0
    while _add(beta, _scaled(q + 1, alpha)) in roots:
        q += 1
    p = 0
    while _add(beta, _scaled(p - 1, alpha)) in roots:
        p -= 1
    return Fraction(q * (1 - p), 2) * _dot(alpha, alpha)


def _reference_pluriclosed(payload, pair, roots, is_positive, is_compact):
    rs = pair.system
    try:
        branch = payload["branch"]
        relations = payload["relations"]
        combination = [_fraction(c) for c in payload["combination"]]
        conclusion_root = _vec(payload["conclusion_root"])
        conclusion_coeffs = _coeffs(payload["conclusion_coeffs"])
        signs = {_vec(item["root"]): item["sign"] for item in payload["variable_signs"]}
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return _fail("malformed certificate")
    if (branch == "so_1_2n") != pair.is_so_1_2n:
        return _fail("branch mismatch")
    if len(relations) != len(combination):
        return _fail("malformed certificate")

    dim = rs.ambient_dim
    combined_matrix = [[Fraction(0)] * dim for _ in range(dim)]
    combined = {}
    for weight, item in zip(combination, relations):
        try:
            alpha = _vec(item["alpha"])
            beta = _vec(item["beta"])
            stored = _coeffs(item["coeffs"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return _fail("malformed certificate")
        if not (alpha in roots and beta in roots):
            return _fail("relation roots invalid")
        if not (is_positive(alpha) and is_positive(beta)):
            return _fail("relation roots invalid")
        derived = {}

        def accumulate(root, value):
            derived[root] = derived.get(root, Fraction(0)) + value
            if derived[root] == 0:
                del derived[root]

        if _add(alpha, beta) in roots:
            n2 = _n_squared(roots, alpha, beta)
            accumulate(_add(alpha, beta), n2)
            accumulate(alpha, -n2)
            accumulate(beta, -n2)
        difference = _add(alpha, _scaled(-1, beta))
        if difference in roots:
            n2 = _n_squared(roots, alpha, _scaled(-1, beta))
            sign = 1 if is_positive(difference) else -1
            accumulate(difference if sign > 0 else _scaled(-1, difference), n2)
            accumulate(beta, sign * n2)
            accumulate(alpha, -sign * n2)
        if derived != stored:
            return _fail("relation mismatch")
        for i in range(dim):
            for j in range(dim):
                combined_matrix[i][j] += weight * (alpha[i] * beta[j] + alpha[j] * beta[i])
        for root, value in stored.items():
            combined[root] = combined.get(root, Fraction(0)) + weight * value
            if combined[root] == 0:
                del combined[root]

    if conclusion_root not in roots:
        return _fail("relation roots invalid")
    for i in range(dim):
        for j in range(dim):
            target = 2 * conclusion_root[i] * conclusion_root[j]
            if combined_matrix[i][j] != target:
                return _fail("elimination failed")
    if combined != conclusion_coeffs:
        return _fail("conclusion mismatch")
    if not combined:
        return _fail("sign pattern violated")
    for root, sign in signs.items():
        if root not in roots:
            return _fail("relation roots invalid")
        if sign != (-1 if is_compact(root) else 1):
            return _fail("sign pattern violated")
    for root, value in combined.items():
        true_sign = -1 if is_compact(root) else 1
        if signs.get(root) != true_sign:
            return _fail("sign pattern violated")
        if (value > 0) != (true_sign > 0):
            return _fail("sign pattern violated")
    return verify.VerificationResult(True)


def _pair_block_typed(cert):
    counts = (cert.rank, cert.painted_node, cert.dim_g, cert.dim_k)
    return (isinstance(cert.pair_name, str) and isinstance(cert.family, str)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in counts))


def reference_verify(data):
    if not isinstance(data, dict) or "schema_version" not in data:
        return _fail("schema mismatch")
    if data["schema_version"] != verify.SCHEMA_VERSION:
        return _fail("schema mismatch")
    try:
        cert = _read(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return _fail("malformed certificate")
    if not _pair_block_typed(cert):
        return _fail("malformed certificate")
    try:
        pair = pair_by_name(cert.pair_name)
    except RootSystemError:
        return _fail("pair unknown")
    if (pair.name, pair.rank, pair.painted_node, pair.dim_g, pair.dim_k, pair.family) != (
            cert.pair_name, cert.rank, cert.painted_node, cert.dim_g, cert.dim_k, cert.family):
        return _fail("pair mismatch")

    rs = pair.system
    roots = _ambient_roots(rs)
    try:
        coords, simple_parity, positives = _reference_chamber(pair, cert.simples)
    except RootSystemError:
        return _fail("ordering invalid")
    if cert.ordering_mode not in ("partner_property", "so_1_2n_special"):
        return _fail("ordering invalid")
    if (cert.ordering_mode == "so_1_2n_special") != pair.is_so_1_2n:
        return _fail("ordering invalid")

    def is_compact(root):
        return sum(map(mul, coords[root], simple_parity)) % 2 == 0

    def is_positive(root):
        return all(c >= 0 for c in coords[root])

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
        for i, c in enumerate(root):
            if c:
                target[i] += weight * c
                delta[i] += c
    if compact_sum != noncompact_sum or not cert.balanced_verdict:
        return _fail("balanced identity failed")

    result = _reference_pluriclosed(cert.pluriclosed, pair, set(roots), is_positive, is_compact)
    if not result.ok:
        return result

    try:
        delta_stored = _vec(cert.chern["delta"])
        scalar_stored = _fraction(cert.chern["scalar_curvature"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return _fail("malformed certificate")
    if tuple(delta) != delta_stored:
        return _fail("delta mismatch")
    if not any(delta) or not cert.chern.get("delta_nonzero", False):
        return _fail("delta zero")
    scalar = 2 * sum((n - c) * d for n, c, d in zip(noncompact_sum, compact_sum, delta))
    if scalar != 0 or scalar_stored != scalar:
        return _fail("chern scalar nonzero")
    if cert.chern.get("kodaira_flag") is not True:
        return _fail("flag mismatch")
    return verify.VerificationResult(True)


# ---------------------------------------------------------------------------
# Tampers: each changes one value of a valid certificate
# ---------------------------------------------------------------------------

def _bump(value):
    return str(Fraction(value) + 1)


def _middle(items):
    return items[len(items) // 2]


def _metric_coefficient(d):
    entry = _middle(d["metric"])
    entry["c"] = _bump(entry["c"])


def _relation_coefficient(d):
    entry = _middle(_middle(d["pluriclosed_certificate"]["relations"])["coeffs"])
    entry["c"] = _bump(entry["c"])


def _flipped_sign(d):
    entry = _middle(d["pluriclosed_certificate"]["variable_signs"])
    entry["sign"] = -entry["sign"]


def _delta_coordinate(d):
    delta = d["chern_report"]["delta"]
    delta[0] = _bump(delta[0])


def _third(coords):
    coords[0] = "1/3"


def _negated_simple(d):
    simples = d["ordering"]["simples"]
    simples[0] = [str(-Fraction(c)) for c in simples[0]]


def _minus_zero_in_simple(d):
    simples = d["ordering"]["simples"]
    simple = next(s for s in simples if "0" in s)
    simple[simple.index("0")] = "-0"


def _unreduced_metric_value(d):
    entry = _middle(d["metric"])
    value = Fraction(entry["c"])
    entry["c"] = f"{4 * value.numerator}/{4 * value.denominator}"


def _leading_zero(d):
    entry = _middle(_middle(d["pluriclosed_certificate"]["relations"])["coeffs"])
    c = entry["c"]
    entry["c"] = "-0" + c[1:] if c.startswith("-") else "0" + c


def _doubled_combination(d):
    """Both weights and every conclusion coefficient doubled: the off-diagonal
    terms still cancel and every sign holds, so for so(1,2n), whose conclusion
    root e1 has a square with no off-diagonal entry, only the diagonal (twice
    the conclusion's) refuses it."""
    block = d["pluriclosed_certificate"]
    block["combination"] = [str(2 * Fraction(c)) for c in block["combination"]]
    for entry in block["conclusion_coeffs"]:
        entry["c"] = str(2 * Fraction(entry["c"]))


TAMPERS = {
    "metric_coefficient": _metric_coefficient,
    "relation_coefficient": _relation_coefficient,
    "flipped_sign": _flipped_sign,
    "delta_coordinate": _delta_coordinate,
    "third_in_simple": lambda d: _third(d["ordering"]["simples"][-1]),
    "third_in_metric_root": lambda d: _third(_middle(d["metric"])["root"]),
    "third_in_relation_root": lambda d: _third(
        _middle(d["pluriclosed_certificate"]["relations"])["alpha"]),
    "third_in_conclusion_root": lambda d: _third(
        d["pluriclosed_certificate"]["conclusion_root"]),
    "third_in_sign_root": lambda d: _third(
        _middle(d["pluriclosed_certificate"]["variable_signs"])["root"]),
    "negated_simple": _negated_simple,
    "unknown_pair": lambda d: d["pair"].update(name="su(2,2)"),
    "retyped_pair": lambda d: d["pair"].update(name=5),
    "alias_spelled_pair": lambda d: d["pair"].update(name=" " + d["pair"]["name"].upper()),
    "minus_zero_in_simple": _minus_zero_in_simple,
    "unreduced_metric_value": _unreduced_metric_value,
    "leading_zero_in_relation": _leading_zero,
    "doubled_combination": _doubled_combination,
}


@pytest.fixture(scope="module")
def certificates():
    """Canonical certificate dicts of the catalog: ranks up to 6, plus e8(8)."""
    pairs = [pair for pair in catalog(8) if pair.rank <= 6 or pair.name == "e8(8)"]
    return {pair.name: json.loads(certkit.serialize(certkit.analyze_pair(pair)))
            for pair in pairs}


def test_reference_sweep_covers_every_family(certificates):
    families = {pair_by_name(name).family for name in certificates}
    assert families == {"A", "B", "C", "D", "G2", "F4", "E6", "E8"}


def test_every_certificate_agrees_with_reference(certificates):
    for name, data in certificates.items():
        expected = reference_verify(data)
        assert expected.ok, (name, expected.reason)
        assert certkit.verify_data(data) == expected, name


@pytest.mark.parametrize("kind", sorted(TAMPERS))
def test_every_tampered_copy_agrees_with_reference(certificates, kind):
    for name, data in certificates.items():
        tampered = copy.deepcopy(data)
        TAMPERS[kind](tampered)
        expected = reference_verify(tampered)
        assert not expected.ok, (name, kind)
        assert certkit.verify_data(tampered) == expected, (name, kind)


def _reflected_simples(d):
    """Claim the base moved by the reflection in its first simple root: a
    genuine base of the same root system, of another chamber."""
    simples = [RootVector(s) for s in d["ordering"]["simples"]]
    d["ordering"]["simples"] = [verify._vec_to_json(reflect(s, simples[0])) for s in simples]


def _cold_caches():
    from test_certkit import clear_bounded_caches
    clear_bounded_caches()


def test_cache_state_changes_no_verdict(certificates):
    """Every certificate, each tampered copy and a copy claiming another
    genuine base verify alike with the chamber and relation caches cleared,
    warm, and warmed by the valid certificate first."""
    variants = dict(TAMPERS, valid=lambda d: None, other_base=_reflected_simples)
    for name, data in certificates.items():
        text = json.dumps(data)
        for kind, tamper in variants.items():
            copied = json.loads(text)
            tamper(copied)
            _cold_caches()
            cold = certkit.verify_data(copied)
            warm = certkit.verify_data(copied)
            _cold_caches()
            certkit.verify_data(data)
            assert cold == warm == certkit.verify_data(copied), (name, kind)
            assert cold.ok == (kind == "valid"), (name, kind)
            if kind == "other_base":  # the claim reached the other chamber
                assert cold.reason == "metric domain mismatch", name


# ---------------------------------------------------------------------------
# Compactness from the claimed base against the full standard-base walk
# ---------------------------------------------------------------------------

def _standard_walk_compact(pair):
    """The compact roots as the verifier used to read them: the whole height
    walk over the standard base, then the parity at the painted nodes."""
    rs = pair.system
    standard = walk._claimed_coordinates(walk._table(rs.roots, rs.base.simples), rs.rank,
                                         rs.base.simples)
    return {v for v, c in standard.items() if sum(c[i] for i in pair.grading.painted) % 2 == 0}


def test_compact_roots_from_claimed_parities_equal_the_full_walk():
    """For every pair of rank at most 16, the verifier's positive roots are
    the ordering's, and its compact ones, those of the grading's compact set
    (`walk._compact`), are those read from a fresh full walk over the
    standard base and from the solver's grading.

    Only the first assert compares independent computations: the compact set
    is the one `pair.grading` holds, and it and the fresh walk read the
    parities of the same standard-base walk, so the last two guard how the
    chamber intersects that set, not the set.  The compact roots are checked
    against the Gram-inverse reference of `tests/test_chambers.py` instead,
    in every chamber of A3, B3, C3, D4 and G2 and on sampled bases of B5, D5,
    F4, E6 and E8, and by a CI step on the ordering of every rank-8 pair."""
    for pair in catalog(16):
        ordering = find_admissible_ordering(pair)
        positive, compact = walk._claimed_roots(pair, ordering.system.simples)
        assert positive == set(ordering.positives), pair.name
        assert compact == _standard_walk_compact(pair) & positive, pair.name
        assert compact == {v for v in positive if pair.grading.is_compact(v)}

