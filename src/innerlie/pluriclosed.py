"""Sign-contradiction certificates against invariant pluriclosed metrics.

For a hypothetical pluriclosed metric, each pair of distinct positive roots
(a, b) yields one linear relation

    T(a, b) = N2(a, b) * (x_{a+b} - x_a - x_b)
            + N2(a, -b) * e * (e * x_{a-b} + x_b - x_a),

where T is the unknown symmetric form on the toral part, the x variables
are h(E_r, E_{-r}) indexed by positive roots (negative for compact roots,
positive for noncompact ones), N2 is the squared structure constant and
e = ±1 is the sign of a - b in the chosen ordering.  A certificate is a
rational combination of such relations whose left side collapses to a single
diagonal value T(c, c) (constrained negative) while every variable on the
right side appears with a coefficient matching its sign constraint (so the
right side is strictly positive): a literal infeasibility witness.

The relation is stated once, by the verifier: `instantiate_relation` takes
its coefficients from `verify._derived_relation` on doubled roots.
`verify_certificate` checks a certificate with the verifier of
`verify.verify_data`, which re-derives every coefficient from root strings
and the stored ordering, checks the exact elimination of off-diagonal terms
and checks the sign pattern; it never trusts the builder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ordering import MODE_PARTNER, MODE_SPECIAL, AdmissibleOrdering
from .pairs import InnerPair
from .rootsys import InvariantViolation, RootSystemError, RootVector
from .verify import _accumulate, _coeffs_to_json, _derived_relation, _vec_to_json, check_obstruction

BRANCH_GENERIC = "generic"
BRANCH_SPECIAL = "so_1_2n"


class PluriclosedRelation(NamedTuple):
    alpha: RootVector
    beta: RootVector
    coeffs: dict[RootVector, Fraction]


class PluriclosedCertificate(NamedTuple):
    branch: str
    roots: dict[str, RootVector]
    ordering_simples: tuple[RootVector, ...]
    relations: tuple[PluriclosedRelation, ...]
    combination: tuple[Fraction, ...]
    conclusion_root: RootVector
    conclusion_coeffs: dict[RootVector, Fraction]
    variable_signs: dict[RootVector, int]  # +1 noncompact, -1 compact


def instantiate_relation(alpha: RootVector, beta: RootVector,
                         ordering: AdmissibleOrdering, pair: InnerPair) -> PluriclosedRelation:
    """The relation for (alpha, beta), derived on doubled roots by the
    verifier's `verify._derived_relation`."""
    positive = set(ordering.positives)
    if alpha == beta:
        raise RootSystemError("the relation requires distinct roots")
    for root in (alpha, beta):
        if root not in positive:
            raise RootSystemError(f"{root!r} is not a positive root of the ordering")
    derived = _derived_relation(pair.system.roots, positive, alpha, beta)
    # Keys the verifier makes are plain tuples, on which + concatenates.
    coeffs = {RootVector._from_doubled(root): Fraction(value) for root, value in derived.items()}
    return PluriclosedRelation(alpha=alpha, beta=beta, coeffs=coeffs)


def find_noncompact_interacting_pair(ordering: AdmissibleOrdering, pair: InnerPair):
    """Two noncompact simples whose sum phi is a (compact) root, labeled so
    that phi + psi1 is not a root; one labeling always works because at most
    one of psi1 + 2*psi2, psi2 + 2*psi1 can be a root."""
    if ordering.mode != MODE_PARTNER:
        raise RootSystemError("an ordering with the partner property is required")
    roots = pair.system.roots
    for psi1 in ordering.noncompact_simples:
        for psi2 in ordering.noncompact_simples:
            phi = psi1 + psi2
            if psi1 != psi2 and phi in roots and phi + psi1 not in roots:
                return psi1, psi2, phi
    raise InvariantViolation(
        f"{pair.name}: no interacting noncompact pair; contradicts the partner property")


def build_certificate(ordering: AdmissibleOrdering, pair: InnerPair) -> PluriclosedCertificate:
    """The two constructive branches, built without checking the result;
    callers check it with `verify_certificate`, or the whole certificate
    with `verify.verify_data` or `verify.verify_file`."""
    if ordering.mode == MODE_SPECIAL:
        n = pair.rank
        psi1 = RootVector([int(i == 0) for i in range(n)])
        psi2 = RootVector([int(i == 1) for i in range(n)])
        phi1, phi2 = psi1 + psi2, psi1 - psi2
        roots = {"psi1": psi1, "psi2": psi2, "phi1": phi1, "phi2": phi2}
        relations = (instantiate_relation(psi1, psi2, ordering, pair),
                     instantiate_relation(phi1, psi1, ordering, pair))
        branch = BRANCH_SPECIAL
    else:
        psi1, psi2, phi = find_noncompact_interacting_pair(ordering, pair)
        roots = {"psi1": psi1, "psi2": psi2, "phi": phi}
        relations = (instantiate_relation(psi1, psi2, ordering, pair),
                     instantiate_relation(phi, psi1, ordering, pair))
        branch = BRANCH_GENERIC
    combination = (Fraction(-1), Fraction(1))
    conclusion: dict[RootVector, Fraction] = {}
    for coeff, relation in zip(combination, relations):
        for root, value in relation.coeffs.items():
            _accumulate(conclusion, root, coeff * value)
    touched = set().union(*(relation.coeffs for relation in relations))
    signs = {root: -1 if pair.grading.is_compact(root) else 1 for root in sorted(touched)}
    return PluriclosedCertificate(
        branch=branch, roots=roots,
        ordering_simples=ordering.system.simples,
        relations=relations, combination=combination,
        conclusion_root=psi1, conclusion_coeffs=conclusion,
        variable_signs=signs)


def pluriclosed_payload(pluri) -> dict:
    """The pluriclosed block of a certificate, from `build_certificate`."""
    return {
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


def verify_certificate(cert: PluriclosedCertificate, pair: InnerPair):
    """Check a certificate against the root system alone, as `verify_data`
    checks the pluriclosed block of a certificate file: the stored ordering
    is a base; every relation's coefficients equal the ones re-derived from
    root strings; the combination eliminates all off-diagonal toral terms
    exactly, collapsing to the conclusion root's diagonal entry; the
    combined right side carries each variable with the sign demanded by its
    compactness, with at least one variable present.

    Returns (True, None) or (False, reason).
    """
    result = check_obstruction(pair, cert.ordering_simples, pluriclosed_payload(cert))
    return result.ok, result.reason
