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

Verification re-derives every coefficient from root strings and the stored
ordering, checks the exact elimination of off-diagonal terms and checks the
sign pattern; it never trusts the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ordering import MODE_PARTNER, MODE_SPECIAL, AdmissibleOrdering
from .pairs import InnerPair
from .rootsys import (
    InvariantViolation,
    RootSystemError,
    RootVector,
    SimpleSystem,
)

BRANCH_GENERIC = "generic"
BRANCH_SPECIAL = "so_1_2n"

REASON_RELATION = "relation mismatch"
REASON_ELIMINATION = "elimination failed"
REASON_SIGNS = "sign pattern violated"
REASON_CONCLUSION = "conclusion mismatch"
REASON_SHAPE = "malformed certificate"


@dataclass
class PluriclosedRelation:
    alpha: RootVector
    beta: RootVector
    coeffs: dict[RootVector, Fraction]


@dataclass
class PluriclosedCertificate:
    branch: str
    roots: dict[str, RootVector]
    ordering_simples: tuple[RootVector, ...]
    relations: tuple[PluriclosedRelation, ...]
    combination: tuple[Fraction, ...]
    conclusion_root: RootVector
    conclusion_coeffs: dict[RootVector, Fraction]
    variable_signs: dict[RootVector, int]  # +1 noncompact, -1 compact


def epsilon(gamma: RootVector, ordering: AdmissibleOrdering) -> int:
    """+1 for roots positive in the ordering, -1 otherwise."""
    if gamma in ordering.positives:
        return 1
    if -gamma in ordering.positives:
        return -1
    raise RootSystemError(f"{gamma!r} is not a root")


def _relation_coeffs(alpha: RootVector, beta: RootVector,
                     system: SimpleSystem, pair: InnerPair) -> dict[RootVector, Fraction]:
    """Right-hand side of the relation for (alpha, beta), with the difference
    term folded onto its positive representative."""
    rs = pair.system
    a, b = rs.coordinates(alpha), rs.coordinates(beta)
    coeffs: dict[RootVector, Fraction] = {}

    def accumulate(root, value):
        coeffs[root] = coeffs.get(root, Fraction(0)) + value
        if coeffs[root] == 0:
            del coeffs[root]

    total = rs.root_at([x + y for x, y in zip(a, b)])
    if total is not None:
        n2 = rs.n_squared(alpha, beta)
        accumulate(total, n2)
        accumulate(alpha, -n2)
        accumulate(beta, -n2)
    d = [x - y for x, y in zip(a, b)]
    difference = rs.root_at(d)
    if difference is not None:
        n2 = rs.n_squared(alpha, -beta)
        sign = 1 if system.is_positive(difference) else -1
        accumulate(difference if sign > 0 else rs.root_at([-x for x in d]), n2)
        accumulate(beta, sign * n2)
        accumulate(alpha, -sign * n2)
    return coeffs


def instantiate_relation(alpha: RootVector, beta: RootVector,
                         ordering: AdmissibleOrdering, pair: InnerPair) -> PluriclosedRelation:
    if alpha == beta:
        raise RootSystemError("the relation requires distinct roots")
    for root in (alpha, beta):
        if root not in ordering.positives:
            raise RootSystemError(f"{root!r} is not a positive root of the ordering")
    coeffs = _relation_coeffs(alpha, beta, ordering.system, pair)
    return PluriclosedRelation(alpha=alpha, beta=beta, coeffs=coeffs)


def find_noncompact_interacting_pair(ordering: AdmissibleOrdering, pair: InnerPair):
    """Two noncompact simples whose sum phi is a (compact) root, labeled so
    that phi + psi1 is not a root; one labeling always works because at most
    one of psi1 + 2*psi2, psi2 + 2*psi1 can be a root."""
    if ordering.mode != MODE_PARTNER:
        raise RootSystemError("an ordering with the partner property is required")
    rs = pair.system
    for psi1 in ordering.noncompact_simples:
        a = rs.coordinates(psi1)
        for psi2 in ordering.noncompact_simples:
            b = rs.coordinates(psi2)
            phi = rs.root_at([x + y for x, y in zip(a, b)])
            if psi1 == psi2 or phi is None:
                continue
            if rs.root_at([2 * x + y for x, y in zip(a, b)]) is None:
                return psi1, psi2, phi
    raise InvariantViolation(
        f"{pair.name}: no interacting noncompact pair; contradicts the partner property")


def build_certificate(ordering: AdmissibleOrdering, pair: InnerPair) -> PluriclosedCertificate:
    """The two constructive branches; the result is verified before returning."""
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
            conclusion[root] = conclusion.get(root, Fraction(0)) + coeff * value
            if conclusion[root] == 0:
                del conclusion[root]
    touched = set(conclusion)
    for relation in relations:
        touched.update(relation.coeffs)
    signs = {root: -1 if pair.grading.is_compact(root) else 1 for root in sorted(touched)}
    certificate = PluriclosedCertificate(
        branch=branch, roots=roots,
        ordering_simples=ordering.system.simples,
        relations=relations, combination=combination,
        conclusion_root=psi1, conclusion_coeffs=conclusion,
        variable_signs=signs)
    ok, reason = verify_certificate(certificate, pair)
    if not ok:
        raise InvariantViolation(f"{pair.name}: built certificate failed verification: {reason}")
    return certificate


def _sym_outer(a: RootVector, b: RootVector):
    dim = a.ambient_dim
    return tuple(
        tuple(a.coords[i] * b.coords[j] + a.coords[j] * b.coords[i] for j in range(dim))
        for i in range(dim))


def _matrix_sum(matrices, weights):
    dim = len(matrices[0])
    return tuple(
        tuple(sum((w * m[i][j] for m, w in zip(matrices, weights)), Fraction(0))
              for j in range(dim))
        for i in range(dim))


def verify_certificate(cert: PluriclosedCertificate, pair: InnerPair):
    """Re-derive and check everything from the certificate plus the root system.

    Returns (True, None) or (False, reason).  The checks: the stored ordering
    is a genuine simple system; every relation's coefficients equal the ones
    re-derived from root strings; the combination eliminates all off-diagonal
    toral terms exactly, collapsing to the conclusion root's diagonal entry;
    the combined right side carries each variable with the sign demanded by
    its compactness, with at least one variable present.
    """
    rs = pair.system
    try:
        system = SimpleSystem(cert.ordering_simples)
        rs.validate_base(system)
    except RootSystemError:
        return False, REASON_SHAPE
    if len(cert.relations) != len(cert.combination):
        return False, REASON_SHAPE
    if (cert.branch == BRANCH_SPECIAL) != pair.is_so_1_2n:
        return False, REASON_SHAPE

    for relation in cert.relations:
        if not (rs.is_root(relation.alpha) and rs.is_root(relation.beta)):
            return False, REASON_SHAPE
        if not (system.is_positive(relation.alpha) and system.is_positive(relation.beta)):
            return False, REASON_SHAPE
        derived = _relation_coeffs(relation.alpha, relation.beta, system, pair)
        if derived != relation.coeffs:
            return False, REASON_RELATION

    matrices = [_sym_outer(r.alpha, r.beta) for r in cert.relations]
    combined_left = _matrix_sum(matrices, cert.combination)
    if not rs.is_root(cert.conclusion_root):
        return False, REASON_SHAPE
    target = _sym_outer(cert.conclusion_root, cert.conclusion_root)
    if combined_left != target:
        return False, REASON_ELIMINATION

    combined: dict[RootVector, Fraction] = {}
    for coeff, relation in zip(cert.combination, cert.relations):
        for root, value in relation.coeffs.items():
            combined[root] = combined.get(root, Fraction(0)) + coeff * value
            if combined[root] == 0:
                del combined[root]
    if combined != cert.conclusion_coeffs:
        return False, REASON_CONCLUSION

    if not combined:
        return False, REASON_SIGNS
    for root, sign in cert.variable_signs.items():
        if not rs.is_root(root):
            return False, REASON_SHAPE
        if sign != (-1 if pair.grading.is_compact(root) else 1):
            return False, REASON_SIGNS
    for root, value in combined.items():
        true_sign = -1 if pair.grading.is_compact(root) else 1
        if cert.variable_signs.get(root) != true_sign:
            return False, REASON_SIGNS
        if (value > 0) != (true_sign > 0):
            return False, REASON_SIGNS
    return True, None
