"""Acceptance suite: one test per criterion, every check exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from fractions import Fraction
from itertools import permutations

import pytest

import innerlie.certkit as certkit
from innerlie import (
    InfeasibleOrdering,
    assemble_system,
    build_certificate,
    chern_scalar,
    pair_by_name,
    reflect,
    scan_binvariant,
    solve_constructive,
    solve_for_pair,
    standard_ordering,
    verify_balanced,
    verify_certificate,
    weyl_delta,
)

MAX_RANK = 8


@pytest.fixture(scope="module")
def analyzed(catalog8):
    """Full pipeline over the whole catalog, shared by the criteria below."""
    results = {}
    started = time.monotonic()
    for pair in catalog8:
        pair_started = time.monotonic()
        metric = solve_for_pair(pair)
        ordering = metric.ordering
        obstruction = build_certificate(ordering, pair)
        results[pair.name] = {
            "pair": pair,
            "metric": metric,
            "ordering": ordering,
            "obstruction": obstruction,
            "seconds": time.monotonic() - pair_started,
        }
    results["__total_seconds__"] = time.monotonic() - started
    return results


def test_criterion_1_balanced_metrics_full_catalog(catalog8, analyzed):
    assert len(catalog8) == 61
    single_reflections = 0
    for pair in catalog8:
        entry = analyzed[pair.name]
        ordering, metric = entry["ordering"], entry["metric"]
        if pair.is_so_1_2n:
            assert ordering.mode == "so_1_2n_special"
        else:
            assert ordering.mode == "partner_property"
            nc = ordering.noncompact_simples
            for psi in nc:  # the partner property itself
                assert any(pair.system.is_root(psi + other) for other in nc)
            # one reflection of the standard base about its noncompact simple
            base = pair.system.base.simples
            (mirror,) = [s for s in base if not pair.grading.is_compact(s)]
            assert set(ordering.system.simples) == {reflect(s, mirror) for s in base}
            single_reflections += 1
        assert set(metric.g) == set(ordering.positives)
        assert all(isinstance(v, Fraction) and v > 0 for v in metric.g.values())
        assert verify_balanced(metric, pair)
        assert entry["seconds"] < 10.0
    assert single_reflections == 57
    assert analyzed["__total_seconds__"] < 120.0
    print("\nACCEPTANCE 1 (balanced metric, exact identity, full catalog): PASS")


def test_criterion_2_pluriclosed_obstruction(catalog8, analyzed):
    for pair in catalog8:
        obstruction = analyzed[pair.name]["obstruction"]
        ok, reason = verify_certificate(obstruction, pair)
        assert ok, f"{pair.name}: {reason}"
        assert (obstruction.branch == "so_1_2n") == pair.is_so_1_2n
    # tamper rejection with the stated reason codes
    import dataclasses
    sample = analyzed["g2(2)"]["obstruction"]
    g2 = pair_by_name("g2(2)")
    perturbed = dataclasses.replace(
        sample, combination=(sample.combination[0] + 1, sample.combination[1]))
    assert verify_certificate(perturbed, g2) == (False, "elimination failed")
    signs = dict(sample.variable_signs)
    root = next(iter(signs))
    signs[root] = -signs[root]
    flipped = dataclasses.replace(sample, variable_signs=signs)
    assert verify_certificate(flipped, g2) == (False, "sign pattern violated")
    print("\nACCEPTANCE 2 (pluriclosed obstruction certificates + tamper rejection): PASS")


def test_criterion_3_chern_scalar_and_delta(catalog8, analyzed):
    for pair in catalog8:
        entry = analyzed[pair.name]
        assert chern_scalar(entry["metric"], entry["ordering"], pair) == 0
        assert not weyl_delta(entry["ordering"]).is_zero()
    print("\nACCEPTANCE 3 (vanishing Chern scalar, nonzero delta): PASS")


def test_criterion_4_negative_controls():
    for name in ["su(2,1)", "su(3,2)", "su(4,3)"]:
        pair = pair_by_name(name)
        with pytest.raises(InfeasibleOrdering):
            solve_constructive(assemble_system(standard_ordering(pair), pair))
    assert scan_binvariant(pair_by_name("su(2,1)")) != []
    assert scan_binvariant(pair_by_name("su(3,2)")) != []
    assert scan_binvariant(pair_by_name("so(3,2)")) == []
    assert scan_binvariant(pair_by_name("g2(2)")) == []
    print("\nACCEPTANCE 4 (negative controls: standard su(p,q) infeasible; "
          "unit-metric chambers only for su(p,p+1)): PASS")


_CLOSED_FORM = {
    "A": lambda r: r * (r + 1), "B": lambda r: 2 * r * r, "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1), "G2": lambda r: 12, "F4": lambda r: 48,
    "E6": lambda r: 72, "E8": lambda r: 240,
}


def _expected_table_dims(pair):
    """Independent dimension formulas for every Table row."""
    p, q = pair.params.get("p"), pair.params.get("q")
    n = pair.params.get("n")
    if pair.name.startswith("su"):
        return ((p + q) ** 2 - 1, p * p + q * q - 1)
    if pair.family == "B":
        return ((p + q) * (2 * p + 2 * q + 1), p * (2 * p + 1) + q * (2 * q - 1))
    if pair.name.endswith("R)"):
        return (2 * n * (4 * n + 1), 4 * n * n)
    if pair.family == "C":
        return ((p + q) * (2 * p + 2 * q + 1), p * (2 * p + 1) + q * (2 * q + 1))
    if pair.name.endswith("*"):
        return (2 * n * (4 * n - 1), 4 * n * n)
    if pair.family == "D":
        return ((p + q) * (2 * p + 2 * q - 1), p * (2 * p - 1) + q * (2 * q - 1))
    return {
        "g2(2)": (14, 6), "f4(4)": (52, 24), "f4(-20)": (52, 36),
        "e6(2)": (78, 38), "e6(-14)": (78, 46), "e8(8)": (248, 120),
        "e8(-24)": (248, 136),
    }[pair.name]


def test_criterion_5_structural_oracles(catalog8):
    from test_rootsys import _expected_cartan
    seen_systems = set()
    for pair in catalog8:
        rs = pair.system
        assert len(rs.roots) == _CLOSED_FORM[pair.family](pair.rank)
        key = (pair.family, pair.rank)
        if key not in seen_systems:
            seen_systems.add(key)
            assert rs.cartan_matrix() == _expected_cartan(pair.family, pair.rank)
        dim_g, dim_k = _expected_table_dims(pair)
        assert (pair.dim_g, pair.dim_k) == (dim_g, dim_k)
        compact = sum(1 for v in rs.roots if pair.grading.is_compact(v))
        assert pair.rank + len(rs.roots) == dim_g
        assert pair.rank + compact == dim_k
        for psi1, psi2 in permutations(rs.base.simples, 2):
            assert not (rs.is_root(psi1 + 2 * psi2) and rs.is_root(psi2 + 2 * psi1))
    print("\nACCEPTANCE 5 (structural oracles: counts, Cartan matrices, dims, "
          "root-string exclusions): PASS")


def test_criterion_6_independent_verifier(catalog8, tmp_path):
    for index, pair in enumerate(catalog8):
        cert = certkit.analyze_pair(pair)
        path = tmp_path / f"pair{index:03d}.cert.json"
        certkit.save(cert, str(path))
        result = certkit.verify_file(str(path))
        assert result.ok, f"{pair.name}: {result.reason}"
        text = path.read_text()
        assert certkit.serialize(certkit.parse(text)) == text
    print("\nACCEPTANCE 6 (solver-independent verification, bit-exact round trips): PASS")
