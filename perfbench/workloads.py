"""Inputs of the three workloads and the shared helpers that reach the program.

Everything here is a pure function of the seed or of the program's own
output, so the same seed always yields the same items.  The program itself
is imported from `src/` of the checkout; `fresh_import` drops every
`innerlie` module first, so each import starts with empty caches.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("catalog8_sweep", "classical_rank_scan", "verify_mixed")
MODULES = ("rootsys", "pairs", "ordering", "balanced", "pluriclosed", "chern",
           "certkit", "cli")

# Rank 10 and 12 of each classical family; (name, family, rank).
SCAN_PAIRS = (
    ("su(6,5)", "A", 10),
    ("so(11,10)", "B", 10),
    ("sp(5,5)", "C", 10),
    ("so(10,10)", "D", 10),
    ("su(7,6)", "A", 12),
    ("so(13,12)", "B", 12),
    ("sp(6,6)", "C", 12),
    ("so(12,12)", "D", 12),
)

# Tampers of verify_mixed.  Each leaf mutation changes one mathematical value
# of a valid certificate, so a sound verifier must reject the copy.
LEAF_MUTATIONS = ("metric_coefficient", "relation_coefficient", "sign",
                  "chern_delta", "unknown_pair")
UNKNOWN_NAMES = ("su(2,2)", "so(3,3)", "e7(7)", "g2(-14)", "sp(3,R)")
# A type change replaces the string `pair.name` by a JSON value of another
# type; the seed commit's verifier raises AttributeError on every one.
TYPE_CHANGES = (5, 5.5, None, True, [], {})
TYPE_CHANGED_COUNT = 8


def have_program() -> bool:
    return (SRC / "innerlie" / "__init__.py").is_file()


def fresh_import() -> SimpleNamespace:
    """Import the program anew and return its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "innerlie" or m.startswith("innerlie.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"innerlie.{m}") for m in MODULES})


def digest(text: str) -> str:
    """sha256 of a certificate with its provenance removed.

    The rest must be byte-identical to the canonical serialization, so a
    change of layout shows as a mismatch too.
    """
    data = json.loads(text)
    if json.dumps(data, sort_keys=True, indent=2) + "\n" != text:
        return "not-canonical"
    data.pop("provenance", None)
    canonical = json.dumps(data, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["digests"]


def catalog_order(seed: int, count: int) -> list[int]:
    order = list(range(count))
    random.Random(f"catalog8_sweep/{seed}").shuffle(order)
    return order


def scan_order(seed: int) -> list[tuple[str, str, int]]:
    order = list(SCAN_PAIRS)
    random.Random(f"classical_rank_scan/{seed}").shuffle(order)
    return order


def plan_tampers(seed: int, pairs: list[tuple[str, int]]) -> dict[str, tuple]:
    """Choose one tamper per pair: {name: (kind, detail)}.

    `pairs` holds (name, number of roots).  The choice is stratified by
    size, so every seed spreads each kind over small and large pairs alike
    and the cost of a pass depends little on the seed: the pairs sorted by
    size are cut into TYPE_CHANGED_COUNT strata with one type change each,
    and the rest into blocks of five that take the five leaf mutations in a
    seeded order.
    """
    rng = random.Random(f"verify_mixed/{seed}")
    ordered = [name for name, _ in sorted(pairs, key=lambda p: (p[1], p[0]))]
    plan: dict[str, tuple] = {}
    bounds = [round(i * len(ordered) / TYPE_CHANGED_COUNT)
              for i in range(TYPE_CHANGED_COUNT + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        plan[rng.choice(ordered[lo:hi])] = ("type_change", rng.randrange(len(TYPE_CHANGES)))
    rest = [name for name in ordered if name not in plan]
    for start in range(0, len(rest), len(LEAF_MUTATIONS)):
        block = rest[start:start + len(LEAF_MUTATIONS)]
        for name, kind in zip(block, rng.sample(LEAF_MUTATIONS, len(LEAF_MUTATIONS))):
            plan[name] = (kind, rng.getrandbits(32))
    return plan


def _bump(value: str) -> str:
    return str(Fraction(value) + 1)


def tamper(data: dict, kind: str, detail: int) -> dict:
    """Return a tampered deep copy of a certificate dict."""
    data = json.loads(json.dumps(data))
    if kind == "type_change":
        data["pair"]["name"] = TYPE_CHANGES[detail]
    elif kind == "metric_coefficient":
        entry = data["metric"][detail % len(data["metric"])]
        entry["c"] = _bump(entry["c"])
    elif kind == "relation_coefficient":
        relations = data["pluriclosed_certificate"]["relations"]
        coeffs = relations[detail % len(relations)]["coeffs"]
        entry = coeffs[(detail // len(relations)) % len(coeffs)]
        entry["c"] = _bump(entry["c"])
    elif kind == "sign":
        signs = data["pluriclosed_certificate"]["variable_signs"]
        entry = signs[detail % len(signs)]
        entry["sign"] = -entry["sign"]
    elif kind == "chern_delta":
        delta = data["chern_report"]["delta"]
        j = detail % len(delta)
        delta[j] = _bump(delta[j])
    elif kind == "unknown_pair":
        data["pair"]["name"] = UNKNOWN_NAMES[detail % len(UNKNOWN_NAMES)]
    else:
        raise ValueError(f"unknown tamper {kind!r}")
    return data


def mixed_order(seed: int, count: int) -> list[tuple[int, bool]]:
    """Order of the 2 * count verify_mixed items: (pair index, tampered)."""
    items = [(i, t) for i in range(count) for t in (False, True)]
    random.Random(f"verify_mixed/order/{seed}").shuffle(items)
    return items
