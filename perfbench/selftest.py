"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run.  The tamper
test analyzes the whole catalog, so the file takes about a minute.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest

import run
import workloads as wl
from tracing import Tracer, layer_medians_ms, self_times

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return wl.fresh_import()


@pytest.fixture(scope="module")
def certificates(lib):
    """name -> canonical certificate text, for every catalog pair."""
    return {pair.name: lib.certkit.serialize(lib.certkit.analyze_pair(pair))
            for pair in lib.pairs.catalog(8)}


def catalog_sizes(lib):
    return [(p.name, len(p.system.roots)) for p in lib.pairs.catalog(8)]


def test_same_seed_same_items_other_seed_other_items(lib):
    sizes = catalog_sizes(lib)
    for seed in (0, 1, 7):
        assert wl.catalog_order(seed, 61) == wl.catalog_order(seed, 61)
        assert wl.scan_order(seed) == wl.scan_order(seed)
        assert wl.plan_tampers(seed, sizes) == wl.plan_tampers(seed, sizes)
        assert wl.mixed_order(seed, 61) == wl.mixed_order(seed, 61)
    assert wl.catalog_order(1, 61) != wl.catalog_order(2, 61)
    assert wl.scan_order(1) != wl.scan_order(2)
    assert wl.plan_tampers(1, sizes) != wl.plan_tampers(2, sizes)
    assert wl.mixed_order(1, 61) != wl.mixed_order(2, 61)
    assert sorted(wl.catalog_order(3, 61)) == list(range(61))
    assert sorted(wl.scan_order(3)) == sorted(wl.SCAN_PAIRS)


def test_tamper_plan_is_stratified(lib):
    sizes = catalog_sizes(lib)
    for seed in range(5):
        kinds = [kind for kind, _ in wl.plan_tampers(seed, sizes).values()]
        assert len(kinds) == 61
        assert kinds.count("type_change") == wl.TYPE_CHANGED_COUNT
        counts = [kinds.count(kind) for kind in wl.LEAF_MUTATIONS]
        assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_tampered_certificate_is_rejected_or_hits_the_known_crash(
        lib, certificates, seed):
    plan = wl.plan_tampers(seed, catalog_sizes(lib))
    crashes = 0
    for name, text in certificates.items():
        data = json.loads(text)
        assert lib.certkit.verify_data(data).ok, name
        kind, detail = plan[name]
        tampered = wl.tamper(data, kind, detail)
        assert tampered != data
        try:
            result = lib.certkit.verify_data(tampered)
        except AttributeError:
            assert kind == "type_change", name
            crashes += 1
            continue
        assert not result.ok, (name, kind)
    # At the seed commit each type change raises, so the known crash is
    # exactly the share the benchmark reports as failed.
    assert crashes == wl.TYPE_CHANGED_COUNT


def test_golden_digests_cover_every_pair(lib, certificates):
    golden = json.loads(wl.GOLDEN.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", golden["commit"])
    names = {p.name for p in lib.pairs.catalog(8)} | {n for n, _, _ in wl.SCAN_PAIRS}
    assert set(golden["digests"]) == names
    assert all(golden["digests"][name] == wl.digest(text)
               for name, text in certificates.items())


def test_digest_ignores_provenance_only(certificates):
    text = certificates["g2(2)"]
    data = json.loads(text)
    data["provenance"]["generated_at"] = "2000-01-01T00:00:00+00:00"
    assert wl.digest(json.dumps(data, sort_keys=True, indent=2) + "\n") == wl.digest(text)
    data["metric"][0]["c"] = "7"
    assert wl.digest(json.dumps(data, sort_keys=True, indent=2) + "\n") != wl.digest(text)
    assert wl.digest(json.dumps(json.loads(text), sort_keys=True) + "\n") == "not-canonical"


def test_benchmark_json_matches_the_printed_metrics():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(listed) <= set(wl.WORKLOADS) and len(listed) == len(set(listed))
    assert {"catalog8_sweep", "verify_mixed"} <= set(listed)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def synthetic_run(tracer=None):
    r = run.Run("catalog8_sweep", 1, 1.0, Path(tempfile.gettempdir()), tracer)
    r.setup_ns, r.wall_ns, r.item_ns = [3, 1, 2], 10, list(range(1, 11))
    r.digests = {"g2(2)": True, "f4(4)": False}
    r.item_ok = {f"item{k}": k != 0 for k in range(10)}
    return r


def test_end_to_end_metrics_are_all_printed():
    values = run.end_to_end(synthetic_run())
    assert set(values) == set(run.END_TO_END)
    assert values["ok_ratio"] == 0.9 and values["digest_matches"] == 1


def test_attempted_and_failed_count_each_item_once():
    r = synthetic_run()
    r.item_ok = {}
    for _ in range(3):
        r.outcome("a", True)
        r.outcome("b", True, AttributeError("x"))
    r.outcome("c", True)
    assert (r.attempted, r.failed) == (3, 1)
    assert r.exceptions["AttributeError"] == 3 and not r.problems


def test_per_layer_metrics_are_all_printed_and_self_times_add_up():
    tracer = Tracer()
    for name in run.SPANS:
        with tracer.span(name):
            pass
    tracer.phase = "timed"
    tracer.items["0:g2(2)"] = {"pair": "g2(2)", "family": "G2", "rank": 2}
    with tracer.span("item", item="0:g2(2)"):
        with tracer.span("certkit.analyze_pair"):
            with tracer.span("balanced.solve"):
                pass
    r = synthetic_run(tracer)
    r.layer = {"cli.sweep_s": 1.0, "trace.overhead_s": 1.0}
    values = run.per_layer(r)
    assert set(values) == set(run.PER_LAYER)
    assert not r.problems
    spans = tracer.spans
    item = next(i for i, s in enumerate(spans) if s["name"] == "item")
    own = self_times(spans)
    inside = sum(own[i] for i, s in enumerate(spans) if s["item"] == "0:g2(2)" and i != item)
    assert inside + own[item] == spans[item]["end"] - spans[item]["start"]
    assert set(layer_medians_ms(spans)) == set(run.SPANS) | {"item"}


def test_measure_runs_every_item_once_then_until_time_is_up():
    r = synthetic_run()
    calls = []

    def do_item(k):
        calls.append(k)
        return 10 * (k + 1)

    r.measure(do_item, 3, 0)
    assert calls == [0, 1, 2]
    assert r.wall_ns == 60 and sorted(r.item_ns) == [10, 20, 30]
    calls.clear()
    r.measure(do_item, 3, 0.01)
    assert calls[:4] == [0, 1, 2, 0] and r.wall_ns == 60
    assert sorted(r.item_ns) == [10, 20, 30]
