import copy
import json
import subprocess
import sys

import pytest

import innerlie.certkit as certkit
from innerlie.cli import main


@pytest.fixture(scope="module")
def g2_cert():
    return certkit.analyze_pair("g2(2)")


@pytest.fixture(scope="module")
def g2_data(g2_cert):
    return json.loads(certkit.serialize(g2_cert))


def test_analyze_verdicts(g2_cert):
    assert g2_cert.balanced_verdict
    assert g2_cert.chern["scalar_curvature"] == "0"
    assert g2_cert.chern["delta_nonzero"] and g2_cert.chern["kodaira_flag"]
    assert g2_cert.pluriclosed["branch"] == "generic"


def test_analyze_special_branch():
    cert = certkit.analyze_pair("so(1,4)")
    assert cert.ordering_mode == "so_1_2n_special"
    assert cert.pluriclosed["branch"] == "so_1_2n"
    assert certkit.verify_data(json.loads(certkit.serialize(cert))).ok


def test_analyze_accepts_alias():
    cert = certkit.analyze_pair("sp(1,1)")
    assert cert.pair_name == "so(1,4)"


def test_round_trip_bit_exact(g2_cert):
    text = certkit.serialize(g2_cert)
    again = certkit.serialize(certkit.parse(text))
    assert again == text


def test_save_load_round_trip(tmp_path, g2_cert):
    path = tmp_path / "g2.cert.json"
    certkit.save(g2_cert, str(path))
    assert certkit.serialize(certkit.load(str(path))) == certkit.serialize(g2_cert)


def test_determinism_modulo_timestamp():
    first = certkit.to_dict(certkit.analyze_pair("so(3,2)"))
    second = certkit.to_dict(certkit.analyze_pair("so(3,2)"))
    first["provenance"].pop("generated_at")
    second["provenance"].pop("generated_at")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_fresh(g2_data):
    assert certkit.verify_data(g2_data).ok


def _tampered(data, mutate):
    clone = copy.deepcopy(data)
    mutate(clone)
    return clone


def test_verify_rejects_schema_mismatch(g2_data):
    bad = _tampered(g2_data, lambda d: d.update(schema_version=99))
    result = certkit.verify_data(bad)
    assert not result.ok and result.reason == "schema mismatch"


def test_verify_rejects_negated_coefficient(g2_data):
    def mutate(d):
        d["metric"][0]["c"] = "-" + d["metric"][0]["c"]
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "positivity violated"


def test_verify_rejects_perturbed_identity(g2_data):
    def mutate(d):
        entry = d["metric"][0]
        entry["c"] = str(int(entry["c"]) + 1)
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "balanced identity failed"


def test_verify_rejects_perturbed_combination(g2_data):
    def mutate(d):
        d["pluriclosed_certificate"]["combination"][0] = "2"
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "elimination failed"


def test_verify_rejects_flipped_sign(g2_data):
    def mutate(d):
        entry = d["pluriclosed_certificate"]["variable_signs"][0]
        entry["sign"] = -entry["sign"]
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "sign pattern violated"


def test_verify_rejects_tampered_relation(g2_data):
    def mutate(d):
        d["pluriclosed_certificate"]["relations"][0]["coeffs"][0]["c"] = "17"
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "relation mismatch"


def test_verify_rejects_tampered_delta(g2_data):
    def mutate(d):
        d["chern_report"]["delta"][0] = "100"
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "delta mismatch"


def test_verify_rejects_wrong_pair_data(g2_data):
    result = certkit.verify_data(_tampered(g2_data, lambda d: d["pair"].update(dim_k=7)))
    assert not result.ok and result.reason == "pair mismatch"


def test_verify_rejects_unknown_pair(g2_data):
    result = certkit.verify_data(_tampered(g2_data, lambda d: d["pair"].update(name="su(2,2)")))
    assert not result.ok and result.reason == "pair unknown"


RETYPED = [5, 5.5, None, True, [], {}]


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("name", "family", "rank", "painted_node", "dim_g", "dim_k")
    for value in RETYPED
    if field in ("name", "family") or value != 5  # 5 is the counts' own type
], ids=repr)
def test_verify_rejects_retyped_pair_field(g2_data, field, value):
    result = certkit.verify_data(_tampered(g2_data, lambda d: d["pair"].update({field: value})))
    assert not result.ok and result.reason == "malformed certificate"


def test_cli_verify_retyped_pair_name_exit_code(tmp_path, capsys, g2_data):
    path = tmp_path / "g2.cert.json"
    path.write_text(json.dumps(_tampered(g2_data, lambda d: d["pair"].update(name=5))))
    assert main(["verify", str(path)]) == 1
    assert "malformed certificate" in capsys.readouterr().out


def test_verify_file_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = certkit.verify_file(str(path))
    assert not result.ok and result.reason == "parse error"
    missing = certkit.verify_file(str(tmp_path / "absent.json"))
    assert not missing.ok and missing.reason == "parse error"


def test_verify_rejects_zero_denominator(g2_data):
    def mutate(d):
        d["metric"][0]["c"] = "1/0"
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "malformed certificate"


def test_verifier_module_independent_of_solvers():
    """The verification code path may use only root-system and catalog
    primitives; solver modules are imported lazily by the analysis pipeline."""
    import ast
    import inspect

    import innerlie.certkit as module
    tree = ast.parse(inspect.getsource(module))
    top_level_imports = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            top_level_imports.add(node.module)
        elif isinstance(node, ast.Import):
            top_level_imports.update(alias.name for alias in node.names)
    assert not top_level_imports & {"balanced", "pluriclosed", "chern", "ordering"}


def test_verifier_reads_no_integer_tables(g2_data, monkeypatch):
    """The verifier keeps its own arithmetic: with the pair resolved up
    front, it accepts a valid certificate and rejects a tampered one while
    every integer table of the root core raises when read."""
    from innerlie.pairs import pair_by_name
    from innerlie.rootsys import RootSystem, SimpleSystem

    pair = pair_by_name("g2(2)")
    monkeypatch.setattr(certkit, "pair_by_name", lambda name: pair)

    def unreadable(*args, **kwargs):
        raise AssertionError("the verifier read an integer table")

    for owner, name in [(RootSystem, "coordinates"), (RootSystem, "root_at"),
                        (RootSystem, "validate_base"), (RootSystem, "positives"),
                        (RootSystem, "root_string"), (SimpleSystem, "decompose")]:
        monkeypatch.setattr(owner, name, unreadable)
    assert certkit.verify_data(g2_data).ok

    def mutate(d):
        d["pluriclosed_certificate"]["relations"][0]["coeffs"][0]["c"] = "17"
    assert certkit.verify_data(_tampered(g2_data, mutate)).reason == "relation mismatch"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_catalog_rank2(capsys):
    assert main(["catalog", "--max-rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 pair(s)" in out
    for name in ("su(2,1)", "so(1,4)", "so(3,2)", "g2(2)"):
        assert name in out


def test_cli_catalog_rank1_empty(capsys):
    assert main(["catalog", "--max-rank", "1"]) == 0
    assert "0 pair(s)" in capsys.readouterr().out


def test_cli_catalog_json(capsys):
    assert main(["catalog", "--max-rank", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == ["su(2,1)", "so(1,4)", "so(3,2)", "g2(2)"]
    assert rows[1]["aliases"] == ["sp(1,1)"]


def test_cli_catalog_rank8_has_exceptionals(capsys):
    assert main(["catalog", "--max-rank", "8", "--format", "json"]) == 0
    names = {r["name"] for r in json.loads(capsys.readouterr().out)}
    assert {"g2(2)", "f4(4)", "f4(-20)", "e6(2)", "e6(-14)", "e8(8)", "e8(-24)"} <= names


def test_cli_analyze_and_verify(tmp_path, capsys):
    out = tmp_path / "g2.cert.json"
    assert main(["analyze", "g2(2)", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["verify", str(out)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_analyze_unknown_pair(capsys):
    assert main(["analyze", "su(2,2)"]) == 2
    assert "p+q must be odd" in capsys.readouterr().err


def test_cli_verify_tampered_exit_code(tmp_path, capsys):
    out = tmp_path / "so32.cert.json"
    assert main(["analyze", "so(3,2)", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data["metric"][0]["c"] = "-1"
    out.write_text(json.dumps(data))
    assert main(["verify", str(out)]) == 1
    assert "positivity violated" in capsys.readouterr().out


def test_cli_usage_error_exit_code():
    assert main(["catalog", "--max-rank", "notanumber"]) == 2
    assert main(["frobnicate"]) == 2


def test_cli_sweep_rank2(tmp_path, capsys):
    assert main(["sweep", "--max-rank", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert len(list(tmp_path.glob("*.cert.json"))) == 4


def test_cli_sweep_empty_catalog(tmp_path, capsys):
    assert main(["sweep", "--max-rank", "1", "--out", str(tmp_path)]) == 0
    assert "0 pair(s), 0 failure(s)" in capsys.readouterr().out


def test_cli_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "innerlie", "catalog", "--max-rank", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "g2(2)" in proc.stdout
