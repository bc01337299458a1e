import copy
import functools
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import innerlie.certkit as certkit
import innerlie.walk as walk
from innerlie.cli import main
from innerlie.pairs import catalog, pair_by_name
from innerlie.rootsys import InvariantViolation, RootSystemError, RootVector


@pytest.fixture(scope="module")
def g2_cert():
    return certkit.analyze_pair("g2(2)")


@pytest.fixture(scope="module")
def g2_data(g2_cert):
    return json.loads(certkit.serialize(g2_cert))


def test_analyze_verdicts(g2_cert):
    assert g2_cert["balanced_verdict"]
    assert g2_cert["chern_report"]["scalar_curvature"] == "0"
    assert g2_cert["chern_report"]["delta_nonzero"] and g2_cert["chern_report"]["kodaira_flag"]
    assert g2_cert["pluriclosed_certificate"]["branch"] == "generic"


def test_analyze_special_branch():
    cert = certkit.analyze_pair("so(1,4)")
    assert cert["ordering"]["mode"] == "so_1_2n_special"
    assert cert["pluriclosed_certificate"]["branch"] == "so_1_2n"
    assert certkit.verify_data(json.loads(certkit.serialize(cert))).ok


def test_analyze_accepts_alias():
    cert = certkit.analyze_pair("sp(1,1)")
    assert cert["pair"]["name"] == "so(1,4)"


def _canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_round_trip_bit_exact(g2_cert):
    text = certkit.serialize(g2_cert)
    assert _canonical(text) == text


def test_save_load_round_trip(tmp_path, g2_cert):
    path = tmp_path / "g2.cert.json"
    certkit.save(g2_cert, str(path))
    text = path.read_text()
    assert text == certkit.serialize(g2_cert)
    assert _canonical(text) == text


# Keys and values with quotes, backslashes, control and non-ASCII characters.
_texts = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028'),
                           st.characters()), max_size=6)
_documents = st.recursive(
    st.one_of(_texts, st.booleans(), st.integers(),
              st.integers(min_value=2**64), st.integers(max_value=-2**64)),
    lambda children: st.one_of(st.lists(children, max_size=4), st.lists(_texts, max_size=4),
                               st.dictionaries(_texts, children, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_documents)
def test_serialize_writes_json_dumps_bytes(doc):
    assert certkit.serialize(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_serialize_writes_json_dumps_bytes_for_every_rank8_certificate(catalog8):
    for pair in catalog8:
        cert = certkit.analyze_pair(pair)
        assert certkit.serialize(cert) == json.dumps(cert, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [None, 1.5, Fraction(1, 2), RootVector([1, "1/2"])])
def test_serialize_refuses_what_a_certificate_cannot_hold(value):
    """A root, a tuple of doubled coordinates, included: a file holds ambient strings."""
    for doc in (value, [value], ["0", value], {"c": value}):
        with pytest.raises(TypeError):
            certkit.serialize(doc)


def test_determinism_modulo_timestamp():
    first = certkit.analyze_pair("so(3,2)")
    second = certkit.analyze_pair("so(3,2)")
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


@pytest.mark.parametrize("pair,name", [("g2(2)", " G2 (2)"), ("so(1,4)", "SP(1,1)"),
                                       ("so(1,4)", "so(4,1)")])
def test_verify_rejects_alias_spelled_pair_name(pair, name):
    """A certificate names its pair by the catalog's own spelling: another
    spelling of the same pair, which `pair_by_name` resolves, is refused."""
    data = _small_certificate(pair)[0]
    assert certkit.verify_data(data).ok
    result = certkit.verify_data(_replaced(data, ("pair", "name"), name))
    assert not result.ok and result.reason == "pair mismatch"


def test_catalog_pairs_cannot_be_changed():
    """`catalog` and `pair_by_name` hand every caller the same cached pair, so
    a change to it would reach every later caller and verification."""
    pair = pair_by_name("G2(2)")
    assert pair is next(p for p in catalog(8) if p.name == "g2(2)")
    with pytest.raises(AttributeError):
        pair.dim_k = 7
    assert pair.dim_k == 6
    # No attribute of the pair or of its grading can be assigned or deleted.
    for record in (pair, pair.grading):
        for name in type(record).__slots__:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before, name
        with pytest.raises(AttributeError):
            record.extra = 1
    assert certkit.verify_data(json.loads(certkit.serialize(certkit.analyze_pair("g2(2)")))).ok
    # p = 0 would make so(5,4) read as so(1,2n) to every later caller.
    pair = pair_by_name("so(5,4)")
    with pytest.raises(TypeError):
        pair.params["p"] = 0
    assert not pair.is_so_1_2n
    assert certkit.verify_data(json.loads(certkit.serialize(certkit.analyze_pair("so(5,4)")))).ok


def test_verify_rejects_unknown_pair(g2_data):
    result = certkit.verify_data(_tampered(g2_data, lambda d: d["pair"].update(name="su(2,2)")))
    assert not result.ok and result.reason == "pair unknown"


@pytest.mark.parametrize("name", ["so(\u00b2)*", "su(" + "1" * 5000 + ",1)", "su(21,20)"],
                         ids=["superscript digit", "5000 digits", "rank 40 over the bound"])
def test_verify_rejects_pair_name_with_unreadable_number(g2_data, name):
    result = certkit.verify_data(_tampered(g2_data, lambda d: d["pair"].update(name=name)))
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


def _relabelled(label, value):
    def mutate(d):
        d["pluriclosed_certificate"]["roots"][label] = value
    return mutate


FIELD_CASES = {
    "roots dropped": (lambda d: d["pluriclosed_certificate"].pop("roots"), "malformed certificate"),
    "roots retyped": (lambda d: d["pluriclosed_certificate"].update(roots=[]),
                      "malformed certificate"),
    "label dropped": (lambda d: d["pluriclosed_certificate"]["roots"].pop("phi"),
                      "relation roots invalid"),
    "label renamed": (lambda d: d["pluriclosed_certificate"]["roots"].update(
        phi1=d["pluriclosed_certificate"]["roots"].pop("phi")), "relation roots invalid"),
    "labels swapped": (lambda d: d["pluriclosed_certificate"]["roots"].update(
        psi1=d["pluriclosed_certificate"]["roots"]["psi2"],
        psi2=d["pluriclosed_certificate"]["roots"]["psi1"]), "relation roots invalid"),
    "label retyped": (_relabelled("psi1", 5), "malformed certificate"),
    "extra label": (_relabelled("chi", ["0", "0", "0"]), "relation roots invalid"),
    "branch suffixed": (lambda d: d["pluriclosed_certificate"].update(branch="genericx"),
                        "branch mismatch"),
    "branch a number": (lambda d: d["pluriclosed_certificate"].update(branch=5),
                        "branch mismatch"),
    "branch null": (lambda d: d["pluriclosed_certificate"].update(branch=None),
                    "branch mismatch"),
    "balanced verdict 5": (lambda d: d.update(balanced_verdict=5), "balanced identity failed"),
    "balanced verdict 5.5": (lambda d: d.update(balanced_verdict=5.5),
                             "balanced identity failed"),
    "balanced verdict x": (lambda d: d.update(balanced_verdict="x"), "balanced identity failed"),
    "delta flag 5": (lambda d: d["chern_report"].update(delta_nonzero=5), "delta zero"),
    "delta flag x": (lambda d: d["chern_report"].update(delta_nonzero="x"), "delta zero"),
    "sign true": (lambda d: d["pluriclosed_certificate"]["variable_signs"][-1].update(sign=True),
                  "malformed certificate"),
    "sign 1.0": (lambda d: d["pluriclosed_certificate"]["variable_signs"][-1].update(sign=1.0),
                 "malformed certificate"),
    "schema version true": (lambda d: d.update(schema_version=True), "malformed certificate"),
    "schema version 1.0": (lambda d: d.update(schema_version=1.0), "malformed certificate"),
}


@pytest.mark.parametrize("case", FIELD_CASES)
def test_verify_reads_every_field(g2_data, case):
    """Each of these certificates passed when the verifier left `roots`
    unread, compared `branch` with one value only, tested the flags for
    truth alone and compared signs and the schema version with `!=`."""
    mutate, reason = FIELD_CASES[case]
    assert certkit.verify_data(g2_data).ok
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == reason


def _sign_for_an_untouched_root(d):
    """Append the true sign of a positive root that no relation touches."""
    signs = d["pluriclosed_certificate"]["variable_signs"]
    listed = [entry["root"] for entry in signs]
    root = next(e["root"] for e in d["metric"] if e["root"] not in listed)
    signs.append({"root": root, "sign": 1})


ADDITIONS = {
    "sign entry duplicated": (lambda d: d["pluriclosed_certificate"]["variable_signs"].append(
        copy.deepcopy(d["pluriclosed_certificate"]["variable_signs"][0])),
        "malformed certificate"),
    "sign for an untouched root": (_sign_for_an_untouched_root, "relation roots invalid"),
    "top-level key": (lambda d: d.update(note="x"), "malformed certificate"),
    "pair key": (lambda d: d["pair"].update(note="x"), "malformed certificate"),
    "metric entry key": (lambda d: d["metric"][0].update(note="x"), "malformed certificate"),
    "chern key": (lambda d: d["chern_report"].update(note="x"), "malformed certificate"),
    "relation key": (lambda d: d["pluriclosed_certificate"]["relations"][0].update(note="x"),
                     "malformed certificate"),
    "provenance key": (lambda d: d["provenance"].update(note="x"), None),
}


@pytest.mark.parametrize("case", ADDITIONS)
def test_verify_closed_to_additions(g2_data, case):
    """Every object but `provenance` has exactly its schema's keys, and
    `variable_signs` one entry for each root the relations touch.  The
    verifier accepted each of these additions, provenance aside, when it
    read objects by key and signs into a dict."""
    mutate, reason = ADDITIONS[case]
    assert certkit.verify_data(_tampered(g2_data, mutate)).reason == reason


@pytest.mark.parametrize("mutate", [
    lambda d: d["pluriclosed_certificate"]["roots"].pop("phi2"),
    lambda d: d["pluriclosed_certificate"]["roots"].update(
        phi=d["pluriclosed_certificate"]["roots"].pop("phi1")),
    _relabelled("phi2", ["0", "1"]),
], ids=["phi2 dropped", "phi1 renamed", "phi2 changed"])
def test_verify_reads_the_so_1_2n_labels(mutate):
    data = json.loads(certkit.serialize(certkit.analyze_pair("so(1,4)")))
    assert certkit.verify_data(data).ok
    assert not certkit.verify_data(_tampered(data, mutate)).ok


RETYPES = [5, 5.5, None, True, [], {}, "x"]


def _changed_leaf(value):
    """A bool negated, an int plus one, a rational string plus one, any
    other string with "x" appended; None for a list or an object."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        try:
            return str(Fraction(value) + 1)
        except ValueError:
            return value + "x"
    return None


def _nodes(value, path=()):
    """(path, node) for every node of a certificate outside `provenance`."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(
        value if isinstance(value, list) else ())
    for key, item in children:
        if path or key != "provenance":
            yield from _nodes(item, path + (key,))


def _replaced(data, path, new):
    """`data` with the node at `path` set to `new`.  Only the dicts and lists
    on the path are copied; the rest is shared, since `verify_data` only
    reads its input."""
    if not path:
        return new
    clone = parent = copy.copy(data)
    for key in path[:-1]:
        child = copy.copy(parent[key])
        parent[key] = child
        parent = child
    parent[path[-1]] = new
    return clone


def _mutations(data):
    """(description, mutated copy) for each changed leaf, each retype to a
    value of another type, each dropped and one added object key and each
    duplicated list entry, at every node of the certificate outside
    `provenance`."""
    for path, value in list(_nodes(data)):
        changed = _changed_leaf(value)
        if changed is not None:
            yield f"{path} changed", _replaced(data, path, changed)
        for new in RETYPES:
            if type(new) is not type(value):
                yield f"{path} retyped to {new!r}", _replaced(data, path, copy.deepcopy(new))
        if isinstance(value, dict):
            for key in value:
                yield f"{path} without {key!r}", _replaced(
                    data, path, {k: v for k, v in value.items() if k != key})
            yield f"{path} with an added key", _replaced(data, path, {**value, "note": "x"})
        if isinstance(value, list):
            for i in range(len(value)):
                yield f"{path} with entry {i} duplicated", _replaced(
                    data, path, value[:i + 1] + value[i:])


@pytest.mark.parametrize("name", ["g2(2)", "su(2,1)", "so(1,4)", "so(3,2)"])
def test_verify_rejects_every_mutation(name):
    """Every single change to a valid certificate outside its provenance is
    rejected with a reason, and none makes the verifier raise."""
    text = certkit.serialize(certkit.analyze_pair(name))
    data = json.loads(text)
    assert certkit.verify_data(data).ok
    accepted = [what for what, mutated in _mutations(data)
                if certkit.verify_data(mutated).ok]
    assert accepted == []
    assert certkit.serialize(data) == text  # the mutations share, never change, its nodes


@functools.lru_cache(maxsize=None)
def _small_certificate(name):
    """A certificate, shared and never changed, and the paths of its nodes."""
    data = json.loads(certkit.serialize(certkit.analyze_pair(name)))
    return data, [path for path, _ in _nodes(data)]


_digits = st.sampled_from("0123456789\u0661\u0967\u0e52\uff13\u00b2")  # ASCII and others
_hostile_names = st.one_of(
    st.text(max_size=12),
    st.builds(lambda digit, n: f"su({digit * n},1)", _digits, st.integers(4300, 5000)),
    st.builds("{}({}{})".format, st.sampled_from(["su", "so", "sp", "g2", "e8"]),
              st.text(_digits, min_size=1, max_size=3),
              st.sampled_from([",1)", ")*", ",R)", ")", ",4)"])),
    st.sampled_from(["g2(2)", " G2 (2)", "so(1,4)", "SO(4, 1)", "sp(1,1)", "su(2,1)", "so(8)*"]),
)
_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.just(2**70), st.floats(),
                        st.sampled_from(["", "0", "1/2", "-0", "x"]), _hostile_names)
_json_keys = st.sampled_from(["c", "root", "name", "x"])
_json_trees = st.one_of(  # JSON trees of depth at most two
    _json_leaves, st.lists(_json_leaves, max_size=3),
    st.dictionaries(_json_keys, _json_leaves, max_size=3),
    st.lists(st.dictionaries(_json_keys, _json_leaves, max_size=2), max_size=2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["g2(2)", "so(1,4)"]), _hostile_names, st.data())
def test_verify_data_is_total_on_hostile_input(pair, name, data):
    """A certificate with any `pair.name` and random JSON trees grafted into
    random nodes gets a verdict, never an exception; it verifies only when
    the name is its own pair's canonical one and the grafts left every node
    as it was."""
    original, paths = _small_certificate(pair)
    named = doc = _replaced(original, ("pair", "name"), name)
    grafts = data.draw(st.lists(st.sampled_from(paths), max_size=3))
    for path in sorted(grafts, key=len, reverse=True):  # deepest first: each path still exists
        doc = _replaced(doc, path, data.draw(_json_trees))
    result = certkit.verify_data(doc)
    own = name == pair
    unchanged = json.dumps(doc, sort_keys=True) == json.dumps(named, sort_keys=True)
    assert result.ok == (own and unchanged)
    assert result.ok or result.reason


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


@pytest.mark.parametrize("relations", [5, "x", {}], ids=repr)
def test_verify_rejects_non_list_relations(g2_data, relations):
    def mutate(d):
        d["pluriclosed_certificate"]["relations"] = relations
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "malformed certificate"


NON_CANONICAL = {
    "exponent": "1e400",
    "decimal": "1.0",
    "underscore": "1_0",
    "whitespace": " 1",
    "plus": "+1",
    "json number": 1,
    "over-limit numerator": "1" * (certkit.MAX_DIGITS + 1),
    "over-limit denominator": "1/" + "1" * (certkit.MAX_DIGITS + 1),
    "non-ascii digit": "\u0661",
    "negative zero": "-0",
    "leading zero": "01",
    "double zero": "00",
    "not in lowest terms": "8/2",
    "denominator one": "3/1",
    "zero over five": "0/5",
}


@pytest.mark.parametrize("text", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
@pytest.mark.parametrize("site", ["metric", "coordinate", "combination"])
def test_verify_rejects_non_canonical_rational(g2_data, site, text):
    def mutate(d):
        if site == "metric":
            d["metric"][0]["c"] = text
        elif site == "coordinate":
            d["ordering"]["simples"][0][0] = text
        else:
            d["pluriclosed_certificate"]["combination"][0] = text
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "malformed certificate"


def test_root_text_tables_read_what_the_strict_parse_reads():
    """The reader resolves a vector spelled as a catalog root by one lookup in
    its root set's text table: each entry, in every root system of rank at
    most 16, is a root, and the coordinate-by-coordinate parse of its text."""
    doubled = {}  # each distinct coordinate string, strictly parsed once
    for rs in {pair.system for pair in catalog(16)}:
        table = certkit._texts(rs.roots)
        assert set(table.values()) == rs.roots and len(table) == len(rs.roots), rs
        for text, root in table.items():
            for c in text:
                if c not in doubled:
                    doubled[c] = certkit._rational(c, 2)
            assert tuple(map(doubled.get, text)) == root, (rs, text)


# Other spellings of the values 1 and 0: each misses the table, as every text
# the strict parse refuses must.
SPELLINGS = {"1/1": "1", "01": "1", "2/2": "1", "-0": "0", " 1": "1", "1.0": "1"}


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_verify_refuses_another_spelling_of_a_root(g2_data, spelling):
    def mutate(d):
        root = next(e["root"] for e in d["metric"] if SPELLINGS[spelling] in e["root"])
        root[root.index(SPELLINGS[spelling])] = spelling
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "malformed certificate"


def test_reader_checks_a_vector_before_the_table():
    """Only a JSON list of the ambient length is looked up: a list of another
    length gives ValueError before any entry is read, and an object or a
    string whose items spell a root is no vector."""
    rs = pair_by_name("so(3,2)").system
    read = certkit._Reader(rs)
    assert read.vector(["1", "0"]) == (2, 0)
    for value in ([[]] * 3, [{}], ["1", "0", "0"]):
        with pytest.raises(ValueError):
            read.vector(value)
    for value in ({"1": 0, "0": 0}, "10"):
        with pytest.raises(TypeError):
            read.vector(value)


def test_verify_reads_rationals_up_to_the_digit_limit(g2_data):
    """A coefficient of MAX_DIGITS digits is read, and then fails the
    mathematics, not the reader."""
    def mutate(d):
        d["metric"][0]["c"] = "1" * certkit.MAX_DIGITS
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "balanced identity failed"


VECTOR_SITES = {
    "simple": lambda d: d["ordering"]["simples"][0],
    "metric root": lambda d: d["metric"][0]["root"],
    "relation root": lambda d: d["pluriclosed_certificate"]["relations"][0]["alpha"],
    "conclusion root": lambda d: d["pluriclosed_certificate"]["conclusion_root"],
    "delta": lambda d: d["chern_report"]["delta"],
}


@pytest.mark.parametrize("change", ["drop", "append"])
@pytest.mark.parametrize("site", VECTOR_SITES)
def test_verify_bounds_every_vector_to_the_ambient_length(g2_data, site, change):
    def mutate(d):
        vector = VECTOR_SITES[site](d)
        if change == "drop":
            vector.pop()
        else:
            vector.append("0")
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "malformed certificate"


@pytest.mark.parametrize("count", [0, 1, 3, 1000])
def test_verify_bounds_relations_and_combination_to_two_entries(g2_data, count):
    """Extra relations with weight 0 change no sum, yet a certificate with
    any number of relations but two is refused before it is read."""
    def mutate(d):
        payload = d["pluriclosed_certificate"]
        relations, weights = payload["relations"], payload["combination"]
        payload["relations"] = [relations[i % 2] for i in range(count)]
        payload["combination"] = [weights[i] if i < 2 else "0" for i in range(count)]
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "malformed certificate"


@pytest.mark.parametrize("change", ["drop", "duplicate", "pad"])
def test_verify_bounds_the_metric_to_one_entry_per_positive_root(g2_data, change):
    """A metric with any number of entries but |positive roots| is refused
    before it is read, even when its roots are positive and its values
    right (a duplicated entry)."""
    def mutate(d):
        if change == "drop":
            d["metric"].pop()
        elif change == "duplicate":
            d["metric"].append(d["metric"][0])
        else:
            d["metric"].extend([{"root": "x", "c": "x"}] * 10_000)
    result = certkit.verify_data(_tampered(g2_data, mutate))
    assert not result.ok and result.reason == "metric domain mismatch"


UNPARSABLE = {
    "not utf-8": b'{"schema_version": 1, "pair": "\xff\xfe"}',
    "deep nesting": b"[" * 200_000,
    "long integer": b'{"schema_version": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("content", UNPARSABLE.values(), ids=UNPARSABLE.keys())
def test_verify_file_total_over_bytes(tmp_path, capsys, content):
    path = tmp_path / "hostile.cert.json"
    path.write_bytes(content)
    result = certkit.verify_file(str(path))
    assert not result.ok and result.reason == "parse error"
    assert main(["verify", str(path)]) == 1
    assert "FAILED (parse error)" in capsys.readouterr().out


def test_verify_file_byte_limit(tmp_path, capsys, g2_cert):
    """A valid certificate padded with trailing whitespace to MAX_BYTES is
    read; one more byte and the file is refused before it is parsed."""
    text = certkit.serialize(g2_cert).encode()
    path = tmp_path / "padded.cert.json"
    path.write_bytes(text.ljust(certkit.MAX_BYTES))
    assert certkit.verify_file(str(path)).ok
    path.write_bytes(text.ljust(certkit.MAX_BYTES + 1))
    result = certkit.verify_file(str(path))
    assert not result.ok and result.reason == "file too large"
    assert main(["verify", str(path)]) == 1
    assert "FAILED (file too large)" in capsys.readouterr().out


def _verify_through_a_fifo(path, content: bytes):
    """verify_file on a new FIFO at `path` that one writer thread feeds with
    `content`; a FIFO reports size 0, so only MAX_BYTES bounds the read."""
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as handle:
            handle.write(content)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    result = certkit.verify_file(str(path))
    writer.join(timeout=10)
    assert not writer.is_alive()
    return result


def test_verify_file_reads_a_fifo_up_to_the_byte_limit(tmp_path, g2_cert):
    text = certkit.serialize(g2_cert).encode()
    assert _verify_through_a_fifo(tmp_path / "valid", text).ok
    result = _verify_through_a_fifo(tmp_path / "large", b" " * (certkit.MAX_BYTES + 1))
    assert not result.ok and result.reason == "file too large"


def test_verify_file_reads_the_largest_rank16_certificate(tmp_path):
    """so(1,32) writes the largest certificate of rank at most 16, about 78 KB."""
    path = tmp_path / "so_1_32.cert.json"
    certkit.save(certkit.analyze_pair("so(1,32)"), str(path))
    assert 70_000 < path.stat().st_size < certkit.MAX_BYTES
    assert certkit.verify_file(str(path)).ok


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


# The builders `analyze_pair` runs, imported inside it, since each imports
# `certkit`; they wait for `analyze_pair` to move to the builder side
# (ROADMAP item 3).
ANALYZE_PAIR_IMPORTS = {("certkit", "analyze_pair", module)
                        for module in ("balanced", "chern", "pluriclosed")}


def test_package_imports_form_no_cycle():
    """`walk` imports nothing of the package, no module imports another
    inside a function but `analyze_pair`, and the package's modules import
    one another at the top level without a cycle (`__init__` aside)."""
    import ast
    from pathlib import Path

    package = Path(certkit.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    nested, graph = set(), {}
    for name, tree in modules.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update((name, scope.name, node.module) for node in ast.walk(scope)
                              if isinstance(node, ast.ImportFrom) and node.level)
        if name != "__init__":
            graph[name] = {target for node in tree.body
                           if isinstance(node, ast.ImportFrom) and node.level
                           for target in ([node.module] if node.module else
                                          [alias.name for alias in node.names])
                           if target in modules and target != "__init__"}
    assert nested == ANALYZE_PAIR_IMPORTS
    walk_imports = [node for node in ast.walk(modules["walk"])
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.Import) or node.level == 0 for node in walk_imports)
    assert not [alias.name for node in walk_imports for alias in node.names
                if (getattr(node, "module", None) or alias.name).startswith("innerlie")]
    while graph:  # drop the modules that import none of those left
        leaves = {name for name, targets in graph.items() if not targets & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}"
        for name in leaves:
            del graph[name]


def test_verifier_reads_no_integer_tables(g2_data, monkeypatch):
    """The verifier keeps its own arithmetic: with the pair resolved up
    front, it accepts a valid certificate and rejects a tampered one while
    every integer table of the root core, and RootVector arithmetic, raise
    when used."""
    from innerlie.pairs import pair_by_name
    from innerlie.rootsys import RootSystem, RootVector, SimpleSystem

    pair = pair_by_name("g2(2)")
    monkeypatch.setattr(certkit, "pair_by_name", lambda name: pair)

    def unreadable(*args, **kwargs):
        raise AssertionError("the verifier read an integer table")

    for owner, name in [(RootSystem, "coordinates"), (RootSystem, "validate_base"),
                        (RootVector, "__add__"), (RootVector, "__sub__"),
                        (RootVector, "__rmul__"), (RootVector, "dot")]:
        monkeypatch.setattr(owner, name, unreadable)
    assert certkit.verify_data(g2_data).ok

    def mutate(d):
        d["pluriclosed_certificate"]["relations"][0]["coeffs"][0]["c"] = "17"
    assert certkit.verify_data(_tampered(g2_data, mutate)).reason == "relation mismatch"


BOUNDED_CACHES = (walk._chamber_roots, walk._chamber, certkit._relation)


def clear_bounded_caches():
    """Empty the chamber and relation caches, which are every bounded
    lru_cache of `walk` and `certkit`, so that none escapes a cold run."""
    found = {value for module in (walk, certkit) for value in vars(module).values()
             if hasattr(value, "cache_info") and value.cache_info().maxsize is not None}
    assert found == set(BOUNDED_CACHES)
    for cache in BOUNDED_CACHES:
        cache.cache_clear()


def test_cold_verifier_reads_no_integer_tables(g2_data, monkeypatch):
    """As above, with the chamber and relation caches cleared first, so the
    height walk and the relations run under the patches."""
    clear_bounded_caches()
    test_verifier_reads_no_integer_tables(g2_data, monkeypatch)


def _frozen(value) -> bool:
    """Whether `value` is built of tuples and frozensets of ints alone."""
    if isinstance(value, (tuple, frozenset)):
        return all(map(_frozen, value))
    return type(value) is int


def test_verifier_caches_are_bounded_and_hold_only_walks_that_pass():
    """The caches are bounded and hand out nothing mutable; a refused claim
    is not stored; 384 chambers of B4 leave each chamber cache within its
    bound."""
    from innerlie.rootsys import all_simple_systems

    chamber_caches = (walk._chamber_roots, walk._chamber)
    assert [cache.cache_info().maxsize for cache in chamber_caches] == [256, 256]
    assert certkit._relation.cache_info().maxsize == 1024
    pair = pair_by_name("so(5,4)")
    a1, a2, a3, a4 = base = pair.system.base.simples

    for cache in chamber_caches:
        cache.cache_clear()
    record = walk._claimed_chamber(pair, base)
    assert isinstance(record, tuple) and _frozen(record)
    assert isinstance(record[0], frozenset) and isinstance(record[1], frozenset)
    assert walk._claimed_roots(pair, base) == record[:2] and _frozen(record[:2])
    for claim in ([a1, a1, a3, a4], [a1, -a1, a3, a4], [a1, a2, a3]):
        for read in (walk._claimed_roots, walk._claimed_chamber):
            with pytest.raises(RootSystemError):
                read(pair, claim)
            assert [cache.cache_info().currsize for cache in chamber_caches] == [1, 1]

    systems = all_simple_systems(pair.system)
    assert len(systems) == 384
    for system in systems:
        walk._claimed_roots(pair, system.simples)
        walk._claimed_chamber(pair, system.simples)
    for cache in chamber_caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize

    positive = record[0]
    relation = certkit._derived_relation(pair.system.roots, positive, a1, a2)
    expected = dict(relation)
    relation[a1] = 17
    relation.clear()
    assert certkit._derived_relation(pair.system.roots, positive, a1, a2) == expected
    assert expected and _frozen(certkit._relation(pair.system.roots, a1, a2, False))


def test_generated_at_is_utc_to_the_second():
    from datetime import datetime, timedelta, timezone

    stamp = certkit.analyze_pair("g2(2)")["provenance"]["generated_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    moment = datetime.fromisoformat(stamp)
    assert moment.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - moment) < timedelta(minutes=10)


def test_cli_import_leaves_datetime_out():
    """No module of the package imports datetime (about 0.4 MB of peak RSS),
    nor dataclasses, which imports inspect (about 1 MB)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, innerlie.cli; "
         "print([m for m in ('datetime', 'dataclasses', 'inspect') if m in sys.modules])"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_walk_keys_are_distinct_under_the_radix_bound():
    """The verifier's height walk adds and negates integer keys in place of
    doubled roots, which is sound while every doubled coordinate has size at
    most 4: a root plus a root then stays far below half the radix.  So the
    bound holds, and the keys are distinct, in every root system of rank at
    most 16."""
    from innerlie.pairs import catalog

    assert 2 * (4 + 4) < walk._RADIX
    for rs in {pair.system for pair in catalog(16)}:
        assert max(abs(c) for root in rs.roots for c in root) <= 4, rs
        by_key, key_of, _ = walk._table(rs.roots, rs.base.simples)
        assert len(by_key) == len(key_of) == len(rs.roots), rs
        assert all(by_key[key_of[v]] is v and by_key.get(-key_of[v]) == -v for v in rs.roots), rs


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


def _unknown(name):
    """The reason pair_by_name gives for every name outside the catalog."""
    return (f"{name!r} is not in the catalog of pairs of rank <= 16; "
            "innerlie catalog --max-rank 16 lists them")


def test_cli_analyze_unknown_pair(capsys):
    assert main(["analyze", "su(2,2)"]) == 2
    assert capsys.readouterr().err == f"su(2,2): error in analyze: {_unknown('su(2,2)')}\n"


def test_cli_analyze_pair_over_the_rank_bound(capsys):
    assert main(["analyze", "su(21,20)"]) == 2
    assert capsys.readouterr().err == f"su(21,20): error in analyze: {_unknown('su(21,20)')}\n"


def test_cli_catalog_over_the_rank_bound_is_a_usage_error(capsys, monkeypatch):
    """Refused before any spec is listed, so an oversized bound costs nothing."""
    from innerlie import pairs

    def unlisted(max_rank):
        raise AssertionError(f"_specs({max_rank}) was called")
    monkeypatch.setattr(pairs, "_specs", unlisted)
    for max_rank in ("17", "18", "3000"):
        assert main(["catalog", "--max-rank", max_rank]) == 2
        assert f"max rank {max_rank} > bound 16" in capsys.readouterr().err


def _negated_metric(cert):
    """A copy with the first metric value negated; the module-scoped
    `g2_cert` itself stays valid."""
    clone = copy.deepcopy(cert)
    clone["metric"][0]["c"] = "-" + clone["metric"][0]["c"]
    return clone


def test_cli_analyze_refuses_a_certificate_that_fails_verification(
        tmp_path, capsys, monkeypatch, g2_cert):
    monkeypatch.setattr(certkit, "analyze_pair", lambda pair: _negated_metric(g2_cert))
    out = tmp_path / "g2.cert.json"
    assert main(["analyze", "g2(2)", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "g2(2)" in err and "positivity violated" in err


def test_cli_sweep_reports_a_certificate_that_fails_verification(
        tmp_path, capsys, monkeypatch, g2_cert):
    analyze = certkit.analyze_pair
    monkeypatch.setattr(certkit, "analyze_pair", lambda pair: (
        _negated_metric(g2_cert) if pair.name == "g2(2)" else analyze(pair)))
    assert main(["sweep", "--max-rank", "2", "--out", str(tmp_path), "--format", "json"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    status = {row["pair"]: row["status"] for row in rows}
    assert status.pop("g2(2)") == "verify failed: positivity violated"
    assert set(status.values()) == {"ok"}


@pytest.mark.parametrize("stage,name", [
    ("analyze", "analyze_pair"), ("save", "save"), ("verify", "verify_file")])
def test_cli_sweep_error_rows_name_the_stage(tmp_path, capsys, monkeypatch, stage, name):
    def failing(*args):
        raise InvariantViolation(f"injected failure in {name}")

    monkeypatch.setattr(certkit, name, failing)
    assert main(["sweep", "--max-rank", "2", "--out", str(tmp_path), "--format", "json"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 4
    assert {row["status"] for row in rows} == {f"error in {stage}: injected failure in {name}"}


@pytest.mark.parametrize("error,code", [(InvariantViolation, 3), (RootSystemError, 2)])
@pytest.mark.parametrize("stage,name", [
    ("analyze", "analyze_pair"), ("verify", "verify_data"), ("save", "save")])
def test_cli_analyze_errors_name_the_pair_and_the_stage(
        tmp_path, capsys, monkeypatch, stage, name, error, code):
    def failing(*args):
        raise error(f"injected failure in {name}")

    monkeypatch.setattr(certkit, name, failing)
    assert main(["analyze", "sp(1,1)", "--out", str(tmp_path / "so14.cert.json")]) == code
    assert capsys.readouterr().err == f"so(1,4): error in {stage}: injected failure in {name}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_analyze_failed_verification_names_the_verify_stage(
        tmp_path, capsys, monkeypatch, g2_cert):
    monkeypatch.setattr(certkit, "analyze_pair", lambda pair: _negated_metric(g2_cert))
    assert main(["analyze", "g2(2)", "--out", str(tmp_path / "g2.cert.json")]) == 3
    assert capsys.readouterr().err == (
        "g2(2): error in verify: certificate failed verification: positivity violated\n")


@pytest.mark.parametrize("name", [
    pytest.param("su(%s,1)" % ("9" * 5000), id="su(5000 digits,1)"),
    pytest.param("so(%s)*" % ("8" * 5000), id="so(5000 digits)*"),
    pytest.param("sp(%s,R)" % ("4" * 5000), id="sp(5000 digits,R)"),
    "sp(x,R)",
])
def test_cli_analyze_an_unreadable_number_is_a_usage_error(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", name]) == 2
    assert capsys.readouterr().err == f"{name}: error in analyze: {_unknown(name)}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_analyze_unknown_pair_names_the_analyze_stage(capsys):
    assert main(["analyze", "su(2,2)"]) == 2
    assert capsys.readouterr().err.startswith("su(2,2): error in analyze: ")


def test_cli_analyze_onto_a_directory_is_a_save_error(tmp_path, capsys):
    assert main(["analyze", "g2(2)", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("g2(2): error in save: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_into_a_file_gives_save_error_rows(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["sweep", "--max-rank", "2", "--out", str(out), "--format", "json"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 4
    assert all(row["status"].startswith("error in save: ") for row in rows)


def test_cli_sweep_into_a_file_analyzes_no_pair(tmp_path, capsys, monkeypatch):
    def never(pair):
        raise AssertionError(f"analyze_pair called for {pair.name}")

    monkeypatch.setattr(certkit, "analyze_pair", never)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["sweep", "--max-rank", "2", "--out", str(out), "--format", "json"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 4
    assert len({row["status"] for row in rows}) == 1
    assert rows[0]["status"].startswith("error in save: ")


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
