"""Byte identity of certificates against the stored golden digests.

`perfbench/golden.json` holds the sha256 of the certificate of every
catalog(8) pair and of the rank-10/12 classical scan pairs, with the
provenance block removed and the rest dumped canonically (sorted keys,
indent 2, trailing newline).  Any change to the bytes a certificate is
written with, other than its provenance, fails here.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

import innerlie.certkit as certkit
from innerlie import catalog, pair_by_name

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())["digests"]


def _digest(text):
    data = json.loads(text)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == text
    data.pop("provenance")
    canonical = json.dumps(data, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_golden_covers_the_rank8_catalog_and_the_scan_pairs():
    names = {pair.name for pair in catalog(8)}
    assert len(names) == 61 and names <= set(GOLDEN)
    assert len(GOLDEN) == 69


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_match_golden_digest(name):
    text = certkit.serialize(certkit.analyze_pair(pair_by_name(name)))
    assert _digest(text) == GOLDEN[name]
