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


# sha256 over the certificates of every catalog(16) pair, in catalog order,
# each as `serialize` writes it without its provenance block.
RANK16_DIGEST = "18456c0646b1f5a2c2685ac56605e142af820b4a74138d55be6d2afd0b4273e1"


def test_rank16_certificate_bytes_match_one_digest():
    digest = hashlib.sha256()
    pairs = catalog(16)
    for pair in pairs:
        cert = certkit.analyze_pair(pair)
        del cert["provenance"]
        digest.update(certkit.serialize(cert).encode())
    assert len(pairs) == 199 and digest.hexdigest() == RANK16_DIGEST
