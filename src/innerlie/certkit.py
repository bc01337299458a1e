"""Certificate files: the pipeline that builds a certificate, and its writer.

A certificate packages, for one pair: the chosen ordering, the metric
coefficients, the pluriclosed contradiction data and the Chern report,
all as exact rational strings.  Serialization is canonical JSON (sorted
keys, lowest-terms "p/q" payloads), so identical inputs produce identical
bytes apart from the provenance timestamp.  `serialize` writes them with a
small writer of its own whose bytes equal json.dumps(cert, sort_keys=True,
indent=2) plus a newline (json.dumps with an indent runs the pure-Python
encoder); tests hold the two equal on generated documents and on every
rank <= 8 certificate.

The format (its version and spelling) and the verifier are in `verify`,
which imports no builder; `verify_data` and `verify_file` are re-exported.
"""

from __future__ import annotations

import os
import time
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, verify
from .balanced import solve_for_pair
from .chern import chern_report
from .pairs import InnerPair, pair_by_name
from .pluriclosed import build_certificate, pluriclosed_payload
from .verify import verify_data, verify_file  # re-exported

TOOL_NAME = "innerlie"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def analyze_pair(pair_or_name) -> dict:
    """Run the full pipeline on one catalog pair and return its certificate,
    the JSON document that `serialize` writes and `verify_data` reads.

    Nothing here checks the result: callers check the certificate with
    `verify_data` (on this document) or `verify_file` (on the saved file).
    """
    pair = pair_or_name if isinstance(pair_or_name, InnerPair) else pair_by_name(pair_or_name)
    metric = solve_for_pair(pair)
    ordering = metric.ordering
    chern = chern_report(metric, ordering, pair)
    return {
        "schema_version": verify.SCHEMA_VERSION,
        "pair": {
            "name": pair.name,
            "family": pair.family,
            "rank": pair.rank,
            "painted_node": pair.painted_node,
            "dim_g": pair.dim_g,
            "dim_k": pair.dim_k,
        },
        "ordering": {
            "mode": ordering.mode,
            "simples": [verify._vec_to_json(s) for s in ordering.system.simples],
        },
        "metric": verify._coeffs_to_json(metric.g),
        "balanced_verdict": True,
        "pluriclosed_certificate": pluriclosed_payload(build_certificate(ordering, pair)),
        "chern_report": {
            "delta": verify._vec_to_json(chern.delta),
            "scalar_curvature": str(chern.scalar_curvature),
            "delta_nonzero": chern.delta_nonzero,
            "kodaira_flag": chern.kodaira_flag,
        },
        "provenance": {
            "tool": TOOL_NAME,
            "version": __version__,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        },
    }


def serialize(cert: dict) -> str:
    """The canonical bytes of a certificate document, as `analyze_pair` returns it:
    json.dumps(cert, sort_keys=True, indent=2) + "\\n", written by `_dump`."""
    return _dump(cert, "") + "\n"


def _dump(value, pad: str) -> str:
    """`value`, indented by `pad`, as json.dumps(sort_keys=True, indent=2) writes it.

    A certificate holds only dicts with string keys, lists, strings, ints and
    bools; anything else raises TypeError.  Strings go through the C encoder,
    a dict's string values without a call of their own; a list of strings (a
    vector, a combination) is one join.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([
            f"{_quote(key)}: {_quote(item) if type(item) is str else _dump(item, inner)}"
            for key, item in sorted(value.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        try:
            body = sep.join(map(_quote, value))
        except TypeError:  # not all strings
            body = sep.join([_dump(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, str):
        return _quote(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save(cert: dict, path: str) -> None:
    """Write atomically: a new file of mode 0600 in the target directory,
    then rename; the directory is made only when it is missing."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    try:
        fd = os.open(tmp, flags, 0o600)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, flags, 0o600)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(serialize(cert).encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
