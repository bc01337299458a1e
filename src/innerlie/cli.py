"""Command-line front end: catalog, analyze, verify, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import certkit
from .pairs import catalog, pair_by_name
from .rootsys import InvariantViolation, RootSystemError


def _safe_filename(name: str) -> str:
    out = []
    for ch in name:
        if ch.isalnum():
            out.append(ch)
        elif ch in "(,":
            out.append("_")
        elif ch == "-":
            out.append("m")
        elif ch == "*":
            out.append("star")
    return "".join(out)


def _catalog_rows(max_rank: int) -> list[dict]:
    return [
        {
            "name": pair.name,
            "family": pair.family,
            "rank": pair.rank,
            "dim_g": pair.dim_g,
            "dim_k": pair.dim_k,
            "painted_node": pair.painted_node,
            "positive_roots": len(pair.system.roots) // 2,
            "aliases": list(pair.aliases),
        }
        for pair in catalog(max_rank)
    ]


def _print_table(rows: list[dict], columns: list[str]) -> None:
    if not rows:
        return
    widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))


def cmd_catalog(args) -> int:
    rows = _catalog_rows(args.max_rank)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        _print_table(rows, ["name", "family", "rank", "dim_g", "dim_k",
                            "painted_node", "positive_roots"])
        print(f"{len(rows)} pair(s) with rank <= {args.max_rank}")
    return certkit.EXIT_OK


def cmd_analyze(args) -> int:
    name, stage = args.pair, "analyze"
    try:
        pair = pair_by_name(args.pair)
        name = pair.name
        cert = certkit.analyze_pair(pair)
        stage = "verify"
        result = certkit.verify_data(cert)
        if not result.ok:
            raise InvariantViolation(f"certificate failed verification: {result.reason}")
        stage = "save"
        out = args.out or f"{_safe_filename(pair.name)}.cert.json"
        certkit.save(cert, out)
    except (RootSystemError, InvariantViolation, OSError) as exc:  # OSError: an unwritable --out
        print(f"{name}: error in {stage}: {exc}", file=sys.stderr)
        return certkit.EXIT_INTERNAL if isinstance(exc, InvariantViolation) else certkit.EXIT_USAGE
    print(f"{pair.name}: balanced=ok pluriclosed-obstruction=ok chern-scalar=0 -> {out}")
    return certkit.EXIT_OK


def cmd_verify(args) -> int:
    result = certkit.verify_file(args.path)
    if result.ok:
        print(f"{args.path}: OK")
        return certkit.EXIT_OK
    print(f"{args.path}: FAILED ({result.reason})")
    return certkit.EXIT_VERIFY_FAILED


def _sweep_status(pair, out: str) -> str:
    """Analyze, save into `out` and verify one pair; the row's status."""
    stage = "analyze"
    try:
        cert = certkit.analyze_pair(pair)
        stage = "save"
        path = f"{out}/{_safe_filename(pair.name)}.cert.json"
        certkit.save(cert, path)
        stage = "verify"
        result = certkit.verify_file(path)
    except (RootSystemError, InvariantViolation, OSError) as exc:
        return f"error in {stage}: {exc}"
    return "ok" if result.ok else f"verify failed: {result.reason}"


def cmd_sweep(args) -> int:
    pairs = catalog(args.max_rank)
    try:  # an --out that cannot be a directory fails every save: analyze nothing
        os.makedirs(args.out, exist_ok=True)
        out_error = None
    except OSError as exc:
        out_error = f"error in save: {exc}"
    rows = []
    failures = 0
    for pair in pairs:
        started = time.monotonic()
        status = out_error or _sweep_status(pair, args.out)
        failures += status != "ok"
        elapsed_ms = int((time.monotonic() - started) * 1000)
        rows.append({
            "pair": pair.name,
            "rank": pair.rank,
            "dim_g": pair.dim_g,
            "dim_k": pair.dim_k,
            "mode": "so_1_2n_special" if pair.is_so_1_2n else "partner_property",
            "positive_roots": len(pair.system.roots) // 2,
            "status": status,
            "ms": elapsed_ms,
        })
    if args.format == "json":
        for row in rows:
            print(json.dumps(row))
    else:
        _print_table(rows, ["pair", "rank", "dim_g", "dim_k", "mode",
                            "positive_roots", "status", "ms"])
        print(f"{len(rows)} pair(s), {failures} failure(s)")
    return certkit.EXIT_OK if failures == 0 else certkit.EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerlie",
        description="Balanced-metric and pluriclosed-obstruction certificates "
                    "for even-dimensional inner-type non-compact simple Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list the catalog of pairs")
    p_catalog.add_argument("--max-rank", type=int, default=8)
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    p_catalog.set_defaults(func=cmd_catalog)

    p_analyze = sub.add_parser("analyze", help="produce a certificate for one pair")
    p_analyze.add_argument("pair", help="pair name, e.g. g2(2) or su(2,1)")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="independently re-verify a certificate file")
    p_verify.add_argument("path")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="analyze and verify every catalog pair")
    p_sweep.add_argument("--max-rank", type=int, default=8)
    p_sweep.add_argument("--out", default="certificates")
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return certkit.EXIT_USAGE if exc.code not in (0, None) else certkit.EXIT_OK
    try:
        return args.func(args)
    except RootSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return certkit.EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return certkit.EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
