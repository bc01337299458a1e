"""The innerlie benchmark: one workload per run, one thread, closed loop.

    python3 perfbench/run.py --workload catalog8_sweep --seed 1 --seconds 40 --trace 0

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run, whose spans are also written to `.perfbench/spans/` and
summarised by rank on standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import workloads as wl
from tracing import Tracer, layer_medians_ms, rank_table, self_times

CATALOG_SETUPS = 3   # cold catalog(8) builds per run; setup_s is their median
IMPORT_SETUPS = 15   # cold imports per classical_rank_scan run
OUT = wl.ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "item_ms_p50": "ms", "item_ms_p80": "ms",
    "peak_rss_mb": "MB", "ok_ratio": "ratio", "digest_matches": "count",
}
SPANS = (
    "rootsys.validate_base", "rootsys.build_root_system", "pairs.catalog",
    "pairs.pair_by_name", "ordering.find_admissible_ordering",
    "balanced.assemble_system", "balanced.solve", "balanced.verify_balanced",
    "pluriclosed.build_certificate", "pluriclosed.verify_certificate",
    "chern.chern_report", "certkit.analyze_pair", "certkit.serialize",
    "certkit.save", "certkit.verify_file", "certkit.verify_data",
)
COUNTS = ("rootsys.roots", "rootsys.positive_roots", "balanced.bumped_roots",
          "pluriclosed.relation_terms", "certkit.cert_bytes", "certkit.rejected",
          "certkit.verify_exceptions")
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in SPANS},
    **{name: "count" for name in COUNTS},
    "certkit.cert_bytes": "bytes",
    "cli.sweep_s": "s", "trace.overhead_s": "s", "trace.unattributed_ms": "ms",
}


class Run:
    """What one run measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path,
                 tracer: Tracer | None):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir, self.tracer = workdir, tracer
        self.setup_ns: list[int] = []
        self.item_ns: list[int] = []
        self.wall_ns = 0
        self.item_ok: dict[str, bool] = {}
        self.exceptions: Counter = Counter()
        self.problems: list[str] = []
        self.digests: dict[str, bool] = {}
        self.golden = wl.load_golden()
        self.counts: Counter = Counter()
        self.layer: dict[str, float] = {}

    def outcome(self, what: str, ok: bool, exc: BaseException | None = None) -> None:
        """Record one attempt at an item: ok is the verdict being right; exc
        what it raised.  An item fails if any of its attempts fails."""
        self.item_ok[what] = self.item_ok.get(what, True) and ok and exc is None
        if exc is not None:
            self.exceptions[type(exc).__name__] += 1
            print(f"{what}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
        elif not ok:
            self.problems.append(f"{what}: wrong verdict")

    @property
    def attempted(self) -> int:
        """Distinct items tried.  Repeats of an item in a last, partial pass
        do not count again, so the count does not depend on the machine's
        speed."""
        return len(self.item_ok)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.item_ok.values())

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def check_digest(self, name: str, text: str) -> None:
        match = self.golden.get(name) == wl.digest(text)
        self.digests[name] = self.digests.get(name, True) and match

    def measure(self, do_item, count: int, seconds: float) -> int:
        """Run items 0..count-1 in order, pass after pass, until `seconds`
        have gone by and every item has run once; return the elapsed ns.

        do_item(k) times its own calls into the program and returns the ns
        they took.  Each item's latency is its median over the passes, so
        the items a last, partial pass repeats weigh no more than the rest;
        a pass takes the sum of these latencies.
        """
        latencies: list[list[int]] = [[] for _ in range(count)]
        start = time.perf_counter_ns()
        done = 0
        while done < count or time.perf_counter_ns() - start < seconds * 1e9:
            latencies[done % count].append(do_item(done % count))
            done += 1
        elapsed = time.perf_counter_ns() - start
        self.item_ns = [statistics.median(item) for item in latencies]
        self.wall_ns = sum(self.item_ns)
        return elapsed


def timed(fn, *args):
    """Call into the program: (result, exception, ns).  An exception is a
    result that the run counts, never the end of the run."""
    t0 = time.perf_counter_ns()
    try:
        result, exc = fn(*args), None
    except Exception as error:  # the benchmark reports every failure and goes on
        result, exc = None, error
    return result, exc, time.perf_counter_ns() - t0


def cold_catalog(run: Run):
    """Fresh import plus catalog(8), CATALOG_SETUPS times; keep the last."""
    for _ in range(CATALOG_SETUPS):
        t0 = time.perf_counter_ns()
        lib = wl.fresh_import()
        catalog = lib.pairs.catalog(8)
        run.setup_ns.append(time.perf_counter_ns() - t0)
    run.require(len(catalog) == 61, f"catalog(8) has {len(catalog)} pairs, expected 61")
    return lib, catalog


# ---------------------------------------------------------------------------
# Traced calls.  The stage functions are called one by one in the order
# analyze_pair calls them, then analyze_pair itself, so each stage gets a
# span without any change to the program.
# ---------------------------------------------------------------------------

def traced_write(run: Run, lib, pair, path: Path) -> str:
    tr, counts = run.tracer, run.counts
    rs = pair.system
    with tr.span("rootsys.validate_base"):
        rs.validate_base(lib.rootsys.SimpleSystem(rs.base.simples))
    with tr.span("ordering.find_admissible_ordering"):
        ordering = lib.ordering.find_admissible_ordering(pair)
    if ordering.mode == lib.ordering.MODE_SPECIAL:
        with tr.span("balanced.solve"):
            metric = lib.balanced.solve_so1_2n(pair.rank)
    else:
        with tr.span("balanced.assemble_system"):
            system = lib.balanced.assemble_system(ordering, pair)
        with tr.span("balanced.solve"):
            metric = lib.balanced.solve_constructive(system)
        simples = set(ordering.system.simples)
        counts["balanced.bumped_roots"] += sum(
            1 for root, value in metric.g.items() if root not in simples and value != 1)
    with tr.span("balanced.verify_balanced"):
        lib.balanced.verify_balanced(metric, pair)
    with tr.span("pluriclosed.build_certificate"):
        obstruction = lib.pluriclosed.build_certificate(metric.ordering, pair)
    with tr.span("pluriclosed.verify_certificate"):
        lib.pluriclosed.verify_certificate(obstruction, pair)
    with tr.span("chern.chern_report"):
        lib.chern.chern_report(metric, metric.ordering, pair)
    with tr.span("certkit.analyze_pair"):
        cert = lib.certkit.analyze_pair(pair)
    with tr.span("certkit.serialize"):
        text = lib.certkit.serialize(cert)
    with tr.span("certkit.save"):
        lib.certkit.save(cert, str(path))
    counts["rootsys.roots"] += len(rs.roots)
    counts["rootsys.positive_roots"] += len(ordering.positives)
    counts["pluriclosed.relation_terms"] += sum(len(r.coeffs) for r in obstruction.relations)
    counts["certkit.cert_bytes"] += len(text.encode())
    return text


def traced_verify(run: Run, lib, path: Path, text: str):
    """verify_file as the workload calls it, then verify_data on its own."""
    tr = run.tracer
    with tr.span("certkit.verify_file"):
        result, exc, _ = timed(lib.certkit.verify_file, str(path))
    with tr.span("certkit.verify_data"):
        timed(lib.certkit.verify_data, json.loads(text))
    if exc is not None:
        run.counts["certkit.verify_exceptions"] += 1
    elif not result.ok:
        run.counts["certkit.rejected"] += 1
    return result, exc


def traced_item(run: Run, item_id: str, pair_name: str, family: str, rank: int):
    run.tracer.items[item_id] = {"pair": pair_name, "family": family, "rank": rank}
    return run.tracer.span("item", item=item_id)


def trace_prelude(run: Run):
    """Cold catalog build, root-system builds and one `innerlie sweep` call.

    Every traced run starts with it, so these layers are measured on every
    workload.  Returns a fresh import with a built catalog.
    """
    tr = run.tracer
    lib = wl.fresh_import()
    with tr.span("pairs.catalog"):
        catalog = lib.pairs.catalog(8)
    systems = sorted({(p.system.family, p.system.rank) for p in catalog})
    lib = wl.fresh_import()
    for family, rank in systems:
        with tr.span("rootsys.build_root_system"):
            lib.rootsys.build_root_system(family, rank)
    catalog = lib.pairs.catalog(8)
    out = io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(["sweep", "--max-rank", "8", "--out",
                             str(run.workdir / "cli"), "--format", "json"])
    run.layer["cli.sweep_s"] = (time.perf_counter_ns() - t0) / 1e9
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    run.require(code == 0 and len(rows) == 61 and all(r["status"] == "ok" for r in rows),
                f"innerlie sweep exited {code} with {len(rows)} rows")
    return lib, catalog


def run_items(run: Run, do_item, count: int, traced_pass) -> None:
    """Untraced: measure for the run's seconds.  Traced: one untraced pass,
    then one traced pass; the difference is the tracing overhead."""
    if not run.tracer:
        run.measure(do_item, count, run.seconds)
        return
    untraced = run.measure(do_item, count, 0)
    run.tracer.phase = "timed"
    start = time.perf_counter_ns()
    traced_pass()
    run.layer["trace.overhead_s"] = (time.perf_counter_ns() - start - untraced) / 1e9


# ---------------------------------------------------------------------------
# catalog8_sweep: analyze_pair -> save -> verify_file on all 61 pairs.
# ---------------------------------------------------------------------------

def catalog8_sweep(run: Run) -> None:
    lib, catalog = trace_prelude(run) if run.tracer else cold_catalog(run)
    pairs = [catalog[i] for i in wl.catalog_order(run.seed, len(catalog))]
    paths = [run.workdir / f"{k:02d}.cert.json" for k in range(len(pairs))]

    def sweep(pair, path):
        lib.certkit.save(lib.certkit.analyze_pair(pair), str(path))
        return lib.certkit.verify_file(str(path))

    def do_item(k: int) -> int:
        result, exc, ns = timed(sweep, pairs[k], paths[k])
        run.outcome(pairs[k].name, exc is None and result.ok, exc)
        if exc is None:
            run.check_digest(pairs[k].name, paths[k].read_text())
        return ns

    def traced_pass() -> None:
        tr = run.tracer

        def write(pair, path):
            with tr.span("pairs.pair_by_name"):
                lib.pairs.pair_by_name(pair.name)
            return traced_write(run, lib, pair, path)

        for k, (pair, path) in enumerate(zip(pairs, paths)):
            with traced_item(run, f"{k}:{pair.name}", pair.name, pair.family, pair.rank):
                text, exc, _ = timed(write, pair, path)
                if exc is None:
                    result, exc = traced_verify(run, lib, path, text)
            run.outcome(pair.name, exc is None and result.ok, exc)
            if exc is None:
                run.check_digest(pair.name, text)

    run_items(run, do_item, len(pairs), traced_pass)


# ---------------------------------------------------------------------------
# classical_rank_scan: pair_by_name -> analyze_pair -> serialize ->
# verify_data at rank 10 and 12.  Every pass starts from a fresh import, so
# each root system and grading is built cold in the timed path.
# ---------------------------------------------------------------------------

def classical_rank_scan(run: Run) -> None:
    if run.tracer:
        trace_prelude(run)
    else:
        for _ in range(IMPORT_SETUPS):
            t0 = time.perf_counter_ns()
            wl.fresh_import()
            run.setup_ns.append(time.perf_counter_ns() - t0)
    order = wl.scan_order(run.seed)
    current = {}

    def scan(lib, name):
        pair = lib.pairs.pair_by_name(name)
        text = lib.certkit.serialize(lib.certkit.analyze_pair(pair))
        return pair, text, lib.certkit.verify_data(json.loads(text))

    def do_item(k: int) -> int:
        if k == 0:
            current["lib"] = wl.fresh_import()
        name, family, rank = order[k]
        out, exc, ns = timed(scan, current["lib"], name)
        run.outcome(name, exc is None and out[2].ok, exc)
        if exc is None:
            pair, text, _ = out
            run.require((pair.family, pair.rank) == (family, rank),
                        f"{name} resolved to {pair.family}{pair.rank}")
            run.check_digest(name, text)
        return ns

    def traced_pass() -> None:
        lib = wl.fresh_import()
        tr = run.tracer

        def write(name, family, rank, path):
            with tr.span("rootsys.build_root_system"):
                lib.rootsys.build_root_system(family, rank)
            with tr.span("pairs.pair_by_name"):
                pair = lib.pairs.pair_by_name(name)
            return traced_write(run, lib, pair, path)

        for k, (name, family, rank) in enumerate(order):
            path = run.workdir / f"scan{k}.cert.json"
            with traced_item(run, f"{k}:{name}", name, family, rank):
                text, exc, _ = timed(write, name, family, rank, path)
                if exc is None:
                    result, exc = traced_verify(run, lib, path, text)
            run.outcome(name, exc is None and result.ok, exc)
            if exc is None:
                run.check_digest(name, text)

    run_items(run, do_item, len(order), traced_pass)


# ---------------------------------------------------------------------------
# verify_mixed: verify_file over 61 valid certificates and one tampered copy
# of each, written by the program during set-up.
# ---------------------------------------------------------------------------

def verify_mixed(run: Run) -> None:
    lib, catalog = trace_prelude(run) if run.tracer else cold_catalog(run)
    valid_dir, tampered_dir = run.workdir / "valid", run.workdir / "tampered"
    valid_dir.mkdir()
    tampered_dir.mkdir()
    plan = wl.plan_tampers(run.seed, [(p.name, len(p.system.roots)) for p in catalog])
    files = []  # (pair, valid path, tampered path, tamper kind)
    for k, pair in enumerate(catalog):
        valid = valid_dir / f"{k:02d}.cert.json"
        if run.tracer:
            with traced_item(run, f"setup:{pair.name}", pair.name, pair.family, pair.rank):
                text = traced_write(run, lib, pair, valid)
        else:
            lib.certkit.save(lib.certkit.analyze_pair(pair), str(valid))
            text = valid.read_text()
        run.check_digest(pair.name, text)
        kind, detail = plan[pair.name]
        tampered = tampered_dir / f"{k:02d}.cert.json"
        tampered.write_text(json.dumps(wl.tamper(json.loads(text), kind, detail),
                                       sort_keys=True, indent=2) + "\n")
        files.append((pair, valid, tampered, kind))
    # (pair, path, tamper kind or None)
    items = [(files[i][0], files[i][2] if bad else files[i][1], files[i][3] if bad else None)
             for i, bad in wl.mixed_order(run.seed, len(files))]

    def judge(pair, kind, result, exc) -> None:
        what = f"{pair.name} ({kind or 'valid'})"
        run.outcome(what, exc is None and result.ok == (kind is None), exc)

    def do_item(k: int) -> int:
        pair, path, kind = items[k]
        result, exc, ns = timed(lib.certkit.verify_file, str(path))
        judge(pair, kind, result, exc)
        return ns

    def traced_pass() -> None:
        tr = run.tracer
        for k, (pair, path, kind) in enumerate(items):
            with traced_item(run, f"{k}:{pair.name}:{kind or 'valid'}",
                             pair.name, pair.family, pair.rank):
                with tr.span("pairs.pair_by_name"):
                    resolved = lib.pairs.pair_by_name(pair.name)
                with tr.span("rootsys.validate_base"):
                    resolved.system.validate_base(
                        lib.rootsys.SimpleSystem(resolved.system.base.simples))
                result, exc = traced_verify(run, lib, path, path.read_text())
            judge(pair, kind, result, exc)

    run_items(run, do_item, len(items), traced_pass)


# ---------------------------------------------------------------------------
# Metrics and output
# ---------------------------------------------------------------------------

def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_ns) / 1e9,
        "wall_s": run.wall_ns / 1e9,
        "item_ms_p50": statistics.median(run.item_ns) / 1e6,
        "item_ms_p80": statistics.quantiles(run.item_ns, n=5)[3] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": sum(run.item_ok.values()) / len(run.item_ok),
        "digest_matches": sum(run.digests.values()),
    }


def per_layer(run: Run) -> dict[str, float]:
    spans = run.tracer.spans
    medians = layer_medians_ms(spans)
    values = {f"{name}_ms": medians.get(name, 0.0) for name in SPANS}
    values.update({name: run.counts[name] for name in COUNTS})
    own = self_times(spans)
    item_own = [own[i] for i, s in enumerate(spans)
                if s["name"] == "item" and s["phase"] == "timed"]
    unattributed = max(item_own)
    values["trace.unattributed_ms"] = unattributed / 1e6
    values.update({k: run.layer[k] for k in ("cli.sweep_s", "trace.overhead_s")})
    # The stage self times of an item must add up to the item's span within
    # the tracing overhead per item.
    allowance = run.layer["trace.overhead_s"] * 1e9 / len(item_own)
    run.require(run.workload != "catalog8_sweep" or unattributed <= allowance,
                f"an item has {unattributed} ns outside its stage spans, "
                f"more than the overhead of {allowance:.0f} ns per item")
    return values


def metrics_json(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def write_trace(run: Run) -> Path:
    path = OUT / "spans" / f"{run.workload}-seed{run.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": run.workload, "seed": run.seed,
                                "exceptions": run.exceptions, "items": run.tracer.items,
                                "spans": run.tracer.spans}))
    return path


WORKLOADS = {"catalog8_sweep": catalog8_sweep, "classical_rank_scan": classical_rank_scan,
             "verify_mixed": verify_mixed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not wl.have_program():
        print(f"no program to benchmark: {wl.SRC / 'innerlie'} is missing", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    run = Run(args.workload, args.seed, args.seconds, workdir,
              Tracer() if args.trace else None)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.exceptions:
        print(f"exceptions by type: {dict(run.exceptions)}", file=sys.stderr)
    if run.tracer:
        metrics = metrics_json(per_layer(run), PER_LAYER)
        print(f"spans: {write_trace(run)}", file=sys.stderr)
        print(rank_table([{"items": run.tracer.items, "spans": run.tracer.spans}]),
              file=sys.stderr)
    else:
        metrics = metrics_json(end_to_end(run), END_TO_END)
    for problem in run.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
