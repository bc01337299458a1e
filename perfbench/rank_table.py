"""Print the rank-growth table from the span files of traced runs.

    python3 perfbench/run.py --workload catalog8_sweep --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload classical_rank_scan --seed 1 --seconds 40 --trace 1
    python3 perfbench/rank_table.py            # all files in .perfbench/spans/
    python3 perfbench/rank_table.py FILE...    # or the files named

Rows are ranks, columns the median self time in ms of each stage over the
items of classical type (A-D) at that rank: ranks 2-8 come from
catalog8_sweep, ranks 10 and 12 from classical_rank_scan.  verify_mixed
files are skipped, because their timed items only verify.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import OUT
from tracing import rank_table


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted((OUT / "spans").glob("*.json"))
    traces = [json.loads(f.read_text()) for f in files]
    traces = [t for t in traces if t["workload"] != "verify_mixed"]
    if not traces:
        print("no span files of catalog8_sweep or classical_rank_scan", file=sys.stderr)
        return 1
    print(rank_table(traces))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
