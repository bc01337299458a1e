"""Write golden.json: the provenance-stripped sha256 of the certificate of every
catalog8_sweep and classical_rank_scan pair, as the checked-out code makes them.

    python3 perfbench/make_golden.py --commit <sha of the checked-out code>

Regenerate only when a change is meant to alter certificate bytes.
"""

from __future__ import annotations

import argparse
import json

import workloads as wl


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()
    lib = wl.fresh_import()
    pairs = list(lib.pairs.catalog(8)) + [lib.pairs.pair_by_name(n) for n, _, _ in wl.SCAN_PAIRS]
    digests = {pair.name: wl.digest(lib.certkit.serialize(lib.certkit.analyze_pair(pair)))
               for pair in pairs}
    wl.GOLDEN.write_text(json.dumps({"commit": args.commit, "digests": digests},
                                    indent=2, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {wl.GOLDEN}")


if __name__ == "__main__":
    main()
