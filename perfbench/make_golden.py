"""Regenerate the golden digests under ``perfbench/golden/``.

Usage (from the root of a checkout)::

    python3 perfbench/make_golden.py [--workload NAME ...]

Every digest is computed on the reference path: kernels disabled
(``repro.kernels.registry.disabled()``), trace and result caches off, one
fresh process.  The benchmark replays the same inputs through the default
(kernel) path, so a passing run also cross-checks kernel against
reference.  Only rerun this when a change is *meant* to alter simulated
results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from measure import SRC, digest
from golden import GOLDEN_DIR


def cold_replay() -> dict:
    import cold_replay as w
    from repro.experiments import common

    table = {}
    for app, seed in w.universe():
        table[f"{app}/{seed}"] = digest(w.replay(app, seed)[0])
        common.clear_caches()  # one trace at a time: flat memory
    return table


def table_sweep() -> dict:
    import table_sweep as w

    table = {}
    for trace_seed in w.TRACE_SEEDS:
        seeds = {app: trace_seed for app in w.APPS}
        table.update({key: digest(payload) for key, payload
                      in w.row_payloads(w.sweep(seeds), seeds).items()})
    return table


def serve_zipf() -> dict:
    import serve_zipf as w

    return {w.spec_key(spec): digest(w.local_result(spec))
            for spec in w.universe()}


def stream_wide() -> dict:
    import stream_wide as w

    return {str(seed): digest(w.reference_stats(seed))
            for seed in w.STREAM_SEEDS}


MAKERS = {"cold-replay": cold_replay, "table-sweep": table_sweep,
          "serve-zipf": serve_zipf, "stream-wide": stream_wide}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=MAKERS)
    args = parser.parse_args(argv)
    os.environ["REPRO_TRACE_CACHE"] = "off"
    os.environ["REPRO_RESULT_CACHE"] = "off"
    sys.path.insert(0, str(SRC))
    from repro.kernels import registry

    for name in args.workload or MAKERS:
        with registry.disabled():
            table = MAKERS[name]()
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"{path.name}: {len(table)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
