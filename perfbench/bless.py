"""Rewrite ``golden.json``: paper-suite output digests per workload seed.

    python3 perfbench/bless.py

Runs every registered scenario in-process at the default workload seed
(0, which reproduces EXPERIMENTS.md) and at the held-out seed, and
stores each result's digest (``checks.output_digest``).  Re-bless only
for a change that is meant to alter scenario outputs, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import suite  # noqa: E402

#: the seed a performance claim must also hold on; not used while
#: tuning a change.
HELD_OUT_SEED = 9001


def main() -> int:
    from repro.engine.executor import execute

    seeds = {}
    for seed in (0, HELD_OUT_SEED):
        report = execute(suite.suite_specs(seed), backend="serial",
                         cache=None)
        results = [r.to_dict() for r in report.results]
        failures = checks.suite_failures([results], None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        seeds[str(seed)] = {r["name"]: checks.output_digest(r)
                            for r in results}
    checks.GOLDEN_PATH.write_text(json.dumps({
        "held_out_seed": HELD_OUT_SEED,
        "seeds": seeds,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
