#!/usr/bin/env python3
"""Record reference.json: the SHA-256 digest of every CSV each workload writes.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Seed-dependent workloads are recorded for every config seed in
``range(workloads.REFERENCE_SEEDS)``, the others once under the key "*".
Regenerate only in a change that says why the output bytes had to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import worker
import workloads
from run import git_commit

OUT = worker.ROOT / ".perfbench_out" / "reference"


def digests_for(workload: str, seed: int) -> dict[str, str]:
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        return worker.rep(workload, seed, str(OUT))["digests"]
    finally:
        shutil.rmtree(OUT, ignore_errors=True)


def main() -> int:
    table = {}
    for name in workloads.WORKLOADS:
        seeds = range(workloads.REFERENCE_SEEDS) if name in workloads.SEEDED else [None]
        table[name] = {}
        for seed in seeds:
            key = "*" if seed is None else str(seed)
            table[name][key] = digests_for(name, seed or 0)
            print(name, key, file=sys.stderr)
    Path(worker.HERE / "reference.json").write_text(json.dumps(
        {"commit": git_commit(), "workloads": table}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
