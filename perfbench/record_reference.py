#!/usr/bin/env python3
"""Record the input and output digests that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload for seeds 0-19 and rewrites
perfbench/reference.json. Beer-quiche outputs do not depend on the seed once
the echoed seed is masked, so they are recorded once under "*" and confirmed
on every seed. The generated workloads are recorded per seed. A pass whose
outputs fail their checks is not recorded; the script exits 1 instead.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(20)


def record(name: str, seed: int) -> dict:
    workload = run.build_workload(name, seed, run.WORK / name)
    session = run.Session(workload, None)
    session.run_pass()
    if session.failed:
        raise SystemExit(f"{name} seed {seed}: {session.problems}")
    print(f"{name} seed {seed}: {session.attempted} ops ok", flush=True)
    return {"inputs": workload.inputs_sha256, "outputs": session.digests}


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))

    table: dict = {"beerquiche": {}, "random-bimatrix": {}, "monitored-3type": {}}
    for seed in SEEDS:
        entry = record("beerquiche", seed)
        if table["beerquiche"].setdefault("*", entry) != entry:
            raise SystemExit(f"beerquiche outputs depend on the seed (seed {seed})")
        for name in ("random-bimatrix", "monitored-3type"):
            table[name][str(seed)] = record(name, seed)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
