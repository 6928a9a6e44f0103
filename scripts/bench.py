#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 scripts/bench.py PARENT_DIR CHANGE_DIR --seeds 1-10 --out BENCH.json

For every workload and seed it runs `perfbench/run.py` once in each checkout,
alternating from one pair to the next which side goes first, so that drift
on a shared machine hits both sides alike. `perfbench/` stays the only
harness: this script starts it, reads the result line it prints last, and
summarizes. The workloads, run length and metrics (with the direction in
which each is better) come from PARENT_DIR's BENCHMARK.json: the end-to-end
metrics, or with `--trace 1` the per-layer ones.

The output file holds, per workload and metric, each side's median and
quartiles and the number of pairs the change wins; the raw result line of
every run with its machine load and calibration time; the environment; and
both checkouts' git SHAs and source digests. Exits 1 if any run fails to
produce a result line, after writing what it has.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8-9' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=seconds + 600)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {seconds + 600} s"}
    lines = done.stdout.splitlines()
    try:
        if done.returncode != 0:
            raise ValueError(f"exit {done.returncode}")
        detail = json.loads(lines[-2])["detail"]
        return {
            "result": json.loads(lines[-1]),
            "environment": detail["environment"],
            "calibration_s": detail["calibration_s"],
        }
    except (ValueError, IndexError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        return {"error": f"{exc}: {done.stderr.strip()[-500:]}"}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name = metric["name"]
        complete = [p for p in pairs if all(name in p[side].get("result", {}).get("metrics", {}) for side in SIDES)]
        if not complete:
            continue
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in complete] for side in SIDES}
        if metric["better"] == "lower":
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        else:
            wins = sum(c > p for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "better": metric["better"],
            "bound": metric.get("bound"),
            "pairs": len(complete),
            "change_wins": wins,
            **{side: spread(values[side]) for side in SIDES},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,4,7-9")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        parser.error(f"{args.parent}: cannot read BENCHMARK.json: {exc.strerror}")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    dirs = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    turn = 0
    for workload in workloads:
        for seed in args.seeds:
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], workload, seed, seconds, args.trace)
                print(f"{workload} seed {seed} {side}: {pair[side].get('error', 'done')}", file=sys.stderr)
            runs[workload].append(pair)

    first = {side: next((p[side] for ps in runs.values() for p in ps if "result" in p[side]), {}) for side in SIDES}
    report = {
        "seconds": seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "environment": {k: first["parent"].get("environment", {}).get(k) for k in ("python", "cpu", "nproc")},
        **{
            side: {
                "git_sha": first[side].get("environment", {}).get("git_sha"),
                "source_sha256": first[side].get("environment", {}).get("source_sha256"),
            }
            for side in SIDES
        },
        "workloads": {w: {"metrics": summarize(runs[w], metrics), "runs": runs[w]} for w in workloads},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    failed = [p for ps in runs.values() for p in ps for side in SIDES if "error" in p[side]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
