#!/usr/bin/env python3
"""sigsolve benchmark: one workload per run, in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. A run uses one process with no threads.
One caller runs the workload's operations back to back, each starting when
the previous one returns, until S seconds have passed and at least one full
pass is done. Every output is checked outside the timed section. The last
line of stdout is the result: `correct`, `attempted`, `failed` and `metrics`.
The line before it holds the details: per-stage medians and tails, input
and output digests, and the environment.

With `--trace 0`, the run reports the end-to-end metrics of BENCHMARK.json.
`setup_s` is the median of several fresh interpreters, each of which imports
sigsolve and generates and writes the inputs. With `--trace 1`, the run makes
one untraced pass and then traced passes, and reports the per-layer metrics.
The difference between the two pass times is the tracing overhead.

Inputs, sweep CSVs, the details and the spans of the last traced pass are
written under `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".perfbench_work")  # relative to ROOT, the working directory
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
STAGES = ("index_solve", "cost_solve", "sweep", "threshold", "theorem", "k7", "small")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100 * (n - 10) / n, "value": sorted(values)[n - 11]}


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    from workloads import sha256_text

    parts = []
    for path in sorted((ROOT / "src" / "sigsolve").glob("*.py")):
        parts.append(f"{path.name}\n{path.read_text(encoding='utf-8')}")
    return sha256_text("\x00".join(parts))


def calibration_s() -> float:
    """Median time of a fixed Fraction loop: how fast this machine is right now.

    Shared machines slow down and speed up while a run goes on; this figure,
    taken before and after the timed section, lets runs be compared against
    that drift.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 5000):
            total += Fraction(i % 97 + 1, i % 89 + 1)
        samples.append(time.perf_counter() - start)
    return median(samples)


def load_reference(workload: str, seed: int) -> dict | None:
    """Digests recorded at the commit that defined the benchmark."""
    table = json.loads((BENCH / "reference.json").read_text(encoding="utf-8")).get(workload, {})
    return table.get(str(seed), table.get("*"))


def build_workload(name: str, seed: int, work: Path):
    from workloads import WORKLOADS

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return WORKLOADS[name](seed, work)


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import sigsolve and build the inputs."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=PROBE_TIMEOUT_S, check=False)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace')[-500:]}")
    return samples


class Session:
    """Runs ops, times them, checks their outputs and counts failures."""

    def __init__(self, workload, reference: dict | None, expected: dict | None = None):
        self.workload = workload
        self.reference = reference
        self.expected = expected  # slot -> digest that every pass must reproduce
        self.samples: dict[str, list[float]] = {op.slot: [] for op in workload.ops}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, op) -> float:
        from workloads import DegenerateDraw

        while True:
            start = time.perf_counter()
            try:
                output = op.run()
            except DegenerateDraw as exc:
                if self.workload.redraw is None:
                    raise RuntimeError(f"{op.slot}: degenerate input and no generator to redraw it") from exc
                self.workload.redraw(op.slot)
                continue
            except Exception:  # a failing operation must not end the run
                elapsed = time.perf_counter() - start
                self.record([f"{op.slot}: {traceback.format_exc(limit=3)}"])
                self.samples[op.slot].append(elapsed)
                return elapsed
            break
        elapsed = time.perf_counter() - start
        self.samples[op.slot].append(elapsed)
        problems = op.check(output)
        digest = op.digest(output)
        previous = self.digests.setdefault(op.slot, digest)
        if digest != previous:
            problems.append(f"{op.slot}: output differs from an earlier pass")
        if self.expected is not None and digest != self.expected.get(op.slot):
            problems.append(f"{op.slot}: output differs from the untraced pass")
        if self.reference is not None and digest != self.reference["outputs"].get(op.slot):
            problems.append(f"{op.slot}: output digest differs from the recorded one")
        self.record(problems)
        return elapsed

    def record(self, problems: list[str]) -> None:
        """Count one checked item; it failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run_pass(self, deadline: float | None = None) -> float:
        """One pass over the ops; with a deadline, stop early once it passes."""
        total = 0.0
        for op in self.workload.ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            total += self.run_op(op)
        return total

    def pass_seconds(self) -> float:
        """One full pass, as the sum of each op's median time."""
        return sum(median(values) for values in self.samples.values())

    def stages(self) -> dict:
        grouped: dict[str, list[float]] = {}
        for op in self.workload.ops:
            grouped.setdefault(op.stage, []).extend(self.samples[op.slot])
        return {
            stage: {"median_s": median(values), "tail": tail(values), "n": len(values)}
            for stage, values in grouped.items()
        }


def first_pass(session: Session) -> None:
    """One full pass, then a check of the inputs against the recorded ones.

    A degenerate draw is replaced during the pass, and the recorded digest is
    the one taken after the replacement, so the inputs are compared only now.
    """
    session.run_pass()
    if session.reference is not None and session.workload.inputs_sha256 != session.reference["inputs"]:
        session.record(["generated inputs differ from the recorded ones for this seed"])


def run_untraced(args, workload, reference) -> tuple[Session, dict, dict]:
    setup = measure_setup(args)
    session = Session(workload, reference)
    deadline = time.perf_counter() + args.seconds
    first_pass(session)
    while time.perf_counter() < deadline:
        session.run_pass(deadline)
    all_samples = [value for values in session.samples.values() for value in values]
    metrics = {
        "wall_s": session.pass_seconds(),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - session.failed / session.attempted,
    }
    detail = {"setup_samples_s": setup, "op_tail": tail(all_samples), "ops": len(all_samples)}
    return session, metrics, detail


def run_traced(args, workload, reference) -> tuple[Session, dict, dict]:
    from tracer import Tracer, counts

    untraced = Session(workload, reference)
    deadline = time.perf_counter() + args.seconds
    first_pass(untraced)
    session = Session(workload, reference, expected=untraced.digests)
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        while not passes or time.perf_counter() < deadline:
            tracer.reset()
            seconds = session.run_pass()
            passes.append((seconds, tracer.layer_metrics()))
    finally:
        tracer.uninstall()
    tracer.dump(WORK / workload.name / "spans.tsv")
    first = passes[0][1]
    for _, later in passes[1:]:
        differing = [k for k, v in counts(first).items() if later[k] != v]
        if differing:
            session.record([f"traced counts differ between passes: {', '.join(differing)}"])
    metrics = {
        name: (median([p[1][name] for p in passes]) if name.endswith("_s") else value)
        for name, value in first.items()
    }
    traced_wall = median([p[0] for p in passes])
    untraced_wall = untraced.pass_seconds()
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    stages = untraced.stages()
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = stages[stage]["median_s"] if stage in stages else 0.0
    session.attempted += untraced.attempted
    session.failed += untraced.failed
    session.problems[:0] = untraced.problems
    detail = {"traced_passes": len(passes), "bindings_patched": tracer.wrapped}
    return session, metrics, detail


def emit(args, session: Session, metrics: dict, detail: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = session.workload
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs_sha256": workload.inputs_sha256,
        "outputs_sha256": session.digests,
        "reference": "recorded" if session.reference is not None else "none for this seed",
        "stages": session.stages(),
        "notes": {k: sorted(v) if isinstance(v, set) else v for k, v in workload.notes.items()},
        "problems": session.problems[:20],
        **detail,
    }
    line = json.dumps({"detail": detail}, sort_keys=True)
    (WORK / workload.name / f"detail-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(line)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "sigsolve" / "__init__.py").is_file() or not (ROOT / "games").is_dir():
        print(f"perfbench: no sigsolve sources under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        build_workload(args.workload, args.seed, WORK / args.workload / "probe")
        return 0
    workload = build_workload(args.workload, args.seed, WORK / args.workload)
    reference = load_reference(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    before = calibration_s()
    session, metrics, detail = runner(args, workload, reference)
    detail["calibration_s"] = {"before": before, "after": calibration_s()}
    emit(args, session, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
