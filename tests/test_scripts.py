"""Smoke runs of the scripts in a fresh interpreter, as a user starts them,
and the boundary between the library and its command line front end."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/random_game_audit.py", "--games", "5"],
        ["scripts/beerquiche_pipeline.py", "--help"],
        ["scripts/bench.py", "--help"],
        # the benchmark's tracer contract: exact call counts through every binding
        ["perfbench/selftest.py"],
    ],
)
def test_script_exits_cleanly(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stdout + result.stderr


def test_pipeline_creates_missing_out_dir(tmp_path):
    out_dir = tmp_path / "new" / "dir"
    result = run_script(["scripts/beerquiche_pipeline.py", "--out-dir", str(out_dir)])
    assert result.returncode == 0, result.stderr
    assert (out_dir / "sweep.csv").is_file()


def test_pipeline_rejects_out_dir_that_is_a_file(tmp_path):
    out_file = tmp_path / "taken"
    out_file.write_text("")
    result = run_script(["scripts/beerquiche_pipeline.py", "--out-dir", str(out_file)])
    assert result.returncode == 2
    assert "--out-dir" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv, option",
    [
        (["scripts/random_game_audit.py", "--max-size", "1"], "--max-size"),
        # the tests directory holds no BENCHMARK.json
        (["scripts/bench.py", "tests", ".", "--seeds", "1", "--out", "unused.json"], "BENCHMARK.json"),
    ],
)
def test_script_rejects_bad_arguments_with_usage_error(argv, option):
    result = run_script(argv)
    assert result.returncode == 2, result.stdout + result.stderr
    assert option in result.stderr
    assert "Traceback" not in result.stderr


def test_beerquiche_pipeline_matches_golden(tmp_path):
    """Stdout and sweep.csv of a run in a fresh directory with the default
    --out-dir; this pins `duplicate_containment_check` on the zero-cost form,
    whose components carry duplicated receiver classes."""
    result = run_script([str(ROOT / "scripts/beerquiche_pipeline.py")], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "beerquiche_pipeline.stdout.txt").read_text(encoding="utf-8")
    assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / "beerquiche_pipeline.sweep.csv").read_bytes()


def test_cli_exits_quietly_when_its_reader_leaves(tmp_path):
    """`sigsolve solve ... | head -1`: stdout closes before the command prints."""
    stderr_path = tmp_path / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigsolve.cli", "solve", "games/beerquiche.sg", "--components", "--index"],
            cwd=ROOT,
            env=script_env(),
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        proc.stdout.close()
        status = proc.wait(timeout=120)
    assert "Traceback" not in stderr_path.read_text()
    assert status == 1


def test_package_runs_as_a_module():
    """`python -m sigsolve` is the console script without installing it."""
    result = run_script(["-m", "sigsolve", "solve", "games/beerquiche.sg", "--components", "--index"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "beerquiche.solve_components_index.txt").read_text(encoding="utf-8")


def test_importing_the_package_leaves_the_front_end_unloaded():
    probe = "import sys, sigsolve; print(sorted({'sigsolve.cli', 'argparse', 'csv'} & set(sys.modules)))"
    result = run_script(["-c", probe])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def imports(path: Path, module: str) -> bool:
    """Whether the source file imports sigsolve's `module` or a name from it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # `from .cli import x`, `from . import cli` and `from sigsolve import cli` all name it
            source = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            targets = {source, *(f"{source}{sep}{alias.name}" for alias in node.names)}
        elif isinstance(node, ast.Import):
            targets = {alias.name for alias in node.names}
        else:
            continue
        if targets & {f".{module}", f"sigsolve.{module}"}:
            return True
    return False


def test_no_library_module_imports_the_front_end():
    """Only `__main__` may import `.cli`; the library below it knows nothing of it."""
    paths = sorted((ROOT / "src" / "sigsolve").glob("*.py"))
    assert [path.name for path in paths if imports(path, "cli")] == ["__main__.py"]


def test_the_sweep_layer_imports_nothing_from_indices():
    """`sweep` sweeps a component the caller resolved; whether its index
    carries the theorem's guarantee is the caller's to decide."""
    assert imports(ROOT / "src" / "sigsolve" / "cli.py", "indices")
    assert not imports(ROOT / "src" / "sigsolve" / "sweep.py", "indices")


def cache_bypasses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
            found.append(f"line {node.lineno}: vars()")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"line {node.lineno}: __dict__")
    return found


def test_no_library_module_writes_an_object_cache():
    """A cached property is computed by its own object from its own fields:
    no module reaches into an object's `__dict__`, by `vars()` or by name."""
    assert sorted(cache_bypasses(ast.parse("vars(g).update(a=1)\ng.__dict__['a'] = 1\n"))) == [
        "line 1: vars()",
        "line 2: __dict__",
    ]
    paths = sorted((ROOT / "src" / "sigsolve").glob("*.py"))
    found = {path.name: cache_bypasses(ast.parse(path.read_text(encoding="utf-8"))) for path in paths}
    assert paths and not any(found.values()), found


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_script(argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=script_env(), capture_output=True, text=True, timeout=120
    )
