"""No float enters a computation: a syntax-level lint over the package source,
the float-free scripts and the test oracles in `tests/helpers.py`.

Fails on a float literal, on any use of the name `float`, and on `math`
functions other than the integer ones.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# scripts/bench.py times runs, so it is left out.
SOURCES = sorted((ROOT / "src" / "sigsolve").glob("*.py")) + [
    ROOT / "scripts" / "beerquiche_pipeline.py",
    ROOT / "scripts" / "random_game_audit.py",
    ROOT / "tests" / "helpers.py",
]
INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "prod"}


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                f"line {node.lineno}: from math import {alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            )
    return found


def test_lint_sees_every_kind_of_inexact_code():
    assert SOURCES, "no package sources found"
    source = "import math\nfrom math import sqrt, gcd\nx = 0.5 + float(1) + math.sqrt(2) + math.gcd(4, 6)\n"
    assert sorted(inexact_nodes(ast.parse(source))) == [
        "line 2: from math import sqrt",
        "line 3: float literal 0.5",
        "line 3: math.sqrt",
        "line 3: name float",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_source_is_exact(path):
    assert inexact_nodes(ast.parse(path.read_text(encoding="utf-8"))) == []
