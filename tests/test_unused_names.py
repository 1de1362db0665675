"""A stdlib stand-in for a linter's unused-name checks over `src/gtvv`.

Each module (not `__init__.py`, which only re-exports) must reference every
name it imports and every module-level `_PRIVATE` constant it defines.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gtvv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_names(source: str) -> list:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"):
                    defined[name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id)):
                    defined[target.id] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_or_private_constants(path):
    assert unused_names(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = ("import os\nfrom math import pi, tau\n_LIMIT = 3\n"
              "_Lower = 1\nx = tau\n")
    assert unused_names(source) == ["_LIMIT (line 3)", "os (line 1)",
                                    "pi (line 2)"]
