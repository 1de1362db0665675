"""A stdlib stand-in for a linter's unused-name checks over `src/gtvv`.

Each module (not `__init__.py`, which only re-exports) must reference every
name it imports and every module-level `_PRIVATE` constant it defines.
Each parameter with a default of a module-level function, and each field
with a default of a module-level dataclass, must be passed by at least one
call in `src/gtvv` or `perfbench/`: an option that no caller sets is a
constant. Each public function, class and method must be read there
too: a name that only the tests read belongs in the tests.
"""

import ast
import math
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gtvv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted(SRC.glob("*.py")) + sorted(
    (SRC.parents[1] / "perfbench").rglob("*.py"))


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


def _name(node):
    """`name` of an `ast` node `name` or `module.name`, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _init_fields(node: ast.ClassDef) -> list:
    """The `__init__` parameters of a dataclass, in order, as (name, has a
    default): its annotated fields but the `ClassVar`s and the
    `field(init=False)`s."""
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        kind = stmt.annotation
        if isinstance(kind, ast.Subscript):  # ClassVar[...]
            kind = kind.value
        if _name(kind) == "ClassVar":
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            fields.append((stmt.target.id, bool(
                keywords.keys() & {"default", "default_factory"})))
        else:
            fields.append((stmt.target.id, value is not None))
    return fields


def unset_options(defining: list, calling: list) -> list:
    """`function.parameter` for each defaulted parameter of a module-level
    function, and `Class.field` for each defaulted `__init__` field of a
    module-level dataclass, in the `defining` sources that no call in the
    `calling` sources passes, by position or keyword. Calls match by the
    called name (`f(...)` or `module.f(...)`); `*args` or `**kwargs` pass
    everything."""
    passed = {}  # name -> [most positional arguments, keyword names]
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            count, keywords = passed.setdefault(name, [0, set()])
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = math.inf
            passed[name][0] = max(count, len(node.args))
            keywords.update(k.arg or "**" for k in node.keywords)
    unset = []
    for source in defining:
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                options = [(name, i) for i, (name, default)
                           in enumerate(_init_fields(node)) if default]
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                options = [(a.arg, i) for i, a in enumerate(positional)
                           if i >= first]
                options += [(a.arg, math.inf) for a, d in zip(
                    args.kwonlyargs, args.kw_defaults) if d is not None]
            else:
                continue
            count, keywords = passed.get(node.name, [0, set()])
            unset += [f"{node.name}.{arg}" for arg, i in options
                      if count <= i and not keywords & {arg, "**"}]
    return sorted(unset)


def unread_names(defining: list, reading: list) -> list:
    """Each public module-level function or class of the `defining`
    sources whose name no `ast.Name` or `ast.Attribute` load in the
    `reading` sources reads, and each public method (as `Class.method`)
    whose name no `ast.Attribute` load reads.

    Names match by themselves alone, so a method escapes when a same-named
    method or module attribute elsewhere is read: a second `to_json`
    behind `EstimateSet.to_json`, say.
    """
    names, attributes = set(), set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unread = []
    for source in defining:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node.name, names | attributes)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m.name, attributes)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)]
            unread += [label for label, name, read in members
                       if not name.startswith("_") and name not in read]
    return sorted(unread)


# Read by no program path, and kept: the closed-form GTVV and the relative
# wavefronts it takes are the paper's model and criterion 1's subject.
MODEL_ONLY = {"gtvv_closed_form", "relative_wavefronts"}


def test_every_public_name_has_a_reader():
    defining = [p.read_text(encoding="utf-8") for p in MODULES]
    reading = [p.read_text(encoding="utf-8") for p in CALLERS]
    unread = unread_names(defining, reading)
    assert [name for name in unread if name not in MODEL_ONLY] == []


def test_checker_flags_unread_names():
    defining = ("def f():\n    pass\n"
                "def g():\n    pass\n"
                "def _h():\n    pass\n"
                "class C:\n    def m(self):\n        pass\n"
                "    def n(self):\n        pass\n"
                "    def _p(self):\n        pass\n"
                "class D:\n    def m(self):\n        pass\n"
                "class E:\n    pass\n"
                "class F:\n    def k(self):\n        pass\n"
                "def k():\n    pass\n")
    # F.k is not read through the module-level k() that shares its name
    reading = "f()\nx = C()\nx.m()\ng = 1\nx.n = 2\nF\nk()\n"
    assert unread_names([defining], [reading]) == ["C.n", "D", "E", "F.k",
                                                   "g"]


# Set by no program path, and kept: criterion 3's test
# (`test_acceptance.py::test_criterion_3_estimator_fidelity`) compares the
# estimator over 4 x 12 and 8 x 24 segments.
TEST_VARIED = {"EstimatorConfig.seg_count", "EstimatorConfig.frames_per_seg"}


def test_every_option_is_set_by_some_caller():
    sources = [p.read_text(encoding="utf-8") for p in CALLERS]
    defining = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    unset = unset_options(defining, sources)
    assert [name for name in unset if name not in TEST_VARIED] == []
    # each allowed field exists and is unset
    assert TEST_VARIED <= set(unset)


def test_checker_flags_unset_options():
    defining = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                "def g(x=0):\n    pass\n"
                "def h(y=0, z=0):\n    pass\n"
                "def k(w=0):\n    pass\n"
                "class C:\n    def m(self, v=1):\n        pass\n")
    calling = "f(0, 1)\nmod.f(0, e=5)\nh(*ys)\nk(**kw)\nC().m()\n"
    assert unset_options([defining], [calling]) == ["f.c", "f.d", "g.x"]


def test_checker_flags_unset_fields():
    defining = ("from dataclasses import dataclass, field\n"
                "from typing import ClassVar\n"
                "import dataclasses, typing\n"
                "@dataclass(frozen=True)\n"
                "class A:\n"
                "    k: ClassVar[int] = 1\n"
                "    t: typing.ClassVar[int] = 2\n"
                "    a: int\n"
                "    r: int = field(repr=False)\n"
                "    b: int = 1\n"
                "    d: int = field(init=False)\n"
                "    c: list = field(default_factory=list)\n"
                "    e: int = 2\n"
                "@dataclasses.dataclass\n"
                "class B:\n"
                "    x: int = 0\n"
                "    y: int = 0\n"
                "@dataclass\n"
                "class K:\n"
                "    z: int = 0\n"
                "class P:\n"
                "    p: int = 0\n")
    # A's positions: a 0, r 1, b 2, c 3, e 4
    calling = "A(0, 1, 2, e=3)\nB(y=1)\nK(**kw)\n"
    assert unset_options([defining], [calling]) == ["A.c", "B.x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_or_private_constants(path):
    assert unused_names(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = ("import os\nfrom math import pi, tau\n_LIMIT = 3\n"
              "_Lower = 1\nx = tau\n")
    assert unused_names(source) == ["_LIMIT (line 3)", "os (line 1)",
                                    "pi (line 2)"]
