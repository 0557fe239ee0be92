"""Every name a module imports is used, every private function or class of
the package is referenced in it, every seed stream is drawn from, and every
package name the benchmark harness imports resolves: a stale import, helper
or stream, or a dangling benchmark import, fails the suite. Importing the
CLI stays cheap: numpy.random loads only when a command draws."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fronthaul_planner
from fronthaul_planner.seeds import STREAMS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/fronthaul_planner/*.py"))
MODULES = sorted([*SOURCES, *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """Names bound by import statements and never read; __all__ counts as use."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.x\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_defs(sources):
    """Private (_name, not __dunder__) functions and classes defined in the
    sources whose name no other node of the sources reads: as a name, an
    attribute or an imported name."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(defined - used)


def test_unreferenced_private_defs_are_found():
    sources = ["def _a(): pass\ndef _b(): pass\nclass _C: pass\n"
               "def __init__(self): pass\n_b()\n",
               "from m import _C\n"]
    assert unreferenced_private_defs(sources) == ["_a"]


def test_every_private_def_is_referenced():
    assert unreferenced_private_defs([p.read_text() for p in SOURCES]) == []


def drawn_streams(sources):
    """The stream argument of every derive_rng call in the sources: its
    string, or None where it is not a string literal."""
    streams = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "derive_rng"):
                args = node.args[1:2] + [kw.value for kw in node.keywords
                                         if kw.arg == "stream"]
                streams += [arg.value if isinstance(arg, ast.Constant) else None
                            for arg in args]
    return streams


def test_drawn_streams_are_found():
    sources = ['derive_rng(1, "a")\nderive_rng(s, "b", index=2)\n',
               'derive_rng(s, stream="c")\nderive_rng(s, name)\nrng("d")\n']
    assert drawn_streams(sources) == ["a", "b", "c", None]


def test_every_stream_is_drawn_and_tags_are_unique():
    # a stream that nothing draws from must leave STREAMS, and no two
    # streams share a tag
    drawn = drawn_streams([p.read_text() for p in SOURCES])
    assert None not in drawn
    assert set(drawn) == set(STREAMS)
    assert len(set(STREAMS.values())) == len(STREAMS)


def test_every_exported_name_resolves():
    assert [name for name in fronthaul_planner.__all__
            if not hasattr(fronthaul_planner, name)] == []


def package_imports(sources):
    """(module, name) of every name imported from the package in the
    sources: 'from fronthaul_planner[.module] import name', at any depth."""
    return [(node.module, alias.name)
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "fronthaul_planner"
            for alias in node.names]


def test_package_imports_are_found():
    source = ("from fronthaul_planner.config import a, b as c\nimport os\n"
              "def f():\n    from fronthaul_planner import d\n"
              "from fronthaul_planner_x import e\n")
    assert package_imports([source]) == [("fronthaul_planner.config", "a"),
                                         ("fronthaul_planner.config", "b"),
                                         ("fronthaul_planner", "d")]


def test_every_name_the_benchmark_imports_resolves():
    # a name or a submodule: a deletion in src/ that the benchmark harness
    # still imports fails here, not first in a benchmark run
    missing = []
    for module, name in package_imports(
            [p.read_text() for p in sorted(ROOT.glob("bench/*.py"))]):
        try:
            exec(f"from {module} import {name}", {})
        except ImportError:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random and one PCG64 take 14-20 ms to set up, paid by every run
    # that draws nothing (grid, surface, tradeoff and optimize by default);
    # concurrent.futures pulls in logging, about 5 ms, used by validate only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fronthaul_planner.cli; "
         "print([m in sys.modules for m in ('numpy.random', 'concurrent.futures')])"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[False, False]\n"), proc.stderr
