"""Every module under ``src/repro`` is reachable from an entry point, and
every class in it is referenced.

The entry points are the CLI (which imports the experiment table and so
every module that renders a row), the scale curve behind ``repro scale``
and the fuzzer.  A module none of them
imports is code no user can run; it should be deleted, not kept alive by
its own tests.  The check runs in a fresh interpreter so modules the test
session already imported cannot mask a gap.

A call census cannot see a dataclass that nothing constructs: its
generated ``__init__`` is compiled from a string, outside ``src``.  So a
class is also checked statically: some code under ``src/repro`` outside
its own ``class`` statement must name it (or read it as an attribute).
``__all__`` strings and imports do not count.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import repro

from tests.conftest import env_with_src

SCRIPT = """
import pathlib, sys
import repro, repro.cli, repro.fuzz
import repro.experiments.exp_scale
root = pathlib.Path(repro.__file__).parent
for path in sorted(root.rglob("*.py")):
    parts = ("repro",) + path.relative_to(root).with_suffix("").parts
    name = ".".join(parts).removesuffix(".__init__")
    if name != "repro.__main__" and name not in sys.modules:
        print(name)
"""


def test_every_module_is_imported_by_an_entry_point():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env_with_src())
    assert done.returncode == 0, done.stderr
    unreachable = done.stdout.split()
    assert unreachable == [], f"modules no entry point imports: {unreachable}"


def unreferenced_classes(root: pathlib.Path) -> list[str]:
    """``path:line Name`` of each class under ``root`` that no ``Name`` or
    ``Attribute`` node outside its own ``class`` statement mentions."""
    classes, refs = [], {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes.append((path, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path, node.lineno))
    return [f"{path.relative_to(root)}:{cls.lineno} {cls.name}"
            for path, cls in classes
            if all(p == path and cls.lineno <= line <= cls.end_lineno
                   for p, line in refs.get(cls.name, ()))]


def test_every_class_is_referenced():
    root = pathlib.Path(repro.__file__).parent
    unused = unreferenced_classes(root)
    assert unused == [], f"classes nothing under src/repro refers to: {unused}"


def test_the_class_guard_flags_a_planted_class(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['Used', 'Planted']\n"
        "class Used:\n    pass\n"
        "class Planted:\n"
        "    def clone(self) -> 'Planted':\n"
        "        return Planted()\n")
    (tmp_path / "b.py").write_text(
        "from a import Planted, Used\n"
        "class Sub(Used):\n    pass\n"
        "def make():\n    return Sub()\n")
    assert unreferenced_classes(tmp_path) == ["a.py:4 Planted"]
