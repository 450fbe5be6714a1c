"""One way to build a run: every simulation under ``src/`` is a ScenarioConfig.

The fault drill and the scripted experiments used to assemble their own
:class:`~repro.core.system.NetSessionSystem`, which kept them out of the
fingerprint, the result cache, the process pool and the fuzzer.  They are
:class:`~repro.workload.script.Script` configs now; this guard pins that
only the scenario driver constructs a system.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

#: The one module (relative to ``src/repro``) that may build a system.
BUILDER = "workload/scenario.py"


def _system_constructions(tree: ast.AST):
    """Line numbers of every ``NetSessionSystem(...)`` call, bare or dotted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "NetSessionSystem":
                yield node.lineno


def test_only_the_scenario_driver_builds_a_system():
    root = Path(repro.__file__).resolve().parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        lines = list(_system_constructions(ast.parse(path.read_text())))
        if lines:
            found[path.relative_to(root).as_posix()] = lines
    assert list(found) == [BUILDER], (
        "NetSessionSystem built outside the scenario driver (express the "
        f"run as a ScenarioConfig, scripted if need be): {found}")


def test_the_guard_sees_both_spellings():
    source = ("from repro.core import system\n"
              "a = NetSessionSystem(seed=1)\n"
              "b = system.NetSessionSystem()\n"
              "c = NetSessionSystemStats()\n")
    assert list(_system_constructions(ast.parse(source))) == [2, 3]
