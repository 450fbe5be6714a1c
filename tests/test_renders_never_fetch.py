"""Renders never fetch a scenario: the runner hands them their plan.

An experiment row declares the configs it reads (``plan``) and gets their
artifacts in plan order (``render``); :func:`repro.experiments.run_experiment`
resolves the plan through the active orchestrator.  A render that fetched
a scenario on its own would run outside the batch's prefetch, so the plan
would no longer be what the study runs.  This guard pins that no module
under ``repro/experiments`` calls a scenario runner or cache accessor,
except the ``repro scale`` driver, which is not a row: it times uncached
runs on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.experiments

#: Callables that resolve or run a scenario.  ``run_scenario*`` covers
#: ``run_scenario`` and ``run_scenario_artifact``.
FETCHERS = ("scenario_result", "standard_result", "prefetch", "run_scenario")

#: The scaling-curve driver behind ``repro scale`` (not a row).
TIMING_DRIVER = "exp_scale.py"


def _fetches(tree: ast.AST):
    """``(line, name)`` of every call to a fetcher, bare or dotted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", "")
            if name in FETCHERS[:3] or name.startswith(FETCHERS[3]):
                yield node.lineno, name


def test_no_experiment_module_fetches_a_scenario():
    package = Path(repro.experiments.__file__).resolve().parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name == TIMING_DRIVER:
            continue
        calls = list(_fetches(ast.parse(path.read_text())))
        if calls:
            found[path.name] = calls
    assert found == {}, (
        "experiment modules that fetch a scenario (declare it in the row's "
        f"plan and read it from the render's artifacts instead): {found}")


def test_the_guard_sees_every_spelling():
    source = ("a = scenario_result(cfg)\n"
              "b = common.standard_result('small', 42)\n"
              "c = prefetch([cfg])\n"
              "d = runner.run_scenario_artifact(cfg)\n"
              "e = run_scenario(cfg)\n"
              "f = run_scenarios_later\n"
              "g = render_prefetch_table(cfg)\n")
    assert list(_fetches(ast.parse(source))) == [
        (1, "scenario_result"), (2, "standard_result"), (3, "prefetch"),
        (4, "run_scenario_artifact"), (5, "run_scenario")]
