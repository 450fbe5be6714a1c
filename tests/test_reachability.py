"""Every module under ``src/repro`` is reachable from an entry point.

The entry points are the CLI (which imports the experiment table and so
every module that renders a row), the scale curve behind ``repro scale``
and the fuzzer.  A module none of them
imports is code no user can run; it should be deleted, not kept alive by
its own tests.  The check runs in a fresh interpreter so modules the test
session already imported cannot mask a gap.
"""

from __future__ import annotations

import subprocess
import sys

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
