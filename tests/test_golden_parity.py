"""Golden-seed parity: experiment output pinned byte-for-byte.

The allocation engine's hard constraint is that batching must not move a
single float in the fixed-seed experiment pipeline.  These goldens were
rendered by the pre-batching per-mutation engine; the current engine must
reproduce them exactly.  If an intentional modelling change breaks them,
regenerate with::

    PYTHONPATH=src python -c "
    from repro.experiments import exp_table1, exp_fig4
    open('tests/golden/exp_table1_small_seed42.txt', 'w').write(exp_table1.run('small', 42).text)
    open('tests/golden/exp_fig4_small_seed42.txt', 'w').write(exp_fig4.run('small', 42).text)"
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import exp_fig4, exp_table1

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("module, golden", [
    (exp_table1, "exp_table1_small_seed42.txt"),
    (exp_fig4, "exp_fig4_small_seed42.txt"),
])
def test_small_scale_output_is_byte_identical(module, golden):
    expected = (GOLDEN_DIR / golden).read_text()
    assert module.run("small", 42).text == expected


@pytest.mark.parametrize("store", ["object", "columnar"])
def test_goldens_are_store_independent(store, monkeypatch):
    """Both population stores must reproduce the goldens exactly.

    The goldens were rendered by the eager object-graph population; the
    columnar store's contract is byte-identical traces, so the same bytes
    must come out whichever store the ``auto`` default resolves to.
    """
    monkeypatch.setenv("REPRO_POPULATION_STORE", store)
    expected = (GOLDEN_DIR / "exp_table1_small_seed42.txt").read_text()
    assert exp_table1.run("small", 42).text == expected
