"""One peer universe: every peer is a row of the system's population store.

A system owns its store from construction, with zero rows.  Population
synthesis grows it in bulk and ``create_peer`` appends one live row, so
scripted casts, unit-test peers and synthesized installs are enumerated
the same way.  The guard at the bottom keeps ``src/`` from growing a
second universe back: no ``_store_index`` tag, no "is there a store?"
branch.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core.system import NetSessionSystem
from repro.workload.population import PopulationConfig, build_population


def test_a_scripted_cast_is_the_universe_in_creation_order():
    system = NetSessionSystem(seed=3)
    assert system.peer_count_total() == 0
    assert system.peer_universe() == [] and system.iter_peer_nodes() == []
    cast = [system.create_peer() for _ in range(5)]

    assert system.iter_peer_nodes() == cast
    assert [p.guid for p in system.peer_universe()] == [p.guid for p in cast]
    assert all(handle.link is node.link
               for handle, node in zip(system.peer_universe(), cast))
    assert system.peer_count_total() == len(system.population_store) == 5
    assert [p.link.uplink.name for p in cast] == \
        [f"peer{i}/up" for i in range(5)]


def test_create_peer_after_a_build_lands_on_the_next_row():
    system = NetSessionSystem(seed=3)
    build_population(system, [], PopulationConfig(n_peers=40))
    store = system.population_store
    assert len(store) == 40 and store.materialized_count() == 0

    extra = system.create_peer()
    assert len(store) == system.peer_count_total() == 41
    assert store.handle(40).guid == extra.guid
    assert extra.link.downlink.name == "peer40/down"
    # The appended row is live; the bulk rows stay dormant.
    assert system.iter_peer_nodes() == [extra]
    assert store.materialized_count() == 1
    node = store.materialize(3)
    assert system.iter_peer_nodes() == [node, extra]
    assert node.link.uplink.name == "peer3/up"


def test_appends_grow_the_columns_geometrically():
    system = NetSessionSystem(seed=3)
    store = system.population_store
    capacities = set()
    for _ in range(100):
        system.create_peer()
        capacities.add(len(store.peer_seeds))
    assert len(store) == 100
    assert sorted(capacities) == [16, 32, 64, 128]


def test_a_bulk_build_allocates_exactly_its_rows():
    system = NetSessionSystem(seed=3)
    build_population(system, [], PopulationConfig(n_peers=1000))
    store = system.population_store
    assert len(store.peer_seeds) == len(store.tz) == len(store) == 1000


# ------------------------------------------------------------------ the guard

def _second_universe(tree: ast.AST):
    """``lineno`` of every ``_store_index`` mention and every comparison of
    ``population_store`` or ``.store`` with None."""
    def names_a_store(node):
        return (isinstance(node, ast.Attribute)
                and node.attr in ("store", "population_store")
                or isinstance(node, ast.Name)
                and node.id in ("store", "population_store"))

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_store_index" \
                or isinstance(node, ast.Name) and node.id == "_store_index":
            yield node.lineno
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(names_a_store, sides)) and any(map(is_none, sides)):
                yield node.lineno


def test_src_keeps_one_peer_universe():
    root = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(root)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        for lineno in _second_universe(ast.parse(path.read_text()))
    ]
    assert not offenders, (
        "a second peer universe (every peer is a row of the system's "
        "population store):\n  " + "\n  ".join(offenders))


def test_the_guard_sees_every_spelling():
    source = (
        "a = system.population_store is None\n"
        "b = None is not pop.store\n"
        "c = store == None\n"
        "node._store_index = 3\n"
        "d = _store_index\n"
        "e = pop.store is other\n"
        "f = self.store_count is None\n")
    assert sorted(_second_universe(ast.parse(source))) == [1, 2, 3, 4, 5]
