"""``BENCHMARK.json`` is the registry written out, inside the contract's
limits; ``--compare`` classifies rows as the README says."""

import json
import re
from pathlib import Path

from benchmarks.perf import cli
from benchmarks.perf.metrics import END_TO_END, PER_LAYER, manifest
from benchmarks.perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def committed():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_registry():
    assert committed() == manifest(
        WORKLOADS.values(),
        command=["python3", "benchmarks/perf/run.py"],
        paths=["benchmarks/perf"],
        run_seconds=cli.RUN_SECONDS,
    )


def test_contract_limits():
    doc = committed()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s; a run ends
    # within a few seconds of its budget (start-up, checks, the last pass).
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 6) < 3420


def test_every_per_layer_metric_names_an_end_to_end_target():
    targets = {m.name for m in END_TO_END}
    assert all(m.moves in targets for m in PER_LAYER)


def summary(wall, digest="d", failed_outcomes=0.01):
    from benchmarks.perf.harness import summarize as sample

    end_to_end = {m.name: sample([1.0, 1.0, 1.0]) for m in END_TO_END}
    end_to_end["wall_s"] = sample(list(wall))
    return {"workloads": {"w": {
        "end_to_end": end_to_end, "digests": {"42": digest}, "events": 1,
        "downloads": 1, "failed_share": 0.0,
        "failed_outcome_share": failed_outcomes}}}


def status(a, b, metric="wall_s"):
    rows = cli.compare_rows(a, b)
    return next(r["status"] for r in rows if r["metric"] == metric)


def test_compare_ok_worse_unresolved():
    base = summary([1.00, 1.01, 1.02])
    assert status(base, summary([1.00, 1.02, 1.03])) == "ok"
    assert status(base, summary([1.30, 1.31, 1.32])) == "worse"
    # Median inside the bound, but B's quartiles are further apart than it.
    assert status(base, summary([0.80, 1.05, 1.40])) == "unresolved"
    # A wide spread is still a clear win when every B run beats every A run.
    assert status(base, summary([0.50, 0.70, 0.90])) == "ok"


def test_compare_flags_a_changed_trace(tmp_path, capsys):
    assert status(summary([1.0]), summary([1.0], digest="e"),
                  "trace_digest") == "differs"
    assert status(summary([1.0]), summary([1.0]), "trace_digest") == "ok"
    more_fail = summary([1.0], failed_outcomes=0.02)
    assert status(summary([1.0]), more_fail, "failed_outcome_share") == "worse"
    assert status(more_fail, summary([1.0]), "failed_outcome_share") == "ok"

    # Either kind of difference makes the command exit non-zero.
    paths = {}
    for name, doc in (("a", summary([1.0])), ("same", summary([1.0])),
                      ("digest", summary([1.0], digest="e")),
                      ("fails", more_fail)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))

    def exit_code(other):
        return cli.main(["--compare", str(paths["a"]), str(paths[other])])

    assert exit_code("same") == 0
    assert exit_code("digest") == 1
    assert exit_code("fails") == 1
    assert "differs" in capsys.readouterr().out
