"""The repo's performance benchmark (see ``README.md`` in this directory).

Four named workloads run through ``repro.runner.run_scenario_artifact``;
end-to-end metrics come from untraced repetitions, per-layer metrics from a
separate traced repetition instrumented entirely from outside ``src/``.
"""
