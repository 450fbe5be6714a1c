"""One runner per paper table/figure; see DESIGN.md's experiment index.

Each ``exp_*`` module exposes ``run(scale, seed) -> ExperimentOutput``.
Modules whose scenario needs differ from "one standard trace" also expose
``configs(scale, seed) -> list[ScenarioConfig]`` — the orchestrator's
prefetch planner (see :func:`planned_configs`) uses it to fan scenario
runs out across the process pool before the runners render serially.
"""

from repro.experiments.common import (
    ExperimentOutput, scenario_result, standard_config, standard_result,
)

__all__ = ["ExperimentOutput", "standard_config", "standard_result",
           "scenario_result", "planned_configs", "effective_scale",
           "ALL_EXPERIMENTS"]

#: Importable names of all experiment modules, for the run-everything example.
ALL_EXPERIMENTS = [
    "exp_table1", "exp_table2", "exp_table3", "exp_table4",
    "exp_fig2", "exp_fig3", "exp_fig4", "exp_fig5", "exp_fig6", "exp_fig7",
    "exp_fig8", "exp_fig9", "exp_fig10", "exp_fig11", "exp_fig12",
    "exp_offload", "exp_reliability", "exp_mobility",
    "exp_baselines", "exp_ablation_locality", "exp_ablation_backstop",
    "exp_lan_updates", "exp_ablation_prefetch", "exp_managed_swarm",
    "exp_fault_matrix", "exp_blackout_recovery", "exp_vod_policies",
    "exp_adversarial_resilience", "exp_device_tiers",
]

#: The §6.2 analyses: they need the long, mobility-heavy trace.
_MOBILITY_EXPERIMENTS = {"exp_mobility", "exp_fig12"}


def effective_scale(name: str, scale: str) -> str:
    """The scale experiment ``name`` runs at when ``scale`` is asked for.

    The mobility experiments always run on the ``mobility`` trace; every
    other experiment runs at the requested scale.
    """
    return "mobility" if name in _MOBILITY_EXPERIMENTS else scale


def planned_configs(name: str, scale: str, seed: int) -> list:
    """The scenario configs one experiment will resolve, for prefetching.

    Uses the module's ``configs(scale, seed)`` planner when it defines
    one; the default is the single standard trace at the given scale.
    Experiments that run no scenario (the managed-swarm model) declare an
    empty plan so the prefetch never runs a trace they will not read.
    """
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    planner = getattr(module, "configs", None)
    if planner is not None:
        return list(planner(scale, seed))
    return [standard_config(scale, seed)]
