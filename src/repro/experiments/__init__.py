"""The measurement study as one table; see DESIGN.md's experiment index.

``EXPERIMENTS`` maps each experiment name to an
:class:`~repro.experiments.common.Experiment` row: the scenario configs it
reads (``plan``), the analysis that renders their artifacts (``render``)
and an optional pinned scale.  :func:`run_experiment` resolves a row's plan
through the active orchestrator and renders it; a batch (``repro
run/study``) resolves every row's plan first, across the process pool, and
then renders in order from cache hits.
"""

from repro.experiments import (
    common, exp_adversarial_resilience, exp_baselines, exp_blackout_recovery,
    exp_device_tiers, exp_fault_matrix, exp_lan_updates, exp_managed_swarm,
    exp_vod_policies, paper, variants,
)
from repro.experiments.common import (
    Experiment, ExperimentOutput, standard_config,
)

__all__ = ["EXPERIMENTS", "Experiment", "ExperimentOutput", "run_experiment",
           "standard_config"]

#: Every experiment of the study, in ``repro study`` order.
EXPERIMENTS: dict[str, Experiment] = {
    "exp_table1": paper.TABLE1,
    "exp_table2": paper.TABLE2,
    "exp_table3": paper.TABLE3,
    "exp_table4": paper.TABLE4,
    "exp_fig2": paper.FIG2,
    "exp_fig3": paper.FIG3,
    "exp_fig4": paper.FIG4,
    "exp_fig5": variants.FIG5,
    "exp_fig6": paper.FIG6,
    "exp_fig7": paper.FIG7,
    "exp_fig8": paper.FIG8,
    "exp_fig9": paper.FIG9,
    "exp_fig10": paper.FIG10,
    "exp_fig11": paper.FIG11,
    "exp_fig12": paper.FIG12,
    "exp_offload": paper.OFFLOAD,
    "exp_reliability": paper.RELIABILITY,
    "exp_mobility": paper.MOBILITY,
    "exp_baselines": exp_baselines.ROW,
    "exp_ablation_locality": variants.ABLATION_LOCALITY,
    "exp_ablation_backstop": variants.ABLATION_BACKSTOP,
    "exp_lan_updates": exp_lan_updates.ROW,
    "exp_ablation_prefetch": variants.ABLATION_PREFETCH,
    "exp_managed_swarm": exp_managed_swarm.ROW,
    "exp_fault_matrix": exp_fault_matrix.ROW,
    "exp_blackout_recovery": exp_blackout_recovery.ROW,
    "exp_vod_policies": exp_vod_policies.ROW,
    "exp_adversarial_resilience": exp_adversarial_resilience.ROW,
    "exp_device_tiers": exp_device_tiers.ROW,
}


def run_experiment(name: str, scale: str = "small",
                   seed: int = 42) -> ExperimentOutput:
    """Resolve row ``name``'s plan and render it.

    The plan goes through the active orchestrator (memory, then disk,
    then a run), so a batch that resolved it beforehand renders from cache
    hits.  The output is named after the row, without its ``exp_`` prefix.
    """
    row = EXPERIMENTS[name]
    artifacts = common._RUNNER.run_many(row.plan(row.scale_for(scale), seed))
    output = row.render(artifacts, seed)
    output.name = name.removeprefix("exp_")
    return output
