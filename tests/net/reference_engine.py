"""The per-mutation flow engine: the oracle the batched engine is held to.

:class:`repro.net.flows.FlowNetwork` defers settlement to one pass per
simulator event.  This subclass settles after *every* mutation and once
more between detaching a completion tick's finished flows and firing their
callbacks — the engine ``net.flows`` shipped before batching, which the
goldens were rendered by.  It changes the settlement policy only: the
dirty-set walk, the water-filling kernel and the completion heap are the
production ones.

Test code, not a setting: ``tests/net/test_flow_batching.py`` runs the same
mutation schedules through both engines, and ``benchmarks/test_simcore.py``
measures the production engine against this one.
"""

from __future__ import annotations

from repro.net.flows import Flow, FlowNetwork

__all__ = ["PerMutationFlowNetwork"]


class PerMutationFlowNetwork(FlowNetwork):
    """Settles immediately, whatever the batch depth or event context."""

    def _maybe_settle(self) -> None:
        self.flush()

    def _retire_finished(self) -> list[Flow]:
        finished = super()._retire_finished()
        self.flush()
        return finished
