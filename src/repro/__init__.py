"""Reproduction of "Peer-Assisted Content Distribution in Akamai NetSession"
(Zhao et al., IMC 2013).

Subpackages:

* :mod:`repro.core` — the NetSession system (control plane, edge, peers, swarm);
* :mod:`repro.net` — the network substrate (simulator, flows, topology, NAT, geo);
* :mod:`repro.workload` — synthetic population, catalog, demand, behaviour;
* :mod:`repro.baselines` — pure-infrastructure and pure-P2P CDN baselines;
* :mod:`repro.analysis` — the measurement study (every table and figure);
* :mod:`repro.experiments` — the study table: one row (plan + render) per
  table/figure in the paper.
"""

__version__ = "1.0.0"
