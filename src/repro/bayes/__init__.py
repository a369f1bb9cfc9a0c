"""Bayesian-network substrate: CPTs, networks and the MUNIN-like
generator used by the Gibbs and TMorph workloads.  The reference sampler,
exact inference and moralization the workloads are checked against live
in ``tests/oracles.py``."""

from .cpt import CPT, deterministic_cpt, random_cpt
from .munin import MUNIN_EDGES, MUNIN_PARAMS, MUNIN_VERTICES, munin_like
from .network import BayesianNetwork

__all__ = [
    "BayesianNetwork", "CPT", "MUNIN_EDGES", "MUNIN_PARAMS",
    "MUNIN_VERTICES", "deterministic_cpt", "munin_like", "random_cpt",
]
