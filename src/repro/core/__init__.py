"""MorphStreamR: the paper's primary contribution.

Fast parallel recovery (§V) built from intermediate results of resolved
dependencies, plus the runtime-overhead mitigations of §VI:

- :mod:`repro.core.views` — AbortView / ParametricView (Fig. 5);
- :mod:`repro.core.abortpushdown` — abort pushdown (§V-B1);
- :mod:`repro.core.restructure` — operation restructuring (§V-B2);
- :mod:`repro.core.assignment` — optimized task assignment (§V-B3);
- :mod:`repro.core.partition` — graph-based partitioning for selective
  logging (§VI-A1);
- :mod:`repro.core.shadow` — shadow-based exploration (§VI-A2);
- :mod:`repro.core.commitment` — workload-aware log commitment (§VI-B);
- :mod:`repro.core.logmanager` — the Logging Manager (LM);
- :mod:`repro.core.morphstreamr` — the engine tying it all together.
"""

from repro.core.assignment import lpt_assign
from repro.core.commitment import AdaptiveCommitController, WorkloadProfile
from repro.core.morphstreamr import MorphStreamR, MSROptions
from repro.core.partition import ChainGraph, build_chain_graph, greedy_partition
from repro.core.shadow import explore_chains
from repro.core.views import AbortView, ParametricView

__all__ = [
    "MorphStreamR",
    "MSROptions",
    "AbortView",
    "ParametricView",
    "ChainGraph",
    "build_chain_graph",
    "greedy_partition",
    "lpt_assign",
    "explore_chains",
    "AdaptiveCommitController",
    "WorkloadProfile",
]
