"""Experiment harness regenerating every table and figure of the paper.

* :mod:`~repro.experiments.config` — experiment configurations, including the
  paper's Table 2 parameter ranges and the canonical figure set-ups.
* :mod:`~repro.experiments.simulation_study` — the Monte-Carlo study behind
  Figures 1, 2 and 3 (average completion time of every heuristic versus the
  number of clusters).
* :mod:`~repro.experiments.hit_rate` — the hit-rate analysis of Figure 4
  (how often each ECEF-like heuristic matches the per-iteration global
  minimum).
* :mod:`~repro.experiments.practical_study` — the Table 3 / Figure 5 /
  Figure 6 experiment: predicted and simulator-measured completion times on
  the 88-machine GRID5000 grid as a function of the message size (with
  first-class noise replicas and a worker fan-out).
* :mod:`~repro.experiments.chained_study` — warm-network pipelines of
  back-to-back collectives measured against their barrier-separated
  baselines.
* :mod:`~repro.experiments.gossip_study` — the tree-vs-gossip dissemination
  study (rounds, traffic, robustness under churn and noise) over the
  :mod:`repro.gossip` round engines.
* :mod:`~repro.experiments.report` — plain-text rendering of result series in
  the same rows/columns as the paper's artefacts.
"""

from repro.experiments.config import (
    FIGURE1_CLUSTER_COUNTS,
    FIGURE2_CLUSTER_COUNTS,
    PAPER_MESSAGE_SIZE,
    PRACTICAL_MESSAGE_SIZES,
    SimulationStudyConfig,
    PracticalStudyConfig,
)
from repro.experiments.simulation_study import (
    SimulationStudyResult,
    run_simulation_study,
)
from repro.experiments.hit_rate import HitRateResult, run_hit_rate_study
from repro.experiments.chained_study import (
    CHAIN_COLLECTIVES,
    ChainedStudyResult,
    run_chained_study,
)
from repro.experiments.practical_study import (
    CollectiveStudyResult,
    PracticalStudyResult,
    run_alltoall_study,
    run_practical_study,
    run_scatter_study,
)
from repro.experiments.gossip_study import (
    GossipStudyConfig,
    GossipStudyResult,
    run_gossip_study,
)
from repro.experiments.report import render_series_table, render_hit_rate_table

__all__ = [
    "FIGURE1_CLUSTER_COUNTS",
    "FIGURE2_CLUSTER_COUNTS",
    "PAPER_MESSAGE_SIZE",
    "PRACTICAL_MESSAGE_SIZES",
    "SimulationStudyConfig",
    "PracticalStudyConfig",
    "SimulationStudyResult",
    "run_simulation_study",
    "HitRateResult",
    "run_hit_rate_study",
    "CHAIN_COLLECTIVES",
    "ChainedStudyResult",
    "run_chained_study",
    "GossipStudyConfig",
    "GossipStudyResult",
    "run_gossip_study",
    "CollectiveStudyResult",
    "PracticalStudyResult",
    "run_practical_study",
    "run_alltoall_study",
    "run_scatter_study",
    "render_series_table",
    "render_hit_rate_table",
]
