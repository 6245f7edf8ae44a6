"""A simulated MPI collective layer.

The paper implements its heuristics "on top of a modified version of the
MagPIe library" and runs them as a real ``MPI_Bcast`` on GRID5000.  We cannot
link against LAM/MPI, so this sub-package provides the equivalent layer on top
of the discrete-event simulator:

* :class:`~repro.mpi.communicator.GridCommunicator` — binds a grid topology to
  a simulated network and exposes rank/cluster bookkeeping plus collective
  entry points;
* :mod:`~repro.mpi.bcast` — the **grid-aware broadcast**: inter-cluster
  dissemination following a heuristic's schedule, then per-cluster local
  trees (exactly MagPIe's structure with our schedules plugged in), and the
  **grid-unaware binomial broadcast** over all ranks (the "Default LAM"
  baseline of Figure 6);
* :mod:`~repro.mpi.scatter` and :mod:`~repro.mpi.alltoall` — the grid-aware
  scatter and personalised all-to-all patterns the paper lists as future
  work, built with the same coordinator-level scheduling machinery.
"""

from repro.mpi.communicator import GridCommunicator
from repro.mpi.bcast import (
    binomial_bcast_program,
    binomial_bcast_programs,
    grid_aware_bcast_program,
    grid_aware_pair_programs,
    predict_bcast_makespan,
)
from repro.mpi.scatter import flat_scatter_program, grid_aware_scatter_program
from repro.mpi.alltoall import direct_alltoall_program, grid_aware_alltoall_program

__all__ = [
    "GridCommunicator",
    "binomial_bcast_program",
    "binomial_bcast_programs",
    "grid_aware_bcast_program",
    "grid_aware_pair_programs",
    "predict_bcast_makespan",
    "flat_scatter_program",
    "grid_aware_scatter_program",
    "direct_alltoall_program",
    "grid_aware_alltoall_program",
]
