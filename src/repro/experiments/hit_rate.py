"""Hit-rate analysis (paper §6, Figure 4).

The true optimal schedule is too expensive to compute for large grids, so the
paper compares heuristics against the **global minimum**: the best makespan
achieved *by any of the evaluated heuristics* on each Monte-Carlo iteration.
The *hit rate* of a heuristic is the number of iterations on which it matches
that global minimum.  The paper's key observation — reproduced by this
module — is that the hit rate of ECEF, ECEF-LA and ECEF-LAt decreases as the
number of clusters grows, while ECEF-LAT stays roughly constant (≈45 %).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import SimulationStudyConfig
from repro.experiments.simulation_study import (
    SimulationStudyResult,
    run_simulation_study,
)


@dataclass
class HitRateResult:
    """Hit counts and rates of a set of heuristics against the global minimum.

    Attributes
    ----------
    study:
        The underlying Monte-Carlo study (kept so callers can inspect the raw
        makespans too).
    heuristic_names:
        Display names of the compared heuristics.
    cluster_counts:
        Swept cluster counts.
    hit_counts:
        Array of shape ``(len(cluster_counts), len(heuristics))`` counting, for
        each cluster count, how many of the study's iterations each heuristic
        matched the global minimum (Figure 4's y-axis, scaled by iterations).
    """

    study: SimulationStudyResult
    heuristic_names: list[str]
    cluster_counts: list[int]
    hit_counts: np.ndarray

    @property
    def iterations(self) -> int:
        """Number of Monte-Carlo iterations behind each hit count."""
        return self.study.config.iterations

    def hit_rates(self) -> np.ndarray:
        """Hit counts normalised to [0, 1]."""
        return self.hit_counts / float(self.iterations)

    def series(self, heuristic_name: str) -> list[int]:
        """The hit-count series of one heuristic (by display name)."""
        try:
            index = self.heuristic_names.index(heuristic_name)
        except ValueError as exc:
            raise ValueError(
                f"unknown heuristic {heuristic_name!r}; available: {self.heuristic_names}"
            ) from exc
        return self.hit_counts[:, index].astype(int).tolist()

    def trend_slope(self, heuristic_name: str) -> float:
        """Least-squares slope of a heuristic's hit *rate* versus cluster count.

        Negative slopes indicate the degradation the paper reports for
        ECEF / ECEF-LA / ECEF-LAt; a slope close to zero reproduces the
        constant behaviour of ECEF-LAT.
        """
        rates = np.asarray(self.series(heuristic_name), dtype=float) / self.iterations
        counts = np.asarray(self.cluster_counts, dtype=float)
        slope, _intercept = np.polyfit(counts, rates, deg=1)
        return float(slope)

    def as_table(self) -> list[dict[str, float]]:
        """One dict per cluster count mapping heuristic names to hit counts."""
        rows: list[dict[str, float]] = []
        for row_index, count in enumerate(self.cluster_counts):
            row: dict[str, float] = {"clusters": float(count)}
            for column_index, name in enumerate(self.heuristic_names):
                row[name] = float(self.hit_counts[row_index, column_index])
            rows.append(row)
        return rows


def run_hit_rate_study(
    config: SimulationStudyConfig,
    *,
    workers: int | None = None,
    executor: str | None = None,
    pool=None,
    hosts: str | None = None,
) -> HitRateResult:
    """Run a Monte-Carlo study and derive the Figure 4 hit-rate analysis.

    The underlying study uses the batched scheduling engine and shared
    per-grid cost caches; ``workers`` optionally fans the iterations out over
    the persistent runtime pool (``None`` consults ``REPRO_WORKERS``),
    ``executor`` picks the execution lane (``None`` consults
    ``REPRO_EXECUTOR``; the remote lane reads its host list from ``hosts`` /
    ``REPRO_HOSTS``).
    """
    study = run_simulation_study(
        config,
        workers=workers,
        executor=executor,
        pool=pool,
        hosts=hosts,
    )
    return hit_rate_from_study(study)


def hit_rate_from_study(study: SimulationStudyResult) -> HitRateResult:
    """Compute the hit-rate analysis from an existing study result."""
    return HitRateResult(
        study=study,
        heuristic_names=list(study.heuristic_names),
        cluster_counts=list(study.cluster_counts),
        hit_counts=study.hit_counts(),
    )
