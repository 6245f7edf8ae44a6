"""Random grid generators for the Monte-Carlo simulation study.

Section 6 of the paper evaluates the heuristics on synthetic grids whose
parameters are drawn uniformly from the ranges of **Table 2**::

            minimum   maximum
    L        1 ms      15 ms
    g      100 ms     600 ms
    T       20 ms    3000 ms

At each Monte-Carlo iteration a fresh grid is generated: every ordered pair
of clusters receives an independent latency and gap draw (the matrices are
kept symmetric, matching a single physical link per pair), and every cluster
receives an independent intra-cluster broadcast time ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.topology.cluster import Cluster
from repro.topology.grid import Grid, InterClusterLink
from repro.utils.rng import RandomStream, open_generators
from repro.utils.units import ms_to_s
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class ParameterRanges:
    """Uniform sampling ranges for the Monte-Carlo grids (seconds).

    The defaults are exactly the paper's Table 2 values (converted from
    milliseconds).  The ablation benchmarks construct alternative ranges, for
    instance shrinking ``T`` to study when the grid-aware heuristics stop
    mattering.
    """

    latency_min: float = ms_to_s(1.0)
    latency_max: float = ms_to_s(15.0)
    gap_min: float = ms_to_s(100.0)
    gap_max: float = ms_to_s(600.0)
    broadcast_min: float = ms_to_s(20.0)
    broadcast_max: float = ms_to_s(3000.0)

    def __post_init__(self) -> None:
        for low_name, high_name in (
            ("latency_min", "latency_max"),
            ("gap_min", "gap_max"),
            ("broadcast_min", "broadcast_max"),
        ):
            low = check_non_negative(getattr(self, low_name), low_name)
            high = check_non_negative(getattr(self, high_name), high_name)
            if high < low:
                raise ValueError(f"{high_name} ({high}) must be >= {low_name} ({low})")

    def scaled_broadcast(self, factor: float) -> "ParameterRanges":
        """Return a copy with the intra-cluster broadcast range scaled.

        Used by the parameter-sensitivity ablation (DESIGN.md §7.4).
        """
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return ParameterRanges(
            latency_min=self.latency_min,
            latency_max=self.latency_max,
            gap_min=self.gap_min,
            gap_max=self.gap_max,
            broadcast_min=self.broadcast_min * factor,
            broadcast_max=self.broadcast_max * factor,
        )


#: The paper's Table 2, verbatim.
PAPER_PARAMETER_RANGES = ParameterRanges()


class RandomGridGenerator:
    """Generates independent random grids per the Table 2 distribution.

    Parameters
    ----------
    ranges:
        Sampling ranges; defaults to the paper's Table 2.
    cluster_size:
        Nominal number of machines per cluster.  It does not influence the
        Monte-Carlo makespans (``T`` is drawn directly), but it makes the
        generated grids usable by the node-level simulator as well.
    """

    def __init__(
        self,
        ranges: ParameterRanges = PAPER_PARAMETER_RANGES,
        *,
        cluster_size: int = 16,
    ) -> None:
        if not isinstance(ranges, ParameterRanges):
            raise TypeError("ranges must be a ParameterRanges instance")
        if isinstance(cluster_size, bool) or not isinstance(cluster_size, int):
            raise TypeError("cluster_size must be an int")
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        self.ranges = ranges
        self.cluster_size = cluster_size

    def generate(self, num_clusters: int, stream: RandomStream) -> Grid:
        """Draw one random grid with ``num_clusters`` clusters.

        Every unordered cluster pair receives one latency and one gap draw
        (used in both directions); every cluster receives one ``T`` draw.
        The draws come from the stream in one block each — all ``T`` values,
        then a (latency, gap) pair per ``(i < j)`` pair in row-major order —
        scaled as ``low + (high - low) * u``, which is exactly what
        :meth:`RandomStream.uniform` computes one value at a time.  This is
        the one-grid case of :meth:`generate_stack`.
        """
        _check_cluster_count(num_clusters)
        if not isinstance(stream, RandomStream):
            raise TypeError("stream must be a RandomStream")
        latency, gap, times = self._draw(num_clusters, [stream.generator])
        return self.as_grid(latency[0], gap[0], times[0])

    def generate_stack(
        self, num_clusters: int, seeds: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grids ``generate(num_clusters, RandomStream(seed))`` draws for
        every seed, as ``(latency, gap, T)`` stacks of shapes ``(K, n, n)``,
        ``(K, n, n)`` and ``(K, n)``, with no grid object built.

        The streams open in one :func:`~repro.utils.rng.open_generators`
        pass, so a seed that pass cannot bulk-open raises what
        :class:`RandomStream` raises.  ``T`` is the drawn cluster broadcast
        time; a grid of one-node clusters reports 0 instead
        (:meth:`Grid.broadcast_times`).
        """
        _check_cluster_count(num_clusters)
        return self._draw(num_clusters, open_generators(seeds))

    def as_grid(self, latency: np.ndarray, gap: np.ndarray, times: np.ndarray) -> Grid:
        """Wrap one drawn grid's arrays (a slice of :meth:`generate_stack`'s
        stacks) in a :class:`Grid` of this generator's cluster size.  The
        arrays are adopted, not copied, and become read-only."""
        return Grid._from_arrays(
            latency,
            gap,
            times,
            cluster_size=self.cluster_size,
            name=f"random-{len(times)}-clusters",
        )

    def _draw(
        self, num_clusters: int, generators: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One grid per generator: each fills its own row of one block with
        its ``T`` draws, then its interleaved (latency, gap) pair draws."""
        n, ranges = num_clusters, self.ranges
        upper, lower = _triangle_cells(n)
        draws = np.empty((len(generators), n + 2 * len(upper)))
        for row, generator in zip(draws, generators):
            generator.random(out=row[:n])
            generator.random(out=row[n:])
        times = _scale(draws[:, :n], ranges.broadcast_min, ranges.broadcast_max)
        latency = np.zeros((len(generators), n * n))
        gap = np.zeros((len(generators), n * n))
        for matrix, values in (
            (latency, _scale(draws[:, n::2], ranges.latency_min, ranges.latency_max)),
            (gap, _scale(draws[:, n + 1 :: 2], ranges.gap_min, ranges.gap_max)),
        ):
            matrix[:, upper] = values
            matrix[:, lower] = values
        for label, values in (("T", times), ("latency", latency), ("gap", gap)):
            if not (np.isfinite(values).all() and (values >= 0).all()):
                raise ValueError(f"drawn {label} values must be finite and non-negative")
        shape = (len(generators), n, n)
        return latency.reshape(shape), gap.reshape(shape), times


def _check_cluster_count(num_clusters: int) -> None:
    if isinstance(num_clusters, bool) or not isinstance(num_clusters, int):
        raise TypeError("num_clusters must be an int")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")


@lru_cache(maxsize=64)
def _triangle_cells(num_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(i, j)`` and ``(j, i)`` cell indices of every ``i < j`` pair,
    in row-major order."""
    rows, cols = np.triu_indices(num_clusters, 1)
    upper, lower = rows * num_clusters + cols, cols * num_clusters + rows
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def _scale(draws: np.ndarray, low: float, high: float) -> np.ndarray:
    """Map ``[0, 1)`` draws onto ``[low, high)`` the way ``Generator.uniform`` does."""
    return low + (high - low) * draws


def make_uniform_grid(
    num_clusters: int,
    *,
    latency: float = ms_to_s(10.0),
    gap: float = ms_to_s(300.0),
    broadcast_time: float = ms_to_s(500.0),
    cluster_size: int = 16,
    name: str = "uniform-grid",
) -> Grid:
    """Build a fully homogeneous grid (every link and cluster identical).

    Handy for unit tests and for analytical sanity checks: on a homogeneous
    grid every reasonable heuristic should produce the same makespan as a
    binomial schedule over coordinators.
    """
    check_non_negative(latency, "latency")
    check_non_negative(gap, "gap")
    check_non_negative(broadcast_time, "broadcast_time")
    clusters = [
        Cluster(
            cluster_id=index,
            name=f"site{index}",
            size=cluster_size,
            fixed_broadcast_time=broadcast_time,
        )
        for index in range(num_clusters)
    ]
    links = {
        (i, j): InterClusterLink.from_values(latency=latency, gap=gap)
        for i in range(num_clusters)
        for j in range(i + 1, num_clusters)
    }
    return Grid(clusters, links, name=name)
