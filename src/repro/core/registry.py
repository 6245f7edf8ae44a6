"""Name-based factory for scheduling heuristics.

The experiment harness, the CLI and the benchmarks all refer to heuristics by
short keys; this module maps those keys to constructor callables and defines
the canonical heuristic line-up of the paper's figures.
"""

from __future__ import annotations

from typing import Callable

from repro.core.base import SchedulingHeuristic
from repro.core.bottomup import BottomUp
from repro.core.ecef import ECEF, ECEFLookahead
from repro.core.fef import FastestEdgeFirst
from repro.core.flat_tree import FlatTreeHeuristic
from repro.core.mixed import MixedStrategy
from repro.core.optimal import OptimalSearch

HeuristicFactory = Callable[[], SchedulingHeuristic]

_REGISTRY: dict[str, HeuristicFactory] = {
    "flat_tree": FlatTreeHeuristic,
    "fef": FastestEdgeFirst,
    "ecef": ECEF,
    "ecef_la": ECEFLookahead.bhat,
    "ecef_lat_min": ECEFLookahead.grid_aware_min,
    "ecef_lat_max": ECEFLookahead.grid_aware_max,
    "bottom_up": BottomUp,
    "mixed": MixedStrategy,
    "optimal": OptimalSearch,
}

#: The seven heuristics plotted in Figures 1, 2, 5 and 6 of the paper, in the
#: legend order of Figure 1.
PAPER_HEURISTICS: tuple[str, ...] = (
    "flat_tree",
    "fef",
    "ecef",
    "ecef_la",
    "ecef_lat_max",
    "ecef_lat_min",
    "bottom_up",
)

#: The four ECEF-like heuristics compared in Figures 3 and 4.
ECEF_FAMILY: tuple[str, ...] = (
    "ecef",
    "ecef_la",
    "ecef_lat_max",
    "ecef_lat_min",
)


def available_heuristics() -> list[str]:
    """The sorted list of registered heuristic keys."""
    return sorted(_REGISTRY)


def normalize_heuristic_key(key: str) -> str:
    """The registry spelling of ``key``: trimmed, lowercase, with dashes and
    spaces as underscores, so ``"ECEF-LA"``, ``"ECEF LA"`` and ``" ecef_la "``
    all name ``"ecef_la"``.  Every lookup and cache keyed by heuristic name
    goes through it."""
    return key.strip().lower().replace("-", "_").replace(" ", "_")


def get_heuristic(key: str) -> SchedulingHeuristic:
    """Instantiate the heuristic registered under ``key``.

    Keys are case-insensitive and accept dashes or spaces in place of
    underscores (:func:`normalize_heuristic_key`), so ``"ECEF-LA"``
    resolves like ``"ecef_la"``.

    Raises
    ------
    ValueError
        If the key is unknown; the message lists the registered keys.
    """
    normalised = normalize_heuristic_key(key)
    try:
        factory = _REGISTRY[normalised]
    except KeyError as exc:
        known = ", ".join(available_heuristics())
        raise ValueError(f"unknown heuristic {key!r}; known keys: {known}") from exc
    return factory()


def register_heuristic(key: str, factory: HeuristicFactory, *, overwrite: bool = False) -> None:
    """Register a custom heuristic under ``key``.

    Third-party strategies registered here become usable everywhere a key is
    accepted: the experiment configuration, the hit-rate analysis and the CLI.

    Parameters
    ----------
    key:
        Registry key (normalised to lowercase with underscores).
    factory:
        Zero-argument callable returning a fresh heuristic instance.
    overwrite:
        Allow replacing an existing registration.
    """
    if not callable(factory):
        raise TypeError("factory must be callable")
    normalised = normalize_heuristic_key(key)
    if not normalised:
        raise ValueError("key must not be empty")
    if normalised in _REGISTRY and not overwrite:
        raise ValueError(f"heuristic key {key!r} is already registered")
    _REGISTRY[normalised] = factory


def instantiate(keys: "tuple[str, ...] | list[str]") -> list[SchedulingHeuristic]:
    """Instantiate several heuristics at once, preserving order."""
    return [get_heuristic(key) for key in keys]
