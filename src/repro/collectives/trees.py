"""Broadcast tree constructions.

A :class:`BroadcastTree` describes, for a set of ``size`` participants
numbered ``0 .. size-1`` (local indices inside one cluster), which participant
sends to which and in what order.  Index 0 is always the root (the cluster
coordinator).  Trees are pure structure: they know nothing about timing, which
is supplied either by the analytic cost model (:mod:`repro.collectives.cost`)
or by the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first export only
    import networkx as nx


@dataclass(frozen=True)
class BroadcastTree:
    """An ordered broadcast tree over ``size`` local participants.

    Attributes
    ----------
    size:
        Number of participants (>= 1); participant 0 is the root.
    children:
        ``children[p]`` lists the participants ``p`` sends to, in send order.
        Every participant other than 0 appears exactly once across all lists.
    name:
        The construction that produced the tree ("binomial", "flat", ...).
    """

    size: int
    children: tuple[tuple[int, ...], ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        if isinstance(self.size, bool) or not isinstance(self.size, int):
            raise TypeError("size must be an int")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if len(self.children) != self.size:
            raise ValueError("children must have exactly one entry per participant")
        seen: set[int] = set()
        for parent, kids in enumerate(self.children):
            for child in kids:
                if isinstance(child, bool) or not isinstance(child, int):
                    raise TypeError("child indices must be ints")
                if not 0 <= child < self.size:
                    raise ValueError(f"child index {child} out of range")
                if child == parent:
                    raise ValueError(f"participant {parent} sends to itself")
                if child == 0:
                    raise ValueError("the root (participant 0) must not receive")
                if child in seen:
                    raise ValueError(f"participant {child} receives more than once")
                seen.add(child)
        expected = set(range(1, self.size))
        missing = expected - seen
        if missing:
            raise ValueError(f"participants {sorted(missing)} never receive the message")

    # -- structure queries -------------------------------------------------------

    def parent_of(self, participant: int) -> int | None:
        """The participant that sends to ``participant`` (None for the root)."""
        if not 0 <= participant < self.size:
            raise ValueError(f"participant {participant} out of range")
        if participant == 0:
            return None
        for parent, kids in enumerate(self.children):
            if participant in kids:
                return parent
        raise AssertionError("validated tree must contain every participant")

    def depth(self) -> int:
        """The number of hops from the root to the deepest participant."""
        depths = {0: 0}
        frontier = [0]
        while frontier:
            nxt: list[int] = []
            for parent in frontier:
                for child in self.children[parent]:
                    depths[child] = depths[parent] + 1
                    nxt.append(child)
            frontier = nxt
        return max(depths.values())

    def max_fanout(self) -> int:
        """The largest number of sends performed by a single participant."""
        return max((len(kids) for kids in self.children), default=0)

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) edges, in the order the sends are issued."""
        result: list[tuple[int, int]] = []
        for parent, kids in enumerate(self.children):
            for child in kids:
                result.append((parent, child))
        return result

    def to_networkx(self) -> nx.DiGraph:
        """Export the tree as a directed :mod:`networkx` graph."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(range(self.size))
        for order, (parent, child) in enumerate(self.edges()):
            graph.add_edge(parent, child, order=order)
        return graph


def _binomial_parents(local: np.ndarray) -> np.ndarray:
    # Participant p joins in the round of its highest set bit, from p minus
    # that bit (frexp's exponent is exact for indices below 2**53).
    _, exponent = np.frexp(local)
    return local - np.left_shift(np.int64(1), exponent - 1)


#: Vectorised parent functions, one per named shape: each maps an int64
#: array of participant indices (all >= 1) to their parents' indices.  A
#: parent never depends on the tree size, and every shape sends to its
#: children in ascending index order, so the (parent, child) edges listed
#: in child order and stable-sorted by parent are the tree's send order.
_PARENT_RULES = {
    "binomial": _binomial_parents,
    "flat": np.zeros_like,
    "chain": lambda local: local - 1,
    "binary": lambda local: (local - 1) // 2,
}


def tree_parents(name: str, local: np.ndarray) -> np.ndarray:
    """Parent indices of the participants ``local`` (all >= 1) in tree ``name``."""
    try:
        parents = _PARENT_RULES[name]
    except KeyError as exc:
        known = ", ".join(sorted(_PARENT_RULES))
        raise ValueError(f"unknown tree {name!r}; known: {known}") from exc
    return parents(np.asarray(local, dtype=np.int64))


def _tree(name: str, size: int) -> BroadcastTree:
    _check_size(size)
    children: list[list[int]] = [[] for _ in range(size)]
    for child, parent in enumerate(tree_parents(name, np.arange(1, size)).tolist(), 1):
        children[parent].append(child)
    return BroadcastTree(size=size, children=tuple(tuple(c) for c in children), name=name)


def binomial_tree(size: int) -> BroadcastTree:
    """The binomial broadcast tree used by MagPIe and the paper.

    Round ``r`` doubles the informed set: participant ``p`` (informed in an
    earlier round) sends to ``p + 2^r`` if that participant exists.  The root
    therefore performs ``ceil(log2(size))`` sends, and the tree completes in
    that many rounds on a fully-connected homogeneous network.
    """
    return _tree("binomial", size)


def flat_tree(size: int) -> BroadcastTree:
    """The root sends to every other participant, in index order."""
    return _tree("flat", size)


def chain_tree(size: int) -> BroadcastTree:
    """Each participant forwards the message to the next one."""
    return _tree("chain", size)


def binary_tree(size: int) -> BroadcastTree:
    """A complete binary tree: participant ``p`` sends to ``2p+1`` and ``2p+2``."""
    return _tree("binary", size)


#: Named tree constructors.
TREE_BUILDERS = {
    "binomial": binomial_tree,
    "flat": flat_tree,
    "chain": chain_tree,
    "binary": binary_tree,
}


def make_tree(name: str, size: int) -> BroadcastTree:
    """Build a named tree (``"binomial"``, ``"flat"``, ``"chain"``, ``"binary"``)."""
    try:
        builder = TREE_BUILDERS[name]
    except KeyError as exc:
        known = ", ".join(sorted(TREE_BUILDERS))
        raise ValueError(f"unknown tree {name!r}; known: {known}") from exc
    return builder(size)


def _check_size(size: int) -> None:
    if isinstance(size, bool) or not isinstance(size, int):
        raise TypeError("size must be an int")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
