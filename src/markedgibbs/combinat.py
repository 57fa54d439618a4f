"""Labeled trees and connected labeled graphs, as edge sets.

A graph on the vertices range(n) is the frozenset of its edges (i, j) with
i < j. Pure stateless enumerators: trees stream via Pruefer decoding;
connected graphs exist only as a small-n oracle by exhaustive filtering.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Iterator

from .errors import SizeLimit

TREE_SIZE_CAP = 9
CONNECTED_GRAPH_CAP = 5

Edges = frozenset[tuple[int, int]]


def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> Edges:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return frozenset(edges)


def enumerate_trees(n: int) -> Iterator[Edges]:
    """Stream all labeled trees on n vertices, once each, via Pruefer decoding."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > TREE_SIZE_CAP:
        raise SizeLimit(f"n={n} exceeds the tree enumeration cap {TREE_SIZE_CAP}")
    if n == 1:
        yield frozenset()
        return
    if n == 2:
        yield frozenset({(0, 1)})
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield _tree_from_pruefer(seq, n)


def _is_connected(n: int, edges) -> bool:
    """Whether the edges join range(n): vertex 0's bitmask closure is full."""
    nbrs = [1 << v for v in range(n)]
    for i, j in edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    reached, grown = 1, nbrs[0]
    while grown != reached:
        reached = grown
        for v in range(n):
            if reached >> v & 1:
                grown |= nbrs[v]
    return reached == (1 << n) - 1


def enumerate_connected_graphs(n: int) -> Iterator[Edges]:
    """Stream all connected labeled graphs on n vertices (oracle path, n <= 5).

    A single vertex counts as connected.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > CONNECTED_GRAPH_CAP:
        raise SizeLimit(f"n={n} exceeds the connected-graph cap {CONNECTED_GRAPH_CAP}")
    all_pairs = list(itertools.combinations(range(n), 2))
    for r in range(n - 1, len(all_pairs) + 1):
        for chosen in itertools.combinations(all_pairs, r):
            if _is_connected(n, chosen):
                yield frozenset(chosen)
