import math

import pytest

from markedgibbs.combinat import enumerate_connected_graphs, enumerate_trees
from markedgibbs.errors import SizeLimit


def spans(n, edges):
    """Whether the edges reach every vertex of range(n) from vertex 0."""
    reached = {0}
    for _ in range(n):
        reached |= {v for e in edges if reached & set(e) for v in e}
    return len(reached) == n


def test_tree_count_small():
    assert sum(1 for _ in enumerate_trees(1)) == 1
    assert sum(1 for _ in enumerate_trees(2)) == 1
    assert sum(1 for _ in enumerate_trees(4)) == 16


def test_tree_enumeration_cayley_and_validity():
    for n in range(2, 8):
        seen = set()
        for tree in enumerate_trees(n):
            assert len(tree) == n - 1
            assert spans(n, tree)
            seen.add(tree)
        assert len(seen) == n ** (n - 2)
        assert n ** (n - 2) < math.e ** n * math.factorial(n)


def test_tree_size_cap():
    with pytest.raises(SizeLimit):
        list(enumerate_trees(10))


def connected_count_recurrence(n):
    total = lambda k: 1 << (k * (k - 1) // 2)
    c = [0] * (n + 1)
    for k in range(1, n + 1):
        c[k] = total(k) - sum(math.comb(k - 1, j - 1) * c[j] * total(k - j)
                              for j in range(1, k))
    return c[n]


def test_connected_graph_counts():
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    for n, want in expected.items():
        graphs = list(enumerate_connected_graphs(n))
        assert len(graphs) == want
        assert len(set(graphs)) == want
        assert connected_count_recurrence(n) == want


def test_connected_graph_cap():
    with pytest.raises(SizeLimit):
        list(enumerate_connected_graphs(6))


def test_every_tree_is_a_connected_graph():
    for n in range(1, 6):
        connected = set(enumerate_connected_graphs(n))
        for tree in enumerate_trees(n):
            assert tree in connected


def test_graphs_are_normalised_edge_sets():
    for n in range(1, 6):
        trees = list(enumerate_trees(n))
        for edges in trees + list(enumerate_connected_graphs(n)):
            assert type(edges) is frozenset
            for e in edges:
                assert type(e) is tuple and len(e) == 2
                i, j = e
                assert type(i) is int and type(j) is int and 0 <= i < j < n
        assert all(len(tree) == n - 1 for tree in trees)
