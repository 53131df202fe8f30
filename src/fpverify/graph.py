"""Cluster graphs over k-means centroids and their four-parameter index.

The graph links every centroid to its nearest other centroid; only topology
is kept (no edge lengths or angles). The index summarizes the graph by
vertex count, descending degree sequence, highest degree, and the number of
vertices per degree. Equal indexes do NOT imply isomorphic graphs (a 6-cycle
and two disjoint triangles share an index), so the index serves as a
database bucket key and the exact isomorphism test makes the call. The index
is that test's one invariant: unequal indexes reject, and equal ones go to a
backtracking search whose one pruning rule is an adjacency test against the
vertices mapped so far.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NearTieWarning, SingletonGraph

TIE_GAP = 1e-9


def dist_matrix(centroids) -> np.ndarray:
    """The (k, k) pairwise centroid distances; exact zero diagonal, exact
    symmetry."""
    c = np.asarray(centroids, dtype=np.float64).reshape(-1, 2)
    dx = c[:, 0][:, None] - c[:, 0][None, :]
    dy = c[:, 1][:, None] - c[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class MinutiaeGraph:
    """Undirected graph over centroid ids; topology only."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # pairs stored as (low, high)

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if a > b:
                raise ValueError("edges must be stored as (low, high)")

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def build_nn_graph(dm: np.ndarray) -> MinutiaeGraph:
    """Link each vertex to its nearest other vertex (ties -> smallest id).

    The edge set is the union over all vertices, so mutual nearest neighbors
    contribute a single edge and every vertex has degree >= 1. Warns when any
    vertex's two smallest distances are separated by less than 1e-9: such a
    near-tie can flip the chosen edge under rotation-and-translation noise.
    """
    k = len(dm)
    if k < 2:
        raise SingletonGraph("nearest-neighbor graph needs at least 2 centroids")
    d = np.array(dm, dtype=np.float64)
    np.fill_diagonal(d, np.inf)
    nearest = np.argmin(d, axis=1)

    if k > 2:
        two_smallest = np.partition(d, 1, axis=1)[:, :2]
        min_gap = float(np.min(two_smallest[:, 1] - two_smallest[:, 0]))
        if min_gap < TIE_GAP:
            warnings.warn(
                f"nearest-neighbor gap {min_gap:.3e} below {TIE_GAP}; "
                "edge choice may not survive recapture noise",
                NearTieWarning,
                stacklevel=2,
            )

    edges = frozenset(
        (min(i, int(j)), max(i, int(j))) for i, j in enumerate(nearest)
    )
    return MinutiaeGraph(vertices=tuple(range(k)), edges=edges)


@dataclass(frozen=True)
class GraphIndex:
    """Four-parameter graph summary used as the enrollment bucket key. The
    descending degree sequence fixes the other three parameters."""

    degree_sequence: tuple[int, ...]  # descending

    def __post_init__(self):
        object.__setattr__(self, "degree_sequence", tuple(self.degree_sequence))
        if tuple(sorted(self.degree_sequence, reverse=True)) != self.degree_sequence:
            raise ValueError("degree sequence must be sorted descending")

    @property
    def vertex_count(self) -> int:
        return len(self.degree_sequence)

    @property
    def max_degree(self) -> int:
        return self.degree_sequence[0] if self.degree_sequence else 0

    @property
    def degree_multiplicity(self) -> dict[int, int]:
        return dict(Counter(self.degree_sequence))


def compute_index(g: MinutiaeGraph) -> GraphIndex:
    return GraphIndex(tuple(sorted(map(len, g.adjacency().values()), reverse=True)))


def index_string(idx: GraphIndex) -> str:
    """Canonical form ``V<n>|D<d1,d2,...>|H<max>|M<deg:cnt,...>``.

    Degrees descending, multiplicity keys ascending; byte-identical for equal
    indexes and injective over GraphIndex values.
    """
    degs = ",".join(str(d) for d in idx.degree_sequence)
    mult = ",".join(f"{d}:{c}" for d, c in sorted(idx.degree_multiplicity.items()))
    return f"V{idx.vertex_count}|D{degs}|H{idx.max_degree}|M{mult}"


def parse_index_string(s: str) -> GraphIndex:
    """Inverse of index_string: the index of its D part, when index_string
    gives ``s`` back unchanged from it, else ValueError."""
    try:
        degrees = s.split("|")[1][1:]
        idx = GraphIndex(tuple(int(t) for t in degrees.split(",")) if degrees else ())
        if index_string(idx) != s:
            raise ValueError
    except (ValueError, IndexError) as exc:
        raise ValueError(f"not a canonical index string: {s!r}") from exc
    return idx


def is_isomorphic(g1: MinutiaeGraph, g2: MinutiaeGraph) -> bool:
    """Exact: equal degree sequences (the gate-1 index, which fixes the vertex
    and edge counts), then one backtracking search. It maps g1's vertices,
    highest degree first, each to an unused g2 vertex of equal degree whose
    adjacency agrees with every mapped pair (w, x): (w ~ u) == (x ~ v)."""
    adj1, adj2 = g1.adjacency(), g2.adjacency()
    if sorted(map(len, adj1.values())) != sorted(map(len, adj2.values())):
        return False
    order = sorted(g1.vertices, key=lambda u: -len(adj1[u]))
    mapping: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for v in g2.vertices:
            if v not in mapping.values() and len(adj2[v]) == len(adj1[u]):
                if all((w in adj1[u]) == (x in adj2[v]) for w, x in mapping.items()):
                    mapping[u] = v
                    if extend(i + 1):
                        return True
                    del mapping[u]
        return False

    return extend(0)
