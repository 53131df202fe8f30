"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``fpverify``: each function recomputes a quantity
from the benchmark's own inputs, or tests a property the method must have.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# The gate-3 alignment tries the identity plus the angle differences of
# (probe, template) point pairs whose core distances differ by at most this
# many pixels (README, "Verification gates").
RADIUS_BAND = 10.0
MHD_TOLERANCE = 1e-9
PURE_MOTION_MHD = 1e-6
# Clean images: the largest allowed gap, modulo pi, between an estimated and a
# rendered block direction, and the largest allowed distance from a detected
# core to the nearest planted core (one and a half blocks).
DIRECTION_TOLERANCE = 0.3
CORE_TOLERANCE = 24.0


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def rotate(points: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    x, y = points[:, 0], points[:, 1]
    return np.stack([x * c - y * s, x * s + y * c], axis=1)


def brute_force_mhd(a: np.ndarray, b: np.ndarray) -> float:
    """Modified Hausdorff distance by a plain double loop over the points."""
    a_pts = a.tolist()
    b_pts = b.tolist()

    def mean_nearest(src, dst):
        total = 0.0
        for ax, ay in src:
            total += min(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2) for bx, by in dst)
        return total / len(src)

    return max(mean_nearest(a_pts, b_pts), mean_nearest(b_pts, a_pts))


def min_candidate_mhd(probe: np.ndarray, template: np.ndarray) -> float:
    """Smallest MHD over the identity and every radius-band candidate angle."""
    pr = np.hypot(probe[:, 0], probe[:, 1])
    tr = np.hypot(template[:, 0], template[:, 1])
    pa = np.arctan2(probe[:, 1], probe[:, 0])
    ta = np.arctan2(template[:, 1], template[:, 0])
    close = np.abs(pr[:, None] - tr[None, :]) <= RADIUS_BAND
    angles = np.concatenate(([0.0], (ta[None, :] - pa[:, None])[close]))
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    rx = probe[:, 0][None, :] * c - probe[:, 1][None, :] * s  # (C, n)
    ry = probe[:, 0][None, :] * s + probe[:, 1][None, :] * c
    dx = rx[:, :, None] - template[:, 0][None, None, :]
    dy = ry[:, :, None] - template[:, 1][None, None, :]
    d2 = dx * dx + dy * dy  # (C, n, m); sqrt after the min picks the same distance
    mhd = np.maximum(np.sqrt(d2.min(axis=2)).mean(axis=1), np.sqrt(d2.min(axis=1)).mean(axis=1))
    return float(mhd.min())


def nn_edges(centroids: np.ndarray) -> frozenset[tuple[int, int]]:
    """Edges linking each centroid to its nearest other one (ties: lowest id)."""
    c = np.asarray(centroids, dtype=np.float64)
    k = len(c)
    edges = set()
    for i in range(k):
        best, best_d = -1, math.inf
        for j in range(k):
            if j == i:
                continue
            d = math.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1])
            if d < best_d:
                best, best_d = j, d
        edges.add((min(i, best), max(i, best)))
    return frozenset(edges)


def index_key(k: int, edges) -> str:
    """The four-parameter index string ``V|D|H|M`` of a graph on k vertices."""
    deg = [0] * k
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    seq = sorted(deg, reverse=True)
    mult = sorted((d, seq.count(d)) for d in set(seq))
    return (
        f"V{k}|D{','.join(map(str, seq))}|H{seq[0]}|M{','.join(f'{d}:{c}' for d, c in mult)}"
    )


def isomorphic(k: int, e1, e2) -> bool:
    """Graph isomorphism by trying every vertex permutation."""
    if len(e1) != len(e2):
        return False
    target = {frozenset(e) for e in e2}
    for perm in itertools.permutations(range(k)):
        if all(frozenset((perm[a], perm[b])) in target for a, b in e1):
            return True
    return False


def winners(weights: np.ndarray, x: np.ndarray, c: np.ndarray | None = None) -> set[int]:
    """Brute-force SOM winners: the nodes whose (weighted) squared distance
    to x is the smallest. Distances within a relative 1e-9 of the minimum
    count as ties, since another summation order may rank them either way."""
    dists = []
    for w in weights:
        diff = x - w if c is None else (x - w) * c
        dists.append(math.fsum(diff * diff))
    best = min(dists)
    return {j for j, d in enumerate(dists) if d <= best * (1.0 + 1e-9)}


def direction_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Absolute difference of ridge directions modulo pi, in [0, pi/2]."""
    d = np.mod(a - b, math.pi)
    return np.minimum(d, math.pi - d)
