"""K-means clustering of minutiae in a core-relative frame.

Clustering runs on coordinates translated so the core is the origin, which
cancels translation outright. Seeding is deterministic: points are ranked by
(distance to core, angle about core, input order) and the seeds are the
radial quantiles of that ranking. Distance to the core does not change under
rotation about the core, so rotations permute only same-radius ties and the
resulting partition is rotation-covariant on tie-free inputs. Random seeding
would break both guarantees through assignment flips.

Each Lloyd iteration runs a fixed number of numpy calls, with no loop over
clusters: the counts and the per-cluster coordinate sums come from
``np.bincount``, which adds each cluster's points in point order, so a mean is
the sequential sum of ``pts[assign == c].mean(axis=0)`` to the bit. Only an
iteration that empties a cluster runs the reseeding loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArrayValue, MinutiaeSet
from .errors import MissingCore, TooFewPoints

MAX_ITERATIONS = 500


@dataclass(frozen=True, eq=False)
class ClusterResult(ArrayValue):
    """Outcome of one k-means run over core-relative minutiae."""

    centroids: np.ndarray  # (k, 2), core-relative pixels
    assignment: np.ndarray  # (n,) cluster id per minutia
    objective: float  # sum of squared point-to-centroid distances
    iterations: int

    @property
    def k(self) -> int:
        return len(self.centroids)


def _radial_seed_indices(points: np.ndarray, k: int) -> np.ndarray:
    n = len(points)
    radius = np.sqrt(points[:, 0] * points[:, 0] + points[:, 1] * points[:, 1])
    angle = np.arctan2(points[:, 1], points[:, 0])
    order = np.lexsort((np.arange(n), angle, radius))
    ranks = [((2 * i + 1) * n) // (2 * k) for i in range(k)]
    return order[ranks]


def radial_seed(points, k: int) -> np.ndarray:
    """Pick k seed points at the radial quantiles of the core-distance ranking."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) < k:
        raise TooFewPoints(f"{len(pts)} points for {k} seeds")
    return pts[_radial_seed_indices(pts, k)].copy()


def _dist2(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    dx = points[:, 0][:, None] - centroids[:, 0][None, :]
    dy = points[:, 1][:, None] - centroids[:, 1][None, :]
    return dx * dx + dy * dy


def _means(pts: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """(k, 2) cluster means, each bitwise ``pts[assign == c].mean(axis=0)``."""
    sums = np.stack([np.bincount(assign, pts[:, 0], k), np.bincount(assign, pts[:, 1], k)], axis=1)
    return sums / np.bincount(assign, minlength=k)[:, None]


def kmeans_fing(mset: MinutiaeSet, k: int) -> ClusterResult:
    """Lloyd's algorithm over core-relative minutiae with deterministic seeding.

    Assignment ties go to the lowest centroid id; an emptied cluster is
    reseeded with the point currently farthest from its centroid. Stops when
    the assignment is stable or after 500 iterations. The objective is
    non-increasing across iterations and the result is a Lloyd fixed point.
    Fewer than k distinct core-relative points raise TooFewPoints: copies of
    one point share their nearest centroid, so no assignment keeps k clusters.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if mset.core is None:
        raise MissingCore("k-means needs a core point (the file's CORE line)")
    n = len(mset)
    pts = mset.xy - (mset.core.x, mset.core.y)
    distinct = len(set(map(tuple, pts.tolist())))
    if distinct < k:
        raise TooFewPoints(f"{distinct} distinct minutiae cannot form {k} clusters")

    centroids = pts[_radial_seed_indices(pts, k)].copy()
    prev_assign: np.ndarray | None = None
    prev_obj = np.inf

    for iterations in range(1, MAX_ITERATIONS + 1):
        d2 = _dist2(pts, centroids)
        assign = np.argmin(d2, axis=1)

        # Reseed the lowest emptied cluster with the worst-fitted point until
        # none is empty (a reseeding can empty a cluster reseeded before).
        # With k distinct points a cost is positive, unless it underflows.
        repaired = False
        while (counts := np.bincount(assign, minlength=k)).min() == 0:
            cost = d2[np.arange(n), assign]
            worst = int(np.argmax(cost))
            if cost[worst] == 0.0:
                raise TooFewPoints(f"minutiae too close together to form {k} clusters")
            empty = int(np.argmin(counts))
            centroids[empty] = pts[worst]
            assign[worst] = empty
            d2[:, empty] = _dist2(pts, centroids[empty : empty + 1])[:, 0]
            repaired = True

        obj = float(d2[np.arange(n), assign].sum())
        if obj > prev_obj + 1e-9:
            raise RuntimeError("k-means objective increased; tie-break rules violated")
        prev_obj = obj

        if not repaired and prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        centroids = _means(pts, assign, k)
    else:
        # Iteration cap: the objective of the last means and assignment.
        obj = float(_dist2(pts, centroids)[np.arange(n), assign].sum())
    return ClusterResult(centroids=centroids, assignment=assign, objective=obj, iterations=iterations)
