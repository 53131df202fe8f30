"""Point-set distances for fine-level matching.

Directed Hausdorff, symmetric Hausdorff and the Modified Hausdorff distance
(MHD, mean of nearest-neighbor distances instead of the max) over 2-D point
sets, plus ``score_point_sets``, the three distances that gate 3 of
``store.gate_trace`` reports, for all rotated probes at once; ``store.decide``
applies the threshold. The max-based Hausdorff blows up from a single outlier;
MHD dilutes it by the set size, which is why the decision statistic is MHD.

One kernel, ``nearest_distances``, serves all three and the batches of
``score_point_sets``, and it agrees bit for bit with a brute-force double loop
over per-pair sqrt(dx*dx + dy*dy) with sequential sums. It lays the C sets of
a batch out as (n, C) x and y columns, the sets on the last, contiguous axis,
and loops over the points of the second set one at a time, as Python floats,
into buffers made once: the a->b minima are an elementwise ``np.minimum`` of
whole rows and the b->a minima a reduction across rows. It keeps the least
squared distance of each point and takes sqrt once, of those minima. That is
exact: sqrt is correctly rounded and monotone, so sqrt(min) == min(sqrt), and
a minimum does not depend on the order its terms are taken in. ``mhd_of`` sums
down the columns with ``np.add.accumulate``, one row after another for every
layout; a plain ``np.sum`` would run along the fast axis with one column (a
single set, or a gate-3 pair whose only candidate is the identity, C = 1) and
sum pairwise, an ulp away from the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadThreshold, EmptySet

DEFAULT_TAU = 12.0


def _as_points(points) -> np.ndarray:
    a = np.asarray(points, dtype=np.float64)
    if a.size == 0:
        raise EmptySet("distance over an empty point set")
    return a.reshape(-1, 2)


def nearest_distances(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor distances a->b (..., n) and b->a (..., m) between a
    set or batch of sets ``a`` (..., n, 2) and one set ``b`` (m, 2), taking
    ``b`` one point at a time.

    The outputs are transposed views of (n, C) and (m, C) arrays. A batch
    laid out in memory as its (2, n, C) transpose is read without a copy."""
    # Sets last: (n, C) coordinates of the C sets of the batch.
    ax, ay = np.ascontiguousarray(a.reshape(-1, a.shape[-2], 2).T)
    # Python floats for b, buffers made once: for the ~200 rotated probes of
    # gate 3 numpy's per-call overhead, not the arithmetic, is the cost.
    b_to_a, least = np.empty((len(b), ax.shape[1])), np.full(ax.shape, np.inf)
    table, dy = np.empty(ax.shape), np.empty(ax.shape)
    for j, (bx, by) in enumerate(b.tolist()):
        np.subtract(ax, bx, out=table)
        np.square(table, out=table)
        np.subtract(ay, by, out=dy)
        table += np.square(dy, out=dy)
        np.minimum(least, table, out=least)
        table.min(axis=0, out=b_to_a[j])
    a_to_b = np.sqrt(least).T.reshape(a.shape[:-1])
    return a_to_b, np.sqrt(b_to_a).T.reshape(a.shape[:-2] + (len(b),))


def _sequential_sums(v: np.ndarray) -> np.ndarray:
    """Left-to-right sums of ``v`` (..., n) over its last axis, read down the
    contiguous (n, C) array behind it."""
    return np.add.accumulate(v.T, axis=0)[-1].T


def mhd_of(a_to_b: np.ndarray, b_to_a: np.ndarray) -> np.ndarray:
    """MHD from the nearest-neighbor distances of ``nearest_distances``:
    sequential sums down the columns of the (n, C) arrays behind them."""
    return np.maximum(_sequential_sums(a_to_b) / a_to_b.shape[-1], _sequential_sums(b_to_a) / b_to_a.shape[-1])


def directed_hausdorff(m_points, n_points) -> float:
    """max over M of the distance to the nearest point of N."""
    return score_point_sets(_as_points(m_points), n_points)[1]


def hausdorff(m_points, n_points) -> float:
    """Symmetric Hausdorff: max of the two directed distances."""
    return max(score_point_sets(_as_points(m_points), n_points)[1:])


def modified_hausdorff(m_points, n_points) -> float:
    """MHD: max over both directions of the mean nearest-neighbor distance."""
    return score_point_sets(_as_points(m_points), n_points)[0]


@dataclass(frozen=True)
class MatchScore:
    """All four distances for one probe/template comparison."""

    mhd: float
    directed_ab: float
    directed_ba: float
    accepted: bool

    def __post_init__(self):
        if not (0.0 <= self.mhd <= self.hausdorff + 1e-12):
            raise ValueError("mhd must lie in [0, hausdorff]")

    @property
    def hausdorff(self) -> float:
        """Symmetric Hausdorff: the larger directed distance."""
        return max(self.directed_ab, self.directed_ba)


def check_tau(tau: float) -> None:
    """Raise BadThreshold unless tau is a positive finite number: a NaN
    threshold rejects every pair and an infinite one accepts every pair."""
    if not (math.isfinite(tau) and tau > 0):
        raise BadThreshold(f"tau must be a positive finite number, not {tau!r}")


def score_point_sets(a_points, b_points) -> tuple:
    """(MHD, directed a->b, directed b->a) as floats; a (C, n, 2) batch ``a_points`` gives (C,) arrays."""
    a = np.asarray(a_points, dtype=np.float64)
    batch = a.ndim == 3 and a.size > 0  # an empty batch raises EmptySet as a set does
    a_to_b, b_to_a = nearest_distances(a if batch else _as_points(a), _as_points(b_points))
    scores = mhd_of(a_to_b, b_to_a), a_to_b.max(axis=-1), b_to_a.max(axis=-1)
    return scores if batch else tuple(map(float, scores))

