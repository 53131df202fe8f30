"""Point-set distances for fine-level matching.

Directed Hausdorff, symmetric Hausdorff and the Modified Hausdorff distance
(MHD, mean of nearest-neighbor distances instead of the max) over 2-D point
sets, plus the thresholded accept/reject decision. The max-based Hausdorff
blows up from a single outlier; MHD dilutes it by the set size, which is why
the decision statistic is MHD.

One kernel, ``nearest_distances``, serves all three and the batched rotation
search in ``store``, and it agrees bit for bit with a brute-force double loop
over per-pair sqrt(dx*dx + dy*dy) with sequential sums. It lays the C sets of
a batch out as (n, C) x and y columns, the sets on the last, contiguous axis,
so the a->b minima are an elementwise ``np.minimum`` of whole rows and the
b->a minima a reduction across rows. It takes the second set a block of
points at a time, keeps the least squared distance of each point, and takes
sqrt once, of those minima. That is exact: sqrt is correctly rounded and
monotone, so sqrt(min) == min(sqrt), and a minimum does not depend on the
order its terms are taken in. When a block would hold one point, as for the
~200 rotated probes of gate 3, it loops over the points of the second set one
at a time, as Python floats, into buffers made once. ``mhd_of`` sums down the
columns with ``np.add.accumulate``, one row after another for every layout; a
plain ``np.sum`` would run along the fast axis with one column (a single set,
or a gate-3 pair whose only candidate is the identity, C = 1) and sum
pairwise, an ulp away from the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import MinutiaeSet, to_core_relative
from .errors import BadThreshold, EmptySet

DEFAULT_TAU = 12.0
# Every distance table the package builds holds at most this many entries
# (32 KiB of float64), or one column when the first set or batch alone has
# more points. One table over all ~200 rotation candidates of gate 3 (1-2 MB)
# took fresh pages from the allocator on every call, and its cost varied from
# run to run; the ~200 rotated 30-point probes take one template point at a
# time, into one ~46 KB (30, 200) table reused for every point.
TABLE_ENTRIES = 4096


class Decision(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


def _as_points(points) -> np.ndarray:
    a = np.asarray(points, dtype=np.float64)
    if a.size == 0:
        raise EmptySet("distance over an empty point set")
    return a.reshape(-1, 2)


def nearest_distances(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor distances a->b (..., n) and b->a (..., m) between a
    set or batch of sets ``a`` (..., n, 2) and one set ``b`` (m, 2), with
    ``b`` taken in blocks of points whose tables keep to ``TABLE_ENTRIES``.

    The outputs are transposed views of (n, C) and (m, C) arrays. A batch
    laid out in memory as its (2, n, C) transpose is read without a copy."""
    # Sets last: (n, C) coordinates of the C sets of the batch.
    ax, ay = np.ascontiguousarray(a.reshape(-1, a.shape[-2], 2).T)
    step = max(1, TABLE_ENTRIES // ax.size)
    b_to_a = np.empty((len(b), ax.shape[1]))
    if step == 1:
        # One point of b at a time, its coordinates Python floats, into
        # buffers made once: for a large batch the per-call overhead of
        # numpy, not the arithmetic, is the cost. Measured on 30-point sets,
        # one process: from C = 69 on (step 1), 0.75-0.86x the blocked path's
        # time; it ties at C = 40-68 (step 2-3) and takes 1.5-3.3x at C = 2-20.
        least = np.full(ax.shape, np.inf)
        table, dy = np.empty(ax.shape), np.empty(ax.shape)
        for j, (bx, by) in enumerate(b.tolist()):
            np.subtract(ax, bx, out=table)
            np.square(table, out=table)
            np.subtract(ay, by, out=dy)
            table += np.square(dy, out=dy)
            np.minimum(least, table, out=least)
            table.min(axis=0, out=b_to_a[j])
    else:
        # A block of B points of b gives a (B, n, C) table; ``blocks`` holds
        # the a->b minima so far of each row of the block.
        blocks = np.full((min(step, len(b)),) + ax.shape, np.inf)
        for j in range(0, len(b), step):
            table = np.square(ax - b[j : j + step, 0, None, None])
            dy = ay - b[j : j + step, 1, None, None]
            table += np.square(dy, out=dy)
            np.minimum(blocks[: len(table)], table, out=blocks[: len(table)])
            table.min(axis=1, out=b_to_a[j : j + len(table)])
        least = blocks.min(axis=0)
    # Exact: sqrt is correctly rounded and monotone, so sqrt(min) == min(sqrt).
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
    m_to_n, _ = nearest_distances(_as_points(m_points), _as_points(n_points))
    return float(m_to_n.max())


def hausdorff(m_points, n_points) -> float:
    """Symmetric Hausdorff: max of the two directed distances."""
    m_to_n, n_to_m = nearest_distances(_as_points(m_points), _as_points(n_points))
    return float(max(m_to_n.max(), n_to_m.max()))


def modified_hausdorff(m_points, n_points) -> float:
    """MHD: max over both directions of the mean nearest-neighbor distance."""
    return float(mhd_of(*nearest_distances(_as_points(m_points), _as_points(n_points))))


@dataclass(frozen=True)
class MatchScore:
    """All four distances for one probe/template comparison."""

    hausdorff: float
    mhd: float
    directed_ab: float
    directed_ba: float
    decision: Decision
    threshold_used: float

    def __post_init__(self):
        if self.hausdorff != max(self.directed_ab, self.directed_ba):
            raise ValueError("hausdorff must equal the larger directed distance")
        if not (0.0 <= self.mhd <= self.hausdorff + 1e-12):
            raise ValueError("mhd must lie in [0, hausdorff]")


def check_tau(tau: float) -> None:
    """Raise BadThreshold unless tau is a positive finite number: a NaN
    threshold rejects every pair and an infinite one accepts every pair."""
    if not (math.isfinite(tau) and tau > 0):
        raise BadThreshold(f"tau must be a positive finite number, not {tau!r}")


def score_point_sets(a_points, b_points, tau: float) -> MatchScore:
    """Score two raw point arrays; Accept iff MHD <= tau."""
    check_tau(tau)
    a_to_b, b_to_a = nearest_distances(_as_points(a_points), _as_points(b_points))
    d_ab = float(a_to_b.max())
    d_ba = float(b_to_a.max())
    mhd = float(mhd_of(a_to_b, b_to_a))
    decision = Decision.ACCEPT if mhd <= tau else Decision.REJECT
    return MatchScore(
        hausdorff=max(d_ab, d_ba),
        mhd=mhd,
        directed_ab=d_ab,
        directed_ba=d_ba,
        decision=decision,
        threshold_used=tau,
    )


def match_decision(probe: MinutiaeSet, template: MinutiaeSet, tau: float = DEFAULT_TAU) -> MatchScore:
    """Compare two impressions in core-relative coordinates.

    Only coordinates enter the distances (directions and minutia kind do
    not). Both sets need a core point; emptiness signals upstream failure
    and raises instead of returning infinity.
    """
    if len(probe) == 0 or len(template) == 0:
        raise EmptySet("matching requires non-empty minutiae sets")
    a = to_core_relative(probe).coords()
    b = to_core_relative(template).coords()
    return score_point_sets(a, b, tau)
