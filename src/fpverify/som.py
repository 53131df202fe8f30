"""Self-organizing map classifier over 256-component direction vectors.

Two trainers share the same schedules and epoch structure:

* ``train_som`` - competitive learning on the raw direction vectors.
* ``train_msom`` - certainty-weighted variant: each input is first blended
  toward the training mean where certainty is low
  (``c*x + (1-c)*x_avg``), the winner minimizes the certainty-weighted norm
  ``||c*(x - w)||``, and each weight component's update is additionally
  scaled by its certainty. With all certainties at 1 the two trainers
  produce identical weight trajectories.

The learning rate decays linearly from 0.5 and the rectangular neighborhood
radius decays from the map side m down to 1 over the configured epochs.
After training, each node is labeled by the majority class of the training
vectors it wins.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyTrainingSet, FingerprintError, UntrainedMap
from .orientation import FEATURE_LEN, FeatureVector, FingerClass

CONVERGENCE_EPS = 1e-6


class InitMode(Enum):
    ZERO = "zero"
    SMALL_RANDOM = "small_random"  # uniform in [0, 0.01]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    initial_rate: float = 0.5
    seed: int = 0
    init_mode: InitMode = InitMode.SMALL_RANDOM

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("at least one epoch required")
        if not 0.0 < self.initial_rate <= 1.0:
            raise ValueError("initial learning rate must lie in (0, 1]")

    def learning_rate(self, t: int) -> float:
        """Linear decay from the initial rate toward 0 at t = epochs."""
        return self.initial_rate * (1.0 - t / self.epochs)

    def radius(self, t: int, m: int) -> int:
        """Neighborhood radius decaying from the map side m down to 1."""
        return int(round(m - (m - 1) * t / self.epochs))


@dataclass
class SomMap:
    """m x m grid of weight vectors with per-node class labels."""

    m: int
    weights: np.ndarray  # (m*m, 256)
    labels: tuple[FingerClass | None, ...]
    x_avg: np.ndarray  # (256,) training-set mean
    trained: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(self.m * self.m, FEATURE_LEN)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        self.weights = w
        self.x_avg = np.asarray(self.x_avg, dtype=np.float64).reshape(FEATURE_LEN)
        self.labels = tuple(self.labels)
        if len(self.labels) != self.m * self.m:
            raise ValueError("one label slot per node required")

    @classmethod
    def initialize(cls, m: int, cfg: TrainConfig, rng: np.random.Generator | None = None) -> "SomMap":
        if m < 2:
            raise ValueError("map side must be at least 2")
        if cfg.init_mode is InitMode.ZERO:
            w = np.zeros((m * m, FEATURE_LEN))
        else:
            rng = rng if rng is not None else np.random.default_rng(cfg.seed)
            w = rng.uniform(0.0, 0.01, size=(m * m, FEATURE_LEN))
        return cls(m=m, weights=w, labels=(None,) * (m * m), x_avg=np.zeros(FEATURE_LEN))

    def node_coords(self, j: int) -> tuple[int, int]:
        return divmod(j, self.m)


def find_winner(som: SomMap, x: np.ndarray) -> int:
    """Node with the smallest Euclidean distance to x; ties -> lowest index."""
    diff = np.asarray(x, dtype=np.float64) - som.weights
    return int(np.argmin((diff * diff).sum(axis=1)))


def msom_find_winner(som: SomMap, x: np.ndarray, c: np.ndarray) -> int:
    """Winner under the certainty-weighted norm ||c*(x - w)||."""
    diff = (np.asarray(x, dtype=np.float64) - som.weights) * np.asarray(c, dtype=np.float64)
    return int(np.argmin((diff * diff).sum(axis=1)))


def msom_blend(x: np.ndarray, c: np.ndarray, x_avg: np.ndarray) -> np.ndarray:
    """Pull low-certainty components toward the training mean: c*x + (1-c)*x_avg."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise ValueError("certainties must lie in [0, 1]")
    return c * x + (1.0 - c) * np.asarray(x_avg, dtype=np.float64)


def _window_mask(m: int, winner: int, radius: int) -> np.ndarray:
    rows, cols = np.divmod(np.arange(m * m), m)
    wr, wc = divmod(winner, m)
    return np.maximum(np.abs(rows - wr), np.abs(cols - wc)) <= radius


def update_weights(som: SomMap, x: np.ndarray, winner: int, t: int, cfg: TrainConfig) -> SomMap:
    """One competitive update: nodes within the rectangular window around the
    winner move toward x by the epoch-t learning rate; all others stay."""
    if not 0 <= t < cfg.epochs:
        raise ValueError("epoch index out of range")
    w = som.weights.copy()
    mask = _window_mask(som.m, winner, cfg.radius(t, som.m))
    rate = cfg.learning_rate(t)
    w[mask] += rate * (np.asarray(x, dtype=np.float64) - w[mask])
    return SomMap(m=som.m, weights=w, labels=som.labels, x_avg=som.x_avg.copy(), trained=som.trained)


def _majority_labels(
    som_m: int,
    winners: list[int],
    classes: list[FingerClass | None],
) -> tuple[FingerClass | None, ...]:
    overall = Counter(c for c in classes if c is not None)
    enum_order = {c: i for i, c in enumerate(FingerClass)}
    per_node: dict[int, Counter] = {}
    for node, cls in zip(winners, classes):
        if cls is not None:
            per_node.setdefault(node, Counter())[cls] += 1

    labels: list[FingerClass | None] = [None] * (som_m * som_m)
    for node, counts in per_node.items():
        best = max(
            counts.items(),
            key=lambda kv: (kv[1], overall[kv[0]], -enum_order[kv[0]]),
        )
        labels[node] = best[0]
    return tuple(labels)


def _extract(vectors: list[FeatureVector]):
    if not vectors:
        raise EmptyTrainingSet("no training vectors")
    xs = np.stack([v.directions for v in vectors])
    cs = np.stack([v.certainties for v in vectors])
    classes = [v.class_label for v in vectors]
    return xs, cs, classes


def train_som(vectors: list[FeatureVector], m: int, cfg: TrainConfig, on_epoch=None) -> SomMap:
    """Train a conventional SOM; deterministic given (vector order, seed).

    Runs cfg.epochs passes over the vectors in a per-epoch shuffled order and
    stops early once the largest weight change in an epoch drops below 1e-6.
    Nodes are then labeled by the majority class of the vectors they win.
    ``on_epoch(t, weights)`` is called with a snapshot after each epoch.
    """
    xs, _, classes = _extract(vectors)
    rng = np.random.default_rng(cfg.seed)
    som = SomMap.initialize(m, cfg, rng=rng)
    w = som.weights
    x_avg = xs.mean(axis=0)

    for t in range(cfg.epochs):
        rate = cfg.learning_rate(t)
        radius = cfg.radius(t, m)
        before = w.copy()
        for i in rng.permutation(len(xs)):
            x = xs[i]
            diff = x - w
            winner = int(np.argmin((diff * diff).sum(axis=1)))
            mask = _window_mask(m, winner, radius)
            w[mask] += rate * (x - w[mask])
        if on_epoch is not None:
            on_epoch(t, w.copy())
        if float(np.max(np.abs(w - before))) < CONVERGENCE_EPS:
            break

    som = SomMap(m=m, weights=w, labels=(None,) * (m * m), x_avg=x_avg, trained=True)
    winners = [find_winner(som, x) for x in xs]
    som.labels = _majority_labels(m, winners, classes)
    return som


def train_msom(vectors: list[FeatureVector], m: int, cfg: TrainConfig, on_epoch=None) -> SomMap:
    """Train the certainty-weighted map. Weights always start at zero.

    The training mean x_avg is computed once before the first epoch; each
    input is blended toward it where certainty is low, the winner uses the
    weighted norm, and each component's update is scaled by its certainty.
    ``on_epoch(t, weights)`` is called with a snapshot after each epoch.
    """
    xs, cs, classes = _extract(vectors)
    rng = np.random.default_rng(cfg.seed)
    som = SomMap.initialize(m, replace(cfg, init_mode=InitMode.ZERO), rng=rng)
    w = som.weights
    x_avg = xs.mean(axis=0)

    for t in range(cfg.epochs):
        rate = cfg.learning_rate(t)
        radius = cfg.radius(t, m)
        before = w.copy()
        for i in rng.permutation(len(xs)):
            c = cs[i]
            x = c * xs[i] + (1.0 - c) * x_avg
            diff = (x - w) * c
            winner = int(np.argmin((diff * diff).sum(axis=1)))
            mask = _window_mask(m, winner, radius)
            w[mask] += rate * (x - w[mask]) * c
        if on_epoch is not None:
            on_epoch(t, w.copy())
        if float(np.max(np.abs(w - before))) < CONVERGENCE_EPS:
            break

    som = SomMap(m=m, weights=w, labels=(None,) * (m * m), x_avg=x_avg, trained=True)
    winners = [msom_find_winner(som, xs[i], cs[i]) for i in range(len(xs))]
    som.labels = _majority_labels(m, winners, classes)
    return som


def classify(som: SomMap, x: np.ndarray, c: np.ndarray | None = None) -> tuple[FingerClass, int]:
    """Class of the winning node for x (weighted winner when c is given).

    A winner that never won during training borrows the label of the nearest
    labeled node in grid (Chebyshev) distance.
    """
    if not som.trained:
        raise UntrainedMap("map has not been trained")
    if all(lbl is None for lbl in som.labels):
        raise UntrainedMap("map carries no class labels")
    winner = find_winner(som, x) if c is None else msom_find_winner(som, x, c)
    label = som.labels[winner]
    if label is None:
        wr, wc = som.node_coords(winner)
        best = min(
            (j for j, lbl in enumerate(som.labels) if lbl is not None),
            key=lambda j: (max(abs(j // som.m - wr), abs(j % som.m - wc)), j),
        )
        label = som.labels[best]
    return label, winner


def quantization_error(som: SomMap, vectors: list[FeatureVector]) -> float:
    """Mean distance from each vector to its winning node's weights."""
    xs, _, _ = _extract(vectors)
    total = 0.0
    for x in xs:
        diff = x - som.weights
        total += math.sqrt(float((diff * diff).sum(axis=1).min()))
    return total / len(xs)


# --- map file format ---------------------------------------------------------

_UNLABELED = "-"


def save_som(som: SomMap, path) -> None:
    """Write ``SOM1 m=<m> dim=256``, m^2 label lines, then one weight line
    per node (256 values at 9 significant digits)."""
    lines = [f"SOM1 m={som.m} dim={FEATURE_LEN}"]
    for lbl in som.labels:
        lines.append(_UNLABELED if lbl is None else lbl.value)
    for row in som.weights:
        lines.append(" ".join(format(v, ".9g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_som(path) -> SomMap:
    """Read a map file; the loaded map is marked trained, x_avg zeros."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 3 or header[0] != "SOM1":
        raise ValueError("not a SOM1 map file")
    m = int(header[1].removeprefix("m="))
    dim = int(header[2].removeprefix("dim="))
    if dim != FEATURE_LEN:
        raise ValueError(f"unsupported vector dimension {dim}")
    n = m * m
    by_value = {fc.value: fc for fc in FingerClass}
    labels = []
    for line in lines[1 : 1 + n]:
        s = line.strip()
        if s != _UNLABELED and s not in by_value:
            raise FingerprintError(f"unknown class label {s!r} in SOM1 map")
        labels.append(None if s == _UNLABELED else by_value[s])
    values = " ".join(lines[1 + n : 1 + 2 * n]).split()
    if len(values) != n * FEATURE_LEN:
        raise FingerprintError("SOM1 weight count does not match m and dim")
    w = np.array([float(v) for v in values], dtype=np.float64).reshape(n, FEATURE_LEN)
    return SomMap(m=m, weights=w, labels=tuple(labels), x_avg=np.zeros(FEATURE_LEN), trained=True)
