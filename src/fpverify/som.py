"""Self-organizing map classifier over 256-component direction vectors.

One training loop serves both maps. The certainty-weighted map (MSOM,
``train_msom``) blends each input toward the training mean where certainty
is low (``c*x + (1-c)*x_avg``), picks the winner under the weighted norm
``||c*(x - w)||`` and scales each weight component's update by its
certainty. The plain map (``train_som``) is that loop with every certainty
at 1, where the blend, the weighting and the scaling all drop out; it passes
no certainties, so nothing is multiplied by ones.

The learning rate decays linearly from 0.5 and the rectangular neighborhood
radius decays from the map side m down to 1 over the configured epochs.
After training, each node is labeled by the majority class of the training
vectors it wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyTrainingSet, FingerprintError, UntrainedMap
from .orientation import FEATURE_LEN, FeatureVector, FingerClass

CONVERGENCE_EPS = 1e-6
INITIAL_RATE = 0.5  # the paper's learning rate at epoch 0
MAX_MAP_SIDE = 256  # 65,536 nodes: 134 MB of float64 weights


class InitMode(Enum):
    ZERO = "zero"
    SMALL_RANDOM = "small_random"  # uniform in [0, 0.01]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    seed: int = 0
    init_mode: InitMode = InitMode.SMALL_RANDOM

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("at least one epoch required")

    def learning_rate(self, t: int) -> float:
        """Linear decay from INITIAL_RATE toward 0 at t = epochs."""
        return INITIAL_RATE * (1.0 - t / self.epochs)

    def radius(self, t: int, m: int) -> int:
        """Neighborhood radius decaying from the map side m down to 1."""
        return int(round(m - (m - 1) * t / self.epochs))


@dataclass
class SomMap:
    """m x m grid of weight vectors with per-node class labels."""

    m: int
    weights: np.ndarray  # (m*m, 256)
    labels: tuple[FingerClass | None, ...]

    def __post_init__(self):
        _check_side(self.m)
        w = np.asarray(self.weights, dtype=np.float64).reshape(self.m * self.m, FEATURE_LEN)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        self.weights = w
        self.labels = tuple(self.labels)
        if len(self.labels) != self.m * self.m:
            raise ValueError("one label slot per node required")


def _check_side(m: int) -> None:
    if not 2 <= m <= MAX_MAP_SIDE:
        raise FingerprintError(f"map side must lie in [2, {MAX_MAP_SIDE}], not {m}")


def find_winner(som: SomMap, x: np.ndarray, c: np.ndarray | None = None) -> int:
    """Winner under the certainty-weighted norm ||c*(x - w)||; ties -> lowest
    index. With c None it is the plain Euclidean winner (c = 1, unmultiplied)."""
    diff = np.asarray(x, dtype=np.float64) - som.weights
    if c is not None:
        diff *= np.asarray(c, dtype=np.float64)
    return int(np.argmin((diff * diff).sum(axis=1)))


def msom_blend(x: np.ndarray, c: np.ndarray, x_avg: np.ndarray) -> np.ndarray:
    """Pull low-certainty components toward the training mean: c*x + (1-c)*x_avg."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise ValueError("certainties must lie in [0, 1]")
    return c * x + (1.0 - c) * np.asarray(x_avg, dtype=np.float64)


def _move_window(w: np.ndarray, m: int, x: np.ndarray, c, winner: int, radius: int, rate: float) -> None:
    """In place: the nodes within Chebyshev distance ``radius`` of the winner
    move toward x by ``rate``, each component scaled by its certainty c."""
    rows, cols = np.divmod(np.arange(m * m), m)
    wr, wc = divmod(winner, m)
    mask = np.maximum(np.abs(rows - wr), np.abs(cols - wc)) <= radius
    step = rate * (x - w[mask])
    if c is not None:
        step *= c
    w[mask] += step


def _majority_labels(som_m: int, winners: list[int], classes: list) -> tuple[FingerClass | None, ...]:
    overall = Counter(c for c in classes if c is not None)
    enum_order = {c: i for i, c in enumerate(FingerClass)}
    per_node: dict[int, Counter] = {}
    for node, cls in zip(winners, classes):
        if cls is not None:
            per_node.setdefault(node, Counter())[cls] += 1
    labels: list[FingerClass | None] = [None] * (som_m * som_m)
    for node, counts in per_node.items():
        labels[node] = max(counts, key=lambda cls: (counts[cls], overall[cls], -enum_order[cls]))
    return tuple(labels)


def _train(vectors: list[FeatureVector], m: int, cfg: TrainConfig, on_epoch, certainties=None) -> SomMap:
    """The one training loop; ``certainties`` None trains the plain map."""
    if not vectors:
        raise EmptyTrainingSet("no training vectors")
    _check_side(m)  # before the m*m weights are allocated
    xs = np.stack([v.directions for v in vectors])
    cs = [None] * len(xs) if certainties is None else np.stack(certainties)
    # x_avg and the certainties stay fixed, so every input is blended once.
    inputs = xs if certainties is None else msom_blend(xs, cs, xs.mean(axis=0))
    rng = np.random.default_rng(cfg.seed)
    shape = (m * m, FEATURE_LEN)
    start = np.zeros(shape) if cfg.init_mode is InitMode.ZERO else rng.uniform(0.0, 0.01, size=shape)
    som = SomMap(m=m, weights=start, labels=(None,) * (m * m))
    w = som.weights  # updated in place, so the winner search sees every step

    for t in range(cfg.epochs):
        rate = cfg.learning_rate(t)
        radius = cfg.radius(t, m)
        before = w.copy()
        for i in rng.permutation(len(xs)):
            _move_window(w, m, inputs[i], cs[i], find_winner(som, inputs[i], cs[i]), radius, rate)
        if on_epoch is not None:
            on_epoch(t, w.copy())
        if float(np.max(np.abs(w - before))) < CONVERGENCE_EPS:
            break

    # Nodes are labelled from the raw, unblended vectors.
    winners = [find_winner(som, x, c) for x, c in zip(xs, cs)]
    som.labels = _majority_labels(m, winners, [v.class_label for v in vectors])
    return som


def train_som(vectors: list[FeatureVector], m: int, cfg: TrainConfig, on_epoch=None) -> SomMap:
    """Train a conventional SOM; deterministic given (vector order, seed).

    Runs cfg.epochs passes over the vectors in a per-epoch shuffled order and
    stops early once the largest weight change in an epoch drops below 1e-6.
    Nodes are then labeled by the majority class of the vectors they win.
    ``on_epoch(t, weights)`` is called with a snapshot after each epoch.
    """
    return _train(vectors, m, cfg, on_epoch)


def train_msom(vectors: list[FeatureVector], m: int, cfg: TrainConfig, on_epoch=None) -> SomMap:
    """Train the certainty-weighted map from zero weights: ``train_som`` with
    each input blended toward the training mean x_avg where certainty is low,
    the weighted winner norm, and each component's update scaled by its
    certainty. Certainties outside [0, 1] raise ValueError before the first
    epoch. ``on_epoch`` is called as in ``train_som``.
    """
    return _train(vectors, m, replace(cfg, init_mode=InitMode.ZERO), on_epoch, [v.certainties for v in vectors])


def classify(som: SomMap, x: np.ndarray, c: np.ndarray | None = None) -> tuple[FingerClass, int]:
    """Class of the winning node for x (weighted winner when c is given).

    A winner that never won during training borrows the label of the nearest
    labeled node in grid (Chebyshev) distance.
    """
    if all(lbl is None for lbl in som.labels):
        raise UntrainedMap("map carries no class labels")
    winner = find_winner(som, x, c)
    label = som.labels[winner]
    if label is None:
        wr, wc = divmod(winner, som.m)
        labeled = (j for j, lbl in enumerate(som.labels) if lbl is not None)
        label = som.labels[min(labeled, key=lambda j: (max(abs(j // som.m - wr), abs(j % som.m - wc)), j))]
    return label, winner


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
    """Read a map file; a malformed file raises FingerprintError."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = lines[0].split() if lines else []
        if len(header) != 3 or header[0] != "SOM1":
            raise FingerprintError("not a SOM1 map file")
        m = int(header[1].removeprefix("m="))
        dim = int(header[2].removeprefix("dim="))
        if dim != FEATURE_LEN:
            raise FingerprintError(f"unsupported vector dimension {dim}")
        _check_side(m)
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
        return SomMap(m=m, weights=w, labels=tuple(labels))
    except ValueError as exc:
        raise FingerprintError(f"malformed SOM1 map: {exc}") from exc
