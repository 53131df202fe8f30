"""Synthetic fingerprint data: minutiae sets, perturbed impressions, and
parametric orientation fields for the five pattern classes.

Minutiae are drawn uniformly in a disk around the core with a minimum
pairwise separation. Orientation fields come from a zero-pole model: each
planted loop core contributes +arg(z - z0)/2 to the direction, each delta
-arg(z - z0)/2, on top of a base angle, taken mod pi. Walking a loop around
a core therefore winds the orientation by +pi (index +1/2), which is exactly
what the core detector looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_COORDINATE, TWO_PI, CorePoint, MinutiaKind, MinutiaeSet, RigidTransform, apply_transform
from .errors import ConfigInfeasible, FingerprintError
from .orientation import BLOCK_SIZE, FeatureVector, FingerClass, OrientationField

DISK_CENTER = (150.0, 150.0)
MIN_SEPARATION = 5.0
MAX_SAMPLING_ATTEMPTS = 100_000
MAX_FIELD_SIDE = 1024  # blocks per side of a generated orientation field


@dataclass(frozen=True)
class SynthConfig:
    n_minutiae: int = 30
    disk_radius: float = 120.0
    jitter_sigma: float = 1.0
    finger_class: FingerClass = FingerClass.ARCH
    seed: int = 0

    def __post_init__(self):
        if self.n_minutiae < 1 or self.seed < 0:
            raise FingerprintError("need at least one minutia and a seed >= 0")
        # Also false for NaN. The bound keeps every squared distance finite.
        if not (0 <= self.disk_radius <= MAX_COORDINATE and 0 <= self.jitter_sigma <= MAX_COORDINATE):
            raise FingerprintError(f"disk_radius and jitter_sigma must lie in [0, {MAX_COORDINATE:g}]")


def gen_synthetic_minutiae(cfg: SynthConfig) -> MinutiaeSet:
    """Sample n minutiae uniformly in a disk around a central core.

    Pairwise separations of at least 5 px are enforced by rejection; the
    sampler gives up (ConfigInfeasible) if the disk cannot fit the points.
    Deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    cx, cy = DISK_CENTER
    placed: list[tuple[float, float]] = []
    attempts = 0
    while len(placed) < cfg.n_minutiae:
        if attempts >= MAX_SAMPLING_ATTEMPTS:
            raise ConfigInfeasible(
                f"could not place {cfg.n_minutiae} points with {MIN_SEPARATION} px separation"
            )
        attempts += 1
        r = cfg.disk_radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x, y = cx + r * math.cos(phi), cy + r * math.sin(phi)
        if all((x - px) ** 2 + (y - py) ** 2 >= MIN_SEPARATION**2 for px, py in placed):
            placed.append((x, y))

    draws = rng.uniform(size=(cfg.n_minutiae, 2))  # per minutia: direction, then kind
    theta = TWO_PI * draws[:, 0]
    kind = np.where(draws[:, 1] < 0.5, MinutiaKind.ENDING.value, MinutiaKind.BIFURCATION.value)
    core = CorePoint(cx, cy)
    return MinutiaeSet(xy=placed, theta=theta, kind=kind, core=core)


def perturb_impression(
    mset: MinutiaeSet,
    cfg: SynthConfig,
    max_rotation: float = 2.0 * math.pi,
    max_translation: float = 20.0,
) -> MinutiaeSet:
    """Another impression of the same finger: per-coordinate Gaussian jitter,
    then a random rigid motion about the core.

    Draw order (for reproducibility): 2n jitter normals, one rotation, two
    translation components. With jitter 0 and zero motion ranges the set
    comes back unchanged.
    """
    rng = np.random.default_rng(cfg.seed)
    jitter = rng.normal(0.0, cfg.jitter_sigma, size=(len(mset), 2))
    moved = MinutiaeSet(xy=mset.xy + jitter, theta=mset.theta, kind=mset.kind, core=mset.core)

    if mset.core is not None:
        pivot = (mset.core.x, mset.core.y)
    else:
        pivot = (float(mset.xy[:, 0].mean()), float(mset.xy[:, 1].mean()))
    transform = RigidTransform(
        rotation=rng.uniform(0.0, max_rotation),
        translation=(
            rng.uniform(-max_translation, max_translation),
            rng.uniform(-max_translation, max_translation),
        ),
        pivot=pivot,
    )
    return apply_transform(moved, transform)


# --- parametric orientation fields ------------------------------------------

# Canonical singularity offsets from the disk center, in pixels. Loops keep
# one core above one delta, mirrored left/right; the whorl stacks two cores
# between two deltas.
_PLACEMENTS: dict[FingerClass, tuple[list[tuple[float, float]], list[tuple[float, float]]]] = {
    FingerClass.ARCH: ([], []),
    FingerClass.TENTED_ARCH: ([(0.0, -20.0)], [(0.0, 45.0)]),
    FingerClass.LEFT_LOOP: ([(0.0, -20.0)], [(55.0, 45.0)]),
    FingerClass.RIGHT_LOOP: ([(0.0, -20.0)], [(-55.0, 45.0)]),
    FingerClass.WHORL: ([(0.0, -18.0), (0.0, 18.0)], [(-55.0, 50.0), (55.0, 50.0)]),
}


def zero_pole_direction(
    px: np.ndarray,
    py: np.ndarray,
    cores: list[tuple[float, float]],
    deltas: list[tuple[float, float]],
    base_angle: float,
) -> np.ndarray:
    """Direction of the zero-pole orientation model at the given pixels."""
    total = np.full(np.broadcast(px, py).shape, float(base_angle))
    for cx, cy in cores:
        total = total + 0.5 * np.arctan2(py - cy, px - cx)
    for dx, dy in deltas:
        total = total - 0.5 * np.arctan2(py - dy, px - dx)
    out = np.mod(total, np.pi)
    return np.where(out >= np.pi, 0.0, out)


def gen_synthetic_orientation(cfg: SynthConfig) -> tuple[OrientationField, CorePoint]:
    """Orientation field of one synthetic finger plus its ground-truth core.

    Singularity placements follow the pattern class; positions and the base
    angle get a seeded jitter so impressions of a class vary. Certainty is 1
    inside the foreground disk and 0 outside. For the arch (no singularity)
    the returned reference point is the disk center.
    """
    rng = np.random.default_rng(cfg.seed)
    side = int(math.ceil(2.0 * cfg.disk_radius / BLOCK_SIZE)) + 4
    if side > MAX_FIELD_SIDE:
        raise ConfigInfeasible(f"disk radius {cfg.disk_radius:g} needs a field over {MAX_FIELD_SIDE} blocks wide")
    center = side * BLOCK_SIZE / 2.0
    cores, deltas = _PLACEMENTS[cfg.finger_class]

    # Ridges run roughly vertically so block directions stay clear of the
    # 0/pi wraparound, where Euclidean distance on raw angles misbehaves.
    base_angle = 0.5 * math.pi + rng.uniform(-0.15, 0.15)
    jitter = rng.uniform(-10.0, 10.0, size=(len(cores) + len(deltas), 2))
    planted = [(center + ox + jx, center + oy + jy) for (ox, oy), (jx, jy) in zip(cores + deltas, jitter)]
    cores_px, deltas_px = planted[: len(cores)], planted[len(cores) :]

    block_centers = (np.arange(side) + 0.5) * BLOCK_SIZE
    px, py = np.meshgrid(block_centers, block_centers)
    directions = zero_pole_direction(px, py, cores_px, deltas_px, base_angle)
    inside = (px - center) ** 2 + (py - center) ** 2 <= cfg.disk_radius**2
    certainties = np.where(inside, 1.0, 0.0)

    field = OrientationField(directions=directions, certainties=certainties, block_size=BLOCK_SIZE)
    if cores_px:
        truth = CorePoint(*cores_px[0])
    else:
        truth = CorePoint(center, center)
    return field, truth


def degrade_feature_vector(fv: FeatureVector, fraction: float, seed: int) -> FeatureVector:
    """Simulate unreliable capture: a random fraction of components lose
    their certainty (set to 0) and their direction is replaced by noise."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n = len(fv.directions)
    hit = rng.permutation(n)[: int(round(fraction * n))]
    directions = fv.directions.copy()
    certainties = fv.certainties.copy()
    directions[hit] = rng.uniform(0.0, np.pi, size=len(hit))
    certainties[hit] = 0.0
    return FeatureVector(directions=directions, certainties=certainties, class_label=fv.class_label)


# --- orientation-field file format (OF1) -------------------------------------


def save_orientation_field(field: OrientationField, path, core: CorePoint | None = None) -> None:
    """Write ``OF1 <cols> <rows> <block>``, an optional CORE line, then all
    directions and all certainties row-major at 9 significant digits."""
    lines = [f"OF1 {field.cols} {field.rows} {field.block_size}"]
    if core is not None:
        lines.append(f"CORE {format(core.x, '.9g')} {format(core.y, '.9g')}")
    for row in field.directions:
        lines.append(" ".join(format(v, ".9g") for v in row))
    for row in field.certainties:
        lines.append(" ".join(format(v, ".9g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_orientation_field(source) -> tuple[OrientationField, CorePoint | None]:
    """Read an OF1 file from a path or bytes (a str is always a path). A
    malformed file raises FingerprintError."""
    try:
        text = (source if isinstance(source, bytes) else Path(source).read_bytes()).decode("utf-8")
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        header = lines[0].split() if lines else []
        if len(header) != 4 or header[0] != "OF1":
            raise FingerprintError("not an OF1 orientation-field file")
        cols, rows, bs = int(header[1]), int(header[2]), int(header[3])
        cursor = 1
        core = None
        if len(lines) > cursor and lines[cursor].startswith("CORE"):
            _, xs, ys = lines[cursor].split()
            core = CorePoint(float(xs), float(ys))
            cursor += 1
        values = " ".join(lines[cursor:]).split()
        if len(values) != 2 * rows * cols:
            raise FingerprintError(f"OF1 file holds {len(values)} values, needs {2 * rows * cols}")
        data = np.array([float(v) for v in values], dtype=np.float64)
        directions = data[: rows * cols].reshape(rows, cols)
        certainties = data[rows * cols :].reshape(rows, cols)
        return OrientationField(directions=directions, certainties=certainties, block_size=bs), core
    except ValueError as exc:
        raise FingerprintError(f"malformed OF1 file: {exc}") from exc
