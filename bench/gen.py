"""Seeded input generator for the benchmark.

It does not import ``fpverify.synth``: a change to the program's own
synthetic data must not change what the benchmark measures. Everything here
is a function of the seed passed in, and the program only ever sees the MIN1
and PGM bytes produced here.

Minutiae: ``N_MINUTIAE`` points drawn uniformly in a disk of radius
``DISK_RADIUS`` around the core, at least ``MIN_SEPARATION`` px apart, with
uniform directions in [0, 2*pi) and a fair coin for ending/bifurcation.

Impressions: every coordinate gets Gaussian jitter, then the whole set
(core included) turns by a uniform angle in [0, 2*pi) about the core and
moves by a uniform translation of up to ``MAX_TRANSLATION`` px per axis.

Images: the zero-pole orientation model (each core adds +arg(z - z0)/2, each
delta -arg(z - z0)/2, on top of a base angle drawn over all of [0, pi))
sampled at block centres, rendered block by block as a sinusoid of period
``RIDGE_PERIOD`` over the whole image. (A flat background around a ridge
disk would give the edge blocks coherent gradients and plant false cores
there.) A noisy image adds Gaussian pixel noise and a few low-contrast
patches.

Run ``python3 bench/gen.py --seed 7 --out DIR`` to write one example of
each input to DIR.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# --- minutiae ---------------------------------------------------------------

CORE = (150.0, 150.0)
N_MINUTIAE = 30
DISK_RADIUS = 120.0
MIN_SEPARATION = 5.0
JITTER_SIGMA = 1.0
MAX_TRANSLATION = 20.0


@dataclass(frozen=True)
class Finger:
    """One generated finger: minutiae as (x, y, theta, kind) plus its core."""

    points: tuple[tuple[float, float, float, str], ...]
    core: tuple[float, float]


def fmt9(v: float) -> str:
    """The MIN1 interchange precision: 9 significant digits."""
    return format(float(v), ".9g")


def gen_finger(rng: np.random.Generator) -> Finger:
    """Uniform-disk minutiae around CORE with a minimum pairwise separation."""
    cx, cy = CORE
    placed = np.empty((0, 2))
    while len(placed) < N_MINUTIAE:
        r = DISK_RADIUS * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, TWO_PI)
        p = np.array([cx + r * math.cos(phi), cy + r * math.sin(phi)])
        if len(placed) == 0 or np.min(np.sum((placed - p) ** 2, axis=1)) >= MIN_SEPARATION**2:
            placed = np.vstack([placed, p])
    points = []
    for x, y in placed:
        theta = rng.uniform(0.0, TWO_PI)
        kind = "E" if rng.uniform() < 0.5 else "B"
        points.append((float(x), float(y), theta, kind))
    return Finger(points=tuple(points), core=CORE)


def impression(finger: Finger, rng: np.random.Generator, jitter: float = JITTER_SIGMA) -> Finger:
    """Another capture of the finger: jitter, then a rigid motion about the core."""
    n = len(finger.points)
    noise = rng.normal(0.0, jitter, size=(n, 2)) if jitter > 0 else np.zeros((n, 2))
    angle = rng.uniform(0.0, TWO_PI)
    tx, ty = rng.uniform(-MAX_TRANSLATION, MAX_TRANSLATION, size=2)
    c, s = math.cos(angle), math.sin(angle)
    px, py = finger.core
    moved = []
    for (x, y, theta, kind), (nx, ny) in zip(finger.points, noise):
        rx, ry = x + nx - px, y + ny - py
        moved.append(
            (rx * c - ry * s + px + tx, rx * s + ry * c + py + ty, (theta + angle) % TWO_PI, kind)
        )
    return Finger(points=tuple(moved), core=(px + tx, py + ty))


def min1_bytes(finger: Finger) -> bytes:
    """MIN1 text of a finger at the interchange precision."""
    lines = ["MIN1", f"CORE {fmt9(finger.core[0])} {fmt9(finger.core[1])}"]
    for x, y, theta, kind in finger.points:
        t = fmt9(theta)
        if float(t) >= TWO_PI:  # 9-digit rounding can reach 2*pi itself
            t = "0"
        lines.append(f"{fmt9(x)} {fmt9(y)} {t} {kind}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_min1(data: bytes) -> tuple[np.ndarray, np.ndarray, list[str], tuple[float, float]]:
    """The benchmark's own reading of MIN1 text it wrote: (xy, theta, kinds, core)."""
    core = (0.0, 0.0)
    xy, theta, kinds = [], [], []
    for line in data.decode("utf-8").splitlines()[1:]:
        f = line.split()
        if f[0] == "CORE":
            core = (float(f[1]), float(f[2]))
        else:
            xy.append((float(f[0]), float(f[1])))
            theta.append(float(f[2]))
            kinds.append(f[3])
    return np.array(xy), np.array(theta), kinds, core


# --- orientation images -----------------------------------------------------

BLOCK = 16
IMAGE_BLOCKS = 19  # 304 x 304 pixels
RIDGE_PERIOD = 8.0
AMPLITUDE = 100.0
NOISE_SIGMA = 25.0
PATCH_AMPLITUDE = 6.0
SINGULARITY_JITTER = 10.0

CLASSES = ("arch", "tented_arch", "left_loop", "right_loop", "whorl")

# Singularity offsets from the image centre, in pixels: (cores, deltas).
PLACEMENTS = {
    "arch": ([], []),
    "tented_arch": ([(0.0, -20.0)], [(0.0, 40.0)]),
    "left_loop": ([(0.0, -20.0)], [(50.0, 45.0)]),
    "right_loop": ([(0.0, -20.0)], [(-50.0, 45.0)]),
    "whorl": ([(0.0, -18.0), (0.0, 18.0)], [(-55.0, 50.0), (55.0, 50.0)]),
}


@dataclass(frozen=True)
class Image:
    """One rendered image with the ground truth the checks need."""

    label: str
    pgm: bytes
    directions: np.ndarray  # (blocks, blocks) rendered direction per block, [0, pi)
    cores: tuple[tuple[float, float], ...]  # planted cores, pixels
    clean: bool


def zero_pole(px, py, cores, deltas, base_angle: float) -> np.ndarray:
    total = np.full(np.shape(px), base_angle)
    for cx, cy in cores:
        total = total + 0.5 * np.arctan2(py - cy, px - cx)
    for dx, dy in deltas:
        total = total - 0.5 * np.arctan2(py - dy, px - dx)
    out = np.mod(total, math.pi)
    return np.where(out >= math.pi, 0.0, out)


# Pixel coordinates. Rendering runs in float32: the raster is 8-bit anyway.
_YS, _XS = np.mgrid[0 : IMAGE_BLOCKS * BLOCK, 0 : IMAGE_BLOCKS * BLOCK].astype(np.float32)


def _per_pixel(per_block: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(per_block.astype(np.float32), BLOCK, axis=0), BLOCK, axis=1)


def render(label: str, rng: np.random.Generator, clean: bool) -> Image:
    """A PGM image of one pattern class, rendered from the zero-pole model."""
    side = IMAGE_BLOCKS * BLOCK
    centre = side / 2.0
    cores, deltas = PLACEMENTS[label]
    base_angle = rng.uniform(0.0, math.pi)
    shift = rng.uniform(-SINGULARITY_JITTER, SINGULARITY_JITTER, size=(len(cores) + len(deltas), 2))
    cores_px = [(centre + ox + shift[i, 0], centre + oy + shift[i, 1]) for i, (ox, oy) in enumerate(cores)]
    deltas_px = [
        (centre + ox + shift[len(cores) + i, 0], centre + oy + shift[len(cores) + i, 1])
        for i, (ox, oy) in enumerate(deltas)
    ]

    mid = (np.arange(IMAGE_BLOCKS) + 0.5) * BLOCK
    bx, by = np.meshgrid(mid, mid)
    directions = zero_pole(bx, by, cores_px, deltas_px, base_angle)

    # Ridges run along the block direction, so intensity varies along its normal.
    nx = _per_pixel(np.cos(directions + 0.5 * math.pi))
    ny = _per_pixel(np.sin(directions + 0.5 * math.pi))
    amplitude = np.full((IMAGE_BLOCKS, IMAGE_BLOCKS), AMPLITUDE)
    if not clean:
        for _ in range(int(rng.integers(1, 4))):
            h, w = rng.integers(3, 6, size=2)
            r0, c0 = rng.integers(2, IMAGE_BLOCKS - 2 - 3, size=2)
            amplitude[r0 : r0 + h, c0 : c0 + w] = PATCH_AMPLITUDE
    pixels = 128.0 + _per_pixel(amplitude) * np.sin(np.float32(TWO_PI / RIDGE_PERIOD) * (_XS * nx + _YS * ny))
    if not clean:
        pixels += NOISE_SIGMA * rng.standard_normal(pixels.shape, dtype=np.float32)
    raster = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
    pgm = f"P5\n{side} {side}\n255\n".encode("ascii") + raster.tobytes()
    return Image(label, pgm, directions, tuple(cores_px), clean)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write example inputs to")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    finger = gen_finger(rng)
    (out / "finger.min").write_bytes(min1_bytes(finger))
    (out / "impression.min").write_bytes(min1_bytes(impression(finger, rng)))
    for label in CLASSES:
        (out / f"{label}.pgm").write_bytes(render(label, rng, clean=False).pgm)
    print(f"wrote 2 MIN1 files and {len(CLASSES)} PGM images to {out}")


if __name__ == "__main__":
    main()
