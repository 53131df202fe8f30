"""Coarse-level features: block orientation field, certainty, segmentation,
core detection, and the 256-component direction vector around the core.

The gray image is divided into 16x16 blocks. Per block, Sobel gradients are
combined into the dominant ridge direction (normalized into [0, pi)) and a
coherence value in [0, 1] that doubles as the block's certainty. Blocks whose
certainty falls below a threshold are treated as background. The core point
is the block whose 2x2 orientation loop has winding index closest to +1/2,
and the classifier input is the 16x16 block window of directions centered on
that core, flattened row-major to 256 values (same for certainties).
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import CorePoint
from .errors import ImageTooSmall, MalformedImage, NoForeground, LowConfidenceCoreWarning

BLOCK_SIZE = 16
FEATURE_LEN = 256
DEFAULT_SEGMENT_THRESHOLD = 0.15

# A window's Poincare index must land within this distance of +1/2 for the
# detection to count as confident.
CORE_INDEX_SLACK = 0.25


class FingerClass(Enum):
    ARCH = "arch"
    TENTED_ARCH = "tented_arch"
    LEFT_LOOP = "left_loop"
    RIGHT_LOOP = "right_loop"
    WHORL = "whorl"


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, row-major."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8).reshape(self.height, self.width)
        object.__setattr__(self, "pixels", px)
        px.setflags(write=False)

    @classmethod
    def from_array(cls, arr) -> "GrayImage":
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError("expected a 2-D intensity array")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a.astype(np.uint8))


@dataclass(frozen=True)
class OrientationField:
    """Per-block ridge directions in [0, pi) with certainties in [0, 1]."""

    directions: np.ndarray  # (rows, cols) radians
    certainties: np.ndarray  # (rows, cols)
    block_size: int = BLOCK_SIZE

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64)
        c = np.asarray(self.certainties, dtype=np.float64)
        if d.shape != c.shape or d.ndim != 2:
            raise ValueError("direction and certainty grids must share one 2-D shape")
        if np.any(d < 0.0) or np.any(d >= np.pi):
            raise ValueError("directions must lie in [0, pi)")
        if np.any(c < 0.0) or np.any(c > 1.0):
            raise ValueError("certainties must lie in [0, 1]")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "certainties", c)
        d.setflags(write=False)
        c.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.directions.shape[0]

    @property
    def cols(self) -> int:
        return self.directions.shape[1]


@dataclass(frozen=True)
class FeatureVector:
    """Flattened 16x16 block window around the core: 256 directions + certainties."""

    directions: np.ndarray  # (256,)
    certainties: np.ndarray  # (256,)
    class_label: FingerClass | None = None

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64).reshape(-1)
        c = np.asarray(self.certainties, dtype=np.float64).reshape(-1)
        if d.shape != (FEATURE_LEN,) or c.shape != (FEATURE_LEN,):
            raise ValueError(f"feature vectors carry exactly {FEATURE_LEN} components")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "certainties", c)
        d.setflags(write=False)
        c.setflags(write=False)


def estimate_block_directions(img: GrayImage, block_size: int = BLOCK_SIZE) -> OrientationField:
    """Estimate per-block ridge direction and coherence from Sobel gradients.

    For each whole block, with gradient sums Sxx = sum(Gx^2), Syy = sum(Gy^2)
    and Sxy = sum(Gx*Gy):

        direction = atan2(2*Sxy, Sxx - Syy) / 2 + pi/2   (mod pi)
        certainty = sqrt((Sxx - Syy)^2 + 4*Sxy^2) / (Sxx + Syy)

    The +pi/2 turns the dominant gradient direction into the ridge flow
    direction. A block with zero gradient energy gets certainty 0.
    """
    if img.width < block_size or img.height < block_size:
        raise ImageTooSmall(f"image {img.width}x{img.height} smaller than one block")

    # Sobel with edge pixels mirrored ("symmetric" padding). The pixels are
    # 8-bit, so every gradient and block sum below is an exact integer.
    f = np.pad(img.pixels.astype(np.float64), 1, mode="symmetric")
    dx = f[:, 2:] - f[:, :-2]
    dy = f[2:, :] - f[:-2, :]
    gx = dx[:-2] + 2.0 * dx[1:-1] + dx[2:]
    gy = dy[:, :-2] + 2.0 * dy[:, 1:-1] + dy[:, 2:]

    rows = img.height // block_size
    cols = img.width // block_size
    h, w = rows * block_size, cols * block_size

    def block_sum(a: np.ndarray) -> np.ndarray:
        return a[:h, :w].reshape(rows, block_size, cols, block_size).sum(axis=(1, 3))

    sxx = block_sum(gx * gx)
    syy = block_sum(gy * gy)
    sxy = block_sum(gx * gy)

    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy) + 0.5 * np.pi
    theta = np.mod(theta, np.pi)
    theta = np.where(theta >= np.pi, 0.0, theta)

    energy = sxx + syy
    coherence = np.zeros_like(energy)
    nz = energy > 0.0
    coherence[nz] = np.sqrt((sxx[nz] - syy[nz]) ** 2 + 4.0 * sxy[nz] ** 2) / energy[nz]
    np.clip(coherence, 0.0, 1.0, out=coherence)

    return OrientationField(directions=theta, certainties=coherence, block_size=block_size)


def segment_by_certainty(field: OrientationField, tau_seg: float) -> OrientationField:
    """Zero out the certainty of blocks below the threshold (mark background).

    Directions are untouched; foreground is defined as certainty > 0.
    """
    if not 0.0 <= tau_seg <= 1.0:
        raise ValueError("segmentation threshold must lie in [0, 1]")
    cert = np.where(field.certainties < tau_seg, 0.0, field.certainties)
    return OrientationField(
        directions=field.directions, certainties=cert, block_size=field.block_size
    )


def _wrap_half_pi(d: np.ndarray) -> np.ndarray:
    """Wrap orientation differences into (-pi/2, pi/2]."""
    out = np.mod(d + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    return np.where(out == -0.5 * np.pi, 0.5 * np.pi, out)


def poincare_index_grid(field: OrientationField) -> np.ndarray:
    """Winding index of every 2x2 block window, anchored at its top-left block.

    The four orientations are walked in a closed loop; each step difference is
    wrapped into (-pi/2, pi/2] and the wrapped sum is divided by 2*pi. A loop
    core scores +1/2, a delta -1/2, smooth flow 0.
    """
    d = field.directions
    t00 = d[:-1, :-1]
    t01 = d[:-1, 1:]
    t11 = d[1:, 1:]
    t10 = d[1:, :-1]
    total = (
        _wrap_half_pi(t01 - t00)
        + _wrap_half_pi(t11 - t01)
        + _wrap_half_pi(t10 - t11)
        + _wrap_half_pi(t00 - t10)
    )
    return total / (2.0 * np.pi)


def detect_core(field: OrientationField) -> CorePoint:
    """Locate the core: the 2x2 block window whose winding index is closest
    to +1/2, reported as the window's center pixel (the corner shared by its
    four blocks). A window encloses its singularity within half a block of
    that corner, so the detection lands within one block of the true core.

    Only windows whose four blocks are all foreground qualify. Ties go to the
    window with the highest mean certainty, then to row-major order. When no
    window comes near +1/2 (slack 0.25) there is no real singularity; the
    best-certainty candidate is still returned but a
    LowConfidenceCoreWarning is emitted.
    """
    if field.rows < 2 or field.cols < 2:
        raise NoForeground("field too small for a 2x2 window")
    fg = field.certainties > 0.0
    window_fg = fg[:-1, :-1] & fg[:-1, 1:] & fg[1:, 1:] & fg[1:, :-1]
    if not np.any(window_fg):
        raise NoForeground("no 2x2 window of foreground blocks")

    index = poincare_index_grid(field)
    score = np.abs(index - 0.5)
    c = field.certainties
    window_cert = (c[:-1, :-1] + c[:-1, 1:] + c[1:, 1:] + c[1:, :-1]) / 4.0

    rr, cc = np.nonzero(window_fg)
    # Sort by (score asc, certainty desc, row-major); lexsort keys are
    # listed least significant first.
    pick = np.lexsort((cc, rr, -window_cert[rr, cc], score[rr, cc]))[0]
    r, col = int(rr[pick]), int(cc[pick])

    if score[r, col] > CORE_INDEX_SLACK:
        warnings.warn(
            "no window with a +1/2 winding index; returning best-certainty block",
            LowConfidenceCoreWarning,
            stacklevel=2,
        )
    bs = field.block_size
    return CorePoint(x=(col + 1) * bs, y=(r + 1) * bs)


def extract_feature_vector(field: OrientationField, core: CorePoint) -> FeatureVector:
    """Flatten the 16x16 block window centered on the core's block.

    Window cells outside the field or in background blocks carry certainty 0
    and, so that they cannot pull the vector around, a direction equal to the
    running mean of the foreground directions seen so far in the scan (0
    before the first foreground cell).
    """
    bs = field.block_size
    bx = int(math.floor(core.x / bs))
    by = int(math.floor(core.y / bs))

    directions = np.zeros(FEATURE_LEN)
    certainties = np.zeros(FEATURE_LEN)
    fg_sum = 0.0
    fg_count = 0
    i = 0
    for r in range(by - 8, by + 8):
        for c in range(bx - 8, bx + 8):
            inside = 0 <= r < field.rows and 0 <= c < field.cols
            if inside and field.certainties[r, c] > 0.0:
                d = float(field.directions[r, c])
                directions[i] = d
                certainties[i] = float(field.certainties[r, c])
                fg_sum += d
                fg_count += 1
            else:
                directions[i] = fg_sum / fg_count if fg_count else 0.0
                certainties[i] = 0.0
            i += 1
    return FeatureVector(directions=directions, certainties=certainties)


# --- PGM input (P2 ASCII and P5 binary, maxval up to 255) -------------------

_PGM_TOKEN = re.compile(rb"(?:#[^\n]*\n|\s)*([^\s#]+)")


def _pgm_tokens(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    tokens = []
    pos = start
    while len(tokens) < count:
        m = _PGM_TOKEN.match(data, pos)
        if not m:
            raise MalformedImage("truncated PGM file")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens, pos


def read_pgm(source) -> GrayImage:
    """Read a P2 or P5 PGM image (maxval <= 255) from a path or bytes. A
    malformed image raises MalformedImage."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    (magic,), pos = _pgm_tokens(data, 1, 0)
    if magic not in (b"P2", b"P5"):
        raise MalformedImage(f"unsupported PGM magic {magic!r}")
    header, pos = _pgm_tokens(data, 3, pos)
    if not all(tok.isdigit() for tok in header):
        raise MalformedImage("PGM width, height and maxval must be whole numbers")
    width, height, maxval = map(int, header)
    if not (0 < maxval <= 255):
        raise MalformedImage("only 8-bit PGM images are supported")
    n = width * height
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raster = data[pos : pos + n]
        if len(raster) < n:
            raise MalformedImage("truncated PGM raster")
        px = np.frombuffer(raster, dtype=np.uint8, count=n)
    else:
        values, _ = _pgm_tokens(data, n, pos)
        levels = [int(v) if v.isdigit() else -1 for v in values]
        # Checked before the uint8 cast, which would raise OverflowError on 300 or -1.
        if not all(0 <= v <= maxval for v in levels):
            raise MalformedImage("P2 pixel values must be whole numbers in [0, maxval]")
        px = np.array(levels, dtype=np.uint8)
    if int(px.max(initial=0)) > maxval:
        raise MalformedImage("pixel value exceeds declared maxval")
    return GrayImage(width=width, height=height, pixels=px.reshape(height, width))


def write_pgm(img: GrayImage, path) -> None:
    """Write a binary (P5) PGM file."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())
