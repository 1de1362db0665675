"""Real spherical harmonics (ACN/SN3D), direction grids and beamformer weights.

Conventions used throughout the package:

* real-valued spherical harmonics, SN3D normalization, ACN channel ordering
  (channel index ``l*l + l + m``), so the omnidirectional channel of any
  direction equals exactly 1;
* directions as (azimuth, elevation) pairs in radians, azimuth in (-pi, pi]
  counterclockwise from +x, elevation in [-pi/2, pi/2] upward from the xy
  plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 8

# minimum allowed separation between dictionary entries
_MIN_SEPARATION_RAD = math.radians(0.1)

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def num_channels(order: int) -> int:
    """Number of spherical-harmonic channels up to `order` inclusive."""
    return (order + 1) ** 2


def order_from_channels(channels: int) -> int:
    order = int(round(math.sqrt(channels))) - 1
    if num_channels(order) != channels:
        raise ValueError(f"{channels} is not a full-order channel count")
    return order


@dataclass(frozen=True)
class Direction:
    """A point on the unit sphere, normalized on construction."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        az = float(self.azimuth)
        el = float(self.elevation)
        if not (math.isfinite(az) and math.isfinite(el)):
            raise ValueError("direction angles must be finite")
        # fold elevation into [-pi/2, pi/2]; crossing a pole flips azimuth
        el = math.remainder(el, 2.0 * math.pi)
        if el > math.pi / 2.0:
            el = math.pi - el
            az += math.pi
        elif el < -math.pi / 2.0:
            el = -math.pi - el
            az += math.pi
        az = math.remainder(az, 2.0 * math.pi)
        if az <= -math.pi:
            az += 2.0 * math.pi
        object.__setattr__(self, "azimuth", az)
        object.__setattr__(self, "elevation", el)

    def unit_vector(self) -> np.ndarray:
        ce = math.cos(self.elevation)
        return np.array(
            [
                ce * math.cos(self.azimuth),
                ce * math.sin(self.azimuth),
                math.sin(self.elevation),
            ]
        )

    @staticmethod
    def from_unit_vector(v) -> "Direction":
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        v = v / n
        return Direction(math.atan2(v[1], v[0]), math.asin(np.clip(v[2], -1.0, 1.0)))


@dataclass(frozen=True)
class BeamWeights:
    """Frequency-independent spatial filter applied to the SH channels."""

    order: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (num_channels(self.order),):
            raise ValueError("weight length does not match the order")
        object.__setattr__(self, "weights", w)


def sh_matrix(azimuths, elevations, order: int) -> np.ndarray:
    """Evaluate real SN3D spherical harmonics for arrays of angles.

    Returns an array of shape ((order+1)^2, n) whose column j holds the ACN
    ordered coefficients of direction j.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}], got {order}")
    az = np.atleast_1d(np.asarray(azimuths, dtype=float))
    el = np.atleast_1d(np.asarray(elevations, dtype=float))
    if az.shape != el.shape:
        raise ValueError("azimuth/elevation arrays must have equal shapes")
    x = np.sin(el)
    s = np.sqrt(1.0 - x * x)
    out = np.empty((num_channels(order), az.size))
    # associated Legendre functions without the Condon-Shortley phase, by
    # the three-term recurrence in l from P_m^m = (2m - 1)!! s^m
    p_mm = np.ones_like(x)
    for m in range(order + 1):
        if m > 0:
            p_mm = (2 * m - 1) * s * p_mm
            cos_m, sin_m = np.cos(m * az), np.sin(m * az)
        p_prev, p = np.zeros_like(x), p_mm
        for l in range(m, order + 1):
            if l > m:
                p, p_prev = ((2 * l - 1) * x * p
                             - (l + m - 1) * p_prev) / (l - m), p
            if m == 0:
                out[l * l + l] = p
            else:
                norm = math.sqrt(
                    2.0 * math.factorial(l - m) / math.factorial(l + m))
                out[l * l + l + m] = norm * p * cos_m
                out[l * l + l - m] = norm * p * sin_m
    return out


def sh_eval(direction: Direction, order: int) -> np.ndarray:
    """Real SN3D/ACN spherical-harmonic coefficients of a single direction."""
    return sh_matrix(direction.azimuth, direction.elevation, order)[:, 0]


def make_reference_beam(direction: Direction, order: int) -> BeamWeights:
    """Maximum-directivity beam at `direction`, normalized to unit gain there.

    The weights are y(dir) / ||y(dir)||^2 so that w . y(dir) == 1, which makes
    the direct-path coefficient of the velocity vector equal to one.
    """
    y = sh_eval(direction, order)
    return BeamWeights(order, y / float(y @ y))


def make_omni_beam(order: int) -> BeamWeights:
    """Weights selecting the omnidirectional channel only."""
    w = np.zeros(num_channels(order))
    w[0] = 1.0
    return BeamWeights(order, w)


def angular_distance(a: Direction, b: Direction) -> float:
    """Great-circle distance between two directions, in radians."""
    d = float(np.clip(a.unit_vector() @ b.unit_vector(), -1.0, 1.0))
    return math.acos(d)


@dataclass(frozen=True)
class Dictionary:
    """Direction grid and the matrix of its SH atoms (one per column)."""

    order: int
    directions: tuple
    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.shape != (num_channels(self.order), len(self.directions)):
            raise ValueError("atom matrix shape does not match directions/order")
        az = np.array([d.azimuth for d in self.directions], dtype=float)
        el = np.array([d.elevation for d in self.directions], dtype=float)
        # rows are the Direction.unit_vector of each atom
        vecs = np.column_stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
        if _has_close_pair(vecs, _MIN_SEPARATION_RAD):
            raise ValueError("dictionary directions closer than 0.1 degrees")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(self, "_unit_vectors", vecs)

    def __len__(self):
        return len(self.directions)

    def nearest(self, direction: Direction) -> int:
        """Index of the atom closest to `direction` (great circle); ties go
        to the lowest index."""
        return int(np.argmax(self._unit_vectors @ direction.unit_vector()))


def _has_close_pair(vecs: np.ndarray, min_sep: float) -> bool:
    """Whether two rows of `vecs` (unit vectors) are less than `min_sep`
    radians apart, in O(n log n) time and O(n) memory for spread-out sets.

    Unit vectors with u.v > cos(min_sep) are less than one chord
    sqrt(2 - 2 cos(min_sep)) apart, so their z values are too. After a sort
    by z, such a pair lies fewer than `width` places apart, where `width`
    is the most points that one z-window of a chord holds; every offset
    below it is checked with one vectorised dot product.
    """
    cos_min = math.cos(min_sep)
    chord = math.sqrt(2.0 - 2.0 * cos_min) * (1.0 + 1e-6)  # rounding slack
    v = vecs[np.argsort(vecs[:, 2], kind="stable")]
    z = v[:, 2]
    ends = np.searchsorted(z, z + chord, side="right")
    width = int(np.max(ends - np.arange(len(z)), initial=1))
    for k in range(1, width):
        if np.einsum("ij,ij->i", v[:-k], v[k:]).max() > cos_min:
            return True
    return False


def fibonacci_directions(count: int) -> list:
    """Quasi-uniform golden-angle spiral on the sphere."""
    dirs = []
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        az = math.remainder(i * _GOLDEN_ANGLE, 2.0 * math.pi)
        dirs.append(Direction(az, math.asin(z)))
    return dirs


def read_direction_file(path) -> list:
    """Parse a direction-list file: one "azimuth_rad elevation_rad" per line.

    Blank lines and '#' comments are skipped.
    """
    dirs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two numbers")
            try:
                az, el = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed number") from exc
            dirs.append(Direction(az, el))
    return dirs


def build_dictionary(count: int, order: int, directions=None) -> Dictionary:
    """Build an SH dictionary over `count` quasi-uniform directions.

    Without `directions` they are a deterministic Fibonacci spiral; given
    (e.g. a tabulated Lebedev grid parsed by `read_direction_file`), they
    must number `count`.
    """
    if count < num_channels(order):
        raise ValueError("dictionary smaller than the SH channel count")
    dirs = fibonacci_directions(count) if directions is None else directions
    if len(dirs) != count:
        raise ValueError(f"{len(dirs)} directions given, expected {count}")
    az = np.array([d.azimuth for d in dirs])
    el = np.array([d.elevation for d in dirs])
    return Dictionary(order, tuple(dirs), sh_matrix(az, el, order))
