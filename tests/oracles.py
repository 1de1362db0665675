"""Test oracles: independent routes to what the package computes, and
helpers that only the tests call.

- `ArraySpectrum`, a spectrum given as an array with the read interface
  of `gtvv.spectral.SpectrumTensor`: the fake through which tests inject
  exact frequency-domain spectra, and the frequency-domain reference of
  `cross_power` and `energy`;
- `all_frames`, every frame of a spectrum as one array;
- `instantaneous_gfvv`, the noiseless one-frame GFVV b(f) / (w . b(f)),
  against which the least-squares estimator is checked;
- `from_unit_vector`, the inverse of `Direction.unit_vector`;
- `nearest`, a dictionary's atom closest to a direction;
- `to_json`, an `ExperimentConfig` as the JSON that `from_json` reads.
"""

import json
import math
from dataclasses import asdict

import numpy as np

from gtvv.errors import GtvvError
from gtvv.sh import Direction
from gtvv.spectral import frame_blocks
from gtvv.velocity import GfvvEstimate

_DENOM_FLOOR = 1e-9


class ArraySpectrum:
    """STFT data[frame, channel, bin], read as `stft`'s lazy spectrum is:
    `frames`, `channels`, `bins`, `fs`, `cached`, `block`, `reader`,
    `cross_power` and `energy`.

    `data` is a read-only C-contiguous copy of finite values: the
    estimator views each frame's channels x bins as floats.
    """

    def __init__(self, data, fs):
        data = np.ascontiguousarray(data, dtype=complex)
        if data.ndim != 3:
            raise ValueError("spectrum data must be frames x channels x bins")
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrum data must be finite")
        data = data.view()
        data.flags.writeable = False
        self.data = data
        self.fs = fs
        self.frames, self.channels, self.bins = data.shape
        self._cache = {}

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def block(self, start, stop):
        return self.data[start:stop]

    def reader(self, frames):
        """Itself: its blocks are read-only slices, which any number of
        threads may read at once."""
        return self

    def cross_power(self, start, stop):
        """Re Σ_k conj(b_k) b_kᵀ over the bins k of each frame."""
        b = self.data[start:stop]
        return np.matmul(b.conj(), b.transpose(0, 2, 1)).real

    def energy(self, start, stop):
        """The trace of each frame's `cross_power`."""
        return np.trace(self.cross_power(start, stop), axis1=1, axis2=2)


def all_frames(spec):
    """The spectra of every frame of `spec`, (frames, channels, bins): its
    blocks concatenated."""
    return np.concatenate([spec.block(start, stop)
                           for start, stop in frame_blocks(spec.frames)])


class SilentFrameError(GtvvError):
    """Every frequency bin of a frame fell below the reference-output floor."""


def instantaneous_gfvv(spec, w, frame: int) -> GfvvEstimate:
    """Noiseless-style per-bin ratio b(f) / (w . b(f)) for one frame of
    `spec`, `w` the reference beam's weights. It solves no system, so its
    `near_singular` is None.

    Bins whose reference output falls below 1e-9 times the frame RMS are
    flagged invalid (NaN), not filled.
    """
    b = spec.block(frame, frame + 1)[0]  # channels x bins
    denom = w @ b
    rms = math.sqrt(float(np.mean(np.abs(b) ** 2)))
    valid = np.abs(denom) > _DENOM_FLOOR * rms
    if not np.any(valid):
        raise SilentFrameError(f"frame {frame}: reference output below floor "
                               "in every bin")
    values = np.full(b.shape, np.nan, dtype=complex)
    values[:, valid] = b[:, valid] / denom[valid]
    return GfvvEstimate(values, valid, None)


def from_unit_vector(v) -> Direction:
    """The direction of a non-zero 3-vector."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    v = v / n
    return Direction(math.atan2(v[1], v[0]), math.asin(np.clip(v[2], -1.0, 1.0)))


def nearest(dictionary, direction: Direction) -> int:
    """Index of the atom of `dictionary` closest to `direction` (great
    circle); ties go to the lowest index."""
    az = np.array([d.azimuth for d in dictionary.directions], dtype=float)
    el = np.array([d.elevation for d in dictionary.directions], dtype=float)
    vecs = np.column_stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    return int(np.argmax(vecs @ direction.unit_vector()))


def to_json(cfg) -> str:
    """The JSON of an `ExperimentConfig`'s fields."""
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)
