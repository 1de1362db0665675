"""Test oracles: independent routes to what the package computes, and
helpers that only the tests call.

- `ArraySpectrum`, a spectrum given as an array with the read interface
  of `gtvv.spectral.SpectrumTensor` (`reader` and its `block`,
  `weighted_cross_power`, `energy`): the fake through which tests inject
  exact frequency-domain spectra, and the frequency-domain reference of
  `weighted_cross_power` and `energy`, formed from its frames;
- `all_frames`, every frame of a spectrum as one array, read through
  the spectrum's readers;
- `instantaneous_gfvv`, the noiseless one-frame GFVV b(f) / (w . b(f)),
  against which the least-squares estimator is checked;
- `from_unit_vector`, the inverse of `Direction.unit_vector`;
- `nearest`, a dictionary's atom closest to a direction;
- `to_json`, an `ExperimentConfig` as the JSON that `from_json` reads;
- `cell`, a `ResultsTable`'s row of one method, order and rt60.
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
    `frames`, `channels`, `bins`, `fs`, `reader` (and its `block`),
    `weighted_cross_power` and `energy`.

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

    def reader(self, frames):
        """A reader of runs of up to `frames` frames into a buffer of its
        own, as `FrameReader` reads them."""
        return ArrayReader(self, frames)

    def weighted_cross_power(self, weights, edges):
        """Σ_u weights[u] Re Σ_k conj(b_uk) b_ukᵀ over the frames u and
        bins k, from the spectra; `edges` is not read."""
        powers = np.matmul(self.data.conj(), self.data.transpose(0, 2, 1))
        return np.tensordot(weights, powers.real, 1)

    def energy(self, start, stop):
        """Σ_k |b_k|² over the channels and bins k of each frame, and the
        real parts of its DC and Nyquist bins."""
        frames = self.data[start:stop]
        return (np.sum(np.abs(frames) ** 2, axis=(1, 2)),
                frames[..., [0, -1]].real)


class ArrayReader:
    """`FrameReader` of an `ArraySpectrum`: each block copies the frames
    into the reader's buffer, which the caller may overwrite."""

    def __init__(self, spec, frames):
        self._data = spec.data
        self._buffer = np.empty((frames, spec.channels, spec.bins),
                                dtype=complex)

    def block(self, start, stop):
        """`FrameReader.block`: frames `start` to `stop` - 1."""
        out = self._buffer[:stop - start]
        out[...] = self._data[start:stop]
        return out


def all_frames(spec):
    """The spectra of every frame of `spec`, (frames, channels, bins): its
    blocks concatenated, each read by a reader of its own, since the next
    read of a reader overwrites its last block."""
    return np.concatenate([spec.reader(stop - start).block(start, stop)
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
    b = spec.reader(1).block(frame, frame + 1)[0]  # channels x bins
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


def cell(table, method, order, rt60) -> dict:
    """The row of `table` (a `ResultsTable`) of `method` at `order` and
    `rt60`."""
    for r in table.rows:
        if (r["method"] == method and r["order"] == order
                and r["rt60"] == rt60):
            return r
    raise KeyError((method, order, rt60))
