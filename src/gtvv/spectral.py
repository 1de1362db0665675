"""STFT front-end and the inverse transform from GFVV to GTVV.

The time axis of a GTVV matrix is fixed here once: a length-T analysis
window maps to lags (index - T/2) / fs, so column T/2 (0-indexed) is t = 0
and column T/2 - 1 is the last negative lag. Downstream code reads delays
off `time_axis`, never off raw column indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InconsistentSpectrumError
from .room import AmbisonicSignal

_IMAG_RESIDUE_TOL = 1e-8
# frames windowed, transformed or reduced at a time
FRAME_BLOCK = 8


class SpectrumTensor:
    """Hamming-windowed one-sided STFT of every channel of `signal`, with
    frames `win_len`/4 apart (see `frame_count`), computed where it is
    read: `block` (or a `reader`'s) transforms a run of frames,
    `cross_power` and `energy` reduce them without a transform, and
    nothing frames x channels x bins is stored.

    The signal is checked once here, so every block is finite. Its
    samples are read when a block is, so it must not change after
    construction. Statistics derived from the spectrum can be computed
    once per instance (`cached`).
    """

    def __init__(self, signal: AmbisonicSignal, win_len: int):
        if win_len <= 0 or (win_len & (win_len - 1)) != 0:
            raise ValueError("win_len must be a power of two")
        if signal.num_samples < win_len:
            raise ValueError("signal shorter than one analysis window")
        # A sample that is not finite, or of magnitude finfo(float).max /
        # win_len or more, could make a transform non-finite. Two passes
        # without a temporary; a NaN fails the comparison.
        peak = max(float(np.max(signal.channels)),
                   -float(np.min(signal.channels)))
        if not peak < np.finfo(float).max / win_len:
            raise ValueError("signal samples must be finite and of magnitude "
                             f"below finfo(float).max / {win_len}")
        self.signal = signal
        self.win_len = win_len
        self.fs = signal.fs
        self.channels = signal.channels.shape[0]
        self.bins = win_len // 2 + 1
        self.frames = frame_count(signal.num_samples, win_len)
        # (frames, channels, win_len) strided view of the frames, no copies
        self._view = sliding_window_view(
            signal.channels, win_len, axis=1)[:, ::win_len // 4].transpose(
                1, 0, 2)
        self._window = np.hamming(win_len)
        # the DC and Nyquist bins of a real windowed frame: its sum and its
        # alternating sum, as products of the frame with these columns
        self._window_edges = np.stack([self._window, self._window], axis=1)
        self._window_edges[1::2, 1] *= -1.0
        self._cache = {}

    def cached(self, key, compute):
        """`compute()`, evaluated on the first call with `key` only."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _check_run(self, start: int, stop: int):
        if not 0 <= start < stop <= min(self.frames, start + FRAME_BLOCK):
            raise ValueError(f"frames {start}:{stop}: not a run of 1 to "
                             f"{FRAME_BLOCK} of 0:{self.frames}")

    def _windowed(self, start: int, stop: int, out) -> np.ndarray:
        """Frames `start` to `stop` - 1 times the window, in the first rows
        of `out` (a new array if None)."""
        self._check_run(start, stop)
        if out is not None:
            out = out[:stop - start]
        return np.multiply(self._view[start:stop], self._window, out=out)

    def _edge_bins(self, start: int, stop: int) -> np.ndarray:
        """The DC and Nyquist bins d, q of frames `start` to `stop` - 1:
        (frames, channels, 2), real."""
        return np.matmul(self._view[start:stop], self._window_edges)

    def reader(self, frames: int) -> "FrameReader":
        """A reader of runs of up to `frames` frames into buffers of its
        own (see `FrameReader`)."""
        return FrameReader(self, frames)

    def block(self, start: int, stop: int) -> np.ndarray:
        """The spectra of frames `start` to `stop` - 1, a run of 1 to
        `FRAME_BLOCK` frames (see `frame_blocks`): (frames, channels,
        bins) complex, a new array. Each row is the same one-dimensional
        transform of the same windowed frame as in one batched call over
        all frames, bit for bit."""
        self._check_run(start, stop)
        return self.reader(stop - start).block(start, stop)

    def cross_power(self, start: int, stop: int) -> np.ndarray:
        """Re Σ_k conj(b_k) b_kᵀ over the one-sided bins k of each of
        frames `start` to `stop` - 1: (frames, channels, channels). Like
        `block`, it takes a run of 1 to `FRAME_BLOCK` frames.

        By Parseval the two-sided sum is N X Xᵀ for the windowed frame X
        (channels x N). It counts each inner bin twice, its mirror adding
        the same real part, and the DC and Nyquist bins, d and q, once, so
        the one-sided sum is (N X Xᵀ + d dᵀ + q qᵀ) / 2 and needs no
        transform.
        """
        x = self._windowed(start, stop, None)
        edges = self._edge_bins(start, stop)
        power = np.matmul(x, x.transpose(0, 2, 1))
        power *= self.win_len
        power += np.matmul(edges, edges.transpose(0, 2, 1))
        power /= 2.0
        return power

    def energy(self, start: int, stop: int) -> np.ndarray:
        """Σ_k |b_k|² over the channels and one-sided bins k of each of
        frames `start` to `stop` - 1, the trace of `cross_power`:
        (N Σ_n w_n² s_n + |d|² + |q|²) / 2 with s the frame's squared
        samples summed over channels. It windows no frame and forms no
        channel x channel product."""
        self._check_run(start, stop)
        hop = self.win_len // 4
        span = self.signal.channels[
            :, start * hop:(stop - 1) * hop + self.win_len]
        squares = np.einsum("ct,ct->t", span, span)
        energy = np.matmul(
            sliding_window_view(squares, self.win_len)[::hop],
            self._window ** 2)
        energy *= self.win_len
        edges = self._edge_bins(start, stop)
        energy += np.einsum("fce,fce->f", edges, edges)
        energy /= 2.0
        return energy


class FrameReader:
    """`SpectrumTensor.block` into buffers allocated once, here, for runs
    of up to `frames` frames: each block overwrites the last one's, and
    readers share no buffer, so that readers on different threads may
    read one spectrum at the same time."""

    def __init__(self, spec: SpectrumTensor, frames: int):
        self._spec = spec
        self._windowed = np.empty((frames, spec.channels, spec.win_len))
        self._spectra = np.empty((frames, spec.channels, spec.bins),
                                 dtype=complex)

    def block(self, start: int, stop: int) -> np.ndarray:
        """`SpectrumTensor.block`, a view of this reader's buffer."""
        x = self._spec._windowed(start, stop, self._windowed)
        return np.fft.rfft(x, axis=-1, out=self._spectra[:stop - start])


def frame_blocks(stop: int):
    """(start, stop) of the runs of `FRAME_BLOCK` frames that cover
    frames 0 to `stop` - 1, the last run possibly shorter."""
    for start in range(0, stop, FRAME_BLOCK):
        yield start, min(start + FRAME_BLOCK, stop)


@dataclass(frozen=True)
class GtvvMatrix:
    """Time-domain velocity vector: data[channel, lag] over `time_axis`."""

    data: np.ndarray
    fs: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("GTVV data must be channels x lags")
        if not np.all(np.isfinite(data)):
            raise ValueError("GTVV data must be finite")
        object.__setattr__(self, "data", data)

    @property
    def time_axis(self) -> np.ndarray:
        return make_time_axis(self.win_len, self.fs)

    @property
    def zero_index(self) -> int:
        return self.win_len // 2

    @property
    def win_len(self) -> int:
        return self.data.shape[1]


def make_time_axis(win_len: int, fs: float) -> np.ndarray:
    return (np.arange(win_len) - win_len // 2) / fs


def frame_count(num_samples: int, win_len: int) -> int:
    """Number of STFT frames of a `num_samples` signal: frame u starts at
    sample u * win_len/4 (75% overlap) and must end inside the signal."""
    return (num_samples - win_len) // (win_len // 4) + 1


def stft(sig: AmbisonicSignal, win_len: int) -> SpectrumTensor:
    """The spectrum of every channel of `sig` (see `SpectrumTensor`)."""
    return SpectrumTensor(sig, win_len)


def gfvv_to_gtvv(v_f: np.ndarray, fs: float) -> GtvvMatrix:
    """Inverse transform of a one-sided GFVV to the lag domain.

    The channels x (T/2+1) spectrum of a real lag response is Hermitian, so
    `irfft` inverts it exactly over T = 2 (bins - 1) lags; the columns are
    rolled to cover the lags (index - T/2)/fs. A real response has real DC
    and Nyquist bins: an imaginary part there above 1e-8 of the largest
    magnitude signals an inconsistent spectrum and raises.
    """
    v_f = np.asarray(v_f, dtype=complex)
    if v_f.ndim != 2 or v_f.shape[1] < 2:
        raise ValueError("expected a channels x (T/2 + 1) spectrum")
    if not np.all(np.isfinite(v_f)):
        raise ValueError("spectrum must be finite")
    if np.max(np.abs(v_f[:, [0, -1]].imag)) > (_IMAG_RESIDUE_TOL
                                                * np.max(np.abs(v_f))):
        raise InconsistentSpectrumError("complex DC or Nyquist bin")
    win_len = 2 * (v_f.shape[1] - 1)
    return GtvvMatrix(np.roll(np.fft.irfft(v_f, axis=1), win_len // 2,
                              axis=1), fs)
