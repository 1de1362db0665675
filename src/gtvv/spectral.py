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
    read: a `reader`'s `block` transforms a run of frames,
    `weighted_cross_power` and `energy` reduce them without a transform,
    and nothing frames x channels x bins is stored.

    The samples may be float32 or float64; every transform and reduction
    computes in float64, so float32 samples and their float64 copy give
    the same numbers, bit for bit. The signal is checked once here, so
    every block is finite. Its samples are read when a block is, so it
    must not change after construction.
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

    def _check_run(self, start: int, stop: int):
        if not 0 <= start < stop <= min(self.frames, start + FRAME_BLOCK):
            raise ValueError(f"frames {start}:{stop}: not a run of 1 to "
                             f"{FRAME_BLOCK} of 0:{self.frames}")

    def reader(self, frames: int) -> "FrameReader":
        """A reader of runs of up to `frames` frames into buffers of its
        own (see `FrameReader`)."""
        return FrameReader(self, frames)

    def weighted_cross_power(self, weights, edges) -> np.ndarray:
        """Σ_u g_u Re Σ_k conj(b_uk) b_ukᵀ over the frames u and their
        one-sided bins k, one weight g_u per frame: (channels, channels).
        `edges` are every frame's DC and Nyquist bins, as `energy` returns
        them: (frames, channels, 2).

        By Parseval, frame u's sum is (N X_u X_uᵀ + d_u d_uᵀ + q_u q_uᵀ) / 2
        for its windowed samples X_u (channels x N) and its DC and Nyquist
        bins d_u, q_u. Over the frames, the first term is N Σ_t c_t s_t s_tᵀ
        over the samples, c_t = Σ_u g_u w²_{t-uH} over the 4 frames that
        cover sample t: one product per run of frames, over the hops they
        start (and the 3 that end the last frame), with no transform."""
        if np.shape(weights) != (self.frames,):
            raise ValueError(f"{np.shape(weights)} weights for "
                             f"{self.frames} frames")
        if np.shape(edges) != (self.frames, self.channels, 2):
            raise ValueError(f"{np.shape(edges)} edge bins for "
                             f"{self.frames} frames of {self.channels} "
                             "channels")
        hop = self.win_len // 4
        # row k: the weights of the frames k to k - 3 that cover hop k
        hop_weights = sliding_window_view(np.pad(weights, 3), 4)[:, ::-1]
        squares = (self.win_len * self._window ** 2).reshape(4, hop)
        power = np.zeros((self.channels, self.channels))
        for start, stop in frame_blocks(self.frames):
            last = stop + 3 if stop == self.frames else stop
            span = self.signal.channels[:, start * hop:last * hop]
            c = np.matmul(hop_weights[start:last], squares).reshape(-1)
            power += np.matmul(span * c, span.T)
            d_q = edges[start:stop]
            power += np.tensordot(d_q * weights[start:stop, None, None], d_q,
                                  ([0, 2], [0, 2]))
        return power / 2.0

    def energy(self, start: int, stop: int) -> tuple:
        """Σ_k |b_k|² over the channels and one-sided bins k of each of
        frames `start` to `stop` - 1, the trace of its cross-power term:
        (N Σ_n w_n² s_n + |d|² + |q|²) / 2 with s the frame's squared
        samples summed over channels, and the DC and Nyquist bins d, q of
        the frames, real, that it forms on the way, for
        `weighted_cross_power`: returns ((frames,), (frames, channels, 2)).
        It windows no frame and forms no channel x channel product."""
        self._check_run(start, stop)
        hop = self.win_len // 4
        span = self.signal.channels[
            :, start * hop:(stop - 1) * hop + self.win_len]
        # summed in float64 whatever the samples' precision
        span = span.astype(float, copy=False)
        squares = np.einsum("ct,ct->t", span, span)
        energy = np.matmul(sliding_window_view(squares, self.win_len)[::hop],
                           self.win_len * self._window ** 2)
        edges = np.matmul(self._view[start:stop], self._window_edges)
        return (energy + np.einsum("fce,fce->f", edges, edges)) / 2.0, edges


class FrameReader:
    """The spectra of runs of up to `frames` frames of a `SpectrumTensor`,
    into buffers allocated once, here: each block overwrites the last
    one's, and readers share no buffer, so that readers on different
    threads may read one spectrum at the same time."""

    def __init__(self, spec: SpectrumTensor, frames: int):
        self._spec = spec
        self._windowed = np.empty((frames, spec.channels, spec.win_len))
        self._spectra = np.empty((frames, spec.channels, spec.bins),
                                 dtype=complex)

    def block(self, start: int, stop: int) -> np.ndarray:
        """The spectra of frames `start` to `stop` - 1, a run of 1 to
        `FRAME_BLOCK` frames and no more than the reader's: (frames,
        channels, bins) complex, a view of this reader's buffer, which the
        caller may overwrite. Each row is, bit for bit, the row of one
        batched transform of all frames."""
        spec = self._spec
        spec._check_run(start, stop)
        # the frames copied into the float64 buffer, an exact cast of
        # float32 samples, then windowed in place: the same products as
        # one broadcast product of the strided frames, in less time
        x = self._windowed[:stop - start]
        x[...] = spec._view[start:stop]
        x *= spec._window
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
