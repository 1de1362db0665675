"""STFT front-end and the inverse transform from GFVV to GTVV.

The time axis of a GTVV matrix is fixed here once: a length-T analysis
window maps to lags (index - T/2) / fs, so column T/2 (0-indexed) is t = 0
and column T/2 - 1 is the last negative lag. Downstream code reads delays
off `time_axis`, never off raw column indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InconsistentSpectrumError
from .room import AmbisonicSignal

_IMAG_RESIDUE_TOL = 1e-8
# frames windowed and transformed per `stft` pass
_FRAME_BLOCK = 8


@dataclass(frozen=True)
class SpectrumTensor:
    """STFT of all SH channels: data[frame, channel, bin], channels first
    like every other array of the package.

    `data` is a read-only C-contiguous view, so statistics derived from it
    can be computed once per instance (`cached`).
    """

    data: np.ndarray
    fs: float
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
        if data.ndim != 3:
            raise ValueError("spectrum data must be frames x channels x bins")
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrum data must be finite")
        data = data.view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def cached(self, key, compute):
        """`compute()`, evaluated on the first call with `key` only."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def bins(self) -> int:
        return self.data.shape[2]


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
    """Hamming-windowed one-sided STFT of every channel, with frames
    `win_len`/4 apart (see `frame_count`).

    The frames are windowed and transformed `_FRAME_BLOCK` at a time
    through one reused buffer, and each block's transform is copied into
    the spectrum, so the signal, the spectrum and one block of frames and
    of their transform are all that is held. Every row is the same
    one-dimensional transform of the same windowed frame as in a single
    batched call, bit for bit.
    """
    if win_len <= 0 or (win_len & (win_len - 1)) != 0:
        raise ValueError("win_len must be a power of two")
    if sig.num_samples < win_len:
        raise ValueError("signal shorter than one analysis window")
    window = np.hamming(win_len)
    num_frames = frame_count(sig.num_samples, win_len)
    # (frames, channels, win_len) strided view of the frames, no copies
    view = sliding_window_view(sig.channels, win_len,
                               axis=1)[:, ::win_len // 4].transpose(1, 0, 2)
    spec = np.empty((num_frames, view.shape[1], win_len // 2 + 1),
                    dtype=complex)
    block = np.empty((min(_FRAME_BLOCK, num_frames),) + view.shape[1:])
    for start in range(0, num_frames, _FRAME_BLOCK):
        stop = min(start + _FRAME_BLOCK, num_frames)
        frames = np.multiply(view[start:stop], window,
                             out=block[:stop - start])
        spec[start:stop] = np.fft.rfft(frames, axis=-1)
    return SpectrumTensor(spec, sig.fs)


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
