"""Frequency/time-domain velocity vectors: the robust least-squares
estimator, and the closed-form model used as an oracle.

Both produce the same object (a per-bin channel ratio or its lag-domain
counterpart); the estimator is the one that touches noisy data.

A reference beam is a float array of (L+1)^2 weights on the SH channels.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimatorDegenerateError, ExpansionInvalidError
from .room import GroundTruthScene, fractional_delay_kernel
from .sh import Direction, make_omni_beam, order_from_channels, sh_eval
from .spectral import FRAME_BLOCK, GtvvMatrix, SpectrumTensor, gfvv_to_gtvv

_ENERGY_FLOOR = 1e-9
_COLLINEAR_TOL = 1e-9
# Relative diagonal load of near-singular normal equations.
_DIAGONAL_LOAD = 1e-6


@dataclass(frozen=True)
class RelativeWavefront:
    """A wavefront expressed relative to the direct path."""

    direction: Direction
    rel_gain: float    # gain / direct gain
    rel_delay: float   # toa - direct toa, seconds
    beta: float        # reference-beam response at `direction`


@dataclass(frozen=True)
class SeriesExpansion:
    """Bookkeeping of the geometric-series terms behind a closed-form GTVV.

    per_wavefront_terms holds (wavefront index, power k, coefficient, lag_s)
    for every term that was placed; cross_term_budget bounds the energy of
    the neglected multi-wavefront products and truncated tails.
    """

    per_wavefront_terms: tuple
    cross_term_budget: float
    truncation_order: int


@dataclass(frozen=True)
class EstimatorConfig:
    """Least-squares estimator settings; `reference` holds the beam weights,
    None being the omnidirectional beam of the spectrum's order."""

    reference: np.ndarray = None
    seg_count: int = 8
    frames_per_seg: int = 24

    def __post_init__(self):
        if not isinstance(self.seg_count, int) or self.seg_count < 2:
            raise ValueError("seg_count must be an integer of at least 2 "
                             "(overdetermined)")
        if not isinstance(self.frames_per_seg, int) or self.frames_per_seg < 1:
            raise ValueError("frames_per_seg must be a positive integer")


@dataclass(frozen=True)
class GfvvEstimate:
    """Per-bin velocity vector plus a validity flag per bin.

    `near_singular` marks the (channel, bin) systems of the least-squares
    estimator whose normal equations were diagonally loaded.
    """

    values: np.ndarray   # channels x bins, complex; invalid bins are NaN
    valid: np.ndarray    # bins, bool
    near_singular: np.ndarray  # channels x bins, bool


def _solve_loaded_2x2(g11, g12, g22, r1, r2):
    """Least-squares solve of the stacked 2-column systems (vectorized).

    Diagonal loading is applied only where the normal equations are close to
    singular, so exactly consistent systems are recovered without bias. The
    test and the load are relative to the Gram diagonal, whose two entries
    scale with different powers of the input level, so scaling the input
    changes neither which systems are loaded nor their solution.
    """
    det = g11 * g22 - np.abs(g12) ** 2
    near_singular = det <= 1e-12 * g11 * g22
    g11l = np.where(near_singular, g11 * (1.0 + _DIAGONAL_LOAD), g11)
    g22l = np.where(near_singular, g22 * (1.0 + _DIAGONAL_LOAD), g22)
    detl = g11l * g22l - np.abs(g12) ** 2
    detl = np.where(detl == 0.0, 1.0, detl)  # fully silent bins; masked later
    v = (g22l * r1 - g12 * r2) / detl
    return v, near_singular


# The threads of each estimator pass; None for one per CPU that the
# process may run on.
_THREADS = None


def use_one_thread():
    """Run the estimator's passes on the calling thread: for a process
    that owns one CPU, such as a sweep's worker."""
    global _THREADS
    _THREADS = 1


def _segment_means(spec: SpectrumTensor, cfg: EstimatorConfig, w,
                   with_phi: bool):
    """a1 = E[(w.b) B*] per segment, channel and bin, w the reference
    weights, and with `with_phi` the auto-spectra phi = E[B B*], from one
    pass over the blocks of the segments' frames: returns (a1, phi or
    None), a1 complex and phi real, each (segments, channels, bins).

    The segments are split into contiguous runs, one per CPU that the
    process may run on (one in all after `use_one_thread`). Of two or
    more runs, each runs on a thread of its own, which the pass starts and
    joins before it returns, then raises the error of the earliest run
    that failed; a single run runs on the calling thread. Each run reads
    its frames through a reader of its own and adds them one at a time in
    order, as `np.mean` over the frame axis adds them, so the means equal
    the `np.mean` of the full frames x channels x bins products bit for
    bit, at any thread count, without building them. phi sums the real
    parts of the complex products b conj(b), which are the real parts of
    their complex sums, and scales them by 1 / frames as the complex
    division by the frame count does.
    """
    fps = cfg.frames_per_seg
    need = cfg.seg_count * fps
    if spec.frames < need:
        raise ValueError(f"need at least {need} frames, have {spec.frames}")
    shape = (cfg.seg_count, spec.channels, spec.bins)
    a1 = np.empty(shape, dtype=complex)
    phi = np.empty(shape) if with_phi else None
    threads = _THREADS
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity on this platform
            threads = os.cpu_count() or 1
    runs = min(threads, cfg.seg_count)
    # A run holds its reader's windowed frames and spectra and a frame of
    # scratch per mean; the runs together read at most half of FRAME_BLOCK
    # frames at a time, as fast as whole blocks (one frame a run is not).
    frames = max(1, FRAME_BLOCK // (2 * runs))

    def accumulate(lo, hi, reader, conj_u, term, ref_out):
        for start in range(lo, hi, frames):
            stop = min(start + frames, hi)
            b = reader.block(start, stop)
            # The real weights times the interleaved real and imaginary
            # parts of each frame: a product whose summation order does not
            # depend on the BLAS thread count.
            ref = np.matmul(w, b.view(np.float64),
                            out=ref_out[:stop - start]).view(complex)
            for i in range(stop - start):
                seg, pos = divmod(start + i, fps)
                np.conjugate(b[i], out=conj_u)
                if pos == 0:
                    np.multiply(ref[i], conj_u, out=a1[seg])
                else:
                    a1[seg] += np.multiply(ref[i], conj_u, out=term)
                if phi is not None:
                    # the last product overwrites the conjugate: nothing
                    # reads it after
                    power = np.multiply(b[i], conj_u, out=conj_u).real
                    if pos == 0:
                        phi[seg] = power
                    else:
                        phi[seg] += power

    # Every buffer is allocated here, on the calling thread: memory that a
    # run's thread allocated and freed would stay in its own malloc arena.
    # Without phi, a1's product overwrites the conjugate.
    edges = [cfg.seg_count * r // runs * fps for r in range(runs + 1)]
    args = []
    for lo, hi in zip(edges, edges[1:]):
        conj_u = np.empty(shape[1:], dtype=complex)
        term = np.empty(shape[1:], dtype=complex) if with_phi else conj_u
        args.append((lo, hi, spec.reader(frames), conj_u, term,
                     np.empty((frames, 2 * spec.bins))))
    if runs == 1:
        accumulate(*args[0])
    else:
        errors = [None] * runs

        def run(r):
            try:
                accumulate(*args[r])
            except BaseException as exc:  # raised again once all are joined
                errors[r] = exc
        workers = [threading.Thread(target=run, args=(r,))
                   for r in range(runs)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        for exc in errors:
            if exc is not None:
                raise exc
    np.true_divide(a1, fps, out=a1)
    if with_phi:
        np.multiply(phi, 1.0 / fps, out=phi)
    return a1, phi


@dataclass(frozen=True)
class SegmentStats:
    """One spectrum's omni pass in one segmentation, read-only: the omni
    a1 (or None, complex) and the reference-free phi (float64, accumulated
    as reals), (segments, channels, bins) each, the bin validity mask and
    r2 = Σ_segments phi, with the spectrum they were formed from and the
    frames of each segment. `segment_stats` forms a1 and phi C-contiguous;
    `SharedOmni.stats` reads them as channel slices of a higher order's."""

    a1: np.ndarray
    phi: np.ndarray
    valid: np.ndarray
    r2: np.ndarray
    spectrum: SpectrumTensor
    frames_per_seg: int


def _bound_stats(a1, phi, spec: SpectrumTensor,
                 frames_per_seg: int) -> SegmentStats:
    """The read-only `SegmentStats` of `spec` with these means: the
    validity mask and r2 formed from phi."""
    energy = np.mean(np.abs(phi), axis=0)  # (ch, bins)
    bin_energy = np.mean(energy, axis=0)   # (bins,)
    valid = bin_energy > _ENERGY_FLOOR * float(np.max(bin_energy))
    stats = SegmentStats(a1, phi, valid, np.sum(phi, axis=0), spec,
                         frames_per_seg)
    for arr in (a1, phi, valid, stats.r2):
        arr.flags.writeable = False
    return stats


def segment_stats(spec: SpectrumTensor, cfg: EstimatorConfig) -> SegmentStats:
    """One omni pass: the `SegmentStats` of `spec` in `cfg`'s segmentation."""
    omni = make_omni_beam(order_from_channels(spec.channels))
    a1, phi = _segment_means(spec, cfg, omni, True)
    return _bound_stats(a1, phi, spec, cfg.frames_per_seg)


class SharedOmni:
    """One omni pass shared with the lower orders of the same recording.

    The omni beam of order L weights channel 0 alone, and each channel's
    spectrum depends on that channel alone, so the omni a1 and phi of the
    recording's first (L+1)^2 channels are the first channels of a higher
    order's, bit for bit. `keep` holds a pass's first `channels` channels
    of a1, copied contiguous, and its phi; it holds no `SegmentStats`,
    whose spectrum would keep the higher order's recording alive. `stats`
    reads them back as the statistics of a lower order's own spectrum.
    """

    def __init__(self, channels: int):
        self.channels = channels  # the most channels that `stats` reads
        self.a1 = self.phi = self.frames_per_seg = None

    def keep(self, stats: SegmentStats):
        """Hold the a1 of the first `channels` channels and the phi of
        `stats`, before a1 is dropped."""
        a1 = stats.a1[:, :self.channels].copy()
        a1.flags.writeable = False
        self.a1, self.phi = a1, stats.phi
        self.frames_per_seg = stats.frames_per_seg

    def stats(self, spec: SpectrumTensor,
              cfg: EstimatorConfig) -> SegmentStats:
        """The `SegmentStats` of `spec`, the spectrum of the first
        `spec.channels` channels of the kept pass's recording, in `cfg`'s
        segmentation: views of the first channels of a1 and phi, with the
        validity mask and r2 formed from that phi, bound to `spec`; bit for
        bit `segment_stats(spec, cfg)`. More channels than are held, or
        another segmentation, is a ValueError."""
        held = self.a1.shape[1]
        if spec.channels > held:
            raise ValueError(f"statistics of {held} channels, the spectrum "
                             f"has {spec.channels}")
        if (len(self.phi), self.frames_per_seg) != (cfg.seg_count,
                                                    cfg.frames_per_seg):
            raise ValueError(f"statistics of {len(self.phi)} x "
                             f"{self.frames_per_seg} frames, not "
                             f"{cfg.seg_count} x {cfg.frames_per_seg}")
        n = spec.channels
        return _bound_stats(self.a1[:, :n], self.phi[:, :n], spec,
                            cfg.frames_per_seg)


def estimate_gfvv_ls(spec: SpectrumTensor, cfg: EstimatorConfig,
                     stats: SegmentStats = None) -> GfvvEstimate:
    """Nonstationarity-based least-squares GFVV estimator.

    Frames are split into cfg.seg_count sub-segments of cfg.frames_per_seg
    frames. Per segment, channel and bin, the auto-spectrum of the channel
    and its cross-spectrum with the reference output are time-averaged; the
    stacked 2-unknown system (channel ratio, stationary residual spectrum)
    is solved in the least-squares sense.

    `stats`, the `segment_stats` of `spec` in `cfg`'s segmentation, are
    formed here if None; those of another spectrum object or segmentation
    raise ValueError. The omni estimate (reference None) reads its a1 from
    them, if any; any other reference makes a pass for its own.

    Bins with energy below floor are flagged invalid; a bin whose system is
    rank deficient despite carrying energy (stationary source) raises.
    """
    w = cfg.reference
    if w is not None and w.size != spec.channels:
        raise ValueError(f"reference beam has {w.size} weights, the "
                         f"spectrum {spec.channels} channels")
    if stats is None:
        stats = segment_stats(spec, cfg)
    elif stats.spectrum is not spec:
        raise ValueError("statistics of another spectrum")
    elif (len(stats.phi), stats.frames_per_seg) != (cfg.seg_count,
                                                    cfg.frames_per_seg):
        raise ValueError(f"statistics of {len(stats.phi)} x "
                         f"{stats.frames_per_seg} frames, not "
                         f"{cfg.seg_count} x {cfg.frames_per_seg}")
    if w is None and stats.a1 is None:
        raise ValueError("statistics without the omni a1")
    # time-averaged spectra per segment, (seg, ch, bins) each
    a1 = stats.a1 if w is None else _segment_means(spec, cfg, w, False)[0]

    a1_spread = np.std(a1, axis=0) / (np.mean(np.abs(a1), axis=0) + 1e-300)
    degenerate = np.all(a1_spread < _COLLINEAR_TOL, axis=0) & stats.valid
    if np.any(degenerate):
        raise EstimatorDegenerateError(int(np.nonzero(degenerate)[0][0]))

    # normal equations of [a1 1] [v, phi_U]^T = phi, per (channel, bin)
    g11 = np.sum(np.abs(a1) ** 2, axis=0)
    g12 = np.sum(np.conj(a1), axis=0)
    g22 = float(cfg.seg_count)
    r1 = np.sum(np.conj(a1) * stats.phi, axis=0)
    values, near_singular = _solve_loaded_2x2(g11, g12, g22, r1, stats.r2)
    values[:, ~stats.valid] = np.nan
    return GfvvEstimate(values, stats.valid, near_singular)


def interpolate_invalid_bins(est: GfvvEstimate) -> np.ndarray:
    """Fill invalid bins by linear interpolation in the complex plane; a
    filled DC or Nyquist bin keeps only its real part, the only value a
    real lag response allows there."""
    if not np.any(est.valid):
        raise ValueError("no valid bins to interpolate from")
    if np.all(est.valid):
        return est.values.copy()
    bins = np.arange(est.valid.size)
    good = bins[est.valid]
    out = est.values.copy()
    for c in range(out.shape[0]):
        out[c, ~est.valid] = (
            np.interp(bins[~est.valid], good, out[c, est.valid].real)
            + 1j * np.interp(bins[~est.valid], good, out[c, est.valid].imag))
    for edge in (0, -1):
        if not est.valid[edge]:
            out[:, edge] = out[:, edge].real
    return out


def estimate_gtvv(spec: SpectrumTensor, cfg: EstimatorConfig,
                  stats: SegmentStats = None) -> GtvvMatrix:
    """Least-squares GFVV followed by the inverse transform to the lag domain."""
    v_f = interpolate_invalid_bins(estimate_gfvv_ls(spec, cfg, stats))
    return gfvv_to_gtvv(v_f, spec.fs)


def relative_wavefronts(scene: GroundTruthScene, w: np.ndarray) -> list:
    """Express a ground-truth scene relative to its direct path under the
    beam `w`, of the order its length gives.

    The weights are rescaled so the direct-path beta is exactly 1, matching
    the normalization baked into the velocity-vector definition.
    """
    order = order_from_channels(w.size)
    direct = scene.direct
    y0 = sh_eval(direct.direction, order)
    beta0 = float(w @ y0)
    if beta0 == 0.0:
        raise ValueError("reference beam has zero response at the direct path")
    waves = [RelativeWavefront(direct.direction, 1.0, 0.0, 1.0)]
    for wf in scene.wavefronts[1:]:
        y = sh_eval(wf.direction, order)
        waves.append(RelativeWavefront(
            wf.direction,
            wf.gain / direct.gain,
            wf.toa - direct.toa,
            float(w @ y) / beta0,
        ))
    return waves


def gtvv_closed_form(waves, K: int, win_len: int, fs: float,
                     order: int):
    """Synthesize the model GTVV of known relative wavefronts.

    Places the t=0 direct-path spike plus K geometric-series orders of
    per-reflection spikes; fractional lags are spread with the same
    windowed-sinc kernel used for encoding. Terms falling outside the
    positive half of the lag window are dropped and accounted for in the
    returned cross-term budget.

    Returns (GtvvMatrix, SeriesExpansion).
    """
    if not waves:
        raise ValueError("need at least the direct-path wavefront")
    direct = waves[0]
    if not (direct.rel_gain == 1.0 and direct.rel_delay == 0.0
            and direct.beta == 1.0):
        raise ValueError("waves[0] must be the direct path (g=1, tau=0, beta=1)")
    if K < 1:
        raise ValueError("truncation order K must be at least 1")
    reflections = waves[1:]
    mags = np.array([abs(wv.rel_gain * wv.beta) for wv in reflections])
    if np.any(mags >= 1.0):
        raise ExpansionInvalidError(
            "some |g*beta| >= 1: the geometric expansion does not converge")
    mag_sum = float(np.sum(mags))
    if mag_sum >= 1.0:
        warnings.warn("sum of |g*beta| >= 1: individual terms converge but "
                      "the grouped expansion bound is not guaranteed")

    zero = win_len // 2
    y0 = sh_eval(direct.direction, order)
    data = np.zeros((y0.size, win_len))
    data[:, zero] += y0

    terms = []
    dropped = 0.0
    for n, wv in enumerate(reflections, start=1):
        if wv.beta == 0.0:
            raise ValueError(f"reflection {n} has beta = 0")
        yn = sh_eval(wv.direction, order)
        pattern = y0 - yn / wv.beta
        gb = wv.rel_gain * wv.beta
        for k in range(1, K + 1):
            coeff = (-gb) ** k
            lag = k * wv.rel_delay
            if lag <= 0 or lag > (win_len // 2) / fs:
                dropped += abs(coeff) * float(np.linalg.norm(pattern))
                continue
            terms.append((n, k, coeff, lag))
            n0, kernel = fractional_delay_kernel(lag * fs)
            # kernel sample i lands at lag index zero + n0 + i
            start = zero + n0
            lo = max(start, 0)
            hi = min(start + kernel.size, win_len)
            if lo < hi:
                data[:, lo:hi] += coeff * np.outer(
                    pattern, kernel[lo - start:hi - start])

    # neglected multi-wavefront products: pairwise magnitudes times the
    # geometric tail of the grouped series
    tail = 1.0 / (1.0 - mag_sum) if mag_sum < 1.0 else math.inf
    pair_mass = 0.0
    for i in range(len(mags)):
        for j in range(i + 1, len(mags)):
            pair_mass += mags[i] * mags[j]
    budget = 2.0 * pair_mass * tail + dropped
    # truncated single-wavefront tails beyond K
    for m in mags:
        if m < 1.0:
            budget += m ** (K + 1) / (1.0 - m)

    return GtvvMatrix(data, fs), SeriesExpansion(tuple(terms), float(budget), K)


def negative_lag_energy_fraction(v: GtvvMatrix) -> float:
    """Energy in lags t < 0 relative to the whole matrix (causality metric)."""
    total = float(np.sum(v.data ** 2))
    if total == 0.0:
        return 0.0
    neg = float(np.sum(v.data[:, v.time_axis < 0] ** 2))
    return neg / total
