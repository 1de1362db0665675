"""Frequency/time-domain velocity vectors: the robust least-squares
estimator, and the closed-form model used as an oracle.

Both produce the same object (a per-bin channel ratio or its lag-domain
counterpart); the estimator is the one that touches noisy data.

A reference beam is a float array of (L+1)^2 weights on the SH channels.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EstimatorDegenerateError, ExpansionInvalidError
from .room import GroundTruthScene, fractional_delay_kernel
from .sh import (Direction, make_omni_beam, num_channels, order_from_channels,
                 sh_eval)
from .spectral import FRAME_BLOCK, GtvvMatrix, SpectrumTensor, gfvv_to_gtvv

_ENERGY_FLOOR = 1e-9
_COLLINEAR_TOL = 1e-9
# Relative diagonal load of near-singular normal equations.
_DIAGONAL_LOAD = 1e-6
# The complex zero that adds as nothing does: x + (-0 - 0j) is x, bit for
# bit, the sign of a zero included.
_MINUS_ZERO = complex(-0.0, -0.0)


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


class NormalSums(NamedTuple):
    """What the least-squares systems of one pass read of its segment
    means a1, each (channels, bins): the normal equations' g11 = Σ|a1|²,
    g12 = Σ conj(a1) and r1 = Σ conj(a1) φ over the segments, and the
    spread of a1 over the segments, its standard deviation over its mean
    magnitude, for the degeneracy test."""

    g11: np.ndarray
    g12: np.ndarray
    r1: np.ndarray
    spread: np.ndarray


def _segment_sums(spec: SpectrumTensor, cfg: EstimatorConfig, beams,
                  phi: np.ndarray, r2: np.ndarray = None) -> list:
    """The `NormalSums` of a1 = E[(w.b) B*] per segment, channel and bin
    of each reference beam w in `beams`, over the first w.size channels
    of each frame, from one pass over the blocks of the segments' frames:
    one `NormalSums` per beam, in the order of `beams`. The widest beam
    weights every channel. phi is (segments, channels, bins) float64:
    given r2, a (channels, bins) buffer, the pass forms each segment's
    auto-spectra phi = E[B B*] into it and their sum into r2 (the omni
    pass); without, it reads the omni pass's phi (a steered pass). A beam
    reads the first channels of phi that it weights.

    Each frame is conjugated once; the widest beam's product overwrites
    that conjugate, the others' go to the reader's `spare` memory, which
    the frames' windowing leaves free between blocks. Each product is
    formed as a pass over the beam's own spectrum would form it, from the
    same first channels of the frame, so each beam's sums are those of its
    own pass, bit for bit.

    Each segment is added to the sums when it is finished, in segment
    order, as `np.sum` over a segment axis adds them, so the sums equal
    those of the (segments, channels, bins) means bit for bit, at any
    thread count; the spread is Welford's (Technometrics 1962): each a1
    adds its squared deviation from the mean of the segments before it,
    as that mean moves, which keeps the precision that E|a1|² − |E a1|²
    loses. The beams' folds share their temporaries. The pass makes one
    run per CPU that the process may run on (one in all after
    `use_one_thread`), and no more than segments. One run reads the
    segments on the calling thread. More runs read on a
    `ThreadPoolExecutor` of `runs` threads, run r segments r, r + runs,
    ..., each into means of its own: the caller adds the segments in order
    as they are finished, and submits a run's next segment once it has
    added its last, so the pass holds O(runs × channels × bins) whatever
    the segment count. The pool's threads end within the pass, which
    raises the error of the earliest segment that failed. Each run reads
    its frames through a reader of its own and adds them one at a time in
    order, as `np.mean` over the frame axis adds them. phi sums the real
    parts of the complex products b conj(b), which are the real parts of
    their complex sums, and scales them by 1 / frames as the complex
    division by the frame count does.
    """
    fps = cfg.frames_per_seg
    need = cfg.seg_count * fps
    if spec.frames < need:
        raise ValueError(f"need at least {need} frames, have {spec.frames}")
    widths = [w.size for w in beams]
    if max(widths) != spec.channels:
        raise ValueError(f"the widest beam has {max(widths)} weights, the "
                         f"spectrum {spec.channels} channels")
    # the beams by width, the widest last: its product is formed in place
    fold = sorted(range(len(beams)), key=widths.__getitem__)
    shape = (spec.channels, spec.bins)
    threads = _THREADS
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity on this platform
            threads = os.cpu_count() or 1
    runs = min(threads, cfg.seg_count)
    # A run holds its reader's windowed frames and spectra, its segment's
    # means and, in the omni pass, a frame of scratch; the runs together
    # read at most half of FRAME_BLOCK frames at a time, as fast as whole
    # blocks (one frame a run is not).
    frames = max(1, FRAME_BLOCK // (2 * runs))

    def mean(seg, a1s, reader, conj_u, ref_outs, spare):
        # the means start at -0, which adds as nothing does: their bits are
        # those of np.mean's sums, which start at the first frame
        for a1 in a1s:
            a1.fill(_MINUS_ZERO)
        if r2 is not None:
            seg_phi = phi[seg]
            seg_phi.fill(-0.0)
        refs = [out.view(complex) for out in ref_outs]
        lower = [(a1s[k], refs[k], widths[k]) for k in fold[:-1]]
        a1, ref = a1s[fold[-1]], refs[fold[-1]]
        for start in range(seg * fps, (seg + 1) * fps, frames):
            stop = min(start + frames, (seg + 1) * fps)
            b = reader.block(start, stop)
            # The real weights times the interleaved real and imaginary
            # parts of each frame's first channels: a product whose
            # summation order does not depend on the BLAS thread count.
            for w, out in zip(beams, ref_outs):
                np.matmul(w, b[:, :w.size].view(np.float64),
                          out=out[:stop - start])
            for i in range(stop - start):
                # the widest product overwrites an operand that nothing
                # reads after it: the frame, or its conjugate
                if r2 is None:
                    u = np.conjugate(b[i], out=b[i])
                else:
                    u = np.conjugate(b[i], out=conj_u)
                    seg_phi += np.multiply(b[i], u, out=b[i]).real
                for a1_n, ref_n, n in lower:
                    a1_n += np.multiply(ref_n[i], u[:n], out=spare[:n])
                a1 += np.multiply(ref[i], u, out=u)
        for a1 in a1s:
            a1 /= fps
        if r2 is not None:
            seg_phi *= 1.0 / fps

    # Every buffer is allocated here, on the calling thread: memory that a
    # run's thread allocated and freed would stay in its own malloc arena.
    # A steered pass conjugates each frame in place; the omni pass needs the
    # frame too, for phi.
    readers = [spec.reader(frames) for _ in range(runs)]
    args = [([np.empty((n, spec.bins), dtype=complex) for n in widths],
             reader,
             None if r2 is None else np.empty(shape, dtype=complex),
             [np.empty((frames, 2 * spec.bins)) for _ in beams],
             None if len(beams) == 1 else reader.spare(widths[fold[-2]]))
            for reader in readers]
    # The sums start at -0 too, as np.sum's start at the first segment.
    sums = [([np.full((n, spec.bins), -0.0) for _ in range(3)]
             + [np.full((n, spec.bins), _MINUS_ZERO) for _ in range(2)])
            for n in widths]
    t_r, t_c = np.empty(shape), np.empty(shape, dtype=complex)
    if r2 is not None:
        r2.fill(-0.0)

    def add(seg):
        for k in fold:
            g11, abs_sum, m2, a1_sum, r1 = sums[k]
            n = widths[k]
            a1, tr, tc = args[seg % runs][0][k], t_r[:n], t_c[:n]
            # Welford: the deviation from the mean of segments 0 to seg-1
            if seg:
                np.subtract(a1, np.true_divide(a1_sum, seg, out=tc), out=tc)
                np.square(np.abs(tc, out=tr), out=tr)
                np.add(m2, np.multiply(tr, seg / (seg + 1), out=tr), out=m2)
            np.add(a1_sum, a1, out=a1_sum)
            np.add(abs_sum, np.abs(a1, out=tr), out=abs_sum)
            np.add(g11, np.square(tr, out=tr), out=g11)
            np.conjugate(a1, out=tc)
            np.add(r1, np.multiply(tc, phi[seg, :n], out=tc), out=r1)
        if r2 is not None:
            np.add(r2, phi[seg], out=r2)

    if runs == 1:
        for seg in range(cfg.seg_count):
            mean(seg, *args[0])
            add(seg)
    else:
        from concurrent.futures import ThreadPoolExecutor
        # run r reads segments r, r + runs, ..., each once the caller has
        # added its last from its mean
        with ThreadPoolExecutor(runs) as pool:
            running = [pool.submit(mean, r, *args[r]) for r in range(runs)]
            for seg in range(cfg.seg_count):
                r = seg % runs
                running[r].result()
                add(seg)
                if seg + runs < cfg.seg_count:
                    running[r] = pool.submit(mean, seg + runs, *args[r])
    # spread = sqrt(m2 / n) / (mean |a1| + tiny), in m2's buffer
    n = cfg.seg_count
    out = []
    for g11, abs_sum, m2, a1_sum, r1 in sums:
        np.sqrt(np.true_divide(m2, n, out=m2), out=m2)
        m2 /= np.add(np.true_divide(abs_sum, n, out=abs_sum), 1e-300,
                     out=abs_sum)
        out.append(NormalSums(g11, np.conjugate(a1_sum, out=a1_sum), r1, m2))
    return out


@dataclass(frozen=True)
class SegmentStats:
    """One spectrum's omni pass in one segmentation, read-only: the omni
    beam's `NormalSums`, the reference-free phi (float64, accumulated as
    reals) of each segment, channel and bin, which a steered pass reads,
    the bin validity mask and r2 = Σ_segments phi, with the spectrum they
    were formed from and the frames of each segment. `segment_stats` forms
    them C-contiguous; `SharedOmni.stats` reads them as channel slices of
    a higher order's."""

    omni: NormalSums
    phi: np.ndarray
    valid: np.ndarray
    r2: np.ndarray
    spectrum: SpectrumTensor
    frames_per_seg: int


def _valid_bins(r2, segments: int) -> np.ndarray:
    """The bins whose energy, over the channels of r2 = Σ_segments phi,
    is above the floor. phi >= 0, so the mean of |phi| over the segments
    is r2 over their count, bit for bit."""
    bin_energy = np.mean(r2 / segments, axis=0)  # (bins,)
    return bin_energy > _ENERGY_FLOOR * float(np.max(bin_energy))


def _bound_stats(omni: NormalSums, phi, r2, spec: SpectrumTensor,
                 frames_per_seg: int) -> SegmentStats:
    """The read-only `SegmentStats` of `spec` with this pass: the validity
    mask formed from r2."""
    valid = _valid_bins(r2, len(phi))
    for arr in (*omni, phi, r2, valid):
        arr.flags.writeable = False
    return SegmentStats(omni, phi, valid, r2, spec, frames_per_seg)


def segment_stats(spec: SpectrumTensor, cfg: EstimatorConfig) -> SegmentStats:
    """One omni pass: the `SegmentStats` of `spec` in `cfg`'s segmentation."""
    omni = make_omni_beam(order_from_channels(spec.channels))
    phi = np.empty((cfg.seg_count, spec.channels, spec.bins))
    r2 = np.empty((spec.channels, spec.bins))
    sums, = _segment_sums(spec, cfg, [omni], phi, r2)
    return _bound_stats(sums, phi, r2, spec, cfg.frames_per_seg)


def _check_segmentation(phi, frames_per_seg, cfg: EstimatorConfig):
    if (len(phi), frames_per_seg) != (cfg.seg_count, cfg.frames_per_seg):
        raise ValueError(f"statistics of {len(phi)} x {frames_per_seg} "
                         f"frames, not {cfg.seg_count} x "
                         f"{cfg.frames_per_seg}")


class SharedOmni:
    """The passes of a recording's top order, shared with the group's
    lower `orders`, each of whose recordings is the top's first (L+1)^2
    channels.

    The omni beam of order L weights channel 0 alone, and each channel's
    spectrum depends on that channel alone, so the omni sums, phi and r2
    of the recording's first (L+1)^2 channels are the first channels of a
    higher order's, bit for bit. The top order's steered pass (`steer`)
    also forms the sums of the lower orders' beams, and keeps copies of
    the first `channels` channels of the top order's omni sums, phi and
    r2; it holds no `SegmentStats`, whose spectrum would keep the top
    order's recording alive. `stats` reads them back as the statistics of
    a lower order's own spectrum, and each lower order reads its steered
    sums back (`sums`) if its beam is the one they were formed for.
    """

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.channels = num_channels(max(self.orders))  # what `stats` reads
        self.omni = self.phi = self.r2 = self.frames_per_seg = None
        self.steered = {}  # channels -> (beam bytes, NormalSums)

    def stats(self, spec: SpectrumTensor,
              cfg: EstimatorConfig) -> SegmentStats:
        """The `SegmentStats` of `spec`, the spectrum of the first
        `spec.channels` channels of the top order's recording, in `cfg`'s
        segmentation: views of the first channels of the kept arrays, with
        the validity mask formed from that r2, bound to `spec`; bit for
        bit `segment_stats(spec, cfg)`. More channels than are held, or
        another segmentation, is a ValueError."""
        held = self.r2.shape[0]
        if spec.channels > held:
            raise ValueError(f"statistics of {held} channels, the spectrum "
                             f"has {spec.channels}")
        _check_segmentation(self.phi, self.frames_per_seg, cfg)
        n = spec.channels
        return _bound_stats(NormalSums(*(a[:n] for a in self.omni)),
                            self.phi[:, :n], self.r2[:n], spec,
                            cfg.frames_per_seg)

    def steer(self, stats: SegmentStats, cfg: EstimatorConfig, beam,
              lower) -> NormalSums:
        """One steered pass over the frames of `stats`' spectrum, the top
        order's, with its phi, for `beam` and the `lower` beams, which read
        the first channels of each frame: keeps each lower beam's sums, by
        its channel count, and copies of the first `channels` channels of
        the omni sums, phi and r2 of `stats`, and returns `beam`'s."""
        _check_segmentation(stats.phi, stats.frames_per_seg, cfg)
        got = _segment_sums(stats.spectrum, cfg, [beam, *lower], stats.phi)
        for w, sums in zip(lower, got[1:]):
            for arr in sums:
                arr.flags.writeable = False
            self.steered[w.size] = (w.tobytes(), sums)
        n = self.channels
        self.omni = NormalSums(*(a[:n].copy() for a in stats.omni))
        self.phi, self.r2 = stats.phi[:, :n].copy(), stats.r2[:n].copy()
        self.frames_per_seg = stats.frames_per_seg
        return got[0]

    def sums(self, beam) -> NormalSums:
        """Release the sums kept for `beam`'s channel count and return
        them if they were formed for these very weights (their bytes), so
        that they are, bit for bit, those of a pass over the lower order's
        own spectrum; None otherwise."""
        formed, sums = self.steered.pop(beam.size, (None, None))
        return sums if formed == beam.tobytes() else None


def _solve_gfvv(sums: NormalSums, r2, valid, segments: int) -> GfvvEstimate:
    """The least-squares GFVV of a pass's `sums`, with its r2 and bin
    validity mask, over `segments` segments; a valid bin whose segments
    are all collinear raises."""
    degenerate = np.all(sums.spread < _COLLINEAR_TOL, axis=0) & valid
    if np.any(degenerate):
        raise EstimatorDegenerateError(int(np.nonzero(degenerate)[0][0]))

    # normal equations of [a1 1] [v, phi_U]^T = phi, per (channel, bin)
    values, near_singular = _solve_loaded_2x2(
        sums.g11, sums.g12, float(segments), sums.r1, r2)
    values[:, ~valid] = np.nan
    return GfvvEstimate(values, valid, near_singular)


def lower_omni_gfvv(stats: SegmentStats, channels: int) -> GfvvEstimate:
    """The omni-referenced GFVV of the first `channels` channels of the
    recording of `stats`, from the first channels of its omni sums and r2
    (see `SharedOmni`): bit for bit `estimate_gfvv_ls` on their own
    spectrum, with no spectrum and no pass."""
    r2, segments = stats.r2[:channels], len(stats.phi)
    return _solve_gfvv(NormalSums(*(a[:channels] for a in stats.omni)), r2,
                       _valid_bins(r2, segments), segments)


def estimate_gfvv_ls(spec: SpectrumTensor, cfg: EstimatorConfig,
                     stats: SegmentStats = None,
                     sums: NormalSums = None) -> GfvvEstimate:
    """Nonstationarity-based least-squares GFVV estimator.

    Frames are split into cfg.seg_count sub-segments of cfg.frames_per_seg
    frames. Per segment, channel and bin, the auto-spectrum of the channel
    and its cross-spectrum with the reference output are time-averaged; the
    stacked 2-unknown system (channel ratio, stationary residual spectrum)
    is solved in the least-squares sense from its sums over the segments.

    `stats`, the `segment_stats` of `spec` in `cfg`'s segmentation, are
    formed here if None; those of another spectrum object or segmentation
    raise ValueError. The omni estimate (reference None) reads its sums
    from them; any other reference makes a pass for its own, unless
    `sums`, its `NormalSums` from a pass over `spec`'s frames with those
    statistics' phi (`SharedOmni.steer`), are given.

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
    else:
        _check_segmentation(stats.phi, stats.frames_per_seg, cfg)
    if sums is not None and (w is None or sums.g11.shape != stats.r2.shape):
        raise ValueError("steered sums of another reference")
    if w is None:
        sums = stats.omni
    elif sums is None:
        sums, = _segment_sums(spec, cfg, [w], stats.phi)
    return _solve_gfvv(sums, stats.r2, stats.valid, cfg.seg_count)


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
                  stats: SegmentStats = None,
                  sums: NormalSums = None) -> GtvvMatrix:
    """Least-squares GFVV (`stats` and `sums` as in `estimate_gfvv_ls`)
    followed by the inverse transform to the lag domain."""
    v_f = interpolate_invalid_bins(estimate_gfvv_ls(spec, cfg, stats, sums))
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
