"""Frequency/time-domain velocity vectors: instantaneous ratio, robust
least-squares estimator, and the closed-form model used as an oracle.

All three routes produce the same object (a per-bin channel ratio or its
lag-domain counterpart); the estimator is the only one that touches noisy
data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (EstimatorDegenerateError, ExpansionInvalidError,
                     SilentFrameError)
from .room import GroundTruthScene, fractional_delay_kernel
from .sh import (BeamWeights, Direction, make_omni_beam, order_from_channels,
                 sh_eval)
from .spectral import GtvvMatrix, SpectrumTensor, gfvv_to_gtvv

_DENOM_FLOOR = 1e-9
_ENERGY_FLOOR = 1e-9
_COLLINEAR_TOL = 1e-9


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
    """Least-squares estimator settings; `reference` None is the
    omnidirectional beam of the spectrum's order."""

    reference: BeamWeights = None
    seg_count: int = 8
    frames_per_seg: int = 24
    diagonal_load: float = 1e-6

    def __post_init__(self):
        if self.seg_count < 2:
            raise ValueError("need at least two sub-segments (overdetermined)")
        if self.frames_per_seg < 1:
            raise ValueError("frames_per_seg must be positive")
        if not 0 <= self.diagonal_load < math.inf:  # also rejects NaN
            raise ValueError("diagonal_load must be finite and non-negative")


@dataclass(frozen=True)
class GfvvEstimate:
    """Per-bin velocity vector plus a validity flag per bin.

    `near_singular` marks the (bin, channel) systems of the least-squares
    estimator whose normal equations were diagonally loaded; it is None for
    estimates that solve no system.
    """

    values: np.ndarray   # channels x bins, complex; invalid bins are NaN
    valid: np.ndarray    # bins, bool
    near_singular: np.ndarray = None  # bins x channels, bool


def instantaneous_gfvv(spec: SpectrumTensor, w: BeamWeights,
                       frame: int) -> GfvvEstimate:
    """Noiseless-style per-bin ratio b(f) / (w . b(f)) for one frame.

    Bins whose reference output falls below 1e-9 times the frame RMS are
    flagged invalid (NaN), not filled.
    """
    b = spec.data[frame].T  # channels x bins
    denom = w.weights @ b
    rms = math.sqrt(float(np.mean(np.abs(b) ** 2)))
    valid = np.abs(denom) > _DENOM_FLOOR * rms
    if not np.any(valid):
        raise SilentFrameError(f"frame {frame}: reference output below floor "
                               "in every bin")
    values = np.full(b.shape, np.nan, dtype=complex)
    values[:, valid] = b[:, valid] / denom[valid]
    return GfvvEstimate(values, valid)


def _solve_loaded_2x2(g11, g12, g22, r1, r2, diagonal_load):
    """Least-squares solve of the stacked 2-column systems (vectorized).

    Diagonal loading is applied only where the normal equations are close to
    singular, so exactly consistent systems are recovered without bias. The
    test and the load are relative to the Gram diagonal, whose two entries
    scale with different powers of the input level, so scaling the input
    changes neither which systems are loaded nor their solution.
    """
    det = g11 * g22 - np.abs(g12) ** 2
    near_singular = det <= 1e-12 * g11 * g22
    g11l = np.where(near_singular, g11 * (1.0 + diagonal_load), g11)
    g22l = np.where(near_singular, g22 * (1.0 + diagonal_load), g22)
    detl = g11l * g22l - np.abs(g12) ** 2
    detl = np.where(detl == 0.0, 1.0, detl)  # fully silent bins; masked later
    v = (g22l * r1 - g12 * r2) / detl
    return v, near_singular


def _segment_means(spec: SpectrumTensor, cfg: EstimatorConfig,
                   left) -> np.ndarray:
    """E[left[u] · conj(spec.data[u])] over the frames u of each segment:
    (segments, bins, channels) complex.

    Frames are added one at a time in order, as `np.mean` over the frame
    axis adds them, into buffers laid out like `spec.data[0]`, so the means
    equal the `np.mean` of the full frames x bins x channels product bit
    for bit without building it.
    """
    out = np.empty_like(spec.data[:cfg.seg_count])
    conj_u = np.empty_like(spec.data[0])
    term_u = np.empty_like(spec.data[0])

    def term(u, dest):
        return np.multiply(left[u], np.conjugate(spec.data[u], out=conj_u),
                           out=dest)

    for seg, acc in enumerate(out):
        first = seg * cfg.frames_per_seg
        term(first, acc)
        for u in range(first + 1, first + cfg.frames_per_seg):
            acc += term(u, term_u)
    return np.true_divide(out, cfg.frames_per_seg, out=out)


def _auto_spectra(spec: SpectrumTensor, cfg: EstimatorConfig) -> np.ndarray:
    """phi = E[B B*] per segment, bin and channel (real)."""
    return _segment_means(spec, cfg, spec.data).real


def _cross_spectra(spec: SpectrumTensor, cfg: EstimatorConfig) -> np.ndarray:
    """a1 = E[(w.b) B*] per segment, bin and channel, w the reference."""
    w = cfg.reference or make_omni_beam(order_from_channels(spec.channels))
    if w.weights.size != spec.channels:
        raise ValueError("reference beam order does not match the spectrum")
    need = cfg.seg_count * cfg.frames_per_seg
    ref = spec.data[:need] @ w.weights  # (frames, bins)
    return _segment_means(spec, cfg, ref[:, :, None])


def _reference_free_stats(spec: SpectrumTensor, cfg: EstimatorConfig):
    """The half of the estimator that does not depend on the reference
    beam: phi, the bin validity mask and r2 = Σ_segments phi, read-only
    because later estimates on the spectrum share them."""
    phi = _auto_spectra(spec, cfg)
    energy = np.mean(np.abs(phi), axis=0)  # (bins, ch)
    bin_energy = np.mean(energy, axis=1)   # (bins,)
    valid = bin_energy > _ENERGY_FLOOR * float(np.max(bin_energy))
    stats = (phi, valid, np.sum(phi, axis=0))
    for arr in stats:
        arr.flags.writeable = False
    return stats


def estimate_gfvv_ls(spec: SpectrumTensor, cfg: EstimatorConfig) -> GfvvEstimate:
    """Nonstationarity-based least-squares GFVV estimator.

    Frames are split into cfg.seg_count sub-segments of cfg.frames_per_seg
    frames. Per segment, channel and bin, the auto-spectrum of the channel
    and its cross-spectrum with the reference output are time-averaged; the
    stacked 2-unknown system (channel ratio, stationary residual spectrum)
    is solved in the least-squares sense.

    The auto-spectra do not depend on the reference, so they are computed
    once per spectrum and segmentation and shared by later calls (the
    omni-referenced and the steered estimate of one recording).

    Bins with energy below floor are flagged invalid; a bin whose system is
    rank deficient despite carrying energy (stationary source) raises.
    """
    need = cfg.seg_count * cfg.frames_per_seg
    if spec.frames < need:
        raise ValueError(f"need at least {need} frames, have {spec.frames}")
    # time-averaged spectra per segment, (seg, bins, ch) each
    phi, valid, r2 = spec.cached(
        ("gfvv_ls", cfg.seg_count, cfg.frames_per_seg),
        lambda: _reference_free_stats(spec, cfg))
    a1 = _cross_spectra(spec, cfg)

    a1_spread = np.std(a1, axis=0) / (np.mean(np.abs(a1), axis=0) + 1e-300)
    degenerate = np.all(a1_spread < _COLLINEAR_TOL, axis=1) & valid
    if np.any(degenerate):
        raise EstimatorDegenerateError(int(np.nonzero(degenerate)[0][0]))

    # normal equations of [a1 1] [v, phi_U]^T = phi, per (bin, channel)
    g11 = np.sum(np.abs(a1) ** 2, axis=0)
    g12 = np.sum(np.conj(a1), axis=0)
    g22 = float(cfg.seg_count)
    r1 = np.sum(np.conj(a1) * phi, axis=0)
    v, near_singular = _solve_loaded_2x2(g11, g12, g22, r1, r2,
                                         cfg.diagonal_load)

    values = v.T.astype(complex)  # channels x bins
    values[:, ~valid] = np.nan
    return GfvvEstimate(values, valid, near_singular)


def interpolate_invalid_bins(est: GfvvEstimate) -> np.ndarray:
    """Fill invalid bins by linear interpolation in the complex plane."""
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
    return out


def estimate_gtvv(spec: SpectrumTensor, cfg: EstimatorConfig) -> GtvvMatrix:
    """Least-squares GFVV followed by the inverse transform to the lag domain."""
    est = estimate_gfvv_ls(spec, cfg)
    v_f = interpolate_invalid_bins(est)
    # DC and Nyquist must be real for a real lag response; the estimator
    # produces real values there up to roundoff
    for col in (0, -1):
        residue = np.max(np.abs(v_f[:, col].imag))
        if residue <= 1e-8 * max(float(np.max(np.abs(v_f))), 1e-300):
            v_f[:, col] = v_f[:, col].real
    return gfvv_to_gtvv(v_f, spec.win_len, spec.fs)


def relative_wavefronts(scene: GroundTruthScene, w: BeamWeights) -> list:
    """Express a ground-truth scene relative to its direct path under `w`.

    The weights are rescaled so the direct-path beta is exactly 1, matching
    the normalization baked into the velocity-vector definition.
    """
    direct = scene.direct
    y0 = sh_eval(direct.direction, w.order)
    beta0 = float(w.weights @ y0)
    if beta0 == 0.0:
        raise ValueError("reference beam has zero response at the direct path")
    waves = [RelativeWavefront(direct.direction, 1.0, 0.0, 1.0)]
    for wf in scene.wavefronts[1:]:
        y = sh_eval(wf.direction, w.order)
        waves.append(RelativeWavefront(
            wf.direction,
            wf.gain / direct.gain,
            wf.toa - direct.toa,
            float(w.weights @ y) / beta0,
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
