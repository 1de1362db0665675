import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gtvv import baselines, velocity
from gtvv.errors import EstimatorDegenerateError, ExpansionInvalidError
from gtvv.experiment import ExperimentConfig, simulate_cell
from gtvv.room import (AmbisonicSignal, GroundTruthScene, Wavefront,
                       add_noise, encode_scene, image_source_scene,
                       make_burst_source)
from gtvv.sh import Direction, make_omni_beam, make_reference_beam, sh_eval
from gtvv.spectral import FRAME_BLOCK, FrameReader, stft
from gtvv.velocity import (EstimatorConfig, GfvvEstimate, RelativeWavefront,
                           SharedOmni, estimate_gfvv_ls, estimate_gtvv,
                           gtvv_closed_form, interpolate_invalid_bins,
                           negative_lag_energy_fraction, relative_wavefronts,
                           segment_stats)
from oracles import (ArraySpectrum, SilentFrameError, all_frames,
                     instantaneous_gfvv)

FS = 16000.0
ROOM = (5.0, 4.0, 2.8)
SRC = (1.2, 1.1, 1.4)
MIC = (3.6, 2.6, 1.5)


def ratio_form_gfvv(waves, freqs, order):
    """Independent oracle: channel ratio of a sum of attenuated, delayed
    plane waves, written as (y0 + sum gamma_n y_n / beta_n) over
    (1 + sum gamma_n) with gamma_n = g_n beta_n exp(-2j pi f tau_n)."""
    y0 = sh_eval(waves[0].direction, order).astype(complex)
    num = np.tile(y0[:, None], (1, freqs.size))
    den = np.ones(freqs.size, dtype=complex)
    for wv in waves[1:]:
        yn = sh_eval(wv.direction, order).astype(complex)
        gamma = wv.rel_gain * wv.beta * np.exp(-2j * np.pi * freqs
                                               * wv.rel_delay)
        num += np.outer(yn / wv.beta, gamma)
        den += gamma
    return num / den


def plane_wave_spectrum(direction, order, frames=4, win=256, seed=0):
    """Spectrum of a single plane wave with a random per-frame source."""
    rng = np.random.default_rng(seed)
    y = sh_eval(direction, order)
    s = rng.standard_normal((frames, win // 2 + 1)) \
        + 1j * rng.standard_normal((frames, win // 2 + 1))
    data = s[:, None, :] * y[None, :, None]
    return ArraySpectrum(data, FS)


def multiwave_spectrum(waves, order, freqs):
    """One-frame spectrum b(f) = sum_n g_n e^{-2j pi f tau_n} y_n."""
    channels = (order + 1) ** 2
    b = np.zeros((channels, freqs.size), dtype=complex)
    for wv in waves:
        y = sh_eval(wv.direction, order)
        b += np.outer(y, wv.rel_gain * np.exp(-2j * np.pi * freqs
                                              * wv.rel_delay))
    return ArraySpectrum(b[None], FS)


def segment_spectra_vectorised(spec, cfg):
    """Reference segment statistics (phi, a1), computed over the full
    (segments, frames, channels, bins) products as the estimator first
    computed them."""
    need = cfg.seg_count * cfg.frames_per_seg
    b = all_frames(spec)[:need].reshape(cfg.seg_count, cfg.frames_per_seg,
                                        spec.channels, spec.bins)
    w = cfg.reference
    if w is None:
        w = make_omni_beam(int(round(np.sqrt(spec.channels))) - 1)
    # the product as `_segment_means` forms it; see there
    ref = np.matmul(w, b.view(np.float64)).view(complex)
    phi = np.mean(b * np.conj(b), axis=1).real
    a1 = np.mean(ref[:, :, None, :] * np.conj(b), axis=1)
    return phi, a1


def normal_sums_vectorised(phi, a1):
    """Reference `NormalSums` of the segment statistics, reduced over the
    segment axis, the spread by `np.std`."""
    return velocity.NormalSums(
        np.sum(np.abs(a1) ** 2, axis=0), np.sum(np.conj(a1), axis=0),
        np.sum(np.conj(a1) * phi, axis=0),
        np.std(a1, axis=0) / (np.mean(np.abs(a1), axis=0) + 1e-300))


def omni_pass(spec, cfg, w):
    """`velocity._segment_sums` of the one beam `w` forming phi and r2:
    (sums, phi, r2)."""
    phi = np.empty((cfg.seg_count, spec.channels, spec.bins))
    r2 = np.empty(phi.shape[1:])
    sums, = velocity._segment_sums(spec, cfg, [w], phi, r2)
    return sums, phi, r2


def estimate_gfvv_ls_vectorised(spec, cfg):
    """Reference estimator on `segment_spectra_vectorised`: (values, valid,
    near-singular mask)."""
    phi, a1 = segment_spectra_vectorised(spec, cfg)
    bin_energy = np.mean(np.mean(np.abs(phi), axis=0), axis=0)
    valid = bin_energy > 1e-9 * float(np.max(bin_energy))
    g11, g12, r1, _ = normal_sums_vectorised(phi, a1)
    r2 = np.sum(phi, axis=0)
    values, near_singular = velocity._solve_loaded_2x2(
        g11, g12, float(cfg.seg_count), r1, r2)
    values[:, ~valid] = np.nan
    return values, valid, near_singular


def sweep_cell_spectrum(order, rt_idx=1, scene=0):
    """Noisy default-sweep cell: `scene` at `cfg.rt60[rt_idx]`, scene 0 at
    0.44 s by default."""
    cfg = ExperimentConfig()
    _, sig = simulate_cell(cfg, scene, cfg.rt60[rt_idx], order)
    return stft(sig, cfg.win_len)


def random_strided_spectrum(order, frames=96, win=256, seed=0):
    """Nonstationary random spectrum made from a non-contiguous view."""
    rng = np.random.default_rng(seed)
    shape = (frames, 2 * (order + 1) ** 2, win // 2 + 1)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw *= np.exp(rng.standard_normal((frames, 1, 1)))
    data = raw[:, ::2]
    assert not data.flags.c_contiguous and not data.flags.f_contiguous
    return ArraySpectrum(data, FS)


def fresh_copy(spec):
    return stft(spec.signal, spec.win_len)


class TestInstantaneousGfvv:
    def test_single_wave_steered_beam(self):
        d = Direction(0.5, -0.2)
        spec = plane_wave_spectrum(d, 2)
        est = instantaneous_gfvv(spec, make_reference_beam(d, 2), 0)
        y = sh_eval(d, 2)
        got = est.values[:, est.valid]
        np.testing.assert_allclose(got, np.tile(y[:, None],
                                                (1, got.shape[1])), atol=1e-8)

    def test_single_wave_omni_beam(self):
        d = Direction(-1.0, 0.4)
        spec = plane_wave_spectrum(d, 1)
        est = instantaneous_gfvv(spec, make_omni_beam(1), 0)
        y = sh_eval(d, 1)
        got = est.values[:, est.valid]
        np.testing.assert_allclose(got, np.tile(y[:, None],
                                                (1, got.shape[1])), atol=1e-8)

    def test_two_waves_match_ratio_oracle(self):
        order, win = 2, 512
        freqs = np.arange(win // 2 + 1) * FS / win
        d0, d1 = Direction(0.0, 0.0), Direction(1.2, 0.3)
        w = make_reference_beam(d0, order)
        beta1 = float(w @ sh_eval(d1, order))
        waves = [RelativeWavefront(d0, 1.0, 0.0, 1.0),
                 RelativeWavefront(d1, 0.6, 32.0 / FS, beta1)]
        spec = multiwave_spectrum(waves, order, freqs)
        est = instantaneous_gfvv(spec, w, 0)
        oracle = ratio_form_gfvv(waves, freqs, order)
        np.testing.assert_allclose(est.values[:, est.valid],
                                   oracle[:, est.valid], atol=1e-10)

    def test_silent_frame_raises(self):
        spec = ArraySpectrum(np.zeros((1, 4, 129), dtype=complex), FS)
        with pytest.raises(SilentFrameError):
            instantaneous_gfvv(spec, make_omni_beam(1), 0)

    def test_invalid_bins_flagged_not_filled(self):
        d = Direction(0.5, -0.2)
        spec = plane_wave_spectrum(d, 1)
        data = spec.data.copy()
        data[:, :, 10] = 0.0  # kill one bin
        spec = ArraySpectrum(data, FS)
        est = instantaneous_gfvv(spec, make_omni_beam(1), 0)
        assert not est.valid[10]
        assert np.all(np.isnan(est.values[:, 10]))


def consistent_fixture(v_row, seg_count=4, frames_per_seg=8, win=16,
                       noise_amp=0.5):
    """Spectrum built to satisfy the estimator's model exactly.

    Channel 0 is the (omni) reference; its per-segment amplitude varies so
    the system is full rank, while a zero-mean alternating disturbance
    keeps the stationary-residual unknown exercised.
    """
    bins = win // 2 + 1
    channels = v_row.size
    frames = seg_count * frames_per_seg
    data = np.zeros((frames, channels, bins), dtype=complex)
    for s in range(seg_count):
        a = float(s + 1)  # segment amplitude: nonstationary across segments
        for t in range(frames_per_seg):
            u = noise_amp * (1.0 if t % 2 == 0 else -1.0)
            b0 = a * (np.arange(bins) + 1.0)
            frame = np.outer(v_row, b0) + u
            frame[0] = b0  # channel 0 is the reference itself
            data[s * frames_per_seg + t] = frame
    return ArraySpectrum(data, FS)


class TestLsEstimator:
    def test_constructed_fixture_exact_recovery(self):
        v_row = np.array([1.0, 2.0, 2.0, 2.0], dtype=complex)
        spec = consistent_fixture(v_row)
        cfg = EstimatorConfig(make_omni_beam(1), seg_count=4,
                              frames_per_seg=8)
        est = estimate_gfvv_ls(spec, cfg)
        assert np.all(est.valid)
        for c in range(4):
            np.testing.assert_allclose(est.values[c], v_row[c], atol=1e-8)

    def test_reference_channel_ratio_is_one(self):
        v_row = np.array([1.0, -0.5 + 1.0j, 0.3, 2.0], dtype=complex)
        spec = consistent_fixture(v_row)
        cfg = EstimatorConfig(make_omni_beam(1), seg_count=4,
                              frames_per_seg=8)
        est = estimate_gfvv_ls(spec, cfg)
        np.testing.assert_allclose(est.values[0], 1.0, atol=1e-8)
        np.testing.assert_allclose(est.values[1], v_row[1], atol=1e-8)

    def test_noiseless_single_wave_matches_instantaneous(self):
        d = Direction(0.8, 0.1)
        scene = GroundTruthScene((Wavefront(d, 0.002, 1.0),), (False,),
                                 ROOM, SRC, MIC, 0.3, FS)
        src = make_burst_source(3.2, FS, 0)
        sig = encode_scene(scene, src, 1)
        spec = stft(sig, 1024)
        cfg = EstimatorConfig(make_reference_beam(d, 1), seg_count=8,
                              frames_per_seg=24)
        ls = estimate_gfvv_ls(spec, cfg)
        inst = instantaneous_gfvv(spec, cfg.reference, 10)
        both = ls.valid & inst.valid
        np.testing.assert_allclose(ls.values[:, both],
                                   inst.values[:, both], atol=1e-6)

    def test_pure_tone_degenerate(self):
        # every frame identical: the per-segment statistics are collinear
        win = 64
        y = sh_eval(Direction(0.3, 0.0), 1)
        frame = np.zeros((4, win // 2 + 1), dtype=complex)
        frame[:, 12] = (2.0 + 1.0j) * y
        data = np.tile(frame[None], (16, 1, 1))
        spec = ArraySpectrum(data, FS)
        cfg = EstimatorConfig(make_omni_beam(1), seg_count=4,
                              frames_per_seg=4)
        with pytest.raises(EstimatorDegenerateError) as exc:
            estimate_gfvv_ls(spec, cfg)
        assert exc.value.bin_index == 12

    @pytest.mark.parametrize("step, raises", [(2e-12, True), (1e-10, True),
                                             (3e-9, False)])
    def test_nearly_collinear_segments(self, step, raises):
        # segment s scales the tone by 1 + s * step, so its a1 spreads by
        # about 2 * step relative to its mean: below the 1e-9 tolerance the
        # system is degenerate. E|a1|² - |E a1|² would round the spread to
        # about 1e-8 at the two smaller steps, and miss them
        win = 64
        y = sh_eval(Direction(0.3, 0.0), 1)
        frame = np.zeros((4, win // 2 + 1), dtype=complex)
        frame[:, 12] = (2.0 + 1.0j) * y
        data = np.tile(frame[None], (16, 1, 1))
        data *= np.repeat(1.0 + step * np.arange(4), 4)[:, None, None]
        spec = ArraySpectrum(data, FS)
        cfg = EstimatorConfig(make_omni_beam(1), seg_count=4,
                              frames_per_seg=4)
        if raises:
            with pytest.raises(EstimatorDegenerateError) as exc:
                estimate_gfvv_ls(spec, cfg)
            assert exc.value.bin_index == 12
        else:
            assert estimate_gfvv_ls(spec, cfg).valid[12]

    def test_too_few_frames(self):
        spec = plane_wave_spectrum(Direction(0, 0), 1, frames=4)
        cfg = EstimatorConfig(make_omni_beam(1), seg_count=8,
                              frames_per_seg=24)
        with pytest.raises(ValueError):
            estimate_gfvv_ls(spec, cfg)

    def test_reference_order_mismatch(self):
        spec = plane_wave_spectrum(Direction(0, 0), 1, frames=32)
        cfg = EstimatorConfig(make_omni_beam(2), seg_count=4,
                              frames_per_seg=8)
        with pytest.raises(ValueError):
            estimate_gfvv_ls(spec, cfg)

    def test_reference_of_no_full_order_rejected(self):
        spec = plane_wave_spectrum(Direction(0, 0), 1, frames=32)
        cfg = EstimatorConfig(np.ones(5), seg_count=4, frames_per_seg=8)
        with pytest.raises(ValueError, match="5 weights"):
            estimate_gfvv_ls(spec, cfg)

    @pytest.mark.parametrize("order", [1, 3])
    def test_default_reference_is_the_omni_beam(self, order):
        spec = random_strided_spectrum(order, frames=32, win=64, seed=order)
        got = estimate_gfvv_ls(spec, EstimatorConfig(seg_count=4,
                                                     frames_per_seg=8))
        want = estimate_gfvv_ls(spec, EstimatorConfig(
            make_omni_beam(order), seg_count=4, frames_per_seg=8))
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("fields", [
        {"seg_count": 1}, {"frames_per_seg": 0}])
    def test_invalid_settings_rejected(self, fields):
        with pytest.raises(ValueError):
            EstimatorConfig(**fields)


class TestLsAccumulation:
    """The frame-by-frame accumulation and the sharing of one omni pass
    (`segment_stats`) between estimates change no bit of the estimate."""

    @pytest.mark.parametrize("kind", ["sweep_cell", "random_strided"])
    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_matches_vectorised_statistics(self, kind, order):
        if kind == "sweep_cell":
            spec, seg = sweep_cell_spectrum(order), {}
        else:
            spec = random_strided_spectrum(order)
            seg = dict(seg_count=6, frames_per_seg=16)
        # the estimator takes None for the omni beam
        beams = (None, make_omni_beam(order),
                 make_reference_beam(Direction(1.0, -0.4), order))
        for beam in beams:
            cfg = EstimatorConfig(beam, **seg)
            phi, a1 = segment_spectra_vectorised(spec, cfg)
            w = make_omni_beam(order) if beam is None else beam
            sums, got_phi, r2 = omni_pass(spec, cfg, w)
            np.testing.assert_array_equal(got_phi, phi)
            np.testing.assert_array_equal(r2, np.sum(phi, axis=0))
            # the sums equal the segment axis's reductions bit for bit,
            # formed with phi or reading it; Welford's spread is as exact
            # as the two-pass `np.std`
            want = normal_sums_vectorised(phi, a1)
            for got in (sums, *velocity._segment_sums(spec, cfg, [w], phi)):
                for name in ("g11", "g12", "r1"):
                    np.testing.assert_array_equal(getattr(got, name),
                                                  getattr(want, name))
                np.testing.assert_allclose(got.spread, want.spread,
                                           rtol=1e-12)
            est = estimate_gfvv_ls(spec, cfg)
            values, valid, near_singular = estimate_gfvv_ls_vectorised(
                spec, cfg)
            np.testing.assert_array_equal(est.values, values)
            np.testing.assert_array_equal(est.valid, valid)
            np.testing.assert_array_equal(est.near_singular, near_singular)

    @pytest.mark.parametrize("order", [1, 4])
    def test_shared_statistics_equal_fresh_spectrum(self, order):
        spec = sweep_cell_spectrum(order)
        stats = segment_stats(spec, EstimatorConfig())
        beams = (None, make_omni_beam(order),
                 make_reference_beam(Direction(0.4, 0.1), order))
        for beam in beams:
            cfg = EstimatorConfig(beam)
            np.testing.assert_array_equal(
                estimate_gtvv(spec, cfg, stats).data,
                estimate_gtvv(fresh_copy(spec), cfg).data)
        # H-TDVV passes the stats on, whatever reference it is given
        np.testing.assert_array_equal(
            baselines.h_tdvv(spec, EstimatorConfig(beams[-1]), stats).data,
            estimate_gtvv(fresh_copy(spec), EstimatorConfig()).data)

    def test_shared_statistics_are_read_only(self):
        spec = random_strided_spectrum(1)
        seg = dict(seg_count=6, frames_per_seg=16)
        stats = segment_stats(spec, EstimatorConfig(**seg))
        for arr in (*stats.omni, stats.phi, stats.valid, stats.r2):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
        # phi is real, in a buffer of its own rather than a view of a
        # complex one
        assert stats.phi.dtype == float and stats.phi.flags.owndata
        est = estimate_gfvv_ls(
            spec, EstimatorConfig(make_omni_beam(1), **seg), stats)
        with pytest.raises(ValueError):
            est.valid[0] = False

    def test_statistics_without_a1(self):
        # the statistics hold no per-segment a1: the omni sums and r2 are
        # channels x bins, phi alone has a segment axis, and it is real;
        # a steered estimate reads phi, r2 and valid, not the omni sums
        spec = sweep_cell_spectrum(1)
        stats = segment_stats(spec, EstimatorConfig())
        assert {a.shape for a in (*stats.omni, stats.r2)} == {
            (spec.channels, spec.bins)}
        assert stats.phi.shape == (8, spec.channels, spec.bins)
        assert stats.phi.dtype == float
        unread = velocity.NormalSums(*(np.full_like(a, np.nan)
                                       for a in stats.omni))
        free = dataclasses.replace(stats, omni=unread)
        steered = EstimatorConfig(make_reference_beam(Direction(0.3, 0.2), 1))
        np.testing.assert_array_equal(estimate_gtvv(spec, steered, free).data,
                                      estimate_gtvv(spec, steered, stats).data)

    def test_estimate_without_stats_makes_one_omni_pass(self, monkeypatch):
        spec = sweep_cell_spectrum(1)
        frames_read, passes = [], []
        block, sums = FrameReader.block, velocity._segment_sums

        # the segment runs read through readers of their own, perhaps on
        # threads of their own
        def counting_block(self, start, stop):
            if self._spec is spec:
                frames_read.extend(range(start, stop))
            return block(self, start, stop)

        # (spec, cfg, beams, phi[, r2]): r2 forms phi
        def counting_sums(*args):
            passes.append(([w.tolist() for w in args[2]], len(args) == 5))
            return sums(*args)
        monkeypatch.setattr(FrameReader, "block", counting_block)
        monkeypatch.setattr(velocity, "_segment_sums", counting_sums)
        omni = [make_omni_beam(1).tolist()]
        steered = make_reference_beam(Direction(0.3, 0.2), 1)
        for seg, fps in ((8, 24), (4, 24), (8, 12)):
            for beam, want in ((None, [(omni, True)]),
                               (steered, [(omni, True),
                                          ([steered.tolist()], False)])):
                cfg = EstimatorConfig(beam, seg_count=seg, frames_per_seg=fps)
                frames_read.clear()
                passes.clear()
                got = estimate_gfvv_ls(spec, cfg)
                assert passes == want
                # each pass, one after the other, reads each frame once,
                # in order within its segment
                need = seg * fps
                assert len(frames_read) == need * len(want)
                for k in range(len(want)):
                    one = frames_read[k * need:(k + 1) * need]
                    assert sorted(one) == list(range(need))
                    for s in range(seg):
                        own = [u for u in one if u // fps == s]
                        assert own == sorted(own)
                # given the stats, the omni estimate makes no pass and the
                # steered one its own
                stats = segment_stats(spec, cfg)
                passes.clear()
                again = estimate_gfvv_ls(spec, cfg, stats)
                assert passes == want[1:]
                np.testing.assert_array_equal(got.values, again.values)
                np.testing.assert_array_equal(got.valid, again.valid)

    def test_stats_of_another_segmentation_rejected(self):
        spec = sweep_cell_spectrum(1)
        steered = make_reference_beam(Direction(0.3, 0.2), 1)
        # the 8 x 12 stats and those of scene 1 or of a fresh copy of the
        # recording have the shape of the default 8 x 24 stats of `spec`;
        # the spectrum is compared by identity
        rejected = [
            (segment_stats(spec, EstimatorConfig(seg_count=4)),
             "statistics of 4 x 24 frames, not 8 x 24"),
            (segment_stats(spec, EstimatorConfig(frames_per_seg=12)),
             "statistics of 8 x 12 frames, not 8 x 24"),
            (segment_stats(sweep_cell_spectrum(1, scene=1), EstimatorConfig()),
             "statistics of another spectrum"),
            (segment_stats(fresh_copy(spec), EstimatorConfig()),
             "statistics of another spectrum"),
            (segment_stats(sweep_cell_spectrum(2), EstimatorConfig()),
             "statistics of another spectrum")]
        for stats, message in rejected:
            for beam in (None, steered):
                with pytest.raises(ValueError, match=message):
                    estimate_gfvv_ls(spec, EstimatorConfig(beam), stats)

    @pytest.mark.parametrize("top, lower", [(4, 1), (4, 2), (4, 3), (6, 4)])
    def test_channel_slices_equal_fresh_statistics(self, top, lower):
        # the noise is seeded per (scene, rt60), so a lower order's
        # recording is the first channels of the top order's, and so are
        # its omni statistics
        shared = SharedOmni((lower + 1) ** 2)
        shared.keep(segment_stats(sweep_cell_spectrum(top), EstimatorConfig()))
        spec = sweep_cell_spectrum(lower)
        got = shared.stats(spec, EstimatorConfig())
        want = segment_stats(spec, EstimatorConfig())
        for got_arr, want_arr in zip(
                (*got.omni, got.phi, got.valid, got.r2),
                (*want.omni, want.phi, want.valid, want.r2)):
            np.testing.assert_array_equal(got_arr, want_arr)
            assert not got_arr.flags.writeable
        assert got.spectrum is spec and got.frames_per_seg == 24
        # the estimates read the slices as their own statistics
        np.testing.assert_array_equal(
            estimate_gtvv(spec, EstimatorConfig(), got).data,
            estimate_gtvv(spec, EstimatorConfig(), want).data)

    def test_channel_slices_checked(self):
        shared = SharedOmni(4)
        stats = segment_stats(sweep_cell_spectrum(2), EstimatorConfig())
        shared.keep(stats)
        # the kept arrays are views of the pass's, not copies, of the
        # channels that `stats` reads
        for kept, full in zip((*shared.omni, shared.phi, shared.r2),
                              (*stats.omni, stats.phi, stats.r2)):
            assert kept.base is full and kept.shape[-2] == 4
        with pytest.raises(ValueError, match="statistics of 4 channels"):
            shared.stats(sweep_cell_spectrum(2), EstimatorConfig())
        for seg in (dict(frames_per_seg=12), dict(seg_count=4)):
            with pytest.raises(ValueError, match="statistics of 8 x 24"):
                shared.stats(sweep_cell_spectrum(1), EstimatorConfig(**seg))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("top", [4, 6])
    def test_beams_of_one_pass_equal_their_own_passes(self, thread_pool,
                                                      top, threads):
        # one steered pass over the top order's frames forms each lower
        # order's sums as a pass over that order's own spectrum does, bit
        # for bit, zero signs included; the beams come in any order
        thread_pool(threads)
        spec = sweep_cell_spectrum(top)
        cfg = EstimatorConfig()
        orders = range(1, top + 1)
        beams = [make_reference_beam(Direction(0.5 * o, 0.3 - 0.1 * o), o)
                 for o in orders]
        got = velocity._segment_sums(spec, cfg, beams[::-1],
                                     segment_stats(spec, cfg).phi)[::-1]
        for order, w, sums in zip(orders, beams, got):
            own = sweep_cell_spectrum(order)
            want, = velocity._segment_sums(own, cfg, [w],
                                           segment_stats(own, cfg).phi)
            for got_arr, want_arr in zip(sums, want):
                assert got_arr.shape == (own.channels, own.bins)
                assert got_arr.tobytes() == want_arr.tobytes()

    def test_widest_beam_weights_every_channel(self):
        spec = sweep_cell_spectrum(2)
        stats = segment_stats(spec, EstimatorConfig())
        beams = [make_reference_beam(Direction(0.3, 0.2), 1)]
        with pytest.raises(ValueError, match="widest beam has 4 weights"):
            velocity._segment_sums(spec, EstimatorConfig(), beams, stats.phi)

    def test_kept_sums_read_back_for_their_own_beam(self):
        # the top order's steered pass keeps the lower beams' sums; a lower
        # order reads them once, and only for the beam they were formed
        # for, bit for bit, and its estimate is that of its own pass
        cfg = EstimatorConfig()
        spec = sweep_cell_spectrum(4)
        stats = segment_stats(spec, cfg)
        shared = SharedOmni(9)
        shared.keep(stats)
        beam = make_reference_beam(Direction(1.0, -0.4), 4)
        lower = [make_reference_beam(Direction(0.2 * o, 0.1), o)
                 for o in (1, 2)]
        top_sums = shared.steer(stats, cfg, beam, lower)
        # the pass over, the group holds copies of the lower orders'
        # channels, not views that keep the top order's arrays
        for kept in (*shared.omni, shared.phi, shared.r2):
            assert kept.base is None and kept.shape[-2] == 9
        np.testing.assert_array_equal(
            estimate_gtvv(spec, EstimatorConfig(beam), stats, top_sums).data,
            estimate_gtvv(spec, EstimatorConfig(beam), stats).data)
        own = sweep_cell_spectrum(1)
        near = lower[0].copy()
        near[1] = np.nextafter(near[1], np.inf)
        assert shared.sums(near) is None  # and released
        assert shared.sums(lower[0]) is None
        own2 = sweep_cell_spectrum(2)
        kept = shared.sums(lower[1])
        assert all(not a.flags.writeable for a in kept)
        assert shared.sums(lower[1]) is None and not shared.steered
        cfg2 = EstimatorConfig(lower[1])
        np.testing.assert_array_equal(
            estimate_gtvv(own2, cfg2, shared.stats(own2, cfg), kept).data,
            estimate_gtvv(own2, cfg2).data)
        # sums of another channel count, or with no reference, raise
        with pytest.raises(ValueError, match="sums of another reference"):
            estimate_gfvv_ls(own, EstimatorConfig(lower[0]),
                             shared.stats(own, cfg), kept)
        with pytest.raises(ValueError, match="sums of another reference"):
            estimate_gfvv_ls(own2, cfg, shared.stats(own2, cfg), kept)

    def test_near_singular_bin_reported(self):
        spec = random_strided_spectrum(1, frames=32, win=64, seed=3)
        data = spec.data.copy()
        data[:, 2, 10] = 0.0  # channel 2 silent in bin 10: a1 is 0 there
        spec = ArraySpectrum(data, FS)
        cfg = EstimatorConfig(make_omni_beam(1), seg_count=4,
                              frames_per_seg=8)
        est = estimate_gfvv_ls(spec, cfg)
        assert est.near_singular.shape == est.values.shape == (
            spec.channels, spec.bins)
        assert est.near_singular.dtype == bool
        assert np.argwhere(est.near_singular).tolist() == [[2, 10]]
        # the loaded solve puts the silent channel at 0; nothing else moves
        assert est.values[2, 10] == 0.0
        values, valid, _ = estimate_gfvv_ls_vectorised(spec, cfg)
        np.testing.assert_array_equal(est.values, values)
        np.testing.assert_array_equal(est.valid, valid)

    def test_instantaneous_estimate_solves_no_system(self):
        spec = plane_wave_spectrum(Direction(0.5, -0.2), 1)
        assert instantaneous_gfvv(spec, make_omni_beam(1),
                                  0).near_singular is None


@pytest.fixture
def thread_pool(monkeypatch):
    """`use(n)` runs the estimator's passes on n threads, which switch
    often, so that an unsynchronised update would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield lambda n: monkeypatch.setattr(velocity, "_THREADS", n)
    finally:
        sys.setswitchinterval(interval)


class TestSegmentThreads:
    """The segment runs of the estimator's passes on 1 to 8 threads."""

    # 8 x 24: 2 frames a reader at 2 threads, 1 at 8; 4 x 12 and 5 x 13:
    # runs that do not start on a multiple of 8 frames
    @pytest.mark.parametrize("seg, fps", [(8, 24), (4, 12), (5, 13)])
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", ["sweep_cell", "random_strided"])
    def test_bit_identical_at_any_thread_count(self, thread_pool,
                                               monkeypatch, kind, threads,
                                               seg, fps):
        if kind == "sweep_cell":
            spec, order = sweep_cell_spectrum(2), 2
        else:
            spec, order = random_strided_spectrum(1, frames=seg * fps), 1
        thread_pool(threads)
        on_main, reader = [], spec.reader

        class Tracked:
            """A reader that notes whether it reads on the main thread."""

            def __init__(self, frames):
                self.inner = reader(frames)

            def block(self, start, stop):
                on_main.append(threading.current_thread()
                               is threading.main_thread())
                return self.inner.block(start, stop)
        monkeypatch.setattr(spec, "reader", Tracked)
        beams = (None, make_reference_beam(Direction(1.0, -0.4), order))
        for beam in beams:
            cfg = EstimatorConfig(beam, seg_count=seg, frames_per_seg=fps)
            on_main.clear()
            est = estimate_gfvv_ls(spec, cfg)
            # one thread reads on the caller's, more on the pool's
            assert set(on_main) == {threads == 1}
            values, valid, near_singular = estimate_gfvv_ls_vectorised(
                spec, cfg)
            np.testing.assert_array_equal(est.values, values)
            np.testing.assert_array_equal(est.valid, valid)
            np.testing.assert_array_equal(est.near_singular, near_singular)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_estimate_leaves_no_thread(self, thread_pool, monkeypatch,
                                       threads):
        thread_pool(threads)
        spec = sweep_cell_spectrum(1)
        during, reader = [], spec.reader

        class Counting:
            """A reader that notes the threads running as it reads."""

            def __init__(self, frames):
                self.inner = reader(frames)

            def block(self, start, stop):
                during.append(threading.active_count())
                return self.inner.block(start, stop)
        monkeypatch.setattr(spec, "reader", Counting)
        before = threading.active_count()
        estimate_gtvv(spec, EstimatorConfig(
            make_reference_beam(Direction(0.3, 0.2), 1)))
        # the executor starts a thread only when none of its own is idle
        assert before < max(during) <= before + threads
        assert threading.active_count() == before

    def test_runs_without_affinity(self, monkeypatch):
        # where `os.sched_getaffinity` is missing, a pass makes one run per
        # CPU that `os.cpu_count` reports (1 if unknown), and no more runs
        # than segments
        spec = random_strided_spectrum(1, frames=8 * 24)
        w = make_omni_beam(1)
        monkeypatch.setattr(velocity, "_THREADS", 1)
        want = {seg: omni_pass(spec, EstimatorConfig(seg_count=seg), w)
                for seg in (2, 8)}
        monkeypatch.setattr(velocity, "_THREADS", None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        made, reader = [], spec.reader

        def counting(frames):
            made.append(frames)
            return reader(frames)
        monkeypatch.setattr(spec, "reader", counting)
        for cpus, seg, runs in ((3, 8, 3), (3, 2, 2), (None, 8, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            made.clear()
            sums, phi, r2 = omni_pass(spec, EstimatorConfig(seg_count=seg), w)
            assert len(made) == runs
            for got, wanted in zip((*sums, phi, r2), (*want[seg][0],
                                                      *want[seg][1:])):
                np.testing.assert_array_equal(got, wanted)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_phi_is_the_real_part_of_the_complex_mean(self, thread_pool,
                                                     order, threads):
        thread_pool(threads)
        spec = sweep_cell_spectrum(order)
        cfg = EstimatorConfig()
        phi = segment_stats(spec, cfg).phi
        assert phi.dtype == np.float64
        assert phi.flags.c_contiguous and not phi.flags.writeable
        np.testing.assert_array_equal(
            phi, segment_spectra_vectorised(spec, cfg)[0])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_omni_pass_peaks_at_its_means_and_runs(self, thread_pool,
                                                   threads):
        # the omni pass holds a real phi per segment, and channels x bins
        # sums and its runs' buffers: no a1 per segment, and no copy of
        # phi; 64 KiB cover the interpreter's own objects, such as the
        # threads and their frames
        thread_pool(threads)
        spec = sweep_cell_spectrum(4)
        seg, ch, bins = 8, spec.channels, spec.bins
        # r2, g11, Σ|a1|, m2 and a real scratch; Σa1, r1 and a complex
        # scratch; the complex buffer through which numpy casts phi to
        # form r1
        means = (seg * ch * bins * 8 + ch * bins * (5 * 8 + 3 * 16)
                 + np.getbufsize() * 16)
        frames = max(1, FRAME_BLOCK // (2 * threads))
        # a reader's windowed frames and spectra, the segment's a1, the
        # conjugate, the reference output and the complex buffer that
        # numpy iterates a broadcast product through
        run = (frames * ch * spec.win_len * 8 + frames * ch * bins * 16
               + 2 * ch * bins * 16 + frames * 2 * bins * 8
               + np.getbufsize() * 16)
        tracemalloc.start()
        try:
            segment_stats(spec, EstimatorConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= means + threads * run + 2 ** 16

    @pytest.mark.parametrize("steered", [False, True])
    def test_estimate_from_stats_peaks_at_channels_by_bins(self, thread_pool,
                                                           steered):
        # given the stats, the omni estimate solves from the channels x
        # bins sums, and a steered one adds a pass that forms only such
        # sums, on top of its reader: no array has a segment axis, so the
        # peak does not grow with the segment count
        thread_pool(1)
        spec = sweep_cell_spectrum(4)
        ch, bins, frames = spec.channels, spec.bins, FRAME_BLOCK // 2
        beam = make_reference_beam(Direction(1.0, -0.4), 4) if steered \
            else None
        peaks = []
        for seg, fps in ((8, 24), (16, 12)):
            cfg = EstimatorConfig(beam, seg_count=seg, frames_per_seg=fps)
            stats = segment_stats(spec, cfg)
            tracemalloc.start()
            try:
                estimate_gfvv_ls(spec, cfg, stats)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        unit = ch * bins * 8  # a channels x bins float array
        if steered:
            # the pass: the reader's windowed frames and spectra, in which
            # it conjugates each frame; the segment's a1, g11, Σ|a1|, m2,
            # Σa1, r1 and two scratch arrays; the buffers through which
            # numpy iterates the broadcast product and casts phi. The
            # solve holds less.
            bound = (frames * ch * spec.win_len * 8 + frames * ch * bins * 16
                     + 12 * unit + 2 * np.getbufsize() * 16)
        else:
            # the solve: det, the loaded diagonal, detl and the masks, v's
            # two complex products, and the buffer through which numpy
            # casts r2 against g12
            bound = 9 * unit + np.getbufsize() * 16
        assert peaks[0] <= bound + 2 ** 16
        assert abs(peaks[1] - peaks[0]) <= 2 ** 16

    def test_run_error_raised_once_every_run_ends(self, thread_pool,
                                                  monkeypatch):
        thread_pool(4)
        spec = random_strided_spectrum(1, frames=8 * 24)
        started = threading.Barrier(4, timeout=60)
        read, reader = [], spec.reader

        class ReadError(Exception):
            pass

        class Failing:
            """Run 0's reader raises at its first block, once every run has
            started; the others read slowly."""

            made = 0

            def __init__(self, frames):
                self.inner, self.run = reader(frames), Failing.made
                self.first = True
                Failing.made += 1

            def block(self, start, stop):
                if self.first:
                    self.first = False
                    started.wait()
                    if self.run == 0:
                        raise ReadError(start)
                time.sleep(0.002)
                read.extend(range(start, stop))
                return self.inner.block(start, stop)
        monkeypatch.setattr(spec, "reader", Failing)
        before = threading.active_count()
        with pytest.raises(ReadError) as raised:
            estimate_gfvv_ls(spec, EstimatorConfig())
        assert raised.value.args == (0,)
        # runs 1 to 3 had read their first segments, 1 to 3, to the end,
        # and none started its second once segment 0 had failed
        assert sorted(read) == list(range(24, 4 * 24))
        assert threading.active_count() == before

    def test_caller_error_raised_once_every_run_ends(self, thread_pool,
                                                     monkeypatch):
        thread_pool(4)
        spec = random_strided_spectrum(1, frames=8 * 24)
        cfg = EstimatorConfig()
        phi = segment_stats(spec, cfg).phi
        read, reader = [], spec.reader

        class FoldError(Exception):
            pass

        class FailingPhi(np.ndarray):
            """phi that raises when segment 3 is read: in a steered pass,
            only the caller's fold of the segments reads phi."""

            def __getitem__(self, key):
                if isinstance(key, tuple) and key[0] == 3:
                    raise FoldError(3)
                return super().__getitem__(key)

        class Noting:
            """A reader that notes the frames it reads."""

            def __init__(self, frames):
                self.inner = reader(frames)

            def block(self, start, stop):
                read.extend(range(start, stop))
                return self.inner.block(start, stop)
        monkeypatch.setattr(spec, "reader", Noting)
        beam = make_reference_beam(Direction(0.3, 0.2), 1)
        before = threading.active_count()
        with pytest.raises(FoldError):
            velocity._segment_sums(spec, cfg, [beam], phi.view(FailingPhi))
        # segments 4 to 6 were in flight as segment 3 was folded, and none
        # after them started
        assert set(range(4 * 24)) <= set(read)
        assert max(read) < 7 * 24
        assert threading.active_count() == before

    def test_forked_child_estimates_alone(self, thread_pool):
        # a child forked after a 2-thread estimate starts threads of its
        # own for its passes, and gets the parent's GTVV
        thread_pool(2)
        spec = sweep_cell_spectrum(1)
        cfg = EstimatorConfig(make_reference_beam(Direction(0.3, 0.2), 1))
        want = estimate_gtvv(spec, cfg).data
        pid = os.fork()
        if pid == 0:
            try:
                got = estimate_gtvv(fresh_copy(spec), cfg).data
                os._exit(0 if np.array_equal(got, want) else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's estimate hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


def unloaded_estimate(values, valid):
    """A GfvvEstimate of `values` whose systems were none of them loaded."""
    return GfvvEstimate(values, valid,
                        np.zeros(values.shape, dtype=bool))


class TestInterpolation:
    def test_linear_fill(self):
        values = np.arange(5, dtype=complex)[None] * (1.0 + 1.0j)
        valid = np.array([True, True, False, True, True])
        values[:, 2] = np.nan
        out = interpolate_invalid_bins(unloaded_estimate(values, valid))
        assert out[0, 2] == pytest.approx(2.0 + 2.0j)

    def test_filled_edge_bins_are_real(self):
        values = (np.arange(6) * (1.0 + 1.0j))[None]
        valid = np.array([False, True, True, True, True, False])
        values[:, ~valid] = np.nan
        out = interpolate_invalid_bins(unloaded_estimate(values, valid))
        assert out[0, 0] == 1.0 and out[0, -1] == 4.0
        np.testing.assert_array_equal(out[:, valid], values[:, valid])

    def test_all_invalid_raises(self):
        values = np.full((2, 4), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            interpolate_invalid_bins(
                unloaded_estimate(values, np.zeros(4, dtype=bool)))


class TestClosedForm:
    def _direct(self, az=0.0, el=0.0):
        return RelativeWavefront(Direction(az, el), 1.0, 0.0, 1.0)

    def test_direct_only_is_t0_spike(self):
        v, exp = gtvv_closed_form([self._direct(0.3, -0.1)], 6, 512, FS, 2)
        y = sh_eval(Direction(0.3, -0.1), 2)
        np.testing.assert_array_equal(v.data[:, v.zero_index], y)
        off = np.delete(v.data, v.zero_index, axis=1)
        assert np.all(off == 0.0)
        assert exp.cross_term_budget == 0.0

    def test_single_reflection_spike_pattern(self):
        # g*beta = 0.5 at an integer 64-sample lag, K=3
        d1 = Direction(1.5, 0.2)
        refl = RelativeWavefront(d1, 1.0, 64.0 / FS, 0.5)
        v, exp = gtvv_closed_form([self._direct(), refl], 3, 1024, FS, 1)
        y0 = sh_eval(Direction(0.0, 0.0), 1)
        y1 = sh_eval(d1, 1)
        pattern = y0 - y1 / 0.5
        zero = v.zero_index
        np.testing.assert_allclose(v.data[:, zero], y0, atol=1e-12)
        for k in (1, 2, 3):
            np.testing.assert_allclose(v.data[:, zero + 64 * k],
                                       (-0.5) ** k * pattern, atol=1e-12)
        # nothing anywhere else
        cols = [zero, zero + 64, zero + 128, zero + 192]
        rest = np.delete(v.data, cols, axis=1)
        assert np.max(np.abs(rest)) < 1e-12
        assert len(exp.per_wavefront_terms) == 3
        assert exp.truncation_order == 3

    def test_t0_readout_exact(self):
        refl = RelativeWavefront(Direction(2.0, -0.4), 0.8, 48.0 / FS, 0.7)
        v, _ = gtvv_closed_form([self._direct(0.4, 0.3), refl], 6, 1024, FS, 3)
        y0 = sh_eval(Direction(0.4, 0.3), 3)
        np.testing.assert_array_equal(v.data[:, v.zero_index], y0)

    def test_invalid_expansion_raises(self):
        refl = RelativeWavefront(Direction(1.0, 0.0), 2.0, 32.0 / FS, 0.6)
        with pytest.raises(ExpansionInvalidError):
            gtvv_closed_form([self._direct(), refl], 6, 512, FS, 1)

    def test_sum_above_one_warns(self):
        r1 = RelativeWavefront(Direction(1.0, 0.0), 1.0, 32.0 / FS, 0.6)
        r2 = RelativeWavefront(Direction(-1.0, 0.0), 1.0, 48.0 / FS, 0.6)
        with pytest.warns(UserWarning):
            gtvv_closed_form([self._direct(), r1, r2], 6, 512, FS, 1)

    def test_out_of_window_lag_dropped_into_budget(self):
        refl = RelativeWavefront(Direction(1.0, 0.0), 1.0, 400.0 / FS, 0.5)
        v, exp = gtvv_closed_form([self._direct(), refl], 6, 512, FS, 1)
        # 512-sample window: positive lags reach 256 samples, so every
        # k*400 term falls outside and only the t=0 spike remains
        off = np.delete(v.data, v.zero_index, axis=1)
        assert np.all(off == 0.0)
        assert len(exp.per_wavefront_terms) == 0
        assert exp.cross_term_budget > 0.5

    def test_frequency_domain_oracle_single_reflection(self):
        # no cross-terms exist with one reflection, so truncating at K=40
        # must agree with the inverse DFT of the exact per-bin ratio
        win = 1024
        d0, d1 = Direction(0.0, 0.0), Direction(2.0, 0.5)
        refl = RelativeWavefront(d1, 0.5, 8.0 / FS, 1.0)
        waves = [self._direct(), refl]
        v, _ = gtvv_closed_form(waves, 40, win, FS, 1)
        freqs = np.arange(win // 2 + 1) * FS / win
        oracle_f = ratio_form_gfvv(waves, freqs, 1)
        oracle_t = np.roll(np.fft.irfft(oracle_f, n=win, axis=1),
                           win // 2, axis=1)
        assert np.max(np.abs(v.data - oracle_t)) < 1e-6

    def test_budget_bounds_truncation_error(self):
        refl = RelativeWavefront(Direction(1.2, 0.1), 0.7, 16.0 / FS, 0.9)
        waves = [self._direct(), refl]
        v3, exp3 = gtvv_closed_form(waves, 3, 1024, FS, 1)
        v40, _ = gtvv_closed_form(waves, 40, 1024, FS, 1)
        actual = float(np.linalg.norm(v40.data - v3.data))
        assert actual <= exp3.cross_term_budget + 1e-12

    def test_geometric_series_partial_sums(self):
        gamma = 0.5
        target = 1.0 / (1.0 + gamma)
        assert target == pytest.approx(0.6667, abs=1e-4)
        prev_err = math.inf
        for k in range(1, 12):
            partial = sum((-gamma) ** i for i in range(k + 1))
            err = abs(partial - target)
            assert err == pytest.approx(gamma ** (k + 1) / (1 + gamma),
                                        rel=1e-12)
            assert err < prev_err
            prev_err = err

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gtvv_closed_form([], 6, 512, FS, 1)
        with pytest.raises(ValueError):
            gtvv_closed_form([RelativeWavefront(Direction(0, 0), 0.9, 0.0,
                                                1.0)], 6, 512, FS, 1)
        with pytest.raises(ValueError):
            gtvv_closed_form([self._direct()], 0, 512, FS, 1)


class TestRelativeWavefronts:
    def test_direct_is_normalized(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1)
        w = make_reference_beam(scene.direct.direction, 2)
        waves = relative_wavefronts(scene, w)
        assert waves[0].rel_gain == 1.0
        assert waves[0].rel_delay == 0.0
        assert waves[0].beta == 1.0
        assert len(waves) == len(scene.wavefronts)
        for wv, wf in zip(waves[1:], scene.wavefronts[1:]):
            assert wv.rel_gain == pytest.approx(wf.gain / scene.direct.gain)
            assert wv.rel_delay == pytest.approx(wf.toa - scene.direct.toa)

    def test_beta_is_beam_response(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1)
        w = make_reference_beam(scene.direct.direction, 2)
        waves = relative_wavefronts(scene, w)
        y = sh_eval(waves[3].direction, 2)
        assert waves[3].beta == pytest.approx(float(w @ y))

    def test_beam_of_no_full_order_rejected(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1)
        with pytest.raises(ValueError, match="not a full-order"):
            relative_wavefronts(scene, np.ones(5))


def reverberant_spectrum(order, rt60=0.44, snr=math.inf, src_seed=0,
                         noise_seed=0, duration=3.2):
    scene = image_source_scene(ROOM, SRC, MIC, rt60, 3)
    src = make_burst_source(duration, FS, src_seed)
    sig = encode_scene(scene, src, order)
    if math.isfinite(snr):
        sig = add_noise(sig, snr, noise_seed)
    return scene, stft(sig, 1024)


class TestEstimateGtvv:
    @pytest.mark.parametrize("silent_bin", [0, -1, 5])
    def test_silent_bin_is_filled(self, silent_bin):
        # a bin that is zero in every frame is invalid and interpolated; at
        # DC or Nyquist the fill must still be the spectrum of a real response
        spec = sweep_cell_spectrum(2, rt_idx=0)
        data = all_frames(spec)
        data[:, :, silent_bin] = 0.0
        spec = ArraySpectrum(data, FS)
        cfg = EstimatorConfig()
        assert not estimate_gfvv_ls(spec, cfg).valid[silent_bin]
        v = estimate_gtvv(spec, cfg)
        assert v.data.shape == (9, 1024)
        assert np.all(np.isfinite(v.data))

    def test_noiseless_single_wave_is_t0_spike(self):
        d = Direction(-0.6, 0.25)
        scene = GroundTruthScene((Wavefront(d, 0.003, 0.5),), (False,),
                                 ROOM, SRC, MIC, 0.3, FS)
        src = make_burst_source(3.2, FS, 1)
        spec = stft(encode_scene(scene, src, 1), 1024)
        cfg = EstimatorConfig(make_reference_beam(d, 1))
        v = estimate_gtvv(spec, cfg)
        y = sh_eval(d, 1)
        np.testing.assert_allclose(v.data[:, v.zero_index], y, atol=1e-6)
        off = np.delete(v.data, v.zero_index, axis=1)
        assert np.max(np.abs(off)) < 1e-6

    def test_steered_reference_is_mostly_causal(self):
        # direct path plus the six first-order wall reflections; a sharp
        # reference beam keeps the lag response concentrated at t >= 0
        order = 3
        scene = image_source_scene(ROOM, SRC, MIC, 0.16, 1)
        src = make_burst_source(3.2, FS, 0)
        spec = stft(encode_scene(scene, src, order), 1024)
        cfg = EstimatorConfig(
            make_reference_beam(scene.direct.direction, order))
        v = estimate_gtvv(spec, cfg)
        frac = negative_lag_energy_fraction(v)
        norm_ratio = math.sqrt(frac / (1.0 - frac))
        assert norm_ratio < 0.2

    def test_estimator_consistency_more_averaging_helps(self):
        # error to the known free-field answer drops monotonically as the
        # averaging doubles along both axes (4x the frames per estimate)
        d = Direction(0.9, -0.15)
        scene = GroundTruthScene((Wavefront(d, 0.002, 1.0),), (False,),
                                 ROOM, SRC, MIC, 0.3, FS)
        src = make_burst_source(13.0, FS, 2)
        sig = add_noise(encode_scene(scene, src, 1), 20.0, 3)
        spec = stft(sig, 1024)
        y = sh_eval(d, 1)
        ref = make_reference_beam(d, 1)
        errs = []
        for seg, fps in ((4, 12), (8, 24), (16, 48)):
            est = estimate_gfvv_ls(
                spec, EstimatorConfig(ref, seg_count=seg, frames_per_seg=fps))
            diff = np.abs(est.values[:, est.valid] - y[:, None])
            scale = np.abs(y[:, None]) + 1e-12
            errs.append(float(np.median(diff / scale)))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_source_invariance(self):
        # same room, two different burst sources: the estimates agree far
        # more closely than either one varies across frequency
        order = 1
        scene = image_source_scene(ROOM, SRC, MIC, 0.44, 3)
        ref = make_reference_beam(scene.direct.direction, order)
        cfg = EstimatorConfig(ref)
        ests = []
        for src_seed in (10, 11):
            src = make_burst_source(3.2, FS, src_seed)
            sig = add_noise(encode_scene(scene, src, order), 20.0,
                            100 + src_seed)
            ests.append(estimate_gfvv_ls(stft(sig, 1024), cfg))
        both = ests[0].valid & ests[1].valid
        a, b = ests[0].values[:, both], ests[1].values[:, both]
        disagreement = np.median(np.abs(a - b) / (np.abs(a) + np.abs(b)
                                                  + 1e-12))
        assert disagreement < 0.25

    def test_reads_only_the_segments_frames(self):
        # 8 x 24 frames 256 samples apart: a 30 s recording estimates as
        # its first 191 * 256 + 1024 samples do
        scene = image_source_scene(ROOM, SRC, MIC, 0.44, 2)
        sig = add_noise(encode_scene(scene, make_burst_source(30.0, FS, 4),
                                     1), 20.0, 5)
        head = AmbisonicSignal(FS, sig.channels[:, :191 * 256 + 1024])
        long_spec, head_spec = stft(sig, 1024), stft(head, 1024)
        assert head_spec.frames == 192 < 1872 <= long_spec.frames
        cfg = EstimatorConfig(make_reference_beam(scene.direct.direction, 1))
        for est_cfg in (EstimatorConfig(), cfg):
            np.testing.assert_array_equal(
                estimate_gtvv(long_spec, est_cfg).data,
                estimate_gtvv(head_spec, est_cfg).data)
