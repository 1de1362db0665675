import math
import tracemalloc

import numpy as np
import pytest

from gtvv.baselines import srp_map
from gtvv.errors import InconsistentSpectrumError
from gtvv.experiment import ExperimentConfig, analyze, simulate_cell
from gtvv.room import AmbisonicSignal
from gtvv.sh import Direction, build_dictionary, sh_eval
from gtvv.spectral import (FRAME_BLOCK, GtvvMatrix, SpectrumTensor,
                           frame_blocks, frame_count, gfvv_to_gtvv,
                           make_time_axis, stft)
from gtvv.velocity import EstimatorConfig, segment_stats
from oracles import ArraySpectrum, all_frames

FS = 16000.0


def make_signal(data):
    return AmbisonicSignal(FS, np.atleast_2d(np.asarray(data, dtype=float)))


def stft_stacked(sig, win_len):
    """Reference STFT: stack copies of the frames, then window them, as
    `stft` was first written."""
    hop = win_len // 4
    window = np.hamming(win_len)
    starts = np.arange((sig.num_samples - win_len) // hop + 1) * hop
    frames = np.stack([sig.channels[:, s:s + win_len] for s in starts])
    return np.fft.rfft(frames * window, axis=-1)


def gtvv_by_hermitian_ifft(v_f):
    """Reference inverse transform: mirror the one-sided spectrum to a
    Hermitian full one, complex `ifft` and roll, as `gfvv_to_gtvv` was
    first written."""
    win_len = 2 * (v_f.shape[1] - 1)
    full = np.empty((v_f.shape[0], win_len), dtype=complex)
    full[:, :v_f.shape[1]] = v_f
    full[:, v_f.shape[1]:] = np.conj(v_f[:, -2:0:-1])
    return np.roll(np.fft.ifft(full, axis=1).real, win_len // 2, axis=1)


def random_real_edged_spectrum(rng, channels, win_len):
    """Random one-sided spectrum of a real length-`win_len` response."""
    shape = (channels, win_len // 2 + 1)
    v_f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v_f[:, [0, -1]] = v_f[:, [0, -1]].real
    return v_f


class TestStft:
    def test_paper_framing(self):
        sig = make_signal(np.random.default_rng(0).standard_normal(32000))
        spec = stft(sig, int(0.064 * FS))
        assert spec.bins == 513
        assert spec.frames == frame_count(32000, 1024) == 122

    def test_pure_cosine_magnitude(self):
        win = 1024
        k = 100
        amp = 0.7
        t = np.arange(4 * win)
        sig = make_signal(amp * np.cos(2 * np.pi * k * t / win))
        spec = stft(sig, win)
        frame = np.abs(spec.reader(1).block(0, 1)[0, 0])
        assert np.argmax(frame) == k
        coherent_gain = np.mean(np.hamming(win))
        expected = coherent_gain * amp * win / 2
        assert frame[k] == pytest.approx(expected, rel=0.01)

    def test_zero_signal(self):
        spec = stft(make_signal(np.zeros(4096)), 1024)
        assert np.all(all_frames(spec) == 0)

    # the checks are the spectrum's own, whichever way it is built
    def test_too_short(self):
        for make in (stft, SpectrumTensor):
            with pytest.raises(ValueError, match="shorter than one"):
                make(make_signal(np.zeros(512)), 1024)

    def test_bad_window(self):
        sig = make_signal(np.zeros(4096))
        for make in (stft, SpectrumTensor):
            with pytest.raises(ValueError, match="power of two"):
                make(sig, 1000)

    def test_parseval_per_frame(self):
        win = 256
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4 * win)
        spec = stft(make_signal(x), win)
        assert spec.frames == 13
        w = np.hamming(win)
        for u in range(spec.frames):
            start = u * win // 4
            frame = x[start:start + win] * w
            X = spec.reader(1).block(u, u + 1)[0, 0]
            two_sided = 2 * np.sum(np.abs(X) ** 2) \
                - np.abs(X[0]) ** 2 - np.abs(X[-1]) ** 2
            assert two_sided / win == pytest.approx(np.sum(frame ** 2),
                                                    rel=1e-6)


    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_matches_stacked_frames(self, order):
        cfg = ExperimentConfig()
        _, sig = simulate_cell(cfg, 0, cfg.rt60[1], order)
        spec = stft(sig, cfg.win_len)
        got = all_frames(spec)
        want = stft_stacked(sig, cfg.win_len)
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides

    def test_matches_stacked_frames_on_uneven_length(self):
        # the last partial hop is dropped, as by the stacked frames
        sig = make_signal(np.random.default_rng(1).standard_normal((4, 5000)))
        spec = stft(sig, 512)
        np.testing.assert_array_equal(all_frames(spec),
                                      stft_stacked(sig, 512))

    # below one frame block, exactly one, and a partial last block
    @pytest.mark.parametrize("frames", [1, 3, 7, 8, 9, 15, 16, 21])
    def test_matches_stacked_frames_for_any_frame_count(self, frames):
        win = 256
        samples = win + (frames - 1) * win // 4
        sig = make_signal(
            np.random.default_rng(frames).standard_normal((9, samples)))
        spec = stft(sig, win)
        got = all_frames(spec)
        want = stft_stacked(sig, win)
        assert got.shape[0] == frames
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides

    # one frame, within one block, a whole block, across block edges and
    # the partial last block
    @pytest.mark.parametrize("start, stop", [(0, 1), (5, 6), (2, 7), (0, 8),
                                             (6, 11), (13, 21), (16, 21)])
    def test_block_is_the_rows_of_the_whole(self, start, stop):
        sig = make_signal(np.random.default_rng(2).standard_normal((4, 1536)))
        spec = stft(sig, 256)
        assert spec.frames == 21
        reader = spec.reader(FRAME_BLOCK)
        reader.block(13, 21)  # the block it overwrites leaves no trace
        np.testing.assert_array_equal(reader.block(start, stop),
                                      stft_stacked(sig, 256)[start:stop])

    # outside the frames, reversed, empty, or longer than one block
    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (4, 4),
                                             (18, 22), (0, 9), (0, 21)])
    def test_block_outside_the_frames_rejected(self, start, stop):
        spec = stft(make_signal(np.ones((4, 1536))), 256)
        for read in (spec.reader(FRAME_BLOCK).block, spec.energy):
            with pytest.raises(ValueError, match="1 to 8 of 0:21"):
                read(start, stop)

    def test_spare_memory_leaves_the_blocks_alone(self):
        # the spare rows live where the frames are windowed, and what the
        # caller writes there between blocks is no part of the next one
        sig = make_signal(np.random.default_rng(4).standard_normal((9, 1536)))
        spec = stft(sig, 256)
        reader = spec.reader(2)
        spare = reader.spare(8)
        assert spare.shape == (8, spec.bins) and spare.dtype == complex
        assert spare.base is not None  # a view, of the windowing buffer
        for start in range(0, spec.frames - 1, 2):
            spare[...] = np.nan
            np.testing.assert_array_equal(
                reader.block(start, start + 2),
                stft_stacked(sig, 256)[start:start + 2])
        # 2 frames of 9 channels of 256 samples hold 17 rows of 129 bins
        assert reader.spare(17).shape == (17, spec.bins)
        with pytest.raises(ValueError, match="18 spare rows of 129 bins"):
            reader.spare(18)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e306,
                                     -1e306])
    def test_non_finite_or_overflowing_sample_rejected(self, bad):
        # 1e306 is below finfo(float).max but not below it over win_len
        x = np.random.default_rng(0).standard_normal((4, 4096))
        x[2, 1234] = bad
        for make in (stft, SpectrumTensor):
            with pytest.raises(ValueError, match="finite and of magnitude"):
                make(make_signal(x), 1024)

    def test_largest_accepted_sample_gives_a_finite_spectrum(self):
        # every sample at the bound: the DC bin sums them all
        x = np.full((1, 1024), np.nextafter(np.finfo(float).max / 1024, 0.0))
        spec = stft(make_signal(x), 1024)
        assert np.all(np.isfinite(spec.reader(1).block(0, 1)))

    def test_analysis_peak_memory_is_under_0_3_of_the_spectrum(self):
        # the analysis of the order-6 cell, SRP included, holds frame
        # blocks, segment statistics and per-frame channel cross-powers,
        # never the whole complex spectrum (frames x channels x bins x 16
        # bytes; the array-backed spectrum took 1.14 times that)
        cfg = ExperimentConfig()
        _, sig = simulate_cell(cfg, 0, cfg.rt60[0], 6)
        dic = build_dictionary(cfg.dict_size, 6)
        tracemalloc.start()
        try:
            spec = stft(sig, cfg.win_len)
            srp_map(spec, dic)
            analyze(spec, dic, cfg.iter_cap(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.channels == 49
        assert peak <= 0.3 * spec.frames * spec.channels * spec.bins * 16


class TestCrossPower:
    """The frame-weighted Parseval cross-power of the samples against the
    frequency-domain one of their spectra."""

    @staticmethod
    def assert_matches_spectra(spec, weights):
        frames = ArraySpectrum(all_frames(spec), FS)
        runs = [spec.energy(*run) for run in frame_blocks(spec.frames)]
        energy = np.concatenate([e for e, _ in runs])
        edges = np.concatenate([d_q for _, d_q in runs])
        want = frames.weighted_cross_power(weights, edges)
        got = spec.weighted_cross_power(weights, edges)
        assert got.shape == (spec.channels, spec.channels)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
        # the energies are the traces of the frames' terms, and the edge
        # bins the spectra's DC and Nyquist bins
        want_energy, want_edges = frames.energy(0, spec.frames)
        np.testing.assert_allclose(energy, want_energy, rtol=0,
                                   atol=1e-12 * np.max(want_energy))
        np.testing.assert_allclose(edges, want_edges, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want_edges)))
        for u in {0, spec.frames // 2, spec.frames - 1}:
            one = np.zeros(spec.frames)
            one[u] = 1.0
            assert np.trace(spec.weighted_cross_power(
                one, edges)) == pytest.approx(want_energy[u], rel=1e-12)

    # below one frame block, exactly one, and one frame past it; with and
    # without samples after the last frame, which no frame covers
    @pytest.mark.parametrize("frames", [1, 7, 8, 9])
    @pytest.mark.parametrize("order", [1, 6])
    def test_matches_frequency_domain(self, order, frames):
        win = 1024
        rng = np.random.default_rng(10 * order + frames)
        for extra in (0, 1, win // 4 - 1):
            samples = win + (frames - 1) * win // 4 + extra
            x = rng.standard_normal(((order + 1) ** 2, samples))
            x *= np.exp(rng.standard_normal((x.shape[0], 1)))
            spec = stft(make_signal(x), win)
            assert spec.frames == frames
            # weights of many scales, some 0, as SRP's 1 / E_u
            weights = np.exp(3.0 * rng.standard_normal(frames))
            weights[rng.random(frames) < 0.3] = 0.0
            self.assert_matches_spectra(spec, weights)

    # a constant puts the frame sum in the DC bin, a +-1 alternation puts
    # the alternating sum in the Nyquist bin: the correction terms
    @pytest.mark.parametrize("pattern", ["constant", "alternating"])
    def test_edge_bin_signals(self, pattern):
        t = np.arange(3 * 1024)
        x = np.ones(t.size) if pattern == "constant" else (-1.0) ** t
        spec = stft(make_signal(np.stack([x, 0.5 * x, -2.0 * x])), 1024)
        self.assert_matches_spectra(spec, np.linspace(0.5, 2.0, spec.frames))

    @pytest.mark.parametrize("count", [0, 20, 22])
    def test_one_weight_per_frame(self, count):
        spec = stft(make_signal(np.ones((4, 1536))), 256)
        assert spec.frames == 21
        with pytest.raises(ValueError, match="weights for 21 frames"):
            spec.weighted_cross_power(np.ones(count), np.ones((21, 4, 2)))

    @pytest.mark.parametrize("shape", [(20, 4, 2), (21, 3, 2), (21, 4, 1)])
    def test_edge_bins_of_every_frame_and_channel(self, shape):
        spec = stft(make_signal(np.ones((4, 1536))), 256)
        with pytest.raises(ValueError, match="edge bins for 21 frames of 4"):
            spec.weighted_cross_power(np.ones(21), np.ones(shape))


class TestSamplePrecision:
    """A recording held as float32 and the same samples held as float64
    give the same numbers, bit for bit: every transform and reduction
    computes in float64, whatever the samples' precision."""

    @pytest.fixture(scope="class", params=[1, 4, 6])
    def spectra(self, request):
        """(float32 spectrum, float64 spectrum, dictionary) of one cell of
        order `request.param`, rounded to float32 samples."""
        cfg = ExperimentConfig()
        _, sig = simulate_cell(cfg, 0, cfg.rt60[-1], request.param)
        x = sig.channels.astype(np.float32)
        specs = [stft(AmbisonicSignal(FS, x.astype(dtype)), cfg.win_len)
                 for dtype in (np.float32, np.float64)]
        assert [spec.signal.channels.dtype for spec in specs] == [
            np.float32, np.float64]
        return (*specs, build_dictionary(cfg.dict_size, request.param))

    def test_block(self, spectra):
        readers = [spec.reader(FRAME_BLOCK) for spec in spectra[:2]]
        for run in frame_blocks(spectra[0].frames):
            np.testing.assert_array_equal(*(r.block(*run) for r in readers))

    def test_energy(self, spectra):
        for run in frame_blocks(spectra[0].frames):
            (e32, d32), (e64, d64) = (spec.energy(*run)
                                      for spec in spectra[:2])
            np.testing.assert_array_equal(e32, e64)
            np.testing.assert_array_equal(d32, d64)

    def test_weighted_cross_power(self, spectra):
        spec = spectra[0]
        rng = np.random.default_rng(spec.channels)
        weights = np.exp(3.0 * rng.standard_normal(spec.frames))
        weights[rng.random(spec.frames) < 0.3] = 0.0
        edges = np.concatenate([spec.energy(*run)[1]
                                for run in frame_blocks(spec.frames)])
        np.testing.assert_array_equal(
            *(s.weighted_cross_power(weights, edges) for s in spectra[:2]))

    def test_srp_map(self, spectra):
        dic = spectra[2]
        np.testing.assert_array_equal(
            *(srp_map(spec, dic) for spec in spectra[:2]))

    def test_segment_stats(self, spectra):
        s32, s64 = (segment_stats(spec, EstimatorConfig())
                    for spec in spectra[:2])
        for got, want in zip((*s32.omni, s32.phi, s32.valid, s32.r2),
                             (*s64.omni, s64.phi, s64.valid, s64.r2)):
            np.testing.assert_array_equal(got, want)

    def test_analyze(self, spectra):
        dic = spectra[2]
        (vh32, est32, vg32), (vh64, est64, vg64) = (
            analyze(spec, dic, ExperimentConfig.iter_cap(dic.order))
            for spec in spectra[:2])
        np.testing.assert_array_equal(vh32.data, vh64.data)
        np.testing.assert_array_equal(vg32.data, vg64.data)
        assert est32.to_json() == est64.to_json()
        np.testing.assert_array_equal(est32.coeffs, est64.coeffs)


class TestSpectrumTensor:
    # the array-backed spectrum of the tests
    def test_data_is_read_only(self):
        data = np.ones((2, 5, 4), dtype=complex)
        spec = ArraySpectrum(data, FS)
        with pytest.raises(ValueError):
            spec.data[0, 0, 0] = 2.0
        assert data.flags.writeable  # the caller's array is untouched

    def test_data_is_c_contiguous(self):
        # the estimator views each frame's channels x bins as floats
        data = np.arange(40.0).reshape(2, 5, 4).transpose(0, 2, 1)
        spec = ArraySpectrum(data, FS)
        assert spec.data.flags.c_contiguous
        assert (spec.channels, spec.bins) == (4, 5)
        np.testing.assert_array_equal(spec.data, data)


class TestGfvvToGtvv:
    def test_constant_spectrum_is_t0_spike(self):
        win = 1024
        y = sh_eval(Direction(0.4, 0.1), 2)
        v_f = np.tile(y[:, None], (1, win // 2 + 1)).astype(complex)
        v = gfvv_to_gtvv(v_f, FS)
        zero = v.zero_index
        assert v.time_axis[zero] == 0.0
        np.testing.assert_allclose(v.data[:, zero], y, atol=1e-12)
        off = np.delete(v.data, zero, axis=1)
        assert np.max(np.abs(off)) < 1e-12

    def test_shift_theorem(self):
        win = 1024
        tau = 32.0 / FS  # 2 ms
        f = np.arange(win // 2 + 1) * FS / win
        v_f = np.exp(-2j * np.pi * f * tau)[None, :]
        v = gfvv_to_gtvv(v_f, FS)
        peak = int(np.argmax(np.abs(v.data[0])))
        assert v.time_axis[peak] == pytest.approx(0.002)

    def test_round_trip(self):
        win = 512
        v_f = random_real_edged_spectrum(np.random.default_rng(2), 4, win)
        v = gfvv_to_gtvv(v_f, FS)
        assert v.win_len == win
        back = np.fft.rfft(np.roll(v.data, -win // 2, axis=1), axis=1)
        np.testing.assert_allclose(back, v_f, atol=1e-10)

    def test_linearity(self):
        win = 256
        rng = np.random.default_rng(3)

        a_f, b_f = (random_real_edged_spectrum(rng, 2, win) for _ in range(2))
        lhs = gfvv_to_gtvv(2.0 * a_f - 0.5 * b_f, FS).data
        rhs = (2.0 * gfvv_to_gtvv(a_f, FS).data
               - 0.5 * gfvv_to_gtvv(b_f, FS).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("win", [16, 256, 1024])
    def test_matches_hermitian_ifft(self, win):
        v_f = random_real_edged_spectrum(np.random.default_rng(win), 3, win)
        want = gtvv_by_hermitian_ifft(v_f)
        got = gfvv_to_gtvv(v_f, FS).data
        assert got.shape == want.shape
        # float64 rounding of two transforms of this length
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_inconsistent_spectrum_raises(self):
        win = 256
        v_f = np.ones((1, win // 2 + 1), dtype=complex)
        v_f[0, 0] = 1j  # complex DC cannot come from a real response
        with pytest.raises(InconsistentSpectrumError):
            gfvv_to_gtvv(v_f, FS)

    def test_complex_nyquist_raises(self):
        v_f = np.ones((1, 129), dtype=complex)
        v_f[0, -1] = 1j  # nor can a complex Nyquist bin
        with pytest.raises(InconsistentSpectrumError):
            gfvv_to_gtvv(v_f, FS)

    def test_edge_imaginary_roundoff_accepted(self):
        v_f = random_real_edged_spectrum(np.random.default_rng(4), 2, 64)
        v_f[:, [0, -1]] += 1e-10j * np.max(np.abs(v_f))
        np.testing.assert_allclose(gfvv_to_gtvv(v_f, FS).data,
                                   gtvv_by_hermitian_ifft(v_f), atol=1e-12)

    def test_time_axis_zero_column(self):
        axis = make_time_axis(1024, FS)
        assert axis[512] == 0.0
        assert axis[511] < 0.0
        v = GtvvMatrix(np.zeros((1, 1024)), FS)
        np.testing.assert_array_equal(v.time_axis, axis)
        assert v.zero_index == 512


class TestGtvvMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        data = np.zeros((4, 64))
        data[2, 40] = bad
        with pytest.raises(ValueError, match="finite"):
            GtvvMatrix(data, FS)
