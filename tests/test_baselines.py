import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvv.baselines import h_tdvv, srp_doa, srp_map
from gtvv.room import (AmbisonicSignal, GroundTruthScene, Wavefront,
                       add_noise, encode_scene, image_source_scene,
                       make_burst_source)
from gtvv.sh import (Direction, angular_distance, build_dictionary,
                     make_omni_beam, make_reference_beam, sh_eval)
from gtvv.spectral import stft
from gtvv.velocity import (EstimatorConfig, estimate_gtvv,
                           negative_lag_energy_fraction)
from oracles import ArraySpectrum, all_frames, nearest

FS = 16000.0
ROOM = (5.0, 4.0, 2.8)
SRC = (1.2, 1.1, 1.4)
MIC = (3.6, 2.6, 1.5)


def srp_map_loop(spec, dictionary):
    """Reference SRP: project every frame onto every atom, as `srp_map` was
    first written."""
    values = np.zeros(len(dictionary))
    for b in all_frames(spec):
        frame_energy = float(np.sum(np.abs(b) ** 2))
        if frame_energy == 0.0:
            continue
        proj = dictionary.atoms.T @ b  # atoms x bins
        values += np.sum(np.abs(proj) ** 2, axis=1) / frame_energy
    return values


def free_field_spectrum(direction, order, seed=0, duration=3.2):
    scene = GroundTruthScene((Wavefront(direction, 0.002, 1.0),), (False,),
                             ROOM, SRC, MIC, 0.3, FS)
    src = make_burst_source(duration, FS, seed)
    return stft(encode_scene(scene, src, order), 1024)


class TestHTdvv:
    def test_order1_reduces_to_omni_referenced_estimate(self):
        d = Direction(0.5, 0.1)
        spec = free_field_spectrum(d, 1)
        cfg = EstimatorConfig(make_reference_beam(d, 1))
        via_baseline = h_tdvv(spec, cfg)
        direct = estimate_gtvv(
            spec, EstimatorConfig(make_omni_beam(1), cfg.seg_count,
                                  cfg.frames_per_seg))
        np.testing.assert_array_equal(via_baseline.data, direct.data)

    def test_single_wave_is_t0_spike(self):
        d = Direction(-0.8, 0.3)
        spec = free_field_spectrum(d, 2)
        v = h_tdvv(spec, EstimatorConfig(make_omni_beam(2)))
        y = sh_eval(d, 2)
        np.testing.assert_allclose(v.data[:, v.zero_index], y, atol=1e-6)
        off = np.delete(v.data, v.zero_index, axis=1)
        assert np.max(np.abs(off)) < 1e-6

    def test_strong_reflections_less_causal_than_steered(self):
        # reverberant scene: the omni reference cannot attenuate the
        # reflections, so acausal leakage must exceed the steered beam's
        order = 3
        scene = image_source_scene(ROOM, SRC, MIC, 0.44, 2)
        rel_gains = [w.gain / scene.direct.gain
                     for w in scene.wavefronts[1:]]
        assert sum(abs(g) for g in rel_gains) > 1.0
        src = make_burst_source(3.2, FS, 0)
        spec = stft(encode_scene(scene, src, order), 1024)
        cfg = EstimatorConfig(
            make_reference_beam(scene.direct.direction, order))
        steered = estimate_gtvv(spec, cfg)
        omni = h_tdvv(spec, cfg)
        assert (negative_lag_energy_fraction(omni)
                > negative_lag_energy_fraction(steered))


class TestSrp:
    def test_peak_memory_does_not_grow_with_the_recording(self):
        # six times the frames add one float per frame and its DC and
        # Nyquist bins (2 floats per channel, 408 bytes in all), not a
        # channels x channels cross-power per frame (5 KB each at order 4)
        dic = build_dictionary(770, 4)
        rng = np.random.default_rng(4)
        frames, peaks = [], []
        for seconds in (1.0, 6.0):
            spec = stft(AmbisonicSignal(FS, rng.standard_normal(
                (25, int(seconds * FS)))), 1024)
            tracemalloc.start()
            try:
                srp_map(spec, dic)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            frames.append(spec.frames)
        added = frames[1] - frames[0]
        assert added > 300
        assert peaks[1] - peaks[0] <= 8 * (1 + 2 * 25) * added + 65536

    def test_single_wave_argmax_at_nearest_atom(self):
        d = Direction(1.1, -0.35)
        spec = free_field_spectrum(d, 4)
        dic = build_dictionary(770, 4)
        doa = srp_doa(srp_map(spec, dic), dic)
        assert doa == dic.directions[nearest(dic, d)]

    def test_null_direction_power_is_zero_not_negative(self):
        # an order-1 plane wave has no power toward its antipode; there the
        # covariance form lands at +-1e-14, and srp_map clips it at 0
        dic = build_dictionary(100, 1)
        atom = dic.directions[0]
        anti = Direction(math.atan2(-math.sin(atom.azimuth),
                                    -math.cos(atom.azimuth)), -atom.elevation)
        pmap = srp_map(free_field_spectrum(anti, 1, duration=1.0), dic)
        assert 0.0 <= pmap[0] < 1e-12 * np.max(pmap)

    def test_isotropic_noise_map_is_flat(self):
        # channel-wise white noise: the expected steered power is the same
        # in every direction, so 95% of atoms sit within 3 dB of the median
        rng = np.random.default_rng(0)
        order = 2
        channels = (order + 1) ** 2
        data = (rng.standard_normal((400, channels, 513))
                + 1j * rng.standard_normal((400, channels, 513)))
        spec = ArraySpectrum(data, FS)
        dic = build_dictionary(770, order)
        pmap = srp_map(spec, dic)
        db = 10 * np.log10(pmap / np.median(pmap))
        assert np.mean(np.abs(db) <= 3.0) >= 0.95

    def test_two_waves_give_two_local_maxima(self):
        order = 4
        d0 = Direction(0.0, 0.0)
        d1 = Direction(math.pi / 2, 0.0)
        rng = np.random.default_rng(1)
        y0 = sh_eval(d0, order)
        y1 = sh_eval(d1, order)
        s0 = rng.standard_normal((64, 513)) + 1j * rng.standard_normal((64, 513))
        s1 = rng.standard_normal((64, 513)) + 1j * rng.standard_normal((64, 513))
        data = s0[:, None, :] * y0[:, None] + s1[:, None, :] * y1[:, None]
        spec = ArraySpectrum(data, FS)
        dic = build_dictionary(770, order)
        pmap = srp_map(spec, dic)
        vecs = np.stack([x.unit_vector() for x in dic.directions])
        for target in (d0, d1):
            j = nearest(dic, target)
            # local maximum within a 25 degree cap around each source
            cap = np.arccos(np.clip(vecs @ vecs[j], -1, 1)) < math.radians(25)
            assert pmap[j] == pytest.approx(
                np.max(pmap[cap]), rel=1e-9)
            assert angular_distance(dic.directions[j], target) \
                < math.radians(10)

    def test_scaling_invariance(self):
        d = Direction(0.3, 0.5)
        spec = free_field_spectrum(d, 2)
        dic = build_dictionary(200, 2)
        a = srp_map(spec, dic)
        scaled = stft(AmbisonicSignal(FS, spec.signal.channels * 7.5), 1024)
        b = srp_map(scaled, dic)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("order", [1, 4])
    def test_matches_per_frame_loop(self, order):
        scene = image_source_scene(ROOM, SRC, MIC, 0.44, 3)
        sig = add_noise(encode_scene(scene, make_burst_source(1.0, FS, 2),
                                     order), 20.0, 3)
        spec = stft(sig, 1024)
        dic = build_dictionary(770, order)
        got = srp_map(spec, dic)
        want = srp_map_loop(spec, dic)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(want))
        assert np.argmax(got) == np.argmax(want)

    @pytest.mark.parametrize("order", [1, 6])
    def test_silent_stretches_match_the_spectra(self, order):
        # stretches at 1e-6 of the level, whose frames fall below the
        # energy floor and must weigh nothing, and samples after the last
        # frame: the map from the samples against the map of the spectra
        rng = np.random.default_rng(order)
        x = rng.standard_normal(((order + 1) ** 2, 24 * 1024 + 200))
        x *= np.exp(rng.standard_normal((x.shape[0], 1)))
        for lo, hi in ((3000, 9000), (14000, 14500), (17000, 23000)):
            x[:, lo:hi] *= 1e-6
        spec = stft(AmbisonicSignal(FS, x), 1024)
        frames = ArraySpectrum(all_frames(spec), FS)
        energies, _ = frames.energy(0, spec.frames)
        assert np.sum(energies < 1e-9 * np.max(energies)) >= 20
        dic = build_dictionary(200, order)
        got = srp_map(spec, dic)
        want = srp_map(frames, dic)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(want))
        assert np.argmax(got) == np.argmax(want)

    def test_clean_map_stable_under_rounding_perturbation(self):
        # a noise-free encode has silent frames whose energy is FFT
        # rounding; they must not steer the map
        scene = image_source_scene(ROOM, SRC, MIC, 0.44, 3)
        sig = encode_scene(scene, make_burst_source(3.2, FS, 1), 4)
        spec = stft(sig, 1024)
        energies = np.sum(np.abs(all_frames(spec)) ** 2, axis=(1, 2))
        assert np.min(energies) < 1e-20 * np.max(energies)
        # noise at 1e-15 of the peak: rounding-level in the bursts, but it
        # replaces the rounding residue that fills the silent frames
        rng = np.random.default_rng(5)
        bumped = AmbisonicSignal(FS, sig.channels + 1e-15 * np.max(
            np.abs(sig.channels)) * rng.standard_normal(sig.channels.shape))
        dic = build_dictionary(770, 4)
        a = srp_map(spec, dic)
        b = srp_map(stft(bumped, 1024), dic)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9 * np.max(a))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
    def test_invariant_to_frame_order(self, order, seed, data):
        # the map is a sum over frames; with silent frames among them, so
        # that the energy floor is exercised too
        rng = np.random.default_rng(seed)
        frames, channels = 12, (order + 1) ** 2
        shape = (frames, channels, 33)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b *= np.exp(3.0 * rng.standard_normal((frames, 1, 1)))
        b[rng.random(frames) < 0.2] *= 1e-12
        perm = data.draw(st.permutations(range(frames)))
        dic = build_dictionary(60, order)
        a = srp_map(ArraySpectrum(b, FS), dic)
        p = srp_map(ArraySpectrum(b[perm], FS), dic)
        np.testing.assert_allclose(p, a, rtol=0, atol=1e-12 * np.max(a))

    def test_empty_spectrum_rejected(self):
        spec = ArraySpectrum(np.zeros((0, 4, 513), dtype=complex), FS)
        with pytest.raises(ValueError):
            srp_map(spec, build_dictionary(100, 1))

    def test_order_mismatch_rejected(self):
        spec = free_field_spectrum(Direction(0, 0), 1)
        with pytest.raises(ValueError):
            srp_map(spec, build_dictionary(100, 2))
