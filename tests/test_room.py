import io
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve

from gtvv.room import (FRAC_DELAY_TAPS, SPEED_OF_SOUND, AmbisonicSignal,
                       GroundTruthScene, Wavefront, _next_fast_len,
                       add_noise, encode_scene,
                       fractional_delay_kernel, image_source_scene,
                       make_burst_source, read_wav,
                       sabine_reflection_coefficient, write_wav)
from gtvv.sh import Direction, angular_distance, num_channels, sh_eval

ROOM = (5.0, 4.0, 2.8)
SRC = (1.0, 1.0, 1.4)
MIC = (3.5, 2.5, 1.4)


def encode_scene_loop(scene, source, order):
    """Reference encoder: one convolution and one outer product per
    wavefront, as `encode_scene` was first written."""
    fs = scene.fs
    max_delay = max(w.toa for w in scene.wavefronts) * fs
    out_len = source.size + int(math.ceil(max_delay)) + FRAC_DELAY_TAPS
    out = np.zeros((num_channels(order), out_len))
    for wave in scene.wavefronts:
        n0, kernel = fractional_delay_kernel(wave.toa * fs)
        seg = fftconvolve(source, kernel)[max(0, -n0):]
        start = max(0, n0)
        out[:, start:start + seg.size] += wave.gain * np.outer(
            sh_eval(wave.direction, order), seg)
    return out


def image_source_scene_nested(room, src, mic, rt60, max_order, fs):
    """Reference image-source model: one nested loop per image index, as
    `image_source_scene` was first written."""
    src = np.asarray(src, dtype=float)
    mic = np.asarray(mic, dtype=float)
    beta = sabine_reflection_coefficient(room, rt60)
    dims = np.asarray(room)
    m_max = (max_order + 1) // 2 + 1
    entries = []
    for qx in (0, 1):
        for qy in (0, 1):
            for qz in (0, 1):
                q = np.array([qx, qy, qz])
                for mx in range(-m_max, m_max + 1):
                    for my in range(-m_max, m_max + 1):
                        for mz in range(-m_max, m_max + 1):
                            m = np.array([mx, my, mz])
                            order = int(np.sum(np.abs(m - q) + np.abs(m)))
                            if order > max_order:
                                continue
                            pos = (1 - 2 * q) * src + 2 * m * dims
                            delta = pos - mic
                            dist = float(np.linalg.norm(delta))
                            direction = Direction(
                                math.atan2(delta[1], delta[0]),
                                math.asin(np.clip(delta[2] / dist, -1.0, 1.0)),
                            )
                            gain = beta ** order / dist
                            entries.append(
                                (dist / SPEED_OF_SOUND, Wavefront(
                                    direction, dist / SPEED_OF_SOUND, gain),
                                 order == 1)
                            )
    entries.sort(key=lambda e: e[0])
    return GroundTruthScene(tuple(e[1] for e in entries),
                            tuple(e[2] for e in entries), tuple(room),
                            tuple(src), tuple(mic), rt60, fs)


class TestImageSourceScene:
    # no shrinking: a reference call runs up to 5832 loop iterations, and
    # shrinking a counterexample took Hypothesis's full five minutes
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(room=st.tuples(*[st.floats(1.5, 12.0)] * 3),
           src=st.tuples(*[st.floats(0.02, 0.98)] * 3),
           mic=st.tuples(*[st.floats(0.02, 0.98)] * 3),
           rt60=st.floats(0.1, 2.0), max_order=st.integers(0, 5))
    def test_matches_nested_loop(self, room, src, mic, rt60, max_order):
        # positions are drawn as fractions of the room's dimensions
        src = np.multiply(src, room)
        mic = np.multiply(mic, room)
        if np.allclose(src, mic):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # RT60 below the Sabine limit
            got = image_source_scene(room, src, mic, rt60, max_order)
            want = image_source_scene_nested(room, src, mic, rt60,
                                             max_order, 16000.0)
        assert got == want

    def test_first_order_counts(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1)
        assert len(scene.wavefronts) == 7
        assert sum(scene.first_order_flags) == 6
        assert not scene.first_order_flags[0]
        d = np.linalg.norm(np.subtract(SRC, MIC))
        assert scene.direct.toa == pytest.approx(d / SPEED_OF_SOUND)

    def test_order_zero_single_wavefront(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 0)
        assert len(scene.wavefronts) == 1
        d = np.linalg.norm(np.subtract(SRC, MIC))
        assert scene.direct.gain == pytest.approx(1.0 / d)

    def test_ceiling_image_hand_computed(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1)
        # mirror the source across z = 2.8
        img = np.array([1.0, 1.0, 2 * 2.8 - 1.4])
        delta = img - np.asarray(MIC)
        dist = np.linalg.norm(delta)
        expected_dir = Direction(math.atan2(delta[1], delta[0]),
                                 math.asin(delta[2] / dist))
        found = [w for w, f in zip(scene.wavefronts, scene.first_order_flags)
                 if f and w.direction.elevation > 0.1]
        assert len(found) == 1
        assert found[0].toa == pytest.approx(dist / SPEED_OF_SOUND)
        assert angular_distance(found[0].direction, expected_dir) < 1e-12

    def test_direct_has_largest_gain(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.44, 3)
        gains = [w.gain for w in scene.wavefronts]
        assert gains[0] == max(gains)

    def test_reciprocity(self):
        a = image_source_scene(ROOM, SRC, MIC, 0.3, 2)
        b = image_source_scene(ROOM, MIC, SRC, 0.3, 2)
        np.testing.assert_allclose(sorted(w.toa for w in a.wavefronts),
                                   sorted(w.toa for w in b.wavefronts),
                                   rtol=1e-12)

    def test_sabine_rt60_consistency(self):
        # the image set only covers the decay out to roughly
        # max_order * min(room) / c seconds, so truncate the energy-decay
        # analysis to that window and fit a shallower dB range
        for rt60, max_order in ((0.16, 8), (0.44, 24)):
            scene = image_source_scene(ROOM, SRC, MIC, rt60, max_order)
            fs = 16000.0
            n = int(0.9 * max_order * min(ROOM) / SPEED_OF_SOUND * fs)
            rir = np.zeros(n)
            for w in scene.wavefronts:
                k = int(round(w.toa * fs))
                if k < n:
                    rir[k] += w.gain
            edc = np.cumsum(rir[::-1] ** 2)[::-1]
            edc_db = 10 * np.log10(edc / edc[0] + 1e-300)
            # fit the Schroeder curve between -5 and -20 dB
            t = np.arange(n) / fs
            sel = (edc_db < -5) & (edc_db > -20)
            slope = np.polyfit(t[sel], edc_db[sel], 1)[0]
            rt_est = -60.0 / slope
            assert rt_est == pytest.approx(rt60, rel=0.30)

    def test_geometry_violations(self):
        with pytest.raises(ValueError):
            image_source_scene(ROOM, (0.0, 1, 1), MIC, 0.3, 1)
        with pytest.raises(ValueError):
            image_source_scene(ROOM, SRC, (6.0, 1, 1), 0.3, 1)
        with pytest.raises(ValueError):
            image_source_scene(ROOM, SRC, SRC, 0.3, 1)
        with pytest.raises(ValueError):
            image_source_scene(ROOM, SRC, MIC, -1.0, 1)


class TestFractionalDelay:
    def test_integer_delay_is_exact(self):
        n0, kernel = fractional_delay_kernel(32.0)
        x = np.zeros(80)
        x[n0:n0 + kernel.size] = kernel
        assert x[32] == pytest.approx(1.0)
        assert np.max(np.abs(np.delete(x, 32))) < 1e-15

    def test_fractional_delay_accuracy(self):
        # delay a bandlimited signal and compare against exact resampling
        fs = 16000.0
        t = np.arange(512) / fs
        f0 = 1000.0
        delay = 10.37
        x = np.sin(2 * np.pi * f0 * t)
        n0, kernel = fractional_delay_kernel(delay)
        y = np.convolve(x, kernel)
        expect = np.sin(2 * np.pi * f0 * (t - delay / fs))
        # sample i of the convolution corresponds to output time i + n0
        got = y[np.arange(512) - n0]
        # compare away from the edges
        sel = slice(64, 448)
        err = np.max(np.abs(got[sel] - expect[sel]))
        assert err < 1e-3


class TestEncodeScene:
    def _single_wave_scene(self, toa, gain=1.0, fs=16000.0):
        from gtvv.room import GroundTruthScene, Wavefront
        wf = Wavefront(Direction(0.7, -0.3), toa, gain)
        return GroundTruthScene((wf,), (False,), ROOM, SRC, MIC, 0.3, fs)

    def test_integer_delay_impulse(self):
        fs = 16000.0
        scene = self._single_wave_scene(32.0 / fs)
        src = np.zeros(128)
        src[0] = 1.0
        sig = encode_scene(scene, src, 2)
        y = sh_eval(Direction(0.7, -0.3), 2)
        np.testing.assert_allclose(sig.channels[:, 32], y, atol=1e-12)
        rest = np.delete(sig.channels, 32, axis=1)
        assert np.max(np.abs(rest)) < 1e-3 * np.max(np.abs(y))

    def test_two_wavefronts_match_convolution_oracle(self):
        from gtvv.room import GroundTruthScene, Wavefront
        fs = 16000.0
        rng = np.random.default_rng(3)
        src = rng.standard_normal(256)
        w0 = Wavefront(Direction(0.0, 0.0), 16.0 / fs, 0.9)
        w1 = Wavefront(Direction(1.0, 0.2), 48.0 / fs, 0.4)
        scene = GroundTruthScene((w0, w1), (False, False), ROOM, SRC, MIC,
                                 0.3, fs)
        sig = encode_scene(scene, src, 0)
        # omni channel = g0 s(t - 16) + g1 s(t - 48)
        expect = np.zeros(sig.num_samples)
        expect[16:16 + 256] += 0.9 * src
        expect[48:48 + 256] += 0.4 * src
        np.testing.assert_allclose(sig.channels[0], expect, atol=1e-12)

    def test_order0_is_multipath_convolution(self):
        fs = 16000.0
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1, fs)
        rng = np.random.default_rng(1)
        src = rng.standard_normal(512)
        sig = encode_scene(scene, src, 0)
        expect = np.zeros(sig.num_samples)
        for w in scene.wavefronts:
            n0, kernel = fractional_delay_kernel(w.toa * fs)
            d = np.convolve(src, kernel)
            expect[n0:n0 + d.size] += w.gain * d
        np.testing.assert_allclose(sig.channels[0], expect, atol=1e-12)

    def test_linearity(self):
        fs = 16000.0
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 1, fs)
        rng = np.random.default_rng(2)
        s1 = rng.standard_normal(300)
        s2 = rng.standard_normal(300)
        a, b = 0.7, -1.3
        lhs = encode_scene(scene, a * s1 + b * s2, 1).channels
        rhs = (a * encode_scene(scene, s1, 1).channels
               + b * encode_scene(scene, s2, 1).channels)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("rt60, order", [(0.16, 1), (0.44, 4)])
    def test_matches_per_wavefront_loop(self, rt60, order):
        scene = image_source_scene(ROOM, SRC, MIC, rt60, 3)
        src = make_burst_source(0.5, scene.fs, 11)
        got = encode_scene(scene, src, order).channels
        want = encode_scene_loop(scene, src, order)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_negative_start_is_cut_like_the_loop(self):
        # a wavefront at t = 0 has kernel taps before the first sample
        from gtvv.room import GroundTruthScene, Wavefront
        w0 = Wavefront(Direction(0.3, 0.1), 0.0, 1.0)
        w1 = Wavefront(Direction(-1.2, 0.4), 2.5e-4, 0.5)
        scene = GroundTruthScene((w0, w1), (False, False), ROOM, SRC, MIC,
                                 0.3, 16000.0)
        src = np.random.default_rng(4).standard_normal(200)
        got = encode_scene(scene, src, 2).channels
        want = encode_scene_loop(scene, src, 2)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    @settings(max_examples=10, deadline=None)
    @given(order=st.integers(1, 3), rt60=st.sampled_from((0.16, 0.3, 0.44)),
           seed=st.integers(0, 2**16))
    def test_lower_orders_nest_in_order4(self, order, rt60, seed):
        scene = image_source_scene(ROOM, SRC, MIC, rt60, 2)
        src = make_burst_source(0.3, scene.fs, seed)
        full = encode_scene(scene, src, 4).channels
        np.testing.assert_array_equal(encode_scene(scene, src, order).channels,
                                      full[:num_channels(order)])

    def test_empty_source(self):
        scene = image_source_scene(ROOM, SRC, MIC, 0.3, 0)
        with pytest.raises(ValueError):
            encode_scene(scene, np.array([]), 1)


class TestAddNoise:
    def _signal(self, seconds=10.0, fs=16000.0):
        rng = np.random.default_rng(0)
        return AmbisonicSignal(fs, rng.standard_normal((4, int(seconds * fs))))

    def test_variance_calibration(self):
        sig = self._signal(1.0)
        power = np.mean(sig.channels[0] ** 2)
        noisy = add_noise(sig, 20.0, 0)
        noise = noisy.channels - sig.channels
        assert np.var(noise) == pytest.approx(power / 100.0, rel=0.05)

    def test_infinite_snr_is_identity(self):
        sig = self._signal(0.1)
        out = add_noise(sig, math.inf, 0)
        np.testing.assert_array_equal(out.channels, sig.channels)

    def test_empirical_snr_within_half_db(self):
        sig = self._signal(10.0)
        noisy = add_noise(sig, 20.0, 1)
        noise = noisy.channels - sig.channels
        p_sig = np.mean(sig.channels[0] ** 2)
        for c in range(4):
            snr = 10 * np.log10(p_sig / np.mean(noise[c] ** 2))
            assert abs(snr - 20.0) < 0.5

    def test_zero_signal_rejected(self):
        sig = AmbisonicSignal(16000.0, np.zeros((4, 100)))
        with pytest.raises(ValueError):
            add_noise(sig, 20.0, 0)

    def test_deterministic(self):
        sig = self._signal(0.5)
        a = add_noise(sig, 20.0, 7)
        b = add_noise(sig, 20.0, 7)
        np.testing.assert_array_equal(a.channels, b.channels)


class TestBurstSource:
    def test_length(self):
        assert make_burst_source(2.0, 16000, 0).size == 32000

    def test_has_silent_gaps(self):
        fs = 16000.0
        x = make_burst_source(5.0, fs, 3)
        frame = int(0.02 * fs)
        rms = np.sqrt(np.mean(
            x[: x.size // frame * frame].reshape(-1, frame) ** 2, axis=1))
        silent = rms < 1e-6
        # count contiguous silent stretches
        gaps = np.sum(np.diff(silent.astype(int)) == 1) + int(silent[0])
        assert gaps >= 3

    def test_nonstationarity(self):
        fs = 16000.0
        frame = int(0.064 * fs)
        x = make_burst_source(5.0, fs, 4)
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(x.size) * np.std(x)

        def frame_power_var(sig):
            n = sig.size // frame * frame
            p = np.mean(sig[:n].reshape(-1, frame) ** 2, axis=1)
            return np.var(p / np.mean(p))

        assert frame_power_var(x) > 10 * frame_power_var(flat)

    def test_deterministic(self):
        np.testing.assert_array_equal(make_burst_source(1.0, 16000, 9),
                                      make_burst_source(1.0, 16000, 9))


class TestWavRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = AmbisonicSignal(16000.0, rng.standard_normal((4, 1000)) * 0.1)
        path = tmp_path / "sig.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.fs == 16000.0
        np.testing.assert_allclose(back.channels, sig.channels, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_signed_pcm_scaled_by_full_scale(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        pcm = np.array([[info.min, -(2 ** (info.bits - 2)), 0,
                         2 ** (info.bits - 2), info.max]], dtype=dtype).T
        path = tmp_path / "pcm.wav"
        wavfile.write(path, 16000, pcm)
        back = read_wav(path)
        full = float(2 ** (info.bits - 1))
        np.testing.assert_array_equal(
            back.channels[0], [-1.0, -0.5, 0.0, 0.5, (full - 1) / full])

    def test_unsigned_8bit_pcm_centred(self, tmp_path):
        pcm = np.array([[0, 64, 128, 192, 255]], dtype=np.uint8).T
        path = tmp_path / "pcm8.wav"
        wavfile.write(path, 8000, np.repeat(pcm, 4, axis=1))
        back = read_wav(path)
        assert back.fs == 8000.0
        assert back.channels.shape == (4, 5)
        np.testing.assert_array_equal(
            back.channels, np.tile([-1.0, -0.5, 0.0, 0.5, 127 / 128], (4, 1)))


def test_next_fast_len_matches_scipy():
    assert ([_next_fast_len(n) for n in range(1, 20001)]
            == [next_fast_len(n, real=True) for n in range(1, 20001)])


def scipy_read_scaled(path):
    """(fs, channels x frames) as scipy reads `path`, with `read_wav`'s
    scaling of integer PCM."""
    fs, data = wavfile.read(path)
    if data.dtype.kind == "u":
        data = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "i":
        data = data.astype(np.float64) / float(2 ** (8 * data.itemsize - 1))
    return float(fs), np.atleast_2d(data.T).astype(float)


def wav_bytes(tag, channels, bits, payload, fs=16000, extensible=False,
              chunks=()):
    """A hand-built RIFF/WAVE file; `chunks` are (id, body) pairs written
    before the data chunk, with a pad byte after an odd-sized body."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels,
                      fs, fs * block, block, bits)
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID
        fmt += struct.pack("<HHIH", 22, bits, 0, tag) + (
            b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")
    body = b"WAVE"
    for cid, chunk in ((b"fmt ", fmt), *chunks, (b"data", payload)):
        body += cid + struct.pack("<I", len(chunk)) + chunk
        body += b"\0" * (len(chunk) % 2 and cid != b"data")
    return b"RIFF" + struct.pack("<I", len(body)) + body


def int24_bytes(values):
    return b"".join(int(v).to_bytes(3, "little", signed=True)
                    for v in values)


class TestWavReader:
    @pytest.mark.parametrize("dtype", ["u1", "i2", "i4", "f4", "f8"])
    def test_matches_scipy(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        if dtype[0] == "f":
            data = rng.standard_normal((101, 3)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, (101, 3),
                                endpoint=True, dtype=dtype)
        path = tmp_path / "x.wav"
        wavfile.write(path, 22050, data)
        sig = read_wav(path)
        fs, want = scipy_read_scaled(path)
        assert sig.fs == fs == 22050.0
        np.testing.assert_array_equal(sig.channels, want)

    def test_mono(self, tmp_path):
        path = tmp_path / "mono.wav"
        wavfile.write(path, 8000, np.arange(-5, 5, dtype=np.int16))
        sig = read_wav(path)
        assert sig.channels.shape == (1, 10)
        np.testing.assert_array_equal(sig.channels[0],
                                      np.arange(-5, 5) / 2.0 ** 15)

    def test_s24_matches_scipy(self, tmp_path):
        values = np.concatenate([[-2 ** 23, -1, 0, 1, 2 ** 23 - 1],
                                 np.random.default_rng(3).integers(
                                     -2 ** 23, 2 ** 23, 95)])
        path = tmp_path / "s24.wav"
        path.write_bytes(wav_bytes(1, 2, 24, int24_bytes(values)))
        sig = read_wav(path)
        fs, want = scipy_read_scaled(path)
        np.testing.assert_array_equal(sig.channels, want)
        np.testing.assert_array_equal(sig.channels,
                                      values.reshape(-1, 2).T / 2.0 ** 23)

    @pytest.mark.parametrize("tag, bits, payload", [
        (1, 16, np.arange(-600, 600, 3, dtype="<i2").tobytes()),
        (1, 24, int24_bytes(range(-2 ** 23, 2 ** 23, 2 ** 17))),
        (3, 32, np.linspace(-1, 1, 400, dtype="<f4").tobytes()),
        (3, 64, np.linspace(-1, 1, 400, dtype="<f8").tobytes()),
    ])
    def test_extensible_matches_plain_and_scipy(self, tmp_path, tag, bits,
                                                payload):
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(wav_bytes(tag, 4, bits, payload))
        ext.write_bytes(wav_bytes(tag, 4, bits, payload, extensible=True))
        sig = read_wav(ext)
        np.testing.assert_array_equal(sig.channels, read_wav(plain).channels)
        np.testing.assert_array_equal(sig.channels,
                                      scipy_read_scaled(ext)[1])

    # scipy warns of each chunk it skips
    @pytest.mark.filterwarnings("ignore:Chunk .non-data. not understood")
    def test_skips_unknown_and_odd_chunks(self, tmp_path):
        payload = np.arange(40, dtype="<i2").tobytes()
        plain, extra = tmp_path / "plain.wav", tmp_path / "extra.wav"
        plain.write_bytes(wav_bytes(1, 2, 16, payload))
        extra.write_bytes(wav_bytes(1, 2, 16, payload, chunks=[
            (b"LIST", b"odd"), (b"junk", b"\xff" * 10)]))
        np.testing.assert_array_equal(read_wav(extra).channels,
                                      read_wav(plain).channels)
        np.testing.assert_array_equal(read_wav(extra).channels,
                                      scipy_read_scaled(extra)[1])

    def test_write_wav_is_what_scipy_writes(self, tmp_path):
        sig = AmbisonicSignal(
            16000.0, np.random.default_rng(3).standard_normal((9, 257)))
        path = tmp_path / "out.wav"
        write_wav(path, sig)
        fs, data = wavfile.read(path)
        assert fs == 16000
        np.testing.assert_array_equal(data, sig.channels.T.astype(np.float32))
        want = io.BytesIO()
        wavfile.write(want, 16000, sig.channels.T.astype(np.float32))
        assert path.read_bytes() == want.getvalue()

    @pytest.mark.parametrize("tag, bits, why", [
        (6, 8, "tag 6"),        # A-law
        (7, 8, "tag 7"),        # mu-law
        (1, 12, "12 bits"),
        (3, 16, "16 bits"),
    ])
    def test_other_formats_rejected(self, tmp_path, tag, bits, why):
        path = tmp_path / "other.wav"
        path.write_bytes(wav_bytes(tag, 1, bits, b"\0" * 64))
        with pytest.raises(ValueError, match=why):
            read_wav(path)

    @pytest.mark.parametrize("data, why", [
        (b"", "not a RIFF/WAVE file"),
        (b"RIFX\0\0\0\0WAVE", "not a RIFF/WAVE file"),
        (wav_bytes(1, 1, 16, b"")[:30], "fmt chunk truncated"),
        (wav_bytes(1, 1, 16, b"")[:36], "no data chunk"),
        (b"RIFF\0\0\0\0WAVEdata\0\0\0\0", "no fmt chunk"),
    ])
    def test_malformed_rejected(self, tmp_path, data, why):
        path = tmp_path / "bad.wav"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=why):
            read_wav(path)

    @pytest.mark.parametrize("bits, cut, frames", [
        (16, 60, 15), (24, 60, 10), (32, 60, 7), (16, 399, 99)])
    def test_truncated_data_chunk(self, tmp_path, bits, cut, frames):
        full = wav_bytes(1, 2, bits, b"\1" * (2 * bits // 8 * 100))
        path = tmp_path / "cut.wav"
        path.write_bytes(full[:full.index(b"data") + 8 + cut])
        with pytest.raises(ValueError, match=(
                f"data chunk truncated: {frames} of 100 frames")):
            read_wav(path)
