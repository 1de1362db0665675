"""Shoebox image-source scenes, Ambisonic encoding and noise injection.

Ground truth is kept exact: every wavefront is a plane wave with a known
direction, time of arrival and frequency-independent gain, and the encoded
signal is the sum of fractionally delayed copies of the source weighted by
the SH vectors of those directions.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .sh import Direction, num_channels, sh_matrix

SPEED_OF_SOUND = 343.0  # m/s

FRAC_DELAY_TAPS = 64


@dataclass(frozen=True)
class Wavefront:
    direction: Direction
    toa: float      # seconds
    gain: float     # linear

    def __post_init__(self):
        if not (math.isfinite(self.gain) and math.isfinite(self.toa)):
            raise ValueError("wavefront gain/toa must be finite")
        if self.toa < 0:
            raise ValueError("time of arrival must be non-negative")


@dataclass(frozen=True)
class GroundTruthScene:
    """Plane-wave decomposition of a shoebox room response.

    `wavefronts` are sorted by time of arrival, index 0 being the direct
    path; `first_order_flags` marks the six single-reflection images.
    """

    wavefronts: tuple
    first_order_flags: tuple
    room: tuple
    src: tuple
    mic: tuple
    rt60: float
    fs: float

    def __post_init__(self):
        toas = [w.toa for w in self.wavefronts]
        if toas != sorted(toas):
            raise ValueError("wavefronts must be sorted by time of arrival")
        if len(self.first_order_flags) != len(self.wavefronts):
            raise ValueError("one flag per wavefront required")

    @property
    def direct(self) -> Wavefront:
        return self.wavefronts[0]

    def first_order_reflections(self):
        return [w for w, f in zip(self.wavefronts, self.first_order_flags) if f]

    def to_json(self) -> str:
        payload = {
            "room_m": list(self.room),
            "src_m": list(self.src),
            "mic_m": list(self.mic),
            "rt60_s": self.rt60,
            "fs_hz": self.fs,
            "wavefronts": [
                {
                    "azimuth_deg": math.degrees(w.direction.azimuth),
                    "elevation_deg": math.degrees(w.direction.elevation),
                    "toa_s": w.toa,
                    "gain": w.gain,
                    "first_order": bool(flag),
                }
                for w, flag in zip(self.wavefronts, self.first_order_flags)
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class AmbisonicSignal:
    """Channels ((L+1)^2, num_samples) at `fs` Hz. Float32 and float64
    channels are kept as given, any other dtype is cast to float64: a
    recording is held at the precision its file stores, and every
    transform and reduction of it computes in float64."""

    fs: float
    channels: np.ndarray  # ((L+1)^2, num_samples)

    def __post_init__(self):
        ch = np.asarray(self.channels)
        if ch.dtype not in (np.float32, np.float64):
            ch = ch.astype(float)
        if ch.ndim != 2:
            raise ValueError("channels must be a 2-D array")
        if not 0 < self.fs < math.inf:  # also rejects NaN
            raise ValueError("sampling rate must be positive and finite")
        object.__setattr__(self, "channels", ch)

    @property
    def num_samples(self) -> int:
        return self.channels.shape[1]


def sabine_reflection_coefficient(room, rt60: float) -> float:
    """Uniform wall reflection coefficient matching the requested RT60."""
    lx, ly, lz = room
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    absorption = 0.161 * volume / (rt60 * surface)
    if absorption >= 1.0:
        warnings.warn("requested RT60 below the Sabine limit of this room; "
                      "walls set fully absorbent")
        return 0.0
    return math.sqrt(1.0 - absorption)


def image_source_scene(room, src, mic, rt60: float, max_order: int,
                       fs: float = 16000.0) -> GroundTruthScene:
    """Enumerate image sources of a shoebox room up to `max_order` reflections.

    Gains are (reflection coefficient)^order / distance, times of arrival are
    distance / c, directions point from the microphone toward each image.
    """
    room = tuple(float(v) for v in room)
    src = np.asarray(src, dtype=float)
    mic = np.asarray(mic, dtype=float)
    if src.shape != (3,) or mic.shape != (3,) or len(room) != 3:
        raise ValueError("room, src and mic must be 3-dimensional")
    for p, name in ((src, "src"), (mic, "mic")):
        if not np.all((p > 0) & (p < np.asarray(room))):
            raise ValueError(f"{name} must lie strictly inside the room")
    if np.allclose(src, mic):
        raise ValueError("source and microphone must not coincide")
    if rt60 <= 0:
        raise ValueError("rt60 must be positive")
    if max_order < 0:
        raise ValueError("max_order must be non-negative")

    beta = sabine_reflection_coefficient(room, rt60)
    dims = np.asarray(room)
    m_max = (max_order + 1) // 2 + 1
    span = range(-m_max, m_max + 1)
    # image (q, m) mirrors the source by q and shifts it by 2 m room lengths;
    # the reflection orders of the whole lattice are computed at once, and
    # the kept images are visited in the lattice's row-major order
    qs = np.array(list(itertools.product((0, 1), repeat=3)))
    ms = np.array(list(itertools.product(span, repeat=3)))
    orders = (np.abs(ms - qs[:, None]) + np.abs(ms)).sum(axis=2)
    entries = []
    for qi, mi in zip(*np.nonzero(orders <= max_order)):
        q, m, order = qs[qi], ms[mi], int(orders[qi, mi])
        pos = (1 - 2 * q) * src + 2 * m * dims
        delta = pos - mic
        dist = float(np.linalg.norm(delta))
        direction = Direction(
            math.atan2(delta[1], delta[0]),
            math.asin(np.clip(delta[2] / dist, -1.0, 1.0)),
        )
        gain = beta ** order / dist
        entries.append((dist / SPEED_OF_SOUND,
                        Wavefront(direction, dist / SPEED_OF_SOUND, gain),
                        order == 1))
    entries.sort(key=lambda e: e[0])
    wavefronts = tuple(e[1] for e in entries)
    flags = tuple(e[2] for e in entries)
    return GroundTruthScene(wavefronts, flags, room, tuple(src), tuple(mic),
                            rt60, fs)


def fractional_delay_kernel(delay_samples: float):
    """Hann-windowed sinc interpolator realizing a non-integer delay.

    Returns (start_index, taps-array of FRAC_DELAY_TAPS): adding taps[i] at
    output sample start_index + i applies the delay. Exact for integer
    delays.
    """
    half = FRAC_DELAY_TAPS // 2
    n0 = math.floor(delay_samples) - half + 1
    t = n0 + np.arange(FRAC_DELAY_TAPS) - delay_samples  # in (-half, half]
    kernel = np.sinc(t) * (0.5 + 0.5 * np.cos(np.pi * t / half))
    return n0, kernel


def encode_scene(scene: GroundTruthScene, source, order: int) -> AmbisonicSignal:
    """Encode a mono source through the scene's wavefronts into SH channels.

    The gain-weighted fractional-delay kernels of all wavefronts form one
    wavefronts x taps impulse response, mixed to SH channels by the atoms;
    each channel is then convolved by overlap-add (Stockham 1966) with the
    source's blocks, transformed once at the power of two of at least
    4 x taps, on its own, so lower orders are exact slices of higher ones.
    Samples before t = 0 are dropped.
    """
    source = np.asarray(source, dtype=float)
    if source.ndim != 1 or source.size == 0:
        raise ValueError("source must be a non-empty 1-D signal")
    fs = scene.fs
    max_delay = max(w.toa for w in scene.wavefronts) * fs
    out_len = source.size + int(math.ceil(max_delay)) + FRAC_DELAY_TAPS
    kernels = [fractional_delay_kernel(w.toa * fs) for w in scene.wavefronts]
    # ir column i is output sample i - lead; lead > 0 when some n0 < 0
    lead = max(0, -min(n0 for n0, _ in kernels))
    ir = np.zeros((len(kernels),
                   max(n0 for n0, _ in kernels) + lead + FRAC_DELAY_TAPS))
    for row, (n0, kernel), wave in zip(ir, kernels, scene.wavefronts):
        row[n0 + lead:n0 + lead + kernel.size] = wave.gain * kernel
    az = np.array([w.direction.azimuth for w in scene.wavefronts])
    el = np.array([w.direction.elevation for w in scene.wavefronts])
    ir = sh_matrix(az, el, order) @ ir  # channels x taps
    taps = ir.shape[1]
    nfft = 1 << (4 * taps - 1).bit_length()
    step = nfft - taps + 1
    blocks = -(-source.size // step)
    source_f = rfft(np.pad(source, (0, blocks * step - source.size)).reshape(
        blocks, step), nfft)
    conv_len = source.size + taps - 1
    # the convolution by blocks; a block's tail (taps - 1 < step samples)
    # overlaps the next block only
    conv = np.empty((blocks + 1, step))
    out = np.zeros((num_channels(order), out_len))
    for out_row, ir_row in zip(out, ir):
        y = irfft(source_f * rfft(ir_row, nfft), nfft)
        conv[:-1] = y[:, :step]
        conv[-1] = 0.0
        conv[1:, :taps - 1] += y[:, step:]
        out_row[:conv_len - lead] = conv.reshape(-1)[lead:conv_len]
    return AmbisonicSignal(fs, out)


def add_noise(sig: AmbisonicSignal, snr_db: float, seed: int) -> AmbisonicSignal:
    """Add white Gaussian noise, equal variance on every channel, to
    `sig`'s channels in place; returns `sig`.

    The variance is set against the omnidirectional channel power, measured
    before any noise is added, so that omni power / per-channel noise power
    = 10^(snr_db/10). Each channel's noise is drawn into one reused row,
    scaled and added to it: the draws of one (channels, samples) array in
    the same order, so the channels are, bit for bit, that array times the
    scale plus the clean ones. Channels that are not float64 are a
    ValueError, raised before any is changed.
    """
    channels = sig.channels
    if channels.dtype != np.float64:
        raise ValueError("noise is added in place to float64 channels, "
                         f"not {channels.dtype}")
    power = float(np.mean(channels[0] ** 2))
    if power == 0.0:
        raise ValueError("cannot calibrate noise against an all-zero signal")
    scale = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    row = np.empty(channels.shape[1])
    for channel in channels:
        rng.standard_normal(out=row)
        row *= scale
        channel += row
    return sig


def make_burst_source(duration: float, fs: float, seed: int) -> np.ndarray:
    """Nonstationary test source: Gaussian-noise bursts separated by silence.

    Burst lengths are drawn from [0.2, 0.5] s, gaps from [0.05, 0.2] s, with
    short raised-cosine ramps at the burst edges. Deterministic given seed.
    """
    n = int(round(duration * fs))
    rng = np.random.default_rng(seed)
    out = np.zeros(n)
    ramp = max(1, int(0.005 * fs))
    pos = 0
    while pos < n:
        burst_len = int(rng.uniform(0.2, 0.5) * fs)
        amp = rng.uniform(0.5, 1.5)
        end = min(pos + burst_len, n)
        seg = rng.standard_normal(end - pos) * amp
        env = np.ones(end - pos)
        k = min(ramp, env.size // 2)
        if k > 0:
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(k) / k)
            env[:k] *= fade
            env[-k:] *= fade[::-1]
        out[pos:end] = seg * env
        pos = end + int(rng.uniform(0.05, 0.2) * fs)
    return out


_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
# the bytes after the 2-byte format tag in a WAVE_FORMAT_EXTENSIBLE
# subformat GUID
_SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# the file's sample type, and the type of the channels it is read into:
# float32 holds u8, s16, s24 and float32 samples exactly, float64 holds
# s32 and float64 ones; 24-bit samples are read as bytes and widened
_WAV_DTYPES = {(_WAVE_PCM, 8): ("u1", np.float32),
               (_WAVE_PCM, 16): ("<i2", np.float32),
               (_WAVE_PCM, 24): ("u1", np.float32),
               (_WAVE_PCM, 32): ("<i4", np.float64),
               (_WAVE_FLOAT, 32): ("<f4", np.float32),
               (_WAVE_FLOAT, 64): ("<f8", np.float64)}
# frames read or written, converted and transposed at a time
_WAV_BLOCK = 2048
# the largest value of a header's 32-bit fields
_UINT32_MAX = 2**32 - 1


def write_wav(path, sig: AmbisonicSignal):
    """Write an Ambisonic signal as a multichannel 32-bit float WAV, its
    data chunk `_WAV_BLOCK` frames at a time through one float32 block. A
    WAV stores its sampling rate, byte rate and size as whole numbers below
    2^32, so any other rate, or a recording too long for the size, is a
    ValueError, raised before the file is opened."""
    if not float(sig.fs).is_integer():
        raise ValueError("a WAV sampling rate is a whole number of Hz, "
                         f"not {sig.fs!r}")
    channels, frames = sig.channels.shape
    rate = int(sig.fs)
    if rate * 4 * channels > _UINT32_MAX:
        raise ValueError(f"a {channels}-channel float32 WAV at {rate} Hz "
                         "has a byte rate above the header's 2^32 - 1")
    data_bytes = 4 * channels * frames
    if 50 + data_bytes > _UINT32_MAX:
        raise ValueError(f"a {channels}-channel float32 WAV of {frames} "
                         "frames has a size above the header's 2^32 - 1")
    fmt = struct.pack("<HHIIHHH", _WAVE_FLOAT, channels, rate,
                      rate * 4 * channels, 4 * channels, 32, 0)
    block = np.empty((min(frames, _WAV_BLOCK), channels), "<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s4sI", b"RIFF", 50 + data_bytes, b"WAVE",
                             b"fmt ", len(fmt)))
        fh.write(fmt)
        fh.write(struct.pack("<4sII4sI", b"fact", 4, frames, b"data",
                             data_bytes))
        for start in range(0, frames, _WAV_BLOCK):
            out = block[:frames - start]
            out[...] = sig.channels[:, start:start + len(out)].T
            fh.write(out)


def _wav_format(body: bytes):
    """(format tag, channels, rate, bits per sample) of a fmt chunk, the
    tag of a WAVE_FORMAT_EXTENSIBLE file being that of its subformat."""
    if len(body) < 16:
        raise ValueError("fmt chunk truncated")
    tag, channels, rate, _, block_align, bits = struct.unpack(
        "<HHIIHH", body[:16])
    if tag == _WAVE_EXTENSIBLE:
        if len(body) < 40 or body[26:40] != _SUBFORMAT_TAIL:
            raise ValueError("unknown WAVE_FORMAT_EXTENSIBLE subformat")
        tag = struct.unpack("<H", body[24:26])[0]
    if (tag, bits) not in _WAV_DTYPES:
        raise ValueError(f"unsupported WAV format: tag {tag}, {bits} bits")
    if channels < 1 or block_align != channels * bits // 8:
        raise ValueError(f"bad WAV block size {block_align} for "
                         f"{channels} channel(s) of {bits} bits")
    return tag, channels, rate, bits


def read_wav(path) -> AmbisonicSignal:
    """Read a RIFF/WAVE file of PCM u8/s16/s24/s32 or IEEE float32/float64
    samples (plain or WAVE_FORMAT_EXTENSIBLE) at the precision the file
    stores: float32 channels for u8, s16, s24 and float32 files, float64
    for s32 and float64 ones, both exact. Integer PCM is mapped to
    [-1, 1): unsigned 8-bit as (x - 128) / 128, signed n-bit as
    x / 2^(n-1). The data chunk is read `_WAV_BLOCK` frames at a time into
    one channels-first array, so the interleaved samples are never held
    whole. Any other format, and a data chunk shorter than its header
    declares, is a ValueError."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
            raise ValueError("not a RIFF/WAVE file")
        fmt = None
        while True:
            header = fh.read(8)
            if len(header) < 8:
                raise ValueError("no data chunk")
            chunk, size = struct.unpack("<4sI", header)
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                fmt = _wav_format(fh.read(size))
                fh.seek(size % 2, 1)  # the pad byte of an odd-sized chunk
            else:
                fh.seek(size + size % 2, 1)
        if fmt is None:
            raise ValueError("no fmt chunk before the data chunk")
        tag, channels, rate, bits = fmt
        stored, held = _WAV_DTYPES[tag, bits]
        frame_bytes = channels * bits // 8
        frames = size // frame_bytes
        out = np.empty((channels, frames), held)
        raw = np.empty((min(frames, _WAV_BLOCK), frame_bytes), np.uint8)
        if bits == 24:  # each 3-byte sample left-justified in an int32
            wide = np.zeros((raw.shape[0], channels, 4), np.uint8)
        for start in range(0, frames, _WAV_BLOCK):
            block = raw[:frames - start]
            got = fh.readinto(block)
            if got < block.nbytes:
                raise ValueError("data chunk truncated: "
                                 f"{start + got // frame_bytes} of {frames} "
                                 "frames")
            if bits == 24:
                wide[:len(block), :, 1:] = block.reshape(len(block), channels,
                                                         3)
                samples = wide[:len(block)].view("<i4")[..., 0]
            else:
                samples = block.view(stored)
            # channels first, a block at a time: a strided copy of the
            # whole file reads memory in cache-hostile order
            span = out[:, start:start + len(block)]
            span[...] = samples.T
            if samples.dtype.kind == "u":
                span -= 128.0
                span /= 128.0
            elif samples.dtype.kind == "i":
                span /= float(2 ** (8 * samples.itemsize - 1))
    return AmbisonicSignal(float(rate), out)
