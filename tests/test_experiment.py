import concurrent.futures
import dataclasses
import importlib
import json
import math
import os
import pickle
import struct
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtvv
from gtvv import baselines, cli, experiment, room, sh, velocity
from gtvv.cli import main
from gtvv.errors import ConfigError, EstimatorDegenerateError
from gtvv.experiment import (ExperimentConfig, aggregate, analyze,
                             dump_traces, run_experiment, run_single,
                             scene_geometry, simulate_cell, write_results)
from gtvv.room import AmbisonicSignal, read_wav, write_wav
from gtvv.sh import (Direction, angular_distance, build_dictionary,
                     fibonacci_directions, make_omni_beam,
                     make_reference_beam)
from gtvv.somp import somp
from gtvv.spectral import FrameReader, SpectrumTensor, frame_count, stft
from gtvv.velocity import (EstimatorConfig, RelativeWavefront,
                           estimate_gtvv, gtvv_closed_form)
from oracles import to_json

FS = 16000.0
CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def package_env():
    """The environment of a subprocess that imports this `gtvv`."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(gtvv.__file__)),
         os.environ.get("PYTHONPATH", "")])}


def small_config(**overrides):
    base = dict(num_scenes=1, orders=(1,), rt60=(0.16,))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    # The keys of the protocol's fixed values (`room`, `win_len`, `snr_db`,
    # `gate_deg`, `duration`, `max_reflection_order`, `fs`, `estimator`)
    # are not fields: a config naming one is rejected, whatever the value.
    @pytest.mark.parametrize("overrides", [
        {"room": (5.0, 4.0)},
        {"room": (5.0, -1.0, 2.8)},
        {"rt60": ()},
        {"num_scenes": 0},
        {"orders": (0,)},
        {"orders": (9,)},
        {"win_len": 1000},
        {"dict_size": 3},
        {"dict_file": "/does/not/exist.txt"},
        {"snr_db": -3.0},
        {"gate_deg": 0.0},
        {"duration": 0.5},
        {"room": (5.0, 4.0, 0.9)},
        {"workers": 0},
        {"source_wav": "/does/not/exist.wav"},
        {"fs": 16000.0},       # even at the protocol's own value
        {"seed": -1},
        {"seed": 1.5},
        {"orders": ()},
        {"snr_db": math.nan},
        {"snr_db": -math.inf},
        {"gate_deg": math.nan},
        # NaN fails every comparison, so a `<= 0` check lets it through
        {"rt60": (math.nan,)},
        {"estimator": {"diagonal_load": math.nan}},
        {"estimator": {"diagonal_load": math.inf}},
        {"fs": 16000.5},
        {"fs": math.nan},
        {"fs": math.inf},
        # counts and indices must be integers
        {"num_scenes": 1.5},
        {"dict_size": 770.5},
        {"max_reflection_order": 1.5},
        {"workers": 1.5},
        {"orders": (1.5,)},
        {"estimator": {"seg_count": 2.5}},
        {"estimator": {"frames_per_seg": 24.5}},
        {"duration": math.inf},
        {"room": (math.inf, 4.0, 2.8)},
        {"max_reflection_order": -1},
        # a repeated value would run the same cells twice
        {"rt60": (0.16, 0.16)},
        {"orders": (1, 1)},
        {"room": (1.0, 4.0, 2.8)},
        {"room": (5.0, math.nan, 2.8)},
        # fixed values that are no longer settings, even at their values
        {"iter_cap_foa": 4},
        {"iter_cap_hoa": 7},
        {"min_wall_distance": 0.5},
        # JSON `true` is a bool, which Python counts as the integer 1
        {"num_scenes": True},
        {"workers": True},
        {"seed": True},
        {"orders": (True,)},
        {"rt60": (True,)},
        # `open` would take these as file descriptors
        {"dict_file": 0},
        {"source_wav": 1},
        {"dict_file": True},
        # both print as 0.4, the name of their output files
        {"rt60": (0.4, 0.4000001)},
    ])
    def test_invalid_configs_rejected(self, tmp_path, overrides):
        with pytest.raises(ConfigError):
            # what the constructor cannot take arrives from JSON
            if not overrides.keys() <= CONFIG_FIELDS:
                path = tmp_path / "cfg.json"
                path.write_text(json.dumps(overrides))
                ExperimentConfig.from_json(path)
            else:
                ExperimentConfig(**overrides).validate()

    def test_fixed_protocol_fits_estimator_and_margins(self):
        # what the protocol's constants must give, now that no config can
        # set them: enough frames for the estimator's segments, and a room
        # that holds the wall margins
        cfg = ExperimentConfig()
        est = EstimatorConfig()
        frames = frame_count(int(cfg.duration * cfg.fs), cfg.win_len)
        assert frames == 197 >= est.seg_count * est.frames_per_seg == 8 * 24
        assert all(side > 2 * experiment._WALL_MARGIN for side in cfg.room)

    def test_json_round_trip(self, tmp_path):
        cfg = small_config(seed=99, dict_size=500, workers=2)
        path = tmp_path / "cfg.json"
        path.write_text(to_json(cfg))
        back = ExperimentConfig.from_json(path)
        assert back == cfg

    def test_bad_json_raises_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)
        path.write_text('{"unknown_field": 1}')
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_pickled_config_carries_its_recording(self, tmp_path,
                                                  monkeypatch):
        # sweep workers receive the config pickled, and read no file
        wav = tmp_path / "source.wav"
        noise = np.random.default_rng(0).standard_normal((1, int(3.2 * FS)))
        write_wav(wav, AmbisonicSignal(FS, noise))
        cfg = small_config(source_wav=str(wav))

        def unreadable(path):
            raise OSError("read again")
        monkeypatch.setattr(room, "read_wav", unreadable)
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg
        np.testing.assert_array_equal(back.source_recording.channels,
                                      cfg.source_recording.channels)

    def test_iteration_caps(self):
        cfg = ExperimentConfig()
        for order in range(1, sh.MAX_ORDER + 1):
            assert cfg.iter_cap(order) == min(7, (order + 1) ** 2)

    def test_scene_geometry_respects_margins(self):
        cfg = ExperimentConfig()
        for idx in range(10):
            src, mic = scene_geometry(cfg, idx)
            for p in (src, mic):
                assert np.all(p >= experiment._WALL_MARGIN - 1e-9)
                assert np.all(p <= np.asarray(cfg.room)
                              - experiment._WALL_MARGIN + 1e-9)
            assert np.linalg.norm(src - mic) >= 1.5


class TestRunExperiment:
    def test_noiseless_single_wave_doa_within_grid(self):
        # every method must land within the dictionary's angular resolution
        # (about 4 degrees at 770 atoms) on an easy noiseless scene: the
        # direct path alone, with no reflections and no noise
        cfg = small_config()
        src, mic = scene_geometry(cfg, 0)
        scene = room.image_source_scene(cfg.room, src, mic, 0.16, 0, cfg.fs)
        source = room.make_burst_source(
            cfg.duration, cfg.fs, np.random.SeedSequence([cfg.seed, 0, 7]))
        spec = stft(room.encode_scene(scene, source, 1), cfg.win_len)
        dic = build_dictionary(cfg.dict_size, 1)
        _, est_h, v_g = analyze(spec, dic, cfg.iter_cap(1))
        doas = {"srp": baselines.srp_doa(baselines.srp_map(spec, dic), dic),
                "htdvv": est_h.directions[0],
                "gtvv": somp(v_g, dic, cfg.iter_cap(1)).directions[0]}
        for method, doa in doas.items():
            error = angular_distance(doa, scene.direct.direction)
            assert math.degrees(error) <= 4.5, method

    @pytest.mark.parametrize("order", [4, 6])
    def test_cell_simulated_in_one_recording(self, order):
        # the noise is added to the encode in place, so no second
        # recording-sized array is held
        cfg = ExperimentConfig()
        tracemalloc.start()
        try:
            _, sig = simulate_cell(cfg, 0, cfg.rt60[0], order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * sig.channels.nbytes

    @pytest.mark.parametrize("scene", [0, 3])
    def test_order_recording_is_the_top_recording_s_first_channels(self,
                                                                   scene):
        # the noise is seeded per (scene, rt60), not per order
        cfg = ExperimentConfig()
        for rt in cfg.rt60:
            _, top = simulate_cell(cfg, scene, rt, 4)
            for order in (1, 2, 3):
                _, sig = simulate_cell(cfg, scene, rt, order)
                np.testing.assert_array_equal(
                    sig.channels, top.channels[:sh.num_channels(order)])

    def test_grouped_records_equal_standalone_cells(self):
        cfg = small_config(rt60=(0.16, 0.44), orders=(1, 3, 4))
        _, records = run_experiment(cfg)
        assert [(r.rt60, r.order) for r in records] == [
            (rt, o) for rt in cfg.rt60 for o in cfg.orders]
        assert not any(r.error for r in records)
        for r in records:
            assert repr(r) == repr(run_single(cfg, 0, r.rt60, r.order))

    def test_failed_top_cell_leaves_lower_cells_their_own_pass(
            self, monkeypatch):
        # the order-4 cell fails after its omni pass; the lower cells are
        # handed no statistics and equal their standalone records
        cfg = small_config(orders=(2, 4, 1))
        want = {o: repr(run_single(cfg, 0, 0.16, o)) for o in (1, 2)}
        h_tdvv, cell = baselines.h_tdvv, experiment.run_single
        shared = []

        def failing(spec, *args):
            if spec.channels == 25:
                raise EstimatorDegenerateError(7)
            return h_tdvv(spec, *args)

        def noting(cfg, scene, rt60, order, omni=None):
            shared.append((order, omni is None))
            return cell(cfg, scene, rt60, order, omni)
        monkeypatch.setattr(baselines, "h_tdvv", failing)
        monkeypatch.setattr(experiment, "run_single", noting)
        _, records = run_experiment(cfg)
        assert shared == [(4, False), (2, True), (1, True)]
        assert [r.order for r in records] == [2, 4, 1]
        assert records[1].error == ("EstimatorDegenerateError: degenerate "
                                    "estimator system at bin 7")
        assert [repr(records[0]), repr(records[2])] == [want[2], want[1]]

    @staticmethod
    def counted_passes(monkeypatch) -> list:
        """The (channels, beam widths, forms phi) of each estimator pass
        from here on."""
        passes, sums = [], velocity._segment_sums

        def counting(spec, cfg, beams, phi, r2=None):  # r2: forms phi
            passes.append((spec.channels, [w.size for w in beams],
                           r2 is not None))
            return sums(spec, cfg, beams, phi, r2)
        monkeypatch.setattr(velocity, "_segment_sums", counting)
        return passes

    def test_group_makes_one_omni_pass(self, monkeypatch):
        # the top order's omni pass serves every order, and its steered
        # pass forms every lower order's steered sums: a group makes two
        # passes, and the lower cells none
        passes = self.counted_passes(monkeypatch)
        run_experiment(small_config(orders=(1, 2, 3, 4)))
        assert passes == [(25, [25], True), (25, [25, 4, 9, 16], False)]

    @pytest.mark.parametrize("fails", ["always", "look-ahead"])
    def test_failed_look_ahead_leaves_its_cell_its_own_pass(
            self, monkeypatch, fails):
        # H-TDVV fails on order 2's spectrum: in the top cell's look-ahead
        # alone, or in order 2's own cell too. Order 2's beam is left out
        # of the top cell's steered pass; the other records are unchanged
        cfg = small_config(orders=(1, 2, 4))
        want = {o: repr(run_single(cfg, 0, 0.16, o)) for o in (1, 2, 4)}
        failed = []

        def failing(fn):
            def estimator(spec, *args):
                if spec.channels == 9:
                    failed.append(spec)
                    raise EstimatorDegenerateError(7)
                return fn(spec, *args)
            return estimator
        # the look-ahead's H-TDVV, and the cell's
        monkeypatch.setattr(experiment, "estimate_gfvv_ls",
                            failing(experiment.estimate_gfvv_ls))
        if fails == "always":
            monkeypatch.setattr(baselines, "h_tdvv",
                                failing(baselines.h_tdvv))
        passes = self.counted_passes(monkeypatch)
        _, records = run_experiment(cfg)
        assert repr(records[0]) == want[1] and repr(records[2]) == want[4]
        top = [(25, [25], True), (25, [25, 4], False)]
        if fails == "always":
            assert len(failed) == 2
            assert records[1].error == ("EstimatorDegenerateError: "
                                        "degenerate estimator system at "
                                        "bin 7")
            assert passes == top
        else:
            assert len(failed) == 1 and repr(records[1]) == want[2]
            assert passes == top + [(9, [9], False)]

    def test_look_ahead_calls_no_cell_layer(self, monkeypatch):
        # the top cell works out the lower beams without the estimator,
        # S-OMP and dictionary functions that each cell calls by name, so
        # that each order's cell calls them as often as a cell alone does
        counts, cell = {}, [None]

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                counts[name, cell[0]] = counts.get((name, cell[0]), 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, call)
        for module, name in [(baselines, "h_tdvv"),
                             (experiment, "estimate_gtvv"),
                             (experiment, "somp"),
                             (experiment, "build_dictionary"),
                             (experiment, "stft")]:
            counted(module, name)
        run = experiment.run_single

        def in_cell(cfg, scene, rt60, order, shared=None):
            cell[0] = order
            return run(cfg, scene, rt60, order, shared)
        monkeypatch.setattr(experiment, "run_single", in_cell)
        run_experiment(small_config(orders=(1, 2, 3, 4)))
        grouped = dict(counts)
        counts.clear()
        for order in (1, 2, 3, 4):
            run_experiment(small_config(orders=(order,)))
        assert grouped == counts

    def test_lower_cell_holds_no_top_recording(self, monkeypatch):
        # the group holds views of the top pass's phi and sums, not its
        # statistics, whose spectrum would keep the order-4 recording
        cfg = small_config(orders=(3, 4))
        run_experiment(cfg)  # builds and keeps both dictionaries
        cell, peaks = experiment.run_single, {}

        def measured(cfg, scene, rt60, order, omni=None):
            tracemalloc.reset_peak()
            record = cell(cfg, scene, rt60, order, omni)
            peaks[order, omni is not None] = tracemalloc.get_traced_memory()[1]
            return record
        monkeypatch.setattr(experiment, "run_single", measured)
        tracemalloc.start()
        try:
            measured(cfg, 0, 0.16, 3)
            run_experiment(cfg)
        finally:
            tracemalloc.stop()
        # the order-4 phi per segment; the real g11, spread and r2 and the
        # complex g12 and r1: views keep the whole arrays; 64 KiB for the
        # group's own objects, such as the top cell's record
        held = sh.num_channels(4) * (cfg.win_len // 2 + 1) * (8 * 8 + 7 * 8)
        assert peaks[3, True] < peaks[3, False] + held + 2 ** 16

    def test_cell_cardinality(self):
        cfg = ExperimentConfig(num_scenes=1)
        table, records = run_experiment(cfg)
        assert len(records) == 1 * 2 * 4
        assert len(table.rows) == 3 * 4 * 2  # methods x orders x rt60
        # every (method, order, rt60) combination is present exactly once
        keys = {(r["method"], r["order"], r["rt60"]) for r in table.rows}
        assert len(keys) == 24

    def test_reproducibility_bit_identical(self, tmp_path):
        cfg = small_config()
        outs = []
        for name in ("a", "b"):
            table, records = run_experiment(cfg)
            out = tmp_path / name
            write_results(table, records, cfg, out)
            outs.append((out / "results.csv").read_bytes()
                        + (out / "results.json").read_bytes())
        assert outs[0] == outs[1]

    def test_failed_run_recorded_not_raised(self):
        cfg = small_config()
        rec = run_single(cfg, 0, 0.16, 1)
        bad = type(rec)(rec.scene, rec.rt60, rec.order, {}, {},
                        error="ValueError: synthetic failure")
        table = aggregate(cfg, [bad])
        assert len(table.failures) == 1
        assert "synthetic failure" in table.to_csv()

    def test_unknown_rt60_rejected(self):
        # its index seeds the noise: falling back to index 0 would make
        # the cell share the noise of rt60[0]
        with pytest.raises(ConfigError):
            run_single(small_config(), 0, 0.3, 1)

    def test_worker_pool_matches_serial(self):
        # pool workers run one BLAS thread, this process one per core
        cfg_serial = small_config(orders=(1, 4))
        cfg_pool = small_config(orders=(1, 4), workers=2)
        t1, r1 = run_experiment(cfg_serial)
        t2, r2 = run_experiment(cfg_pool)
        assert t1.to_csv() == t2.to_csv()
        assert [r.estimates for r in r1] == [r.estimates for r in r2]

    def test_estimates_independent_of_blas_threads(self):
        code = ("from gtvv.experiment import ExperimentConfig, run_single; "
                "cfg = ExperimentConfig(num_scenes=1, rt60=(0.16,), "
                "orders=(4,)); "
                "print(run_single(cfg, 0, 0.16, 4).estimates)")
        env = package_env()
        outs = []
        for threads in ("1", "2"):
            env.update(dict.fromkeys(experiment._BLAS_THREAD_VARS, threads))
            outs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True).stdout)
        assert outs[0] == outs[1]

    def test_value_error_in_a_cell_propagates(self, monkeypatch):
        # a ValueError is a bug, not a failed measurement: it must not
        # become a dropped run
        def broken(*args):
            raise ValueError("synthetic bug")
        monkeypatch.setattr(experiment, "analyze", broken)
        with pytest.raises(ValueError, match="synthetic bug"):
            run_experiment(small_config())

    def test_numerical_failure_in_a_cell_is_recorded(self, monkeypatch):
        def degenerate(*args):
            raise EstimatorDegenerateError(3)
        monkeypatch.setattr(experiment, "analyze", degenerate)
        table, records = run_experiment(small_config())
        assert [r.error for r in records] == [
            "EstimatorDegenerateError: degenerate estimator system at bin 3"]
        assert not table.rows and len(table.failures) == 1

    def test_importing_starts_no_thread(self):
        # the fork server preloads `gtvv.experiment`, and a fork of a
        # threaded process is unsafe: threads start with the first estimate
        code = ("import threading, gtvv.cli; "
                "from gtvv.experiment import ExperimentConfig; "
                "ExperimentConfig(); print(threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "1"

    def test_importing_loads_no_process_pool(self):
        # only a sweep with workers > 1 imports the pool's modules
        code = ("import sys, gtvv.cli; "
                "from gtvv.experiment import ExperimentConfig; "
                "ExperimentConfig(); "
                "print(sorted({'multiprocessing', 'concurrent.futures'} "
                "& set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_sweep_worker_estimates_on_one_thread(self, monkeypatch):
        # each worker owns one CPU, so its estimator passes read every
        # frame on the calling thread (on more than one CPU, a process
        # without `use_one_thread` reads them on threads of the pass)
        readers = []

        class Probing(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                readers.append(self.submit(estimate_readers).result(
                    timeout=120))
                return super().map(fn, *iterables, **kwargs)
        # `run_experiment` imports the pool from its package as it starts
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Probing)
        _, records = run_experiment(small_config(workers=2))
        assert not any(r.error for r in records)
        assert readers == [{"caller"}]

    def test_worker_pool_leaves_environment_unchanged(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        _, records = run_experiment(small_config(workers=2))
        assert not any(r.error for r in records)
        assert dict(os.environ) == before


def estimate_readers() -> set:
    """The threads, "caller" or "other", on which an estimate's passes
    read their frames; run in a sweep worker."""
    noise = np.random.default_rng(0).standard_normal((4, 50000))
    spec = stft(AmbisonicSignal(FS, noise), 1024)
    readers, reader, caller = set(), spec.reader, threading.current_thread()

    class Tracked:
        def __init__(self, frames):
            self.inner = reader(frames)

        def block(self, start, stop):
            readers.add("caller" if threading.current_thread() is caller
                        else "other")
            return self.inner.block(start, stop)
    spec.reader = Tracked
    estimate_gtvv(spec, EstimatorConfig())
    return readers


def full_steering_infer_json(wav, cfg: ExperimentConfig) -> str:
    """`gtvv infer` as it once ran: the beam steered at the first atom of
    a full `iter_cap` H-TDVV S-OMP."""
    spec = stft(read_wav(wav), cfg.win_len)
    order = int(round(math.sqrt(spec.channels))) - 1
    dic = build_dictionary(cfg.dict_size, order)
    v_h = baselines.h_tdvv(spec, EstimatorConfig(make_omni_beam(order)))
    est_h = somp(v_h, dic, cfg.iter_cap(order))
    v_g = estimate_gtvv(spec, EstimatorConfig(
        make_reference_beam(est_h.directions[0], order)))
    return somp(v_g, dic, cfg.iter_cap(order)).to_json()


_SCALE_BASE = {}


def scale_cell(order):
    """Config, signal, dictionary and unscaled `analyze` output of the
    scene-1, rt60 0.16 s cell of the default sweep."""
    if order not in _SCALE_BASE:
        cfg = ExperimentConfig()
        _, sig = simulate_cell(cfg, 1, 0.16, order)
        dic = build_dictionary(cfg.dict_size, order)
        _SCALE_BASE[order] = (cfg, sig, dic,
                              analysis_bytes(sig, cfg, dic, order))
    return _SCALE_BASE[order]


def v_h_bytes(spec):
    """The bytes of a GTVV matrix of `spec`: channels x lags floats."""
    return spec.channels * spec.win_len * 8


def analysis_bytes(sig, cfg, dic, order):
    v_h, est_h, v_g = analyze(stft(sig, cfg.win_len), dic,
                              cfg.iter_cap(order))
    return v_h.data.tobytes(), est_h.to_json(), v_g.data.tobytes()


class TestAnalyze:
    @settings(max_examples=12, deadline=None)
    @given(order=st.integers(1, 4), k=st.integers(-40, 40))
    def test_independent_of_input_level(self, order, k):
        # scaling by 2^k is exact, so nothing may depend on the level: not
        # which systems are loaded, nor any bit of the traces or estimates
        cfg, sig, dic, want = scale_cell(order)
        scaled = AmbisonicSignal(sig.fs, sig.channels * 2.0 ** k)
        assert analysis_bytes(scaled, cfg, dic, order) == want

    def test_steered_pass_starts_without_the_omni_a1(self, monkeypatch):
        # no estimate is handed an omni a1 per segment, segments x channels
        # x bins complex (1.6 MB at order 4): both start from the omni
        # pass's phi and its channels x bins sums, the steered one with
        # v_h and its S-OMP held since
        cfg, sig, dic, _ = scale_cell(4)
        spec = stft(sig, cfg.win_len)
        starts = []

        def at_start(fn):
            def traced(spec, est_cfg, stats, *sums):
                starts.append((tracemalloc.get_traced_memory()[0], stats))
                return fn(spec, est_cfg, stats, *sums)
            return traced
        monkeypatch.setattr(baselines, "h_tdvv", at_start(baselines.h_tdvv))
        monkeypatch.setattr(experiment, "estimate_gtvv",
                            at_start(experiment.estimate_gtvv))
        tracemalloc.start()
        try:
            analyze(spec, dic, cfg.iter_cap(4))
        finally:
            tracemalloc.stop()
        (omni, omni_stats), (steered, steered_stats) = starts
        assert steered_stats is omni_stats
        # phi per segment; the real g11, spread and r2, the complex g12
        # and r1; 64 KiB for the bin mask and the interpreter's objects
        held = spec.channels * spec.bins * (8 * 8 + 7 * 8)
        assert omni <= held + 2 ** 16
        assert steered <= omni + v_h_bytes(spec) + 2 ** 16


# `gtvv.somp` is the function the package re-exports, not the module
GTVV_MODULES = [gtvv] + [importlib.import_module(f"gtvv.{name}") for name in (
    "sh", "room", "spectral", "velocity", "somp", "baselines", "experiment",
    "cli")]
LAYER_CALLS = {
    name: getattr(importlib.import_module(f"gtvv.{module}"), name)
    for module, name in (("spectral", "stft"), ("sh", "build_dictionary"),
                         ("baselines", "h_tdvv"),
                         ("velocity", "estimate_gtvv"), ("somp", "somp"))}


@pytest.fixture
def layer_calls(monkeypatch):
    """Counts the calls of the LAYER_CALLS functions wherever a gtvv module
    holds them; `somp` is logged by its iteration count."""
    log = []
    for name, fn in LAYER_CALLS.items():
        def counting(*args, _name=name, _fn=fn, **kwargs):
            log.append(args[2] if _name == "somp" else _name)
            return _fn(*args, **kwargs)
        for module in GTVV_MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return log


def call_counts(log):
    return {"somp_iters": [n for n in log if isinstance(n, int)],
            **{name: log.count(name) for name in LAYER_CALLS
               if name != "somp"}}


def counts(somp_iters, estimate_gtvv):
    return {"somp_iters": somp_iters, "stft": 1, "build_dictionary": 1,
            "h_tdvv": 1, "estimate_gtvv": estimate_gtvv}


@pytest.fixture(scope="module")
def order2_wav(tmp_path_factory):
    """(config path, WAV path) of the order-2 cell of `small_config`."""
    root = tmp_path_factory.mktemp("order2")
    cfg = root / "cfg.json"
    cfg.write_text(to_json(small_config(orders=(2,))))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(root)]) == 0
    return str(cfg), str(root / "scene0_rt0.16.wav")


class TestPathCallCounts:
    """Each path runs the layers as often as before `analyze` joined them."""

    def test_run_single(self, layer_calls):
        run_single(small_config(orders=(2,)), 0, 0.16, 2)
        assert call_counts(layer_calls) == counts([7, 7], 2)

    @pytest.mark.parametrize("sub, method, want", [
        ("infer", "gtvv", counts([1, 7], 2)),
        ("infer", "htdvv", counts([7], 1)),
        ("estimate", "gtvv", counts([1], 2)),
        # the H-TDVV trace needs no dictionary
        ("estimate", "htdvv", {**counts([], 1), "build_dictionary": 0}),
    ])
    def test_wav_commands(self, tmp_path, capsys, order2_wav, layer_calls,
                          sub, method, want):
        cfg, wav = order2_wav
        assert main([sub, "--config", cfg, "--wav", wav, "--method", method,
                     "--out", str(tmp_path / "out")]) == 0
        assert call_counts(layer_calls) == want

    def test_traces(self, tmp_path, capsys, layer_calls):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(to_json(small_config(orders=(2,))))
        assert main(["traces", "--config", str(cfg),
                     "--out", str(tmp_path / "traces")]) == 0
        assert call_counts(layer_calls) == counts([1], 2)


class TestDumpTraces:
    def test_single_wave_trace(self, tmp_path):
        v, _ = gtvv_closed_form(
            [RelativeWavefront(Direction(0.2, 0.1), 1.0, 0.0, 1.0)],
            6, 256, FS, 1)
        path = tmp_path / "trace.csv"
        dump_traces(v, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",")[:2] == ["time_s", "ch000"]
        assert lines[0].split(",")[-1] == "norm"
        assert len(lines) == 257
        rows = [line.split(",") for line in lines[1:]]
        norms = np.array([float(r[-1]) for r in rows])
        times = np.array([float(r[0]) for r in rows])
        assert np.count_nonzero(norms) == 1
        assert times[np.argmax(norms)] == 0.0

    def test_direct_plus_reflection_two_ridges(self, tmp_path):
        waves = [RelativeWavefront(Direction(0.0, 0.0), 1.0, 0.0, 1.0),
                 RelativeWavefront(Direction(1.2, 0.3), 0.5, 64.0 / FS, 1.0)]
        v, _ = gtvv_closed_form(waves, 6, 1024, FS, 1)
        path = tmp_path / "trace.csv"
        dump_traces(v, path)
        rows = [line.split(",")
                for line in path.read_text().strip().split("\n")[1:]]
        norms = {float(r[0]): float(r[-1]) for r in rows}
        assert norms[0.0] > 0
        assert norms[64.0 / FS] > 0


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        """The JSON of `small_config` with `overrides`, written as a raw
        dict: an invalid config cannot be built, only written."""
        raw = json.loads(to_json(small_config()))
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_evaluate_success(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "results")
        assert main(["evaluate", "--config", cfg, "--out", out]) == 0
        assert os.path.isfile(os.path.join(out, "results.csv"))
        payload = json.loads(
            (tmp_path / "results" / "results.json").read_text())
        assert payload["sh_convention"] == "real SN3D, ACN ordering"
        assert payload["config"]["seed"] == 1

    def test_results_json_is_strict_json(self, tmp_path, capsys):
        # SRP estimates no reflection: its NaN cells are null, not the
        # bare NaN tokens that JSON does not allow
        out = tmp_path / "results"
        assert main(["evaluate", "--config", self._write_cfg(tmp_path),
                     "--out", str(out)]) == 0

        def no_constant(token):
            raise ValueError(f"{token} is not JSON")
        rows = json.loads((out / "results.json").read_text(),
                          parse_constant=no_constant)["rows"]
        srp = [row for row in rows if row["method"] == "srp"]
        assert srp and all(
            row[key] is None for row in srp
            for key in ("refl_angular_error_deg", "detections",
                        "delay_error_s"))
        assert all(isinstance(row["doa_error_deg"], float) for row in rows)
        # results.csv keeps its nan cells
        assert ",nan,nan,nan,1\n" in (out / "results.csv").read_text()

    def test_simulate_then_infer(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", sim]) == 0
        wavs = [f for f in os.listdir(sim) if f.endswith(".wav")]
        assert wavs
        est = str(tmp_path / "est.json")
        assert main(["infer", "--config", cfg, "--out", est,
                     "--wav", os.path.join(sim, wavs[0])]) == 0
        payload = json.loads(Path(est).read_text())
        assert payload["directions_deg"]

    def test_estimate_writes_trace(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        sim = str(tmp_path / "sim")
        main(["simulate", "--config", cfg, "--out", sim])
        wav = next(os.path.join(sim, f) for f in os.listdir(sim)
                   if f.endswith(".wav"))
        trace = str(tmp_path / "trace.csv")
        assert main(["estimate", "--config", cfg, "--out", trace,
                     "--wav", wav, "--method", "htdvv"]) == 0
        assert Path(trace).read_text().startswith("time_s,")

    def test_traces_subcommand(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "traces")
        assert main(["traces", "--config", cfg, "--out", out]) == 0
        assert os.path.isfile(os.path.join(out, "trace_htdvv.csv"))
        assert os.path.isfile(os.path.join(out, "trace_gtvv.csv"))

    def test_traces_order_checked_against_dictionary(self, tmp_path,
                                                     capsys):
        # `--order` is checked as the config's orders are, before the
        # dictionary is built
        cfg = self._write_cfg(tmp_path, dict_size=10, orders=[1])
        out = tmp_path / "traces"
        assert main(["traces", "--config", cfg, "--order", "4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: dict_size 10 is below the 25 channels of "
            "order 4\n")
        assert not out.exists()

    def test_traces_print_negative_lag_fractions(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, orders=(3,), rt60=(0.44,))
        out = tmp_path / "traces"
        assert main(["traces", "--config", cfg, "--out", str(out)]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            name, sep, rest = line.partition(": negative-lag energy fraction ")
            if sep:
                printed[name] = float(rest.split()[0])
        assert sorted(printed) == ["gtvv", "htdvv"]
        for name, frac in printed.items():
            # the fraction of the trace the CSV holds: Σ|v|² over t < 0
            rows = np.loadtxt(out / f"trace_{name}.csv", delimiter=",",
                              skiprows=1)
            energy = np.sum(rows[:, 1:-1] ** 2, axis=1)
            want = np.sum(energy[rows[:, 0] < 0]) / np.sum(energy)
            assert frac == pytest.approx(want, abs=1e-6)
        # the steered reference is the more causal one
        assert printed["gtvv"] < printed["htdvv"]

    @pytest.mark.parametrize("channels", [1, 5, 8])
    def test_wav_channel_count_not_a_full_order(self, tmp_path, capsys,
                                                channels):
        from gtvv.room import AmbisonicSignal
        wav = tmp_path / "bad.wav"
        rng = np.random.default_rng(channels)
        write_wav(wav, AmbisonicSignal(FS, rng.standard_normal(
            (channels, 60000))))
        cfg = self._write_cfg(tmp_path)
        for sub, out in (("infer", "est.json"), ("estimate", "trace.csv")):
            assert main([sub, "--config", cfg, "--wav", str(wav),
                         "--out", str(tmp_path / out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert f"has {channels} channel(s)" in err

    def test_infer_computes_reference_free_statistics_once(
            self, tmp_path, capsys, monkeypatch):
        # the omni pass (`segment_stats`) forms the reference-free
        # statistics along with the omni cross-spectra, `analyze` hands
        # them to both estimates and the steered one adds its own pass:
        # each of the estimator's 8 x 24 frames is transformed twice and no
        # later frame at all; SRP reduces every frame to its energy once,
        # then forms one weighted cross-power over all frames from their
        # samples, with no transform
        path = self._write_cfg(tmp_path, orders=(2,))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        wav = sim / "scene0_rt0.16.wav"
        frames = frame_count(read_wav(wav).num_samples, 1024)
        assert frames > 192
        # the estimator's runs read through readers, perhaps on threads
        reads = {"block": [], "energy": []}
        for cls, name in ((FrameReader, "block"), (SpectrumTensor, "energy")):
            def counting(spec, start, stop, _read=getattr(cls, name),
                         _log=reads[name]):
                _log.extend(range(start, stop))
                return _read(spec, start, stop)
            monkeypatch.setattr(cls, name, counting)
        weighted = []

        def counting_weighted(spec, weights, edges,
                              _power=SpectrumTensor.weighted_cross_power):
            weighted.append(len(weights))
            return _power(spec, weights, edges)
        monkeypatch.setattr(SpectrumTensor, "weighted_cross_power",
                            counting_weighted)
        assert main(["infer", "--config", path, "--out",
                     str(tmp_path / "est.json"), "--wav", str(wav)]) == 0
        twice = {u: 2 for u in range(192)}
        assert Counter(reads["block"]) == twice
        assert (reads["energy"], weighted) == ([], [])
        reads["block"].clear()
        run_single(ExperimentConfig.from_json(path), 0, 0.16, 2)
        assert Counter(reads["block"]) == twice
        assert reads["energy"] == list(range(frames))
        assert weighted == [frames]

    # the estimator is no longer a config setting: each of these blocks,
    # once accepted, names a removed key
    @pytest.mark.parametrize("estimator", [
        {},
        {"reference": None},
        {"seg_count": 8, "frames_per_seg": 24},
        {"seg_count": 4, "frames_per_seg": 12},
    ])
    def test_invalid_estimator_settings_exit_2(self, tmp_path, capsys,
                                               order2_wav, estimator):
        _, wav = order2_wav
        bad = self._write_cfg(tmp_path, orders=(2,), estimator=estimator)
        for argv in (["evaluate", "--out", str(tmp_path / "results")],
                     ["infer", "--wav", wav,
                      "--out", str(tmp_path / "est.json")]):
            assert main(argv + ["--config", bad]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: bad config field")
        assert not os.path.exists(tmp_path / "results")
        assert not os.path.exists(tmp_path / "est.json")

    def test_wav_at_another_sampling_rate_exit_2(self, tmp_path, capsys,
                                                 order2_wav):
        cfg, wav = order2_wav
        sig = read_wav(wav)
        fast = tmp_path / "fast.wav"
        write_wav(fast, AmbisonicSignal(48000.0, sig.channels))
        for sub in ("infer", "estimate"):
            out = tmp_path / f"{sub}.out"
            assert main([sub, "--config", cfg, "--wav", str(fast),
                         "--out", str(out)]) == 2
            assert "48000 Hz" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("dict_file", 0), ("source_wav", 1), ("dict_file", True)])
    def test_file_field_not_a_path_exit_2(self, tmp_path, capsys, field,
                                          value):
        # rejected by name before any file is opened: the integer is not
        # taken as a file descriptor
        cfg = self._write_cfg(tmp_path, **{field: value})
        assert main(["evaluate", "--config", cfg,
                     "--out", str(tmp_path / "results")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {field} must be a path string or null\n")
        assert not os.path.exists(tmp_path / "results")

    @pytest.mark.parametrize("content", [
        None,                                    # missing
        "0 0\nnot numbers here\n",               # malformed
        "".join(f"{0.1 * k} 0\n" for k in range(20)),  # 20, not 770
        "".join(f"{1e-4 * k} 0\n" for k in range(770)),  # 0.006° apart
    ], ids=["missing", "malformed", "mis-sized", "too-close"])
    def test_bad_dict_file_exit_2(self, tmp_path, capsys, order2_wav,
                                  content):
        _, wav = order2_wav
        dirs = tmp_path / "dirs.txt"
        if content is not None:
            dirs.write_text(content)
        raw = json.loads(to_json(small_config(orders=(2,))))
        raw["dict_file"] = str(dirs)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for argv in (["evaluate", "--out", str(tmp_path / "results")],
                     ["infer", "--wav", wav,
                      "--out", str(tmp_path / "est.json")]):
            assert main(argv + ["--config", str(bad)]) == 2
            assert capsys.readouterr().err.startswith("config error:")
        assert not os.path.exists(tmp_path / "results")
        assert not os.path.exists(tmp_path / "est.json")

    def test_dict_file_grid_is_used(self, tmp_path, capsys, order2_wav):
        # a dict_file alone selects the file's grid: here the Fibonacci
        # grid turned by 0.05 rad, which shares no direction with it
        _, wav = order2_wav
        cfg = small_config(orders=(2,))
        turned = [Direction(d.azimuth + 0.05, d.elevation)
                  for d in fibonacci_directions(cfg.dict_size)]
        dirs = tmp_path / "dirs.txt"
        dirs.write_text("".join(f"{d.azimuth!r} {d.elevation!r}\n"
                                for d in turned))
        path = self._write_cfg(tmp_path, orders=(2,), dict_file=str(dirs))
        est = tmp_path / "est.json"
        assert main(["infer", "--config", path, "--out", str(est),
                     "--wav", wav]) == 0
        grid = {(math.degrees(d.azimuth), math.degrees(d.elevation))
                for d in turned}
        got = json.loads(est.read_text())["directions_deg"]
        assert got and all(tuple(d) in grid for d in got)

    @pytest.mark.parametrize("fs, samples, why", [
        (48000.0, 3.2 * 48000, "48000 Hz"),
        (FS, 0, "silent"),
        (FS, 0.5 * FS, "yields 28 frames, estimator needs 192"),
    ], ids=["wrong-rate", "silent", "too-short"])
    def test_bad_source_wav_exit_2(self, tmp_path, capsys, fs, samples,
                                   why):
        wav = tmp_path / "source.wav"
        if samples:
            channel = np.random.default_rng(0).standard_normal(int(samples))
        else:
            channel = np.zeros(int(3.2 * FS))
        write_wav(wav, AmbisonicSignal(fs, channel[None]))
        path = self._write_cfg(tmp_path, source_wav=str(wav))
        with pytest.raises(ConfigError, match=why):
            ExperimentConfig.from_json(path)
        out = tmp_path / "results"
        assert main(["evaluate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_source_wav_reads_independent_of_cell_count(
            self, tmp_path, capsys, monkeypatch):
        # one validation, one dict_file parse and one WAV read per command
        wav = tmp_path / "source.wav"
        noise = np.random.default_rng(0).standard_normal(int(3.2 * FS))
        write_wav(wav, AmbisonicSignal(FS, 0.1 * noise[None]))
        dirs = tmp_path / "dirs.txt"
        dirs.write_text("".join(f"{d.azimuth!r} {d.elevation!r}\n"
                                for d in fibonacci_directions(770)))
        calls = []

        def counting(name, fn):
            return lambda *args: calls.append(name) or fn(*args)
        monkeypatch.setattr(room, "read_wav",
                            counting("read_wav", room.read_wav))
        monkeypatch.setattr(ExperimentConfig, "validate", counting(
            "validate", ExperimentConfig.validate))
        parse = counting("parse", sh.read_direction_file)
        for module in (sh, experiment):
            monkeypatch.setattr(module, "read_direction_file", parse)
        for orders in ((1,), (1, 2)):  # 2 and 4 cells
            path = self._write_cfg(tmp_path, source_wav=str(wav),
                                   dict_file=str(dirs),
                                   rt60=(0.16, 0.44), orders=orders)
            calls.clear()
            out = tmp_path / f"results{len(orders)}"
            assert main(["evaluate", "--config", path, "--out", str(out)]) == 0
            rows = json.loads((out / "results.json").read_text())["rows"]
            assert len(rows) == 3 * 2 * len(orders)  # every cell ran
            assert sorted(calls) == ["parse", "read_wav", "validate"]

    def test_failed_run_exits_3_after_writing_results(
            self, tmp_path, capsys, monkeypatch):
        def degenerate(*args):
            raise EstimatorDegenerateError(3)
        monkeypatch.setattr(experiment, "analyze", degenerate)
        out = tmp_path / "results"
        assert main(["evaluate", "--config", self._write_cfg(tmp_path),
                     "--out", str(out)]) == 3
        assert "1 of 1 runs failed" in capsys.readouterr().err
        assert "# failed run: scene=0 rt60=0.16 order=1" in (
            out / "results.csv").read_text()
        assert json.loads((out / "results.json").read_text())["failures"]

    def test_fractional_fs_simulate_exit_2(self, tmp_path, capsys,
                                           order2_wav):
        # the sampling rate is fixed: `fs` is a removed key
        _, wav = order2_wav
        cfg = self._write_cfg(tmp_path, fs=16000.5)
        outs = [tmp_path / name for name in ("sim", "results", "est.json")]
        for argv in (["simulate", "--out", str(outs[0])],
                     ["evaluate", "--out", str(outs[1])],
                     ["infer", "--wav", wav, "--out", str(outs[2])]):
            assert main(argv + ["--config", cfg]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: bad config field")
        assert not any(out.exists() for out in outs)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"orders": [9]}')
        assert main(["evaluate", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("text", [
        '{"num_scenes": 1.5}',
        # keys of settings that became constants
        '{"estimator": {"seg_count": 2.5}}',
        '{"duration": Infinity}',
        '{"room": [5.0, Infinity, 2.8]}',
        '{"max_reflection_order": -1}',
        '{"iter_cap_foa": 4}',
        '{"iter_cap_hoa": 7}',
        '{"min_wall_distance": -1}',
        '{"estimator": {"diagonal_load": 1e-06}}',
        '{"rt60": [0.16, 0.16], "num_scenes": 1, "orders": [1]}',
        '{"rt60": [0.16], "num_scenes": 1, "orders": [1, 1]}',
        '{"num_scenes": true, "rt60": [0.16], "orders": [true], '
        '"seed": true, "workers": true}',
    ])
    def test_config_field_error_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["evaluate", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("sub", ["simulate", "evaluate"])
    def test_rt60_names_that_collide_exit_2(self, tmp_path, capsys, sub):
        # 0.4 and 0.4000001 both name their files `rt0.4`: one would
        # overwrite the other's WAV, truth and estimate JSONs
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rt60": [0.4, 0.4000001], "num_scenes": 1, '
                       '"orders": [1]}')
        assert main([sub, "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rt60 values")
        assert "['0.4', '0.4']" in err
        assert not os.path.exists(tmp_path / "x")

    def test_runtime_error_exit_code(self, tmp_path, capsys, monkeypatch,
                                     order2_wav):
        # a numerical failure inside `infer` is a run-time error
        def degenerate(*args):
            raise EstimatorDegenerateError(3)
        monkeypatch.setattr(cli, "analyze", degenerate)
        cfg, wav = order2_wav
        assert main(["infer", "--config", cfg,
                     "--out", str(tmp_path / "est.json"),
                     "--wav", wav]) == 3
        assert capsys.readouterr().err.startswith("runtime error:")

    @pytest.mark.parametrize("fault, config, why", [
        ("missing", {}, "cannot read"),
        ("not-a-wav", {}, "cannot read"),
        ("truncated", {}, "cannot read"),
        ("silent", {}, "is silent"),
        ("short", {}, "yields 28 frames, estimator needs 192"),
        ("nan", {}, "non-finite"),
        ("order6", {"dict_size": 30}, "dict_size 30 is below the 49"),
        ("order2", {"dict_size": 8}, "dict_size 8 is below the 9"),
        ("cut-early", {}, "data chunk truncated: 3 of 51200 frames"),
        ("cut-late", {}, "data chunk truncated: 50000 of 51200 frames"),
        ("a-law", {}, "unsupported WAV format: tag 6"),
        ("inf", {}, "non-finite"),
        ("-inf", {}, "non-finite"),
    ])
    def test_bad_wav_exit_2(self, tmp_path, capsys, fault, config, why):
        samples = int((0.5 if fault == "short" else 3.2) * FS)
        channels = {"order6": 49, "order2": 9}.get(fault, 4)
        data = np.random.default_rng(0).standard_normal((channels, samples))
        if fault == "silent":
            data[:] = 0.0
        if fault in ("nan", "inf", "-inf"):
            data[2, 1000] = float(fault)
        wav = tmp_path / "in.wav"
        if fault != "missing":
            write_wav(wav, AmbisonicSignal(FS, data))
        if fault == "not-a-wav":
            wav.write_bytes(b"RIFX but not a WAV file")
        if fault == "truncated":  # cut inside the format chunk
            wav.write_bytes(wav.read_bytes()[:30])
        if fault.startswith("cut-"):  # cut inside the data chunk
            raw = wav.read_bytes()
            keep = 60 if fault == "cut-early" else 50000 * 4 * channels
            wav.write_bytes(raw[:raw.index(b"data") + 8 + keep])
        if fault == "a-law":  # WAVE_FORMAT_ALAW in the fmt chunk's tag
            raw = bytearray(wav.read_bytes())
            raw[20:22] = (6).to_bytes(2, "little")
            wav.write_bytes(bytes(raw))
        cfg = self._write_cfg(tmp_path, **config)
        for sub in ("infer", "estimate"):
            out = tmp_path / f"{sub}.out"
            assert main([sub, "--config", cfg, "--wav", str(wav),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and why in err
            assert not out.exists()

    def test_wav_of_no_frames_exit_2(self, tmp_path, capsys):
        # a 4-channel float32 WAV whose data chunk is empty is too short,
        # as a short recording is, before any check reads its samples
        fmt = struct.pack("<HHIIHH", 3, 4, int(FS), int(FS) * 16, 16, 32)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
            + b"data" + struct.pack("<I", 0)
        wav = tmp_path / "empty.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert read_wav(wav).channels.shape == (4, 0)
        cfg = self._write_cfg(tmp_path)
        for sub in ("infer", "estimate"):
            out = tmp_path / f"{sub}.out"
            assert main([sub, "--config", cfg, "--wav", str(wav),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert "yields 0 frames, estimator needs 192" in err
            assert not out.exists()

    def test_runs_without_scipy(self, tmp_path, capsys):
        """`simulate` then `infer`, each in a process where `import scipy`
        fails, give the estimate of an unblocked run; importing the CLI
        loads no scipy module."""
        env = package_env()
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, gtvv.cli; print(sorted("
             "m for m in sys.modules if m.startswith('scipy')))"],
            env=env, capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"
        blocked = ("import sys; sys.modules['scipy'] = None; "
                   "from gtvv.cli import main; sys.exit(main(sys.argv[1:]))")
        cfg = self._write_cfg(tmp_path)
        sim = tmp_path / "sim"
        wav = str(sim / "scene0_rt0.16.wav")
        for argv in (["simulate", "--config", cfg, "--out", str(sim),
                      "--order", "1"],
                     ["infer", "--config", cfg, "--wav", wav,
                      "--out", str(tmp_path / "blocked.json")]):
            subprocess.run([sys.executable, "-c", blocked, *argv], env=env,
                           capture_output=True, check=True)
        assert main(["infer", "--config", cfg, "--wav", wav,
                     "--out", str(tmp_path / "open.json")]) == 0
        assert ((tmp_path / "blocked.json").read_bytes()
                == (tmp_path / "open.json").read_bytes())

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["evaluate", "--config", self._write_cfg(tmp_path),
                     "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_workers_override(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, orders=(1, 2))
        serial, pool = str(tmp_path / "serial"), str(tmp_path / "pool")
        assert main(["evaluate", "--config", cfg, "--out", serial]) == 0
        assert main(["evaluate", "--config", cfg, "--out", pool,
                     "--workers", "2"]) == 0
        payload = json.loads((tmp_path / "pool" / "results.json").read_text())
        assert payload["config"]["workers"] == 2
        assert ((tmp_path / "pool" / "results.csv").read_bytes()
                == (tmp_path / "serial" / "results.csv").read_bytes())
        assert main(["evaluate", "--config", cfg, "--out", pool,
                     "--workers", "0"]) == 2

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "seeded")
        assert main(["evaluate", "--config", cfg, "--out", out,
                     "--seed", "5"]) == 0
        payload = json.loads(
            (tmp_path / "seeded" / "results.json").read_text())
        assert payload["config"]["seed"] == 5

    @pytest.mark.parametrize("order", [1, 3])
    def test_simulate_then_infer_reproduces_run_single(self, tmp_path,
                                                       capsys, order):
        path = self._write_cfg(tmp_path, rt60=(0.16, 0.44), orders=(order,))
        cfg = ExperimentConfig.from_json(path)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        for rt in cfg.rt60:
            est = str(tmp_path / f"est_{rt:g}.json")
            assert main(["infer", "--config", path, "--out", est, "--wav",
                         str(sim / f"scene0_rt{rt:g}.wav")]) == 0
            got = json.loads(Path(est).read_text())
            want = json.loads(run_single(cfg, 0, rt, order).estimates["gtvv"])
            assert got["directions_deg"] == want["directions_deg"]
            assert got["delays_ms"] == want["delays_ms"]

    def test_infer_matches_full_steering_somp(self, tmp_path, capsys):
        path = self._write_cfg(tmp_path, orders=(3,))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        wav = str(sim / "scene0_rt0.16.wav")
        est = tmp_path / "est.json"
        assert main(["infer", "--config", path, "--out", str(est),
                     "--wav", wav]) == 0
        assert est.read_text() == full_steering_infer_json(
            wav, ExperimentConfig.from_json(path))
