import json
import math
import os

import numpy as np
import pytest

from gtvv import baselines, velocity
from gtvv.cli import main
from gtvv.errors import ConfigError
from gtvv.experiment import (EstimatorSettings, ExperimentConfig, aggregate,
                             dump_traces, run_experiment, run_single,
                             scene_geometry, write_results)
from gtvv.room import read_wav, write_wav
from gtvv.sh import (Direction, build_dictionary, make_omni_beam,
                     make_reference_beam)
from gtvv.somp import somp
from gtvv.spectral import stft
from gtvv.velocity import (EstimatorConfig, RelativeWavefront,
                           estimate_gtvv, gtvv_closed_form)

FS = 16000.0


def small_config(**overrides):
    base = dict(num_scenes=1, orders=(1,), rt60=(0.16,), duration=3.2)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("overrides", [
        {"room": (5.0, 4.0)},
        {"room": (5.0, -1.0, 2.8)},
        {"rt60": ()},
        {"num_scenes": 0},
        {"orders": (0,)},
        {"orders": (9,)},
        {"win_len": 1000},
        {"dict_size": 3},
        {"dict_scheme": "lebedev"},
        {"snr_db": -3.0},
        {"gate_deg": 0.0},
        {"duration": 0.5},     # too few frames for the estimator
        {"min_wall_distance": 2.0},
        {"workers": 0},
        {"source_wav": "/does/not/exist.wav"},
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides).validate()

    def test_json_round_trip(self, tmp_path):
        cfg = small_config(seed=99, snr_db=25.0,
                           estimator=EstimatorSettings(4, 12))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
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

    def test_iteration_caps(self):
        cfg = ExperimentConfig()
        assert cfg.iter_cap(1) == 4
        for order in (2, 3, 4):
            assert cfg.iter_cap(order) == 7

    def test_scene_geometry_respects_margins(self):
        cfg = ExperimentConfig()
        for idx in range(10):
            src, mic = scene_geometry(cfg, idx)
            for p in (src, mic):
                assert np.all(p >= cfg.min_wall_distance - 1e-9)
                assert np.all(p <= np.asarray(cfg.room)
                              - cfg.min_wall_distance + 1e-9)
            assert np.linalg.norm(src - mic) >= 1.5


class TestRunExperiment:
    def test_noiseless_single_wave_doa_within_grid(self):
        # every method must land within the dictionary's angular resolution
        # (about 4 degrees at 770 atoms) on an easy noiseless scene
        cfg = small_config(snr_db=math.inf, max_reflection_order=0)
        table, records = run_experiment(cfg)
        assert not table.failures
        for method in ("srp", "htdvv", "gtvv"):
            cell = table.cell(method, 1, 0.16)
            assert cell["doa_error_deg"] <= 4.5

    def test_cell_cardinality(self):
        cfg = ExperimentConfig(num_scenes=1, duration=3.2)
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
        cfg_serial = small_config(orders=(1, 2))
        cfg_pool = small_config(orders=(1, 2), workers=2)
        t1, _ = run_experiment(cfg_serial)
        t2, _ = run_experiment(cfg_pool)
        assert t1.to_csv() == t2.to_csv()

    def test_worker_pool_leaves_environment_unchanged(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        _, records = run_experiment(small_config(workers=2))
        assert not any(r.error for r in records)
        assert dict(os.environ) == before


def full_steering_infer_json(wav, cfg: ExperimentConfig) -> str:
    """`gtvv infer` as it once ran: the beam steered at the first atom of
    a full `iter_cap` H-TDVV S-OMP."""
    spec = stft(read_wav(wav), cfg.win_len)
    order = int(round(math.sqrt(spec.channels))) - 1
    dic = build_dictionary(cfg.dict_size, order)
    est = cfg.estimator

    def estimator(beam):
        return EstimatorConfig(beam, est.seg_count, est.frames_per_seg,
                               est.diagonal_load)
    v_h = baselines.h_tdvv(spec, estimator(make_omni_beam(order)))
    est_h = somp(v_h, dic, cfg.iter_cap(order))
    v_g = estimate_gtvv(spec, estimator(
        make_reference_beam(est_h.directions[0], order)))
    return somp(v_g, dic, cfg.iter_cap(order)).to_json()


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

    def test_empty_matrix_header_only(self, tmp_path):
        from gtvv.spectral import GtvvMatrix
        v = GtvvMatrix(np.zeros((0, 4)), np.array([-1.0, 0.0, 1.0, 2.0]), FS)
        path = tmp_path / "trace.csv"
        dump_traces(v, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0] == "time_s,norm"


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        cfg = small_config(**overrides)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
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

    def test_simulate_then_infer(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg, "--out", sim]) == 0
        wavs = [f for f in os.listdir(sim) if f.endswith(".wav")]
        assert wavs
        est = str(tmp_path / "est.json")
        assert main(["infer", "--config", cfg, "--out", est,
                     "--wav", os.path.join(sim, wavs[0])]) == 0
        payload = json.loads(open(est).read())
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
        assert open(trace).readline().startswith("time_s,")

    def test_traces_subcommand(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "traces")
        assert main(["traces", "--config", cfg, "--out", out]) == 0
        assert os.path.isfile(os.path.join(out, "trace_htdvv.csv"))
        assert os.path.isfile(os.path.join(out, "trace_gtvv.csv"))

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
        path = self._write_cfg(tmp_path, orders=(2,))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--out", str(sim)]) == 0
        calls = []
        stats = velocity._reference_free_stats

        def counting(spec, cfg):
            calls.append(spec)
            return stats(spec, cfg)
        monkeypatch.setattr(velocity, "_reference_free_stats", counting)
        assert main(["infer", "--config", path, "--out",
                     str(tmp_path / "est.json"),
                     "--wav", str(sim / "scene0_rt0.16.wav")]) == 0
        assert len(calls) == 1
        run_single(ExperimentConfig.from_json(path), 0, 0.16, 2)
        assert len(calls) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"orders": [9]}')
        assert main(["evaluate", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # a silent WAV makes noise calibration impossible downstream
        from gtvv.room import AmbisonicSignal
        wav = tmp_path / "silent.wav"
        write_wav(wav, AmbisonicSignal(FS, np.zeros((4, 60000))))
        cfg = self._write_cfg(tmp_path)
        assert main(["infer", "--config", cfg,
                     "--out", str(tmp_path / "est.json"),
                     "--wav", str(wav)]) == 3

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
            got = json.loads(open(est).read())
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
