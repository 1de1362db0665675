"""Tracing covers every declared layer, changes no result and leaves the
package as it was.

The benchmark itself checks, on every traced run, that the traced passes
reproduce the untraced `results.csv` and estimate JSON.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gtvv
from gtvv import cli, experiment, spectral
from gtvv.experiment import ExperimentConfig, run_single
from traced import Tracer, infer_args, instrument
from workloads import INFER_CONFIG, INFER_LAYERS, SWEEP_LAYERS, role_inputs

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_every_sweep_layer_has_a_span_per_order():
    cfg = ExperimentConfig(seed=3)
    with instrument(Tracer()) as tracer:
        traced = experiment.run_single(cfg, 2, cfg.rt60[1], 1)
        experiment.run_single(cfg, 2, cfg.rt60[1], order=4)
    # repr compares every float bit for bit, NaN included
    assert repr(traced) == repr(run_single(cfg, 2, cfg.rt60[1], 1))
    spans = tracer.durations()
    for order in (1, 4):
        for layer in SWEEP_LAYERS:
            assert len(spans[f"{layer}.o{order}"]) >= 1
    assert tracer.counts["sh.build_dictionary.calls"] == 2
    assert tracer.counts["somp.iters"] > 0
    # the originals are back
    assert experiment.run_single is run_single is gtvv.run_single
    assert experiment.stft is spectral.stft


def test_every_infer_layer_has_a_span(tmp_path):
    config = tmp_path / "infer_config.json"
    config.write_text(json.dumps(INFER_CONFIG))
    spec = {"seed": 5, "workdir": str(tmp_path)}
    wav = role_inputs(spec)["files"][0]["wav"]
    with instrument(Tracer()) as tracer:
        assert cli.main(infer_args(str(config), wav,
                                   str(tmp_path / "traced.json"))) == 0
    assert cli.main(infer_args(str(config), wav,
                               str(tmp_path / "plain.json"))) == 0
    assert ((tmp_path / "traced.json").read_text()
            == (tmp_path / "plain.json").read_text())
    spans = tracer.durations()
    for layer in INFER_LAYERS:
        assert layer in spans
    assert len(spans["somp.somp"]) == 2


def test_emitted_metric_names_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    names = {f"{layer}.o{o}.ms" for layer in SWEEP_LAYERS
             for o in ExperimentConfig().orders}
    names |= {f"{layer}.ms" for layer in INFER_LAYERS}
    assert names <= per_layer
    assert {m["name"] for m in declared["end_to_end"]} == {
        "wall_s", "unit_p50_ms", "unit_p75_ms", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
