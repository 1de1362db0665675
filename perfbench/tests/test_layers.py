"""Single-layer timings with pytest-benchmark, at orders 1 and 4.

Deselected by default; run with

    PYTHONPATH=src python -m pytest perfbench -m layerbench

Inputs are the order's cell of scene 0, rt60 0.44 s, seed 1 of the default
sweep, built from public gtvv calls.
"""

import numpy as np
import pytest

from gtvv import baselines, room
from gtvv.experiment import ExperimentConfig, scene_geometry
from gtvv.sh import build_dictionary, make_omni_beam
from gtvv.somp import somp
from gtvv.spectral import stft
from gtvv.velocity import EstimatorConfig, estimate_gfvv_ls

pytestmark = pytest.mark.layerbench

ORDERS = [1, 4]
_CELLS = {}


def cell(order):
    if order not in _CELLS:
        cfg = ExperimentConfig()
        rt60 = cfg.rt60[1]
        src, mic = scene_geometry(cfg, 0)
        scene = room.image_source_scene(cfg.room, src, mic, rt60,
                                        cfg.max_reflection_order, cfg.fs)
        source = room.make_burst_source(
            cfg.duration, cfg.fs, np.random.SeedSequence([cfg.seed, 0, 7]))
        sig = room.add_noise(
            room.encode_scene(scene, source, order), cfg.snr_db,
            np.random.SeedSequence([cfg.seed, 0, 1, order, 13]))
        spec = stft(sig, cfg.win_len)
        est_cfg = EstimatorConfig(make_omni_beam(order))
        dictionary = build_dictionary(cfg.dict_size, order)
        _CELLS[order] = {
            "cfg": cfg, "scene": scene, "source": source, "sig": sig,
            "spec": spec, "est_cfg": est_cfg, "dictionary": dictionary,
            "v": baselines.h_tdvv(spec, est_cfg),
        }
    return _CELLS[order]


@pytest.mark.parametrize("order", ORDERS)
def test_srp_map(benchmark, order):
    c = cell(order)
    benchmark(baselines.srp_map, c["spec"], c["dictionary"])


@pytest.mark.parametrize("order", ORDERS)
def test_encode_scene(benchmark, order):
    c = cell(order)
    benchmark(room.encode_scene, c["scene"], c["source"], order)


@pytest.mark.parametrize("order", ORDERS)
def test_stft(benchmark, order):
    c = cell(order)
    benchmark(stft, c["sig"], c["cfg"].win_len)


@pytest.mark.parametrize("order", ORDERS)
def test_estimate_gfvv_ls(benchmark, order):
    c = cell(order)
    benchmark(estimate_gfvv_ls, c["spec"], c["est_cfg"])


@pytest.mark.parametrize("order", ORDERS)
def test_somp(benchmark, order):
    c = cell(order)
    benchmark(somp, c["v"], c["dictionary"], c["cfg"].iter_cap(order))


@pytest.mark.parametrize("order", ORDERS)
def test_build_dictionary(benchmark, order):
    benchmark(build_dictionary, ExperimentConfig().dict_size, order)
