"""End-to-end acceptance tests.

Each test covers one numbered criterion and records a single pass/fail
summary line (printed in the pytest terminal summary). The full-sweep
results are computed once per session and shared by the table-level tests.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import record_acceptance
from gtvv.room import encode_scene, image_source_scene, make_burst_source
from gtvv.room import GroundTruthScene, Wavefront, add_noise
from gtvv.sh import (Direction, build_dictionary, make_reference_beam,
                     sh_eval)
from gtvv.spectral import stft
from gtvv.velocity import (EstimatorConfig, RelativeWavefront,
                           estimate_gfvv_ls, estimate_gtvv, gtvv_closed_form,
                           negative_lag_energy_fraction)
from gtvv.baselines import h_tdvv
from gtvv.somp import somp
from gtvv.experiment import scene_geometry, ExperimentConfig
from oracles import cell, nearest
from test_velocity import consistent_fixture, ratio_form_gfvv

FS = 16000.0
ROOM = (5.0, 4.0, 2.8)
SRC = (1.2, 1.1, 1.4)
MIC = (3.6, 2.6, 1.5)


def test_criterion_1_closed_form_oracle():
    """Single-reflection closed form vs the inverse DFT of the exact
    per-bin ratio, for |g*beta| in {0.3, 0.5, 0.7}, K=40, under 1e-6."""
    win = 1024
    start = time.monotonic()
    worst = 0.0
    d0, d1 = Direction(0.0, 0.0), Direction(2.0, 0.5)
    for gb in (0.3, 0.5, 0.7):
        waves = [RelativeWavefront(d0, 1.0, 0.0, 1.0),
                 RelativeWavefront(d1, gb, 8.0 / FS, 1.0)]
        v, _ = gtvv_closed_form(waves, 40, win, FS, 1)
        freqs = np.arange(win // 2 + 1) * FS / win
        oracle_f = ratio_form_gfvv(waves, freqs, 1)
        oracle_t = np.roll(np.fft.irfft(oracle_f, n=win, axis=1),
                           win // 2, axis=1)
        worst = max(worst, float(np.max(np.abs(v.data - oracle_t))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 1.0
    record_acceptance(1, ok, f"max closed-form error {worst:.2e} "
                             f"(< 1e-6), runtime {elapsed:.2f}s (< 1s)")
    assert worst < 1e-6
    assert elapsed < 1.0


def exhaustive_pursuit(v, atoms, iters):
    """Independent brute-force greedy pursuit used as the recovery oracle."""
    lag_ok = v.time_axis >= 0
    residual = -v.data.copy()
    selected, delays = [], []
    for _ in range(iters):
        scores = [float(np.max(np.abs(atoms[:, s] @ residual)))
                  for s in range(atoms.shape[1])]
        s = int(np.argmax(scores))
        if s in selected:
            break
        row = np.abs(atoms[:, s] @ residual)
        row[~lag_ok] = -1.0
        delays.append(float(v.time_axis[int(np.argmax(row))]))
        selected.append(s)
        a = atoms[:, selected]
        z, *_ = np.linalg.lstsq(a, v.data, rcond=None)
        residual = a @ z - v.data
    return selected, delays


def test_criterion_2_exact_on_grid_recovery():
    """Direct + 2 on-grid reflections at integer delays, order 3, no
    noise: exact support and delays, agreeing with the exhaustive oracle."""
    start = time.monotonic()
    dic = build_dictionary(770, 3)
    idx = (120, 420, 650)
    lags = (0, 48, 96)
    waves = [RelativeWavefront(dic.directions[idx[0]], 1.0, 0.0, 1.0)]
    for i, lag in zip(idx[1:], lags[1:]):
        waves.append(RelativeWavefront(dic.directions[i], 0.35,
                                       lag / FS, 1.0))
    v, _ = gtvv_closed_form(waves, 8, 1024, FS, 3)
    est = somp(v, dic, 3)
    got_idx = [nearest(dic, d) for d in est.directions]
    oracle_idx, oracle_delays = exhaustive_pursuit(v, dic.atoms, 3)
    exact = (sorted(got_idx) == sorted(idx)
             and sorted(est.delays) == [lag / FS for lag in lags])
    agrees = got_idx == oracle_idx and list(est.delays) == oracle_delays
    elapsed = time.monotonic() - start
    ok = exact and agrees and elapsed < 10.0
    record_acceptance(2, ok, f"directions/delays exact and oracle-matched, "
                             f"runtime {elapsed:.2f}s (< 10s)")
    assert exact
    assert agrees
    assert elapsed < 10.0


def test_criterion_3_estimator_fidelity():
    """(a) Constructed consistent fixture recovered below 1e-6;
    (b) on SNR 20 dB scenes the relative error halves (+-25%) when the
    averaging doubles along both the segment and frame axes."""
    from gtvv.sh import make_omni_beam
    v_row = np.array([1.0, 2.0, 2.0, 2.0], dtype=complex)
    spec = consistent_fixture(v_row)
    est = estimate_gfvv_ls(spec, EstimatorConfig(make_omni_beam(1),
                                                 seg_count=4,
                                                 frames_per_seg=8))
    fixture_err = float(np.max(np.abs(est.values - v_row[:, None])))

    errs_small, errs_big = [], []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        d = Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1))
        scene = GroundTruthScene((Wavefront(d, 0.002, 1.0),), (False,),
                                 ROOM, SRC, MIC, 0.3, FS)
        src = make_burst_source(13.0, FS, seed)
        sig = add_noise(encode_scene(scene, src, 1), 20.0, seed + 100)
        spec = stft(sig, 1024)
        y = sh_eval(d, 1)
        ref = make_reference_beam(d, 1)
        for seg, fps, bucket in ((4, 12, errs_small), (8, 24, errs_big)):
            e = estimate_gfvv_ls(spec, EstimatorConfig(ref, seg_count=seg,
                                                       frames_per_seg=fps))
            diff = e.values[:, e.valid] - y[:, None]
            ref_norm = np.linalg.norm(np.tile(y[:, None],
                                              (1, diff.shape[1])))
            bucket.append(float(np.linalg.norm(diff)) / ref_norm)
    ratio = float(np.mean(errs_big)) / float(np.mean(errs_small))
    ok = fixture_err < 1e-6 and 0.375 <= ratio <= 0.625
    record_acceptance(3, ok, f"fixture error {fixture_err:.2e} (< 1e-6), "
                             f"doubling ratio {ratio:.3f} in [0.375, 0.625]")
    assert fixture_err < 1e-6
    assert 0.375 <= ratio <= 0.625


def test_criterion_4_causality_contrast():
    """On five seeded strong-reflection scenes the steered GTVV keeps less
    energy at negative lags than the omni-referenced H-TDVV."""
    order = 3
    cfg = ExperimentConfig()
    results = []
    for scene_idx in range(5):
        src_pos, mic_pos = scene_geometry(cfg, scene_idx)
        scene = image_source_scene(cfg.room, src_pos, mic_pos, 0.44, 2, FS)
        rel = [w.gain / scene.direct.gain for w in scene.wavefronts[1:]]
        assert sum(abs(g) for g in rel) > 1.0
        src = make_burst_source(3.2, FS, scene_idx)
        spec = stft(encode_scene(scene, src, order), 1024)
        est_cfg = EstimatorConfig(
            make_reference_beam(scene.direct.direction, order))
        steered = negative_lag_energy_fraction(estimate_gtvv(spec, est_cfg))
        omni = negative_lag_energy_fraction(h_tdvv(spec, est_cfg))
        results.append((steered, omni))
    ok = all(s < o for s, o in results)
    worst_gap = min(o - s for s, o in results)
    record_acceptance(4, ok, f"steered < omni acausal energy on 5/5 scenes "
                             f"(smallest gap {worst_gap:.3f})")
    assert ok


def test_criterion_5_doa_trend(full_sweep):
    """GTVV beats H-TDVV on mean DoA error in at least 7 of the 8
    (order, rt60) cells; order-4 low-reverb GTVV error stays under 10
    degrees; the sweep finishes inside the 15-minute budget."""
    cfg, table, _, elapsed = full_sweep
    wins = 0
    for order in cfg.orders:
        for rt in cfg.rt60:
            g = cell(table, "gtvv", order, rt)["doa_error_deg"]
            h = cell(table, "htdvv", order, rt)["doa_error_deg"]
            wins += int(g < h)
    o4_low = cell(table, "gtvv", 4, min(cfg.rt60))["doa_error_deg"]
    ok = wins >= 7 and o4_low < 10.0 and elapsed < 15 * 60
    record_acceptance(5, ok, f"GTVV wins {wins}/8 cells (>= 7), order-4 "
                             f"low-reverb DoA {o4_low:.2f} deg (< 10), "
                             f"sweep {elapsed:.0f}s (< 900s)")
    assert wins >= 7
    assert o4_low < 10.0
    assert elapsed < 15 * 60
    assert not table.failures


def test_criterion_6_detection_and_delay_trend(full_sweep):
    """GTVV detects at least as many reflections as H-TDVV at orders 2-4 in
    both reverberation conditions, and its delay error pooled over the
    orders >= 2 runs stays below 5e-4 s."""
    cfg, table, records, _ = full_sweep
    det_ok = True
    for order in (2, 3, 4):
        for rt in cfg.rt60:
            g = cell(table, "gtvv", order, rt)["detections"]
            h = cell(table, "htdvv", order, rt)["detections"]
            det_ok = det_ok and g >= h
    delays = [r.metrics["gtvv"].delay_error for r in records
              if r.order >= 2 and not r.error]
    pooled = float(np.nanmean(delays))
    ok = det_ok and pooled < 5e-4
    record_acceptance(6, ok, f"detections GTVV >= H-TDVV in all orders 2-4 "
                             f"cells: {det_ok}; pooled delay error "
                             f"{pooled:.2e}s (< 5e-4)")
    assert det_ok
    assert pooled < 5e-4


def test_order_monotonicity_trend(full_sweep):
    """GTVV mean DoA error improves from order 1 to order 4 in both
    reverberation conditions."""
    cfg, table, _, _ = full_sweep
    for rt in cfg.rt60:
        o1 = cell(table, "gtvv", 1, rt)["doa_error_deg"]
        o4 = cell(table, "gtvv", 4, rt)["doa_error_deg"]
        assert o4 < o1


def test_default_table_matches_pinned_csv(full_sweep):
    """The default sweep's results.csv stays what `data/default_results.csv`
    holds: the label and count columns and any failure line exactly, the
    means to 1e-9 relative, NaN matching NaN. A change that moves the table
    updates the file and says why."""
    _, table, _, _ = full_sweep
    path = os.path.join(os.path.dirname(__file__), "data",
                        "default_results.csv")
    with open(path, "r", encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = table.to_csv().splitlines()
    assert len(got) == len(want)
    header = want[0].split(",")
    assert got[0].split(",") == header
    exact = {"method", "order", "rt60", "runs"}
    for got_line, want_line in zip(got[1:], want[1:]):
        if want_line.startswith("#"):
            assert got_line == want_line
            continue
        cells = zip(header, got_line.split(","), want_line.split(","))
        for col, g, w in cells:
            if col in exact:
                assert g == w, (want_line, col)
            elif math.isnan(float(w)):
                assert math.isnan(float(g)), (want_line, col)
            else:
                assert math.isclose(float(g), float(w), rel_tol=1e-9,
                                    abs_tol=0.0), (want_line, col)


def test_criterion_7_property_suites_present():
    """Every module has a dedicated property/invariant suite; the pass/fail
    verdict for this criterion is the rest of the test run itself."""
    here = os.path.dirname(__file__)
    required = ["test_sh.py", "test_room.py", "test_spectral.py",
                "test_velocity.py", "test_somp.py", "test_baselines.py",
                "test_experiment.py"]
    counts = {}
    for name in required:
        path = os.path.join(here, name)
        assert os.path.isfile(path), name
        with open(path, "r", encoding="utf-8") as fh:
            counts[name] = fh.read().count("def test_")
        assert counts[name] > 0
    total = sum(counts.values())
    record_acceptance(7, True, f"module property suites present "
                               f"({total} tests across {len(required)} "
                               f"modules); verdict = full suite result")
