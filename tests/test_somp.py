import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvv.room import GroundTruthScene, Wavefront
from gtvv.sh import (Direction, angular_distance, build_dictionary,
                     make_reference_beam, num_channels, sh_eval)
from gtvv.somp import EstimateSet, candidate_lags, match_to_truth, somp
from gtvv.spectral import GtvvMatrix
from gtvv.velocity import RelativeWavefront, gtvv_closed_form
from oracles import nearest

FS = 16000.0
ROOM = (5.0, 4.0, 2.8)
SRC = (1.0, 1.0, 1.4)
MIC = (3.5, 2.5, 1.4)


def direct_wave(direction):
    return RelativeWavefront(direction, 1.0, 0.0, 1.0)


def exhaustive_somp_oracle(v, dictionary, iters):
    """Brute-force re-implementation of the greedy pursuit.

    At each step scores every atom against the residual by its peak
    |correlation| over all lags with an explicit double loop, then solves
    the projection with lstsq. Slow but independent of the package code.
    """
    atoms = dictionary.atoms
    lag_ok = v.time_axis >= 0
    residual = -v.data.copy()
    selected, delays = [], []
    for _ in range(iters):
        best_s, best_score = None, -1.0
        for s in range(atoms.shape[1]):
            score = max(abs(float(atoms[:, s] @ residual[:, q]))
                        for q in range(v.win_len))
            if score > best_score + 1e-15:
                best_score, best_s = score, s
        if best_s in selected:
            break
        best_q, best_row = None, -1.0
        for q in range(v.win_len):
            if not lag_ok[q]:
                continue
            val = abs(float(atoms[:, best_s] @ residual[:, q]))
            if val > best_row + 1e-15:
                best_row, best_q = val, q
        selected.append(best_s)
        delays.append(float(v.time_axis[best_q]))
        a = atoms[:, selected]
        z, *_ = np.linalg.lstsq(a, v.data, rcond=None)
        residual = a @ z - v.data
    return selected, delays


def full_correlation_somp(v, dictionary, iters):
    """The pursuit as it was before lag screening: every iteration scores
    every atom on the full atoms x lags correlation matrix."""
    def project(atoms_sel, data):
        gram = atoms_sel.T @ atoms_sel
        gram = gram + 1e-10 * np.trace(gram) * np.eye(gram.shape[0])
        return np.linalg.solve(gram, atoms_sel.T @ data)

    time_axis = v.time_axis
    lag_ok = time_axis >= 0
    residual = -v.data.copy()
    selected, delays, norms = [], [], []
    coeffs = np.zeros((0, v.win_len))
    terminated = False
    for _ in range(iters):
        corr = dictionary.atoms.T @ residual
        np.abs(corr, out=corr)
        s = int(np.argmax(corr.max(axis=1)))
        if s in selected:
            terminated = True
            break
        q = int(np.argmax(np.where(lag_ok, corr[s], -1.0)))
        selected.append(s)
        delays.append(float(time_axis[q]))
        atoms_sel = dictionary.atoms[:, selected]
        coeffs = project(atoms_sel, v.data)
        residual = atoms_sel @ coeffs - v.data
        norms.append(math.sqrt(np.sum(residual * residual)))
    return EstimateSet(tuple(dictionary.directions[s] for s in selected),
                       tuple(delays), coeffs, tuple(norms), terminated)


def assert_same_estimate(got, want):
    assert got.directions == want.directions
    assert got.delays == want.delays
    assert got.residual_norms == want.residual_norms
    assert got.terminated_early == want.terminated_early
    np.testing.assert_array_equal(got.coeffs, want.coeffs)


@functools.lru_cache(maxsize=None)
def cached_dictionary(size, order):
    return build_dictionary(size, order)


def random_direction(rng):
    return Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))


def closed_form_trace(rng, order, win_len, reflections=3):
    """Closed-form GTVV of a direct path and `reflections` echoes with
    delays in the first quarter of the positive lags."""
    waves = [direct_wave(random_direction(rng))] + [
        RelativeWavefront(random_direction(rng), rng.uniform(0.1, 0.3),
                          int(rng.integers(1, win_len // 8 + 1)) / FS, 1.0)
        for _ in range(reflections)]
    return gtvv_closed_form(waves, 6, win_len, FS, order)[0].data


def trace_of_kind(kind, rng, dictionary, win_len):
    """A channels x `win_len` trace of one of the screening test kinds."""
    shape = (dictionary.atoms.shape[0], win_len)
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "spikes":
        data = 0.01 * rng.standard_normal(shape)
        for _ in range(int(rng.integers(1, 6))):
            atom = dictionary.atoms[:, rng.integers(len(dictionary))]
            data[:, rng.integers(win_len)] += rng.uniform(0.2, 1.0) * atom
        return data
    if kind == "closed_form":
        return closed_form_trace(rng, dictionary.order, win_len)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "equal_norm":
        data = rng.standard_normal(shape)
        return data / np.linalg.norm(data, axis=0)
    assert kind == "rank_one"
    atom = dictionary.atoms[:, rng.integers(len(dictionary))]
    return np.outer(atom, rng.standard_normal(win_len))


SCREEN_KINDS = ("gaussian", "spikes", "closed_form", "zero", "equal_norm",
                "rank_one")


class TestSomp:
    def test_direct_only_single_iteration(self):
        d0 = Direction(0.4, 0.1)
        v, _ = gtvv_closed_form([direct_wave(d0)], 6, 512, FS, 2)
        dic = build_dictionary(200, 2)
        est = somp(v, dic, 1)
        assert est.directions[0] == dic.directions[nearest(dic, d0)]
        assert est.delays[0] == 0.0
        assert not est.terminated_early

    def test_on_grid_two_wavefronts_exact(self):
        dic = build_dictionary(770, 3)
        d0 = dic.directions[100]
        d1 = dic.directions[400]
        assert angular_distance(d0, d1) > math.radians(30)
        refl = RelativeWavefront(d1, 0.4, 64.0 / FS, 1.0)
        v, _ = gtvv_closed_form([direct_wave(d0), refl], 8, 1024, FS, 3)
        est = somp(v, dic, 2)
        assert est.directions[0] == d0
        assert est.directions[1] == d1
        assert est.delays[0] == 0.0
        assert est.delays[1] == 64.0 / FS

    def test_matches_exhaustive_oracle(self):
        dic = build_dictionary(60, 2)
        d0 = dic.directions[10]
        waves = [direct_wave(d0),
                 RelativeWavefront(dic.directions[30], 0.5, 32.0 / FS, 1.0),
                 RelativeWavefront(dic.directions[50], 0.35, 80.0 / FS, 1.0)]
        v, _ = gtvv_closed_form(waves, 8, 256, FS, 2)
        est = somp(v, dic, 3)
        sel, delays = exhaustive_somp_oracle(v, dic, 3)
        assert [nearest(dic, d) for d in est.directions] == sel
        assert list(est.delays) == pytest.approx(delays)

    def test_residual_monotonicity(self):
        dic = build_dictionary(300, 3)
        rng = np.random.default_rng(0)
        waves = [direct_wave(dic.directions[5])]
        for i, lag in enumerate((24, 56, 112, 200)):
            waves.append(RelativeWavefront(
                dic.directions[40 * (i + 1)], 0.2, lag / FS, 1.0))
        v, _ = gtvv_closed_form(waves, 6, 1024, FS, 3)
        # perturb so late iterations keep working against structure
        data = v.data + 0.01 * rng.standard_normal(v.data.shape)
        v = GtvvMatrix(data, v.fs)
        est = somp(v, dic, 7)
        norms = est.residual_norms
        assert all(norms[i] <= norms[i - 1] + 1e-12
                   for i in range(1, len(norms)))

    def test_doa_first_when_direct_dominates(self):
        dic = build_dictionary(400, 3)
        d0 = Direction(-0.7, 0.2)
        waves = [direct_wave(d0),
                 RelativeWavefront(Direction(1.8, -0.4), 0.45, 40.0 / FS, 0.9),
                 RelativeWavefront(Direction(0.9, 0.6), 0.4, 72.0 / FS, 0.9)]
        assert sum(abs(w.rel_gain * w.beta) for w in waves[1:]) < 1.0
        v, _ = gtvv_closed_form(waves, 8, 1024, FS, 3)
        est = somp(v, dic, 3)
        assert est.directions[0] == dic.directions[nearest(dic, d0)]
        assert abs(est.delays[0]) <= 1.0 / FS

    def test_delay_readout_exact_integer_lags(self):
        dic = build_dictionary(300, 2)
        d0 = dic.directions[0]
        lags = (16, 48, 130)
        waves = [direct_wave(d0)]
        for i, lag in enumerate(lags):
            waves.append(RelativeWavefront(
                dic.directions[60 + 80 * i], 0.3, lag / FS, 1.0))
        v, _ = gtvv_closed_form(waves, 8, 1024, FS, 2)
        est = somp(v, dic, 4)
        got = sorted(est.delays[1:])
        assert got == pytest.approx([lag / FS for lag in lags])

    def test_duplicate_atom_terminates_early(self):
        # a rank-one matrix keeps pointing at the same atom
        dic = build_dictionary(100, 1)
        y = dic.atoms[:, 7]
        data = np.outer(y, np.ones(64))
        v = GtvvMatrix(data, FS)
        est = somp(v, dic, 4)
        assert est.terminated_early
        assert len(est.directions) < 4

    def test_input_validation(self):
        dic = build_dictionary(100, 1)
        v, _ = gtvv_closed_form([direct_wave(Direction(0, 0))], 6, 256, FS, 2)
        with pytest.raises(ValueError):
            somp(v, dic, 2)  # order mismatch
        dic3 = build_dictionary(100, 2)
        with pytest.raises(ValueError):
            somp(v, dic3, 0)
        with pytest.raises(ValueError):
            somp(v, dic3, 10)  # more iterations than channels

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), iters=st.integers(1, 7),
           closed_form=st.booleans())
    def test_first_atom_independent_of_iterations(self, seed, iters,
                                                  closed_form):
        # greedy: the first pick of a k-iteration run is the 1-iteration
        # run's pick, which is what the steered reference uses
        rng = np.random.default_rng(seed)
        dic = build_dictionary(300, 2)
        if closed_form:
            def random_dir():
                return Direction(rng.uniform(-math.pi, math.pi),
                                 rng.uniform(-1.5, 1.5))
            waves = [direct_wave(random_dir())] + [
                RelativeWavefront(random_dir(), rng.uniform(0.1, 0.45),
                                  rng.integers(1, 40) / FS, 1.0)
                for _ in range(2)]
            v, _ = gtvv_closed_form(waves, 6, 128, FS, 2)
        else:
            v = GtvvMatrix(rng.standard_normal((9, 128)), FS)
        one, full = somp(v, dic, 1), somp(v, dic, iters)
        assert one.directions[0] == full.directions[0]
        assert one.delays[0] == full.delays[0]

    def test_json_serialization(self):
        d = Direction(math.radians(30), math.radians(-10))
        est = EstimateSet((d,), (0.004,), np.zeros((1, 8)), (1.0,))
        payload = json.loads(est.to_json())
        assert payload["directions_deg"][0] == pytest.approx([30.0, -10.0])
        assert payload["delays_ms"] == [4.0]
        assert payload["terminated_early"] is False


class TestLagScreening:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(SCREEN_KINDS), order=st.integers(1, 6),
           size=st.integers(60, 3000), win_len=st.sampled_from((32, 128, 512)),
           scale=st.sampled_from((1.0, 1e-160, 1e100)),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_equals_full_correlation_pursuit(self, kind, order, size,
                                             win_len, scale, seed, data):
        iters = data.draw(st.integers(1, num_channels(order)), label="iters")
        dic = cached_dictionary(size, order)
        rng = np.random.default_rng(seed)
        v = GtvvMatrix(scale * trace_of_kind(kind, rng, dic, win_len), FS)
        assert_same_estimate(somp(v, dic, iters),
                             full_correlation_somp(v, dic, iters))

    def test_rank_one_trace_terminates_early(self):
        dic = cached_dictionary(300, 3)
        v = GtvvMatrix(trace_of_kind("rank_one", np.random.default_rng(5),
                                     dic, 128), FS)
        got = somp(v, dic, 5)
        assert got.terminated_early
        assert_same_estimate(got, full_correlation_somp(v, dic, 5))

    def test_closed_form_trace_is_pruned(self):
        dic = cached_dictionary(770, 4)
        data = closed_form_trace(np.random.default_rng(3), 4, 1024)
        amax = float(np.linalg.norm(dic.atoms, axis=0).max())
        lags = candidate_lags(dic.atoms, amax, -data)
        assert 1 <= lags.size < 0.1 * data.shape[1]
        assert np.all(np.diff(lags) > 0)

    def test_equal_norm_lags_are_all_kept(self):
        dic = cached_dictionary(200, 2)
        data = trace_of_kind("equal_norm", np.random.default_rng(8), dic, 64)
        amax = float(np.linalg.norm(dic.atoms, axis=0).max())
        np.testing.assert_array_equal(candidate_lags(dic.atoms, amax, data),
                                      np.arange(64))


def scene_from_waves(direct_dir, refl):
    """Ground-truth scene with the direct path and given reflections."""
    toa0 = 0.002
    waves = [Wavefront(direct_dir, toa0, 1.0)]
    flags = [False]
    for d, tau in refl:
        waves.append(Wavefront(d, toa0 + tau, 0.5))
        flags.append(True)
    order = np.argsort([w.toa for w in waves])
    waves = tuple(waves[i] for i in order)
    flags = tuple(flags[i] for i in order)
    return GroundTruthScene(waves, flags, ROOM, SRC, MIC, 0.3, FS)


def hungarian_oracle(cand_dirs, refs, gate):
    """Optimal one-to-one assignment by brute force (small problems)."""
    best = 0
    n, m = len(cand_dirs), len(refs)
    for k in range(min(n, m), -1, -1):
        if k <= best:
            break
        for est_idx in itertools.permutations(range(n), k):
            for ref_idx in itertools.combinations(range(m), k):
                ok = all(
                    angular_distance(cand_dirs[i], refs[j].direction) <= gate
                    for i, j in zip(est_idx, ref_idx))
                if ok:
                    best = max(best, k)
                    break
            if best == k:
                break
    return best


class TestMatchToTruth:
    def test_perfect_estimates(self):
        refl = [(Direction(1.0, 0.2), 0.001), (Direction(-1.5, -0.3), 0.002)]
        scene = scene_from_waves(Direction(0.0, 0.0), refl)
        dirs = (Direction(0.0, 0.0),) + tuple(d for d, _ in refl)
        delays = (0.0, 0.001, 0.002)
        est = EstimateSet(dirs, delays, np.zeros((3, 8)), (1.0, 0.5, 0.2))
        rep = match_to_truth(est, scene, math.radians(20))
        assert rep.doa_error == 0.0
        assert rep.detections == 2
        assert rep.angular_error_mean < 1e-7
        assert rep.delay_error_mean == 0.0

    def test_everything_outside_gate(self):
        refl = [(Direction(1.0, 0.0), 0.001)]
        scene = scene_from_waves(Direction(0.0, 0.0), refl)
        # estimate 30 degrees off with a 20 degree gate
        bad = Direction(1.0 + math.radians(30), 0.0)
        est = EstimateSet((Direction(0, 0), bad), (0.0, 0.001),
                          np.zeros((2, 8)), (1.0, 0.5))
        rep = match_to_truth(est, scene, math.radians(20))
        assert rep.detections == 0
        assert math.isnan(rep.angular_error_mean)
        assert math.isnan(rep.delay_error_mean)

    def test_doa_excluded_from_reflection_matching(self):
        refl = [(Direction(1.0, 0.0), 0.001)]
        scene = scene_from_waves(Direction(0.0, 0.0), refl)
        # only the DoA iteration exists: no reflection candidates
        est = EstimateSet((Direction(0.1, 0.0),), (0.0,),
                          np.zeros((1, 8)), (1.0,))
        rep = match_to_truth(est, scene, math.radians(20))
        assert rep.detections == 0
        assert rep.doa_error == pytest.approx(0.1)

    def test_perturbed_matches_assignment_oracle(self):
        rng = np.random.default_rng(4)
        gate = math.radians(20)
        for trial in range(20):
            refs = [Direction(rng.uniform(-math.pi, math.pi),
                              rng.uniform(-1.0, 1.0)) for _ in range(4)]
            refl = [(d, 0.001 * (i + 1)) for i, d in enumerate(refs)]
            scene = scene_from_waves(Direction(0.0, -1.2), refl)
            cands = []
            for d in refs[:3]:  # estimate misses one reflection
                cands.append(Direction(
                    d.azimuth + rng.uniform(-0.06, 0.06),
                    d.elevation + rng.uniform(-0.06, 0.06)))
            est = EstimateSet(
                (Direction(0.0, -1.2),) + tuple(cands),
                (0.0,) + tuple(0.001 * (i + 1) for i in range(3)),
                np.zeros((4, 8)), (1.0,) * 4)
            rep = match_to_truth(est, scene, gate)
            truth_refs = scene.first_order_reflections()
            expected = hungarian_oracle(cands, truth_refs, gate)
            assert rep.detections == expected
