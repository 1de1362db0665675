"""Simultaneous orthogonal matching pursuit over the SH dictionary.

Greedily selects dictionary atoms shared by all lag columns of a GTVV
matrix, reads one relative delay per selected atom, and orthogonalizes the
residual against the selected atoms after every iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .room import GroundTruthScene
from .sh import Dictionary, angular_distance
from .spectral import GtvvMatrix

_PROJECTION_LOAD = 1e-10


@dataclass(frozen=True)
class EstimateSet:
    """Ordered S-OMP output: one (direction, delay) per iteration."""

    directions: tuple
    delays: tuple            # seconds, relative to the direct path
    coeffs: np.ndarray       # (#selected, T) rows of the final projection
    residual_norms: tuple    # Frobenius norm after each iteration
    terminated_early: bool = False

    def to_json(self) -> str:
        payload = {
            "directions_deg": [
                [math.degrees(d.azimuth), math.degrees(d.elevation)]
                for d in self.directions
            ],
            "delays_ms": [1e3 * t for t in self.delays],
            "residual_norms": list(self.residual_norms),
            "terminated_early": self.terminated_early,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class MatchReport:
    """Greedy matching of estimated reflections against ground truth."""

    doa_error: float             # radians, iteration 1 vs true direct path
    angular_error_mean: float    # radians over matched reflections, nan if none
    detections: int
    delay_error_mean: float      # seconds over matched reflections, nan if none
    matches: tuple               # (estimate index, truth index) pairs


def _project(atoms_sel: np.ndarray, v: np.ndarray):
    """Least-squares coefficients Z minimizing ||A Z - V||_F (loaded)."""
    gram = atoms_sel.T @ atoms_sel
    gram = gram + _PROJECTION_LOAD * np.trace(gram) * np.eye(gram.shape[0])
    return np.linalg.solve(gram, atoms_sel.T @ v)


def somp(v: GtvvMatrix, dictionary: Dictionary, iters: int) -> EstimateSet:
    """Algorithm: per iteration, pick the atom with the largest peak
    correlation against the residual, read its delay at the correlation
    peak over non-negative lags, re-project, and update the residual.

    Ties in either argmax break toward the lowest atom index / earliest lag
    so runs are deterministic. Selecting an already-chosen atom terminates
    early with a partial result.
    """
    channels = v.data.shape[0]
    if dictionary.atoms.shape[0] != channels:
        raise ValueError("dictionary order does not match the GTVV channels")
    if not 1 <= iters <= channels:
        raise ValueError("iteration count must lie in [1, channel count]")
    time_axis = v.time_axis
    lag_ok = time_axis >= 0

    residual = -v.data.copy()  # R = A Z - V with empty support
    selected = []
    delays = []
    norms = []
    coeffs = np.zeros((0, v.win_len))
    terminated = False
    for _ in range(iters):
        corr = dictionary.atoms.T @ residual  # (atoms, lags)
        np.abs(corr, out=corr)
        s = int(np.argmax(corr.max(axis=1)))
        if s in selected:
            terminated = True
            break
        row = np.where(lag_ok, corr[s], -1.0)
        q = int(np.argmax(row))
        selected.append(s)
        delays.append(float(time_axis[q]))
        atoms_sel = dictionary.atoms[:, selected]
        coeffs = _project(atoms_sel, v.data)
        residual = atoms_sel @ coeffs - v.data
        norms.append(float(np.linalg.norm(residual)))
    return EstimateSet(
        tuple(dictionary.directions[s] for s in selected),
        tuple(delays),
        coeffs,
        tuple(norms),
        terminated,
    )


def match_to_truth(est: EstimateSet, truth: GroundTruthScene,
                   gate: float) -> MatchReport:
    """Greedy one-to-one match of estimated reflections to the true
    first-order reflections, discarding pairs farther than `gate` radians.

    Iteration 1 of the estimate is treated as the DoA and excluded from
    reflection matching; its error is reported separately.
    """
    doa_error = (angular_distance(est.directions[0], truth.direct.direction)
                 if est.directions else math.nan)
    refs = truth.first_order_reflections()
    cand_dirs = est.directions[1:]
    cand_delays = est.delays[1:]
    pairs = []
    for i, d in enumerate(cand_dirs):
        for j, wf in enumerate(refs):
            dist = angular_distance(d, wf.direction)
            if dist <= gate:
                pairs.append((dist, i, j))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    used_i, used_j, matches = set(), set(), []
    ang_errors, delay_errors = [], []
    for dist, i, j in pairs:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        matches.append((i + 1, j))  # report original estimate index
        ang_errors.append(dist)
        tau_true = refs[j].toa - truth.direct.toa
        delay_errors.append(abs(cand_delays[i] - tau_true))
    return MatchReport(
        doa_error,
        float(np.mean(ang_errors)) if ang_errors else math.nan,
        len(matches),
        float(np.mean(delay_errors)) if delay_errors else math.nan,
        tuple(matches),
    )
