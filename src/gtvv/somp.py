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
# Lag screening in `somp`: the largest-norm columns whose correlations give
# the lower bound on the peak, the relative rounding slack of the bound, and
# the smallest column norm it trusts (squares below `tiny` underflow).
_SEED_LAGS = 4
_BOUND_SLACK = 1e-9
_NORM_FLOOR = math.sqrt(np.finfo(float).tiny)


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


def candidate_lags(atoms: np.ndarray, amax: float,
                   residual: np.ndarray) -> np.ndarray:
    """Indices, in increasing order, of the lags t whose Cauchy–Schwarz
    bound `amax·‖r_t‖` can reach the correlation peak of `residual`.

    The peak is bounded below by the exact correlations `b` of the
    `_SEED_LAGS` largest-norm columns; a lag is kept when
    `amax·‖r_t‖·(1 + _BOUND_SLACK) ≥ b` (see `somp` for why no lag that
    holds the peak is dropped).
    """
    norms = np.maximum(np.linalg.norm(residual, axis=0), _NORM_FLOOR)
    k = min(_SEED_LAGS, norms.size)
    seeds = np.argpartition(norms, -k)[-k:]
    peak_floor = np.abs(atoms.T @ residual[:, seeds]).max()
    return np.flatnonzero(amax * norms * (1.0 + _BOUND_SLACK) >= peak_floor)


def _largest_norm(atoms: np.ndarray) -> float:
    return float(np.linalg.norm(atoms, axis=0).max())


def _peak_atom(atoms: np.ndarray, amax: float, residual: np.ndarray) -> int:
    """The index of the atom with the largest peak correlation against
    `residual` over the `candidate_lags`, the lowest on a tie."""
    lags = candidate_lags(atoms, amax, residual)
    corr = np.abs(atoms.T @ residual[:, lags])  # (atoms, candidates)
    return int(np.argmax(corr.max(axis=1)))


def first_atom(v: GtvvMatrix, atoms: np.ndarray) -> int:
    """The index of the atom that `somp` picks first from `v` over a
    dictionary of these atoms, computed as `somp` computes it, with no
    projection, delay or residual norm."""
    if atoms.shape[0] != v.data.shape[0]:
        raise ValueError("atoms do not match the GTVV channels")
    return _peak_atom(atoms, _largest_norm(atoms), -v.data)


def somp(v: GtvvMatrix, dictionary: Dictionary, iters: int) -> EstimateSet:
    """Algorithm: per iteration, pick the atom with the largest peak
    correlation against the residual, read its delay at the correlation
    peak over non-negative lags, re-project, and update the residual.

    Ties in either argmax break toward the lowest atom index / earliest lag
    so runs are deterministic. Selecting an already-chosen atom terminates
    early with a partial result.

    Only the lags returned by `candidate_lags` are correlated with every
    atom. This is exact: for atom a_j and residual column r_t,
    |a_jᵀ r_t| ≤ ‖a_j‖·‖r_t‖ ≤ amax·‖r_t‖ (amax the largest atom norm,
    √(L+1) for SN3D atoms), and the peak is at least b, the largest
    correlation of a few seed columns. A dropped lag has
    amax·‖r_t‖·(1 + δ) < b, so every correlation there is below the peak
    and can neither hold it nor tie with it. The slack δ = 1e-9 covers the
    rounding of the norms and dot products (≤ C·eps ≈ 5e-15 relative to
    amax·‖r_t‖ for C ≤ 49 channels); norms are floored at √(tiny) so that
    an underflowed norm cannot drop a lag. The bound assumes finite data,
    which `GtvvMatrix` enforces. Only a residual whose largest columns are
    numerically orthogonal to every atom (b below ~1e-5·amax·‖r_t‖) could
    break the argument, and there every pick is rounding noise for any
    evaluation order. The delay is read from the selected atom's full row
    over the non-negative lags.
    """
    channels = v.data.shape[0]
    if dictionary.atoms.shape[0] != channels:
        raise ValueError("dictionary order does not match the GTVV channels")
    if not 1 <= iters <= channels:
        raise ValueError("iteration count must lie in [1, channel count]")
    atoms = dictionary.atoms
    amax = _largest_norm(atoms)
    zero = v.zero_index
    time_axis = v.time_axis

    residual = -v.data  # R = A Z - V with empty support
    selected = []
    delays = []
    norms = []
    coeffs = np.zeros((0, v.win_len))
    terminated = False
    for _ in range(iters):
        s = _peak_atom(atoms, amax, residual)
        if s in selected:
            terminated = True
            break
        q = zero + int(np.argmax(np.abs(atoms[:, s] @ residual[:, zero:])))
        selected.append(s)
        delays.append(float(time_axis[q]))
        atoms_sel = atoms[:, selected]
        coeffs = _project(atoms_sel, v.data)
        residual = atoms_sel @ coeffs - v.data
        # `np.linalg.norm` sums by BLAS, in an order that depends on
        # its thread count
        norms.append(math.sqrt(np.sum(residual * residual)))
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
