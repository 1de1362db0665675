"""Comparison methods: omni-referenced H-TDVV and a steered-response-power
direction scan over the same dictionary.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .sh import Dictionary, Direction
from .spectral import GtvvMatrix, SpectrumTensor, frame_blocks
from .velocity import (_ENERGY_FLOOR, EstimatorConfig, SegmentStats,
                       estimate_gtvv)


def h_tdvv(spec: SpectrumTensor, cfg: EstimatorConfig,
           stats: SegmentStats = None) -> GtvvMatrix:
    """GTVV with the omnidirectional channel as reference, whatever
    `cfg.reference` holds; `stats` as in `estimate_gfvv_ls`.

    Identical code path to the steered variant: only the weights change.
    """
    return estimate_gtvv(spec, replace(cfg, reference=None), stats)


def srp_map(spec: SpectrumTensor, dictionary: Dictionary) -> np.ndarray:
    """Plain steered-response power over the dictionary directions, one
    non-negative value per atom.

    Each frame's contribution is normalized by the frame energy, so the map
    (and its argmax in particular) is invariant to global signal scaling.
    Frames at or below `_ENERGY_FLOOR` times the largest frame energy are
    skipped: normalizing them would blow their rounding noise up to O(1).

    The atoms are real, so the power of atom a summed over a frame b
    (channels x bins) is aᵀ Re(b̄ bᵀ) a. The map is therefore diag(Aᵀ C A)
    with the channels x channels covariance C = Σ_u Re(b̄_u b_uᵀ) / E_u,
    the spectrum's `weighted_cross_power` with the weights 1 / E_u above
    the floor and 0 at or below it, which it forms from the samples with
    no transform. The energies come first, in a pass that forms no
    channel x channel product, because the floor needs their maximum;
    the DC and Nyquist bins that pass forms are kept for the covariance,
    which needs them too. Only they grow with the recording: 1 + 2 x
    channels floats per frame.
    """
    if spec.frames == 0:
        raise ValueError("empty spectrum")
    if dictionary.atoms.shape[0] != spec.channels:
        raise ValueError("dictionary order does not match the spectrum")
    energies = np.empty(spec.frames)
    edges = np.empty((spec.frames, spec.channels, 2))
    for start, stop in frame_blocks(spec.frames):
        energies[start:stop], edges[start:stop] = spec.energy(start, stop)
    floor = _ENERGY_FLOOR * float(np.max(energies))
    weights = np.divide(1.0, energies, out=np.zeros_like(energies),
                        where=energies > floor)
    cov = spec.weighted_cross_power(weights, edges)
    atoms = dictionary.atoms
    values = np.sum(atoms * (cov @ atoms), axis=0)
    # C is positive semi-definite: a negative value is rounding around 0
    return np.maximum(values, 0.0)


def srp_doa(power: np.ndarray, dictionary: Dictionary) -> Direction:
    """Direction of the power-map maximum."""
    return dictionary.directions[int(np.argmax(power))]
