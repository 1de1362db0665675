"""Velocity-vector analysis of reverberant Ambisonic scenes.

Pipeline: simulate a shoebox scene with exact plane-wave ground truth,
encode it into SH channels, estimate the generalized velocity vector from
the noisy STFT, and infer per-wavefront direction / relative delay / gain
structure with simultaneous orthogonal matching pursuit.
"""

from .errors import (ConfigError, EstimatorDegenerateError,
                     ExpansionInvalidError, GtvvError,
                     InconsistentSpectrumError)
from .sh import (Dictionary, Direction, angular_distance, build_dictionary,
                 make_omni_beam, make_reference_beam, sh_eval)
from .room import (AmbisonicSignal, GroundTruthScene, Wavefront, add_noise,
                   encode_scene, image_source_scene, make_burst_source)
from .spectral import GtvvMatrix, SpectrumTensor, gfvv_to_gtvv, stft
from .velocity import (EstimatorConfig, GfvvEstimate, RelativeWavefront,
                       SeriesExpansion, estimate_gfvv_ls, estimate_gtvv,
                       gtvv_closed_form, relative_wavefronts)
from .somp import EstimateSet, MatchReport, match_to_truth, somp
from .baselines import h_tdvv, srp_doa, srp_map
from .experiment import (ExperimentConfig, ResultsTable, analyze, dump_traces,
                         run_experiment, run_single)

__version__ = "0.1.0"
