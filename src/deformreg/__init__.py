"""Optimization-based multimodal deformable 3D image registration.

Core pieces: a reverse-mode autodiff tape over dense 3D tensor ops,
displacement-field transforms on the unit cube, correlation- and
descriptor-based similarity losses, an inverse-consistency regularized
objective, a multi-resolution pyramid of displacement grids (the sum of
coarse-to-fine stages, each upsampled to the full grid, that read no
images) optimized per pair with Adam, and the matching evaluation metrics (Dice, mTRE, folding
fraction).
"""

from .tensor import ConfigError, Tensor3, TensorError, displaced_axes, grid_coordinates, node_axes
from .tape import (
    Node,
    Tape,
    TapeError,
    grad_check,
    sample_nearest_values,
    sample_trilinear_values,
)
from .volume import (
    Geometry,
    LabelVolume,
    LandmarkSet,
    Volume,
    invert_ct,
    preprocess,
)
from .fileio import (
    FormatError,
    UnsupportedError,
    read_field_raw,
    read_landmarks_csv,
    read_nifti,
    read_nifti_labels,
    read_volume_raw,
    write_field_raw,
    write_landmarks_csv,
    write_nifti,
    write_nifti_labels,
    write_volume_raw,
)
from .transforms import (
    DisplacementField,
    approximate_inverse,
    compose,
    jacobian_det_map,
    percent_neg_jac,
    resample_field_to,
    warp,
    warp_nearest,
)
from .similarity import (
    SimilarityConfig,
    lncc_map,
    loss_similarity,
    mind_ssc_descriptor,
)
from .losses import (
    LossConfig,
    gradient_inverse_consistency,
)
from .pipeline import (
    NumericalAbort,
    OptimizerConfig,
    PyramidModel,
    RegistrationResult,
    build_model,
    instance_optimize,
    loss_breakdown,
)
from .metrics import MetricsReport, dice, evaluate_pair, mtre
from .synthetic import (
    ModalityRemap,
    Phantom,
    TruthBundle,
    deformation_amplitude_bound,
    make_deformation,
    make_phantom,
    render_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
