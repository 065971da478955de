"""Streaming single-index regression.

A recursive estimator of the index direction (sliced inverse regression
with a rank-one inverse-covariance update) combined with a recursive
kernel estimate of the link function, plus the Monte Carlo studies that
probe their convergence and distributional behavior.
"""

from .crossval import CvReport, select_alpha
from .engine import (
    DEFAULT_ALPHA,
    DirectionPath,
    StreamState,
    default_warmup,
    direction_path,
    direction_paths,
    init_stream,
    predict_next,
    run_stream,
    stream_step,
)
from .errors import (
    ConfigError,
    CsvFormatError,
    EmptySliceError,
    InsufficientDataError,
    NoSupportError,
    NonFiniteInputError,
    NumericalBreakdownError,
    SingularMatrixError,
    StreamSirError,
)
from .kernels import BandwidthSchedule, KernelSpec, epanechnikov, tabulated_kernel
from .linkreg import ProjectionLog, append, curve, evaluate, theoretical_std
from .moments import MomentState, Slicer, batch_moments
from .sir import (
    SirState,
    batch_sir,
    direction_distance,
    direction_from_moments,
    warm_start,
)
from .simulate import Sample, SingleIndexModel, draw, reference_link, reference_model
from .studies import (
    StudyConfig,
    StudyResult,
    convergence_study,
    draw_eval_points,
    normality_study,
    projected_density,
    rate_study,
    scatter_study,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthSchedule",
    "ConfigError",
    "CsvFormatError",
    "CvReport",
    "DEFAULT_ALPHA",
    "DirectionPath",
    "EmptySliceError",
    "InsufficientDataError",
    "KernelSpec",
    "MomentState",
    "NoSupportError",
    "NonFiniteInputError",
    "NumericalBreakdownError",
    "ProjectionLog",
    "Sample",
    "SingleIndexModel",
    "SingularMatrixError",
    "SirState",
    "Slicer",
    "StreamSirError",
    "StreamState",
    "StudyConfig",
    "StudyResult",
    "append",
    "batch_moments",
    "batch_sir",
    "convergence_study",
    "curve",
    "default_warmup",
    "direction_distance",
    "direction_from_moments",
    "direction_path",
    "direction_paths",
    "draw",
    "draw_eval_points",
    "epanechnikov",
    "evaluate",
    "init_stream",
    "normality_study",
    "predict_next",
    "projected_density",
    "rate_study",
    "reference_link",
    "reference_model",
    "run_stream",
    "scatter_study",
    "select_alpha",
    "stream_step",
    "tabulated_kernel",
    "theoretical_std",
    "warm_start",
]
