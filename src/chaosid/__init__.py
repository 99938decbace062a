"""Reconstruction of discrete state-space models from chaotic time series.

The package turns an observed scalar series into a model

    x(k+1) = A x(k) + B phi(k),   y(k) = C x(k)

in four stages: delay-coordinate embedding, symmetry detection between
trajectory segments, selection and fitting of a forcing basis phi, and
validation through simulation and chaos metrics.
"""

from .embedding import (
    AmiScan,
    DelayEmbedding,
    DelayScan,
    FnnScan,
    TimeSeries,
    autocorrelation_delay,
    average_mutual_information,
    delay_embed,
    false_nearest_neighbors,
)
from .errors import (
    ChannelMismatch,
    ChaosidError,
    ConfigError,
    DataError,
    DegenerateSegment,
    InputError,
    InsufficientData,
    InvalidValue,
    LagOutOfRange,
    LengthMismatch,
    NonFiniteState,
    NoScalingRegion,
    NotFoundError,
    OverflowUnsafe,
    RankDeficient,
    WindowTooSmall,
    ZeroVariance,
)
from .model import (
    Exponential,
    FitReport,
    ForcingBasis,
    Polynomial,
    Product,
    Sinusoid,
    StateSpaceModel,
    polynomial_basis,
)
from .symmetry import (
    BasisSeed,
    GaConfig,
    SymmetryReport,
    SymmetryTransform,
    TransformClass,
    attractor_diameter,
    classify_symmetry,
    extract_segments,
    fit_transform,
    ga_search,
    rotation_angle,
    seed_basis_parameters,
)
from .identify import (
    ParameterGrid,
    build_regression,
    fit_model,
    fit_output_map,
    refine_basis,
    solve_least_squares,
)
from .dynamics import (
    FIXTURE_DT,
    FixtureModel,
    OdeSystem,
    fixture_checksums,
    fixture_names,
    load_all_fixtures,
    load_fixture,
    rk4_integrate,
    rossler,
    rossler_rhs,
    simulate,
    spectral_radius,
    verify_fixture_files,
)
from .validate import (
    ComparisonReport,
    CorrelationDimension,
    LyapunovEstimate,
    compare,
    correlation_dimension,
    dominant_period,
    largest_lyapunov,
)
from . import io

__version__ = "0.1.0"
