"""Slice-area constants, perimeter measures and blow-up densities for
homogeneous balls on step-2 stratified groups."""

from .beta import BetaConstancy, BetaResult, beta, beta_constancy
from .exceptions import (
    BracketError,
    CalibrationError,
    CarnotPerimError,
    ConformanceError,
    GaugeDefinitionError,
    RegionError,
    RegularityError,
    UnsupportedModelError,
)
from .federer import DensityReport, DensitySchedule, default_schedule, federer_density
from .gauges import (
    AnisotropicGauge,
    DInfinityGauge,
    EuclideanGauge,
    Gauge,
    KoranyiGauge,
    StarBodyGauge,
    ValidationReport,
    calibrate_dinfty,
    euclidean_ball_gauge,
    parse_gauge,
    star_norm,
    two_ball_gauge,
    validate,
)
from .groups import GroupModel, abelian, direction, heisenberg, parse_group
from .mc import Estimate, substream
from .slices import (
    ConcavityReport,
    SliceProfile,
    concavity_report,
    slice_area,
    slice_profile,
    support_radius,
)
from .surfaces import (
    PerimeterEstimate,
    SurfaceSpec,
    coordinate_plane,
    from_expression,
    graph_height,
    horizontal_normal,
    make_surface,
    parse_surface,
    perimeter_ball,
    quadratic_graph,
    vertical_plane,
)
from .verify import (
    VerificationReport,
    blowup_suite,
    busemann_suite,
    convexity_check,
    run_all,
    symmetry_check,
)

__version__ = "0.1.0"
