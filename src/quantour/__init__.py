"""Exact directional quantile hyperplanes and halfspace depth contours."""

from .cloud import PointCloud, jitter
from .errors import (
    ArcGap,
    DegenerateData,
    DegenerateDesign,
    DegenerateTau,
    DimensionMismatch,
    DimensionTooSmall,
    EllOutOfRange,
    EmptyHalfspace,
    EmptyInput,
    HeaderMismatch,
    MixedModels,
    NoConvergence,
    NotBounded,
    ParseError,
    QuantourError,
    SingularSystem,
    StillDegenerate,
    TauOutOfRange,
    TooFewPointsPerBin,
)
from .geometry import (
    BOUNDARY,
    BOUNDED,
    EMPTY,
    INSIDE,
    OUTSIDE,
    UNBOUNDED,
    ConvexRegion2D,
    Direction,
    hausdorff_distance,
    intersect_halfplanes_2d,
    orthocomplement_basis,
    polygon_area,
)
from .qr import QrProblem, QrSolution, check_loss, dual_weights, solve_qr, validate_tau
from .directional import (
    MultiplierSeries,
    QuantileHyperplane,
    directional_quantile,
    lagrange_multiplier,
    mass_center_gap,
    multiplier_scan,
    outlier_scenario,
)
from .depth import (
    DepthValue,
    depth_2d,
    depth_kd_approx,
    depth_region_bruteforce_2d,
)
from .contour import (
    SweepResult,
    fixed_tau_region,
    probability_contents,
    sweep,
)
from .km import RegionComparison, compare_regions, km_envelope
from .regression import (
    CoverageDiagnostic,
    RegressionProblem,
    RegressionQuantile,
    coverage_diagnostic,
    fixed_x_cut,
    regression_quantile,
    response_direction_grid,
)

__version__ = "0.1.0"
