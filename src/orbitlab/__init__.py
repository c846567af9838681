"""orbitlab: scalar-set orbit dynamics of linear operators, at desk scale.

Symbolic scalar sets and their classification, exact sparse shift operators,
certified inductive constructions, orbit density scans, hypercyclicity
criterion checks, and winding-number audits.
"""

__version__ = "0.1.0"

from .scalar_sets import (  # noqa: F401
    AngleSpec,
    Annulus,
    Arc,
    Circle,
    CircleProduct,
    ClassificationResult,
    EmptyScalarSetError,
    FinitePoints,
    Geometric,
    LogSpiral,
    ModulusSet,
    ScalarSet,
    Scaled,
    Sector,
    UndecidableDensityError,
    Union,
    classify,
    is_dense_in_plane,
    modulus_set,
    positive_ray,
    rotation_group_product,
)
from .operators import (  # noqa: F401
    BackwardShift,
    DirectSum,
    DomainMismatchError,
    ForwardShift,
    OperatorSpec,
    ScalarMultiple,
    ScalarOnC,
    SeqVector,
    WeightedBackward,
    WeightedForward,
    WeightSpec,
    adjoint_point_spectrum,
    apply,
    doubling_weights,
    power_apply,
    power_norm_bound,
)
from .constructions import (  # noqa: F401
    BoundedScalarSetError,
    ConstructionTrace,
    NotAccumulatingAtZeroError,
    ScanRangeError,
    ShiftSearchLimitError,
    SpiralBaseOneError,
    SpiralScenario,
    TargetFamily,
    build_bilateral,
    build_spiral_scenario,
    build_unilateral,
    default_target_family,
    spiral_distance_to,
)
from .density import (  # noqa: F401
    DensityReport,
    EmptyCloudError,
    LambdaEstimate,
    OrbitCloud,
    boundedness_certificates,
    d_dense_check,
    epsilon_density,
    generate_orbit,
    lambda_set_estimate,
    scalar_lambda_oracle,
)
from .criteria import (  # noqa: F401
    CriterionInstance,
    CriterionReport,
    check_criterion,
    kitai_mode,
)
from .winding import (  # noqa: F401
    AuditVerdict,
    CircleCurve,
    ConcatCurve,
    ConstantCurve,
    CurveNotClosedError,
    ParamSegment,
    SampledCurve,
    WindingResult,
    concat_additivity_check,
    contradiction_audit,
    unit_circle_param,
    winding_number,
)
