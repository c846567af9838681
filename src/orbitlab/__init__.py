"""orbitlab: scalar-set orbit dynamics of linear operators, at desk scale.

Symbolic scalar sets and their classification, exact sparse shift operators,
certified inductive constructions, orbit density scans, hypercyclicity
criterion checks, and winding-number audits.

The public names below resolve on first use: `orbitlab.Circle` imports
`orbitlab.scalar_sets` then, so `import orbitlab` alone loads no submodule
and a one-command process compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "scalar_sets": "AngleSpec Annulus Arc Circle CircleProduct ClassificationResult "
    "EmptyScalarSetError FinitePoints Geometric LogSpiral ModulusSet ScalarSet Scaled Sector "
    "UndecidableDensityError Union classify is_dense_in_plane modulus_set positive_ray "
    "rotation_group_product",
    "operators": "BackwardShift DirectSum DomainMismatchError ForwardShift OperatorSpec "
    "ScalarMultiple ScalarOnC SeqVector WeightedBackward WeightedForward WeightSpec "
    "adjoint_point_spectrum apply doubling_weights power_apply power_norm_bound",
    "constructions": "BoundedScalarSetError ConstructionTrace NotAccumulatingAtZeroError "
    "ScanRangeError ShiftSearchLimitError SpiralBaseOneError SpiralScenario TargetFamily "
    "build_bilateral build_spiral_scenario build_unilateral default_target_family "
    "spiral_distance_to",
    "density": "DensityReport EmptyCloudError LambdaEstimate OrbitCloud "
    "boundedness_certificates epsilon_density generate_orbit "
    "lambda_set_estimate scalar_lambda_oracle",
    "criteria": "CriterionInstance CriterionReport check_criterion",
    "winding": "AuditVerdict CircleCurve ConcatCurve ConstantCurve CurveNotClosedError "
    "ParamSegment SampledCurve WindingResult concat_additivity_check contradiction_audit "
    "unit_circle_param winding_number",
}
# public name -> the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
