"""Exact simulation laboratory for the two-server coordinate problem.

Requests are points in a product of metric components (lines or finite
weighted spaces) and a single server must move until it matches the request
in at least one coordinate.  The package maintains work functions exactly
over rationals, runs online algorithms against them, and machine-checks the
potential-function inequalities behind the competitive analysis.
"""

from .algorithms import (AlgorithmConfig, RunTrace, StepRecord, greedy_step,
                         retrospective_step, run, run_all, wfa_minimizers,
                         wfa_step)
from .errors import (AuditError, ConfigError, EmptySetError, ExactnessError,
                     InvalidMetricError, RegionSpaceError, RequestIndexError,
                     SizeGuardError, SpaceMismatchError,
                     UnboundedDifferenceError, WfalabError)
from .exact import common_denominator, frac, scaled_int
from .metric import (FiniteMatrix, IndexPoint, ProductPoint, RealLine,
                     RealPoint, Scaled, distance, idx, point_from_json,
                     point_key, point_to_json, product_distance, product_key,
                     pt, real, resolve)
from .pl1d import PL1D, cone, cone_envelope, max_difference, pointwise_min
from .potential import (Boks, CheckResult, CnnPotential, GeneralPotential,
                        LemmaReport, PotentialConfig, Spheres, config_from_json,
                        config_to_json, default_constants, f_value, g_value,
                        h_value, min_f, min_g, min_h, phi, potential_for,
                        potential_from_json, region_membership, region_slack,
                        verify_step)
from .problem import (Grid, Instance, RequestPoint, grid_after,
                      grid_points_on, request, serves)
from .workfn import WorkFunction, initial, instance_scale

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig", "AuditError", "Boks", "CheckResult", "CnnPotential",
    "ConfigError", "EmptySetError", "ExactnessError", "FiniteMatrix",
    "GeneralPotential", "Grid", "IndexPoint", "Instance",
    "InvalidMetricError", "LemmaReport", "PL1D", "PotentialConfig",
    "ProductPoint", "RealLine", "RealPoint", "RegionSpaceError",
    "RequestIndexError", "RequestPoint", "RunTrace", "Scaled",
    "SizeGuardError", "SpaceMismatchError", "Spheres",
    "StepRecord", "UnboundedDifferenceError", "WfalabError", "WorkFunction",
    "common_denominator", "cone", "cone_envelope", "config_from_json",
    "config_to_json", "default_constants", "distance", "f_value", "frac",
    "g_value", "greedy_step", "grid_after", "grid_points_on", "h_value", "idx",
    "initial", "instance_scale", "max_difference", "min_f", "min_g", "min_h",
    "phi", "point_from_json", "point_key", "point_to_json", "pointwise_min",
    "potential_for", "potential_from_json",
    "product_distance", "product_key", "pt", "real", "region_membership",
    "region_slack", "request", "resolve", "retrospective_step", "run",
    "run_all", "scaled_int", "serves", "verify_step", "wfa_minimizers", "wfa_step",
]
