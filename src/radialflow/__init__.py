"""Feasible low-cost radial flow configurations on distribution networks."""

from .exceptions import (CycleError, ImbalanceError, Infeasible,
                         InfeasibleSplit, InvalidSpec, InvariantViolation,
                         NoCandidate, ParseError, RadialFlowError, TooLarge,
                         ValidationError)
from .forward_engine import SolveReport, complexity_probe, fit_exponent, solve
from .generator import GenSpec, generate
from .network_model import (DistributionNetwork, RadialConfiguration,
                            ValidationReport, build_network, config_from_json,
                            config_to_json, export_dot, load_network,
                            serialize_network, validate_radial)
from .oracle import OracleResult, enumerate_optimal
from .tree_flow import ForestFlowSolution, solve_forest

__version__ = "0.1.0"

__all__ = [
    "CycleError", "DistributionNetwork",
    "ForestFlowSolution", "GenSpec", "ImbalanceError", "Infeasible",
    "InfeasibleSplit", "InvalidSpec", "InvariantViolation", "NoCandidate",
    "OracleResult", "ParseError", "RadialConfiguration", "RadialFlowError",
    "SolveReport", "TooLarge", "ValidationError", "ValidationReport",
    "build_network", "complexity_probe", "config_from_json", "config_to_json",
    "enumerate_optimal", "export_dot",
    "fit_exponent", "generate", "load_network", "serialize_network", "solve",
    "solve_forest", "validate_radial",
]
