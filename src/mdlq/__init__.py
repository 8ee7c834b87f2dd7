"""Two-channel multiple-description vector quantization with lattice codebooks.

Design labelings (the index assignment mapping lattice points to ordered
pairs of sublattice points), run seeded rate/distortion simulations, and
evaluate the analytic bounds and high-rate asymptotics for the lattices
Z, Z^2, Z^4, Z^8 and A2.
"""

from .codec import ScaledDesign, SimReport, SourceSpec, encode_vector, reconstruct, simulate
from .errors import MdlqError
from .evaluation import (
    analytic_rates,
    asymptotic_limit_check,
    bound_sandwich,
    design_report,
    edge_histogram,
    figure_data,
)
from .labeling import (
    DirectedEdge,
    Labeling,
    base_edge_set,
    build_labeling,
    color,
    direct_edge,
    labeling_from_dict,
    optimal_class_matching,
)
from .lattices import Lattice, ThetaShells, get_lattice, sphere_second_moment
from .sublattices import SimilarSublattice, build_sublattice, design_sublattice, find_params
from .symmetry import SymmetryGroup, group_for

__version__ = "0.1.0"

__all__ = [
    "DirectedEdge",
    "Labeling",
    "Lattice",
    "MdlqError",
    "ScaledDesign",
    "SimReport",
    "SimilarSublattice",
    "SourceSpec",
    "SymmetryGroup",
    "ThetaShells",
    "analytic_rates",
    "asymptotic_limit_check",
    "base_edge_set",
    "bound_sandwich",
    "build_labeling",
    "build_sublattice",
    "color",
    "design_report",
    "design_sublattice",
    "direct_edge",
    "edge_histogram",
    "encode_vector",
    "figure_data",
    "find_params",
    "get_lattice",
    "group_for",
    "labeling_from_dict",
    "optimal_class_matching",
    "reconstruct",
    "simulate",
    "sphere_second_moment",
]
