"""Exact symbolic classification of rank-3 distributions on six-dimensional charts.

The package computes, over exact multivariate rational-function arithmetic,
growth vectors and derived flags, the square-root plane and the symmetric
bracket form with its elliptic / hyperbolic / parabolic trichotomy, the
parabolic flag with its relation checklist, graded symbol algebras with the
normalized d-invariant, reduced-pair integrability, and the resulting branch
verdict, together with a model catalog, a model-definition language whose
one-pass reader builds each value as it reads it, and a deterministic CLI.
"""

__version__ = "1.0.0"

from . import errors
from .algebra import Chart, PointQ, Polynomial, RatFunc, poly_gcd
from .calculus import OneForm, VectorField, coordinate_field, coordinate_form, \
    lie_bracket, pairing
from .classification import AdaptedFrame, BracketForm, PointClass, \
    RegularityReport, adapted_frame, bracket_form, classify_form_generic, \
    regularity_scan, sample_points
from .distribution import Distribution, GrowthVector, annihilator_frame, \
    bracket_span, derived_flag, growth_at, span_reduce, square_root_subdistribution
from .dsl import Model, ModelSource, load_model, parse_scalar, render_model
from .linalg import Echelon, kernel_basis, rank_generic, solve_in_span
from .models import ModelSpec, catalog_list, eq3_parameter_chart, eq3_source, \
    eq4_parameter_chart, eq4_source, get_model, lift_pair, model_eq3, model_eq4
from .parabolic import Analysis, BranchReport, FlagBranch, ParabolicFlag, \
    RelationCheck, SymbolAlgebra, SymbolClass, Verdict, branch_classify, \
    e_subdistribution, parabolic_flag, symbol_algebra_at, symbol_d_function, \
    verify_flag_relations

__all__ = [name for name in dir() if not name.startswith("_")]
