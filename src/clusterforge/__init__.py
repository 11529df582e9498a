"""Exact F-polynomials of framed quivers, three independent ways.

Mutation recurrence, closed-form C-matrix coefficient sums, and truncated
power-series products, plus deformed polynomials, stabilization detection,
and closed-form stabilized limits for specific quiver families.
"""

from . import errors
from .closedform import coefficient_of, fpoly_formula, fpoly_product_form
from .cmatrix import (MutationTrace, SignCoherenceReport, c_between, check_sign_coherence,
                      coeff_a, coeff_b, step_matrix, trace)
from .families import (FamilySpec, SSequence, SymmetryReport, build_family,
                       build_gale_robinson, canonical_sequence, check_symmetric,
                       family_sequence, fpoly_gale_robinson, fpoly_kr,
                       fpoly_symmetric, s_values)
from .laurent import LaurentPolynomial, exact_divide, parse_monomial
from .quiver import (FramedState, GeneralizedQuiver, degree_bounds,
                     fpoly_recurrence, framed_state, make_quiver, mutate)
from .stabilization import (ExcessReport, StabilizationReport, deform,
                            dp1_coefficient, fundamentals, green_excess_probe,
                            limit_a1r, limit_gale_robinson, limit_kr,
                            limits_match_up_to_cycle, stabilization_run)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "errors",
    "LaurentPolynomial", "exact_divide", "parse_monomial",
    "GeneralizedQuiver", "FramedState", "make_quiver", "framed_state",
    "mutate", "fpoly_recurrence", "degree_bounds",
    "MutationTrace", "SignCoherenceReport", "trace",
    "step_matrix", "c_between", "coeff_a", "coeff_b", "check_sign_coherence",
    "fpoly_formula", "coefficient_of", "fpoly_product_form",
    "FamilySpec", "SSequence", "SymmetryReport", "build_family",
    "build_gale_robinson", "canonical_sequence", "check_symmetric",
    "family_sequence", "fpoly_kr", "fpoly_gale_robinson", "fpoly_symmetric",
    "s_values",
    "deform", "fundamentals", "green_excess_probe",
    "ExcessReport", "StabilizationReport",
    "stabilization_run", "limit_a1r", "limit_kr",
    "limit_gale_robinson", "dp1_coefficient", "limits_match_up_to_cycle",
    "run_verification",
]
