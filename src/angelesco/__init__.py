"""Numerical laboratory for two-interval Angelesco systems.

Multiple orthogonal polynomials and their nearest-neighbor recurrence
coefficients, the spectral curve and ray-limit constants that govern the
coefficients at infinity, the vector equilibrium problem behind the support
geometry, and Jacobi operators on rooted binary trees whose essential
spectrum the recurrence limits determine.
"""

__version__ = "0.1.0"

from .curve import (
    CurveData,
    Thresholds,
    chi_eval,
    chi_solve,
    critical_thresholds,
    curve,
    dc_oracle,
    energy_oracle,
    equilibrium,
    h_branch,
    upsilon,
)
from .mops import (
    AngelescoSystem,
    Geometry,
    MultiIndex,
    NnrrTable,
    WeightSpec,
    lebesgue_weights,
    moments,
    reference_geometry,
    type1_mop,
    type2_mop,
)
from .precision import PrecisionContext, Poly
from .szego import marginal_predict, ratio_report, s_x0, szego_rho
from .tree import (
    ComputedSource,
    SyntheticSource,
    appendix_c0,
    assemble_J,
    assemble_L,
    build_tree,
    m_closed,
    m_recursion,
    rlimit_check,
    spectrum_probe,
)

__all__ = [
    "AngelescoSystem",
    "ComputedSource",
    "CurveData",
    "Geometry",
    "MultiIndex",
    "NnrrTable",
    "Poly",
    "PrecisionContext",
    "SyntheticSource",
    "Thresholds",
    "WeightSpec",
    "appendix_c0",
    "assemble_J",
    "assemble_L",
    "build_tree",
    "chi_eval",
    "chi_solve",
    "critical_thresholds",
    "curve",
    "dc_oracle",
    "energy_oracle",
    "equilibrium",
    "h_branch",
    "lebesgue_weights",
    "m_closed",
    "m_recursion",
    "marginal_predict",
    "moments",
    "ratio_report",
    "reference_geometry",
    "rlimit_check",
    "s_x0",
    "spectrum_probe",
    "szego_rho",
    "type1_mop",
    "type2_mop",
    "upsilon",
]
