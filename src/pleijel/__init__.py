"""Certified spectral constants on H-type groups R^(2n) x R^m.

Computes, with proven error enclosures: the Landau-level series c(n, m),
the sharp L^2 Sobolev constant, the Weyl eigenvalue-counting constant,
the nodal-domain (Pleijel) bound gamma_tilde and its rational truncation
bound gamma_bar, the Radon-Hurwitz admissibility classification of
(n, m), and explicit integer matrix families realising the groups.
"""

from .admissibility import AdmissibilityVerdict, admissible, is_admissible, radon_hurwitz, shading_mask
from .constants import (
    ExceptionalSet,
    exceptional_set,
    gamma_bar,
    gamma_bar_exact,
    gamma_tilde,
    gamma_tilde_interval,
    gamma_tilde_product_form,
    sobolev_constant,
    sobolev_interval,
    weyl_constant,
    weyl_density_bruteforce,
    weyl_interval,
)
from .core import DimPair, Enclosure, InadmissiblePair, PrecisionUnreachable
from .htype_algebra import (
    GroupElement,
    HTypeStructure,
    Polynomial,
    construct,
    group_identity,
    group_inverse,
    group_mul,
    sublaplacian_coefficients,
)
from .monotonicity import (
    InequalityReport,
    c_ratio_lower_bound,
    inequality_suite,
    phi,
    psi,
    term_ratio,
)
from .numerics import binomial, gamma_ratio_exact, log_gamma, round_half_away, sphere_area, zeta, zeta_interval
from .series import SeriesValue, c_series, c_tail_bound, multiindex_count, series_term, series_term_exact

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityVerdict",
    "DimPair",
    "Enclosure",
    "ExceptionalSet",
    "GroupElement",
    "HTypeStructure",
    "InadmissiblePair",
    "InequalityReport",
    "Polynomial",
    "PrecisionUnreachable",
    "SeriesValue",
    "admissible",
    "binomial",
    "c_ratio_lower_bound",
    "c_series",
    "c_tail_bound",
    "construct",
    "exceptional_set",
    "gamma_bar",
    "gamma_bar_exact",
    "gamma_ratio_exact",
    "gamma_tilde",
    "gamma_tilde_interval",
    "gamma_tilde_product_form",
    "group_identity",
    "group_inverse",
    "group_mul",
    "inequality_suite",
    "is_admissible",
    "log_gamma",
    "multiindex_count",
    "phi",
    "psi",
    "radon_hurwitz",
    "round_half_away",
    "series_term",
    "series_term_exact",
    "shading_mask",
    "sobolev_constant",
    "sobolev_interval",
    "sphere_area",
    "sublaplacian_coefficients",
    "term_ratio",
    "weyl_constant",
    "weyl_density_bruteforce",
    "weyl_interval",
    "zeta",
    "zeta_interval",
]
