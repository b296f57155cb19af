"""Geodesic zeta functions of closed hyperbolic 3-manifolds.

Compute the Selberg, Ruelle, and Zograf-type Euler products of a
primitive-geodesic length spectrum, continue Selberg values across the
convergence half-plane through the volume/eta functional equation, and verify
the identity chain relating them - in floating point on grids and exactly
over the Gaussian rationals per term - up to the special value that predicts
the Reidemeister-torsion ratio from the complex volume and the Zograf
product.
"""

from .chars import HolonomyClass, discriminant_D, sigma_char, trace_rho
from .continuation import (ComplexVolume, EtaNotSuppliedError, ManifoldInvariants,
                           eta_lookup, parse_invariants, reflect_selberg,
                           selberg_anywhere, serialize_invariants)
from .exact import (ExactClass, ExactCheckResult, FIXTURE_CLASSES, GaussianRational,
                    exact_battery, exact_identity_check, to_length_spectrum)
from .heattrace import HeatTraceResult, heat_trace_geometric, small_time_fit
from .identities import (IdentityReport, TorsionPrediction, battery_reports,
                         main_theorem_residual, predict_torsion_ratio,
                         relative_residual, ruelle_rho_direct,
                         selberg_rho_bruteforce, selberg_sigma_bruteforce,
                         special_case_low_n, theta_even, theta_odd,
                         verify_corollary_FG, verify_det_chain,
                         verify_four_selberg_quotient, verify_reflection_involution,
                         verify_rho_selberg_quotient, verify_ruelle_decomposition,
                         verify_ruelle_functional_equation,
                         verify_selberg_rho_decomposition, verify_zograf_ratio)
from .spectrum import (DomainError, GeodesicEntry, GeodesicPower, GrowthModel,
                       LengthSpectrum, PowerTable, SpectrumError, flip_spins,
                       parse_spectrum, parse_spectrum_csv, powers_up_to,
                       serialize_spectrum, tail_bound)
from .zeta import (EvalParams, ZetaValue, ruelle_rho, ruelle_sigma, selberg_rho,
                   selberg_sigma, zograf_F, zograf_G)

__version__ = "0.1.0"
