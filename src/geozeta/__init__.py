"""Geodesic zeta functions of closed hyperbolic 3-manifolds.

Compute the Selberg, Ruelle, and Zograf-type Euler products of a
primitive-geodesic length spectrum, continue Selberg values across the
convergence half-plane through the volume/eta functional equation, and verify
the identity chain relating them - in floating point on grids and exactly
over the Gaussian rationals per term - up to the special value that predicts
the Reidemeister-torsion ratio from the complex volume and the Zograf
product.

The public names below are imported from their modules on first access
(PEP 562), so importing the package, or only its input parsers, loads no
numpy.
"""

import importlib

_EXPORTS = {
    "chars": ("discriminant_D", "sigma_char", "trace_rho"),
    "continuation": ("ComplexVolume", "EtaNotSuppliedError", "ManifoldInvariants",
                     "eta_lookup", "parse_invariants", "reflect_selberg",
                     "selberg_anywhere", "serialize_invariants"),
    "exact": ("ExactClass", "ExactCheckResult", "FIXTURE_CLASSES", "GaussianRational",
              "exact_battery", "exact_identity_check", "to_length_spectrum"),
    "heattrace": ("HeatTraceResult", "heat_trace_geometric", "small_time_fit"),
    "identities": ("IdentityReport", "battery_reports", "main_theorem_residual",
                   "ruelle_rho_direct", "selberg_rho_bruteforce", "selberg_sigma_bruteforce",
                   "special_case_low_n", "verify_corollary_FG", "verify_det_chain",
                   "verify_four_selberg_quotient", "verify_reflection_involution",
                   "verify_rho_selberg_quotient", "verify_ruelle_decomposition",
                   "verify_ruelle_functional_equation",
                   "verify_selberg_rho_decomposition", "verify_zograf_ratio"),
    "spectrum": ("DomainError", "GeodesicEntry", "GrowthModel",
                 "LengthSpectrum", "PowerTable", "SpectrumError", "flip_spins",
                 "parse_spectrum", "parse_spectrum_csv", "powers_up_to",
                 "serialize_spectrum", "tail_bound"),
    "torsion": ("TorsionPrediction", "predict_torsion_ratio", "theta_even", "theta_odd"),
    "zeta": ("EvalParams", "ZetaValue", "ruelle_rho", "ruelle_sigma", "selberg_rho",
             "selberg_sigma", "zograf_F", "zograf_G"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
