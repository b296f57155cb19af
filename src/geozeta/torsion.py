"""The torsion-ratio predictor: the main theorem's right-hand side at s = 0.

From a length spectrum and the supplied volume, Chern-Simons and eta
invariants, ``predict_torsion_ratio`` assembles the predicted power of the
ratio of the zero-eigensection torsion to the Reidemeister torsion: the
complex-volume exponential, the eta anomaly (``theta_even``/``theta_odd``)
and the Zograf product F_n(0) or G_n(0).  The two parities are the members
h = 0 and h = 1 of one Zograf family (``parity_h`` reads the parity as h),
paired with the symmetric power m = 2n - 2 + h; the prediction needs
n >= 3 - h.  It reads only ``zeta`` and the invariants, so
``geozeta predict-torsion`` loads neither the identity checks, the exact
oracle nor the battery's fork machinery; ``identities.main_theorem_residual``
checks the same theorem.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .continuation import ComplexVolume, ManifoldInvariants, eta_lookup
from .spectrum import DomainError, LengthSpectrum
from .zeta import EvalParams, zograf_F, zograf_G


def parity_h(parity: str) -> int:
    """h of the Zograf family: 0 for even parity (F_n), 1 for odd (G_n)."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return int(parity == "odd")


def theta_even(inv: ManifoldInvariants, n: int) -> float:
    """Eta anomaly for the even symmetric power 2(n-1):
    eta(2n) - eta(2(n-1)) - (6n^2 - 6n + 1) eta(2); zero at n = 1."""
    return (eta_lookup(inv, 2 * n) - eta_lookup(inv, 2 * (n - 1))
            - (6 * n * n - 6 * n + 1) * eta_lookup(inv, 2))


def theta_odd(inv: ManifoldInvariants, n: int) -> float:
    """Eta anomaly for the odd symmetric power 2n-1:
    eta(2n+1) - eta(2n-1) - (6n^2 - 1/2) eta(1)."""
    return (eta_lookup(inv, 2 * n + 1) - eta_lookup(inv, 2 * n - 1)
            - (6 * n * n - 0.5) * eta_lookup(inv, 1))


@dataclass(frozen=True)
class TorsionPrediction:
    """Predicted power of the torsion ratio (zero-eigensection over Reidemeister).

    ``value`` is the 12th power of the ratio for even parity, the 4th power
    for odd parity, assembled exactly as the main theorem writes it.
    """

    n: int
    parity: str
    value: complex
    theta: float
    f_or_g: complex
    complex_volume: ComplexVolume


def predict_torsion_ratio(spec: LengthSpectrum, inv: ManifoldInvariants, n: int,
                          parity: str, p: EvalParams | None = None) -> TorsionPrediction:
    """Assemble the main theorem's right-hand side from spectrum + invariants.

    Even parity (n >= 3): exp(6 pi i theta) exp((2/pi)(6n^2-6n+1) V) F_n(0)^12
    with V the complex volume Vol + i 2 pi^2 CS.  Odd parity (n >= 2):
    exp(2 pi i theta) exp((2/pi)(2n^2-1/6)(Vol + i 3 pi^2 eta_1)) G_n(0)^4.
    A value past a double's range, above or below, raises ``DomainError``
    naming n and parity.
    """
    p = p or EvalParams.for_spectrum(spec)
    cv = inv.complex_volume
    h = parity_h(parity)
    if n < 3 - h:
        raise DomainError(
            f"n={n} below threshold: s=0 outside convergence domain; "
            "use special-case evaluator")
    theta = (theta_even, theta_odd)[h](inv, n)
    f = (zograf_F, zograf_G)[h](spec, n, 0.0, p)
    coeff = (6 * n * n - 6 * n + 1, 2 * n * n - 1.0 / 6.0)[h]
    volume = (complex(cv.re, cv.im) if h == 0
              else complex(inv.volume, 3.0 * math.pi * math.pi * eta_lookup(inv, 1)))
    try:
        value = (cmath.exp((6j, 2j)[h] * math.pi * theta)
                 * cmath.exp((2.0 / math.pi) * coeff * volume) * f.value ** (12, 4)[h])
        if not cmath.isfinite(value):  # a product of finite factors past a double
            raise OverflowError
    except OverflowError:
        raise DomainError(f"the {parity} prediction at n={n} overflows a double") from None
    if max(abs(value.real), abs(value.imag)) < sys.float_info.min:  # subnormal or 0
        raise DomainError(f"the {parity} prediction at n={n} underflows a double")
    return TorsionPrediction(n, parity, value, theta, f.value, cv)
