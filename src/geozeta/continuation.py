"""Reflection-based continuation of the Selberg zeta function.

Everything here consumes externally supplied manifold data: the hyperbolic
volume, the Chern-Simons invariant, and the eta invariants of the twisted
Dirac operators indexed by character weight.  None of these are computed from
the spectrum.  The single continuation mechanism is the functional equation

    Z(sigma_k, 1+s) = e^(i pi eta_k) exp((Vol/pi)(s^3/3 - k^2 s / 4)) Z(sigma_-k, 1-s),

used once per evaluation.  The critical strip 0 <= Re(s) <= 2 is explicitly
unsupported: the identity pipeline only ever needs arguments at least one
reflection away from it, and no small-eigenvalue data is available to do
better.  Eta values are stored as plain reals with no mod-2 reduction; they
enter only through exp(i pi eta).

Importing this module loads no numpy and no evaluator: ``selberg_anywhere``
imports ``zeta`` when it is called, so parsing invariants (``geozeta
validate``) needs the standard library only.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from .spectrum import DomainError, LengthSpectrum

if TYPE_CHECKING:
    from .zeta import EvalParams, ZetaValue

PI_SQ = math.pi * math.pi


class EtaNotSuppliedError(ValueError):
    """A required eta invariant is missing from the invariants table."""

    def __init__(self, k: int):
        super().__init__(f"eta not supplied for weight k={k}")
        self.k = k

    def __reduce__(self):
        # rebuilt from k: the default would pass the message back in as k
        return type(self), (self.k,)


@dataclass(frozen=True)
class ComplexVolume:
    """Vol + i 2 pi^2 CS, defined modulo i pi^2 Z."""

    re: float
    im: float

    def equivalent(self, other: "ComplexVolume", tol: float = 1e-9) -> bool:
        if abs(self.re - other.re) > tol * max(1.0, abs(self.re)):
            return False
        steps = (self.im - other.im) / PI_SQ
        return abs(steps - round(steps)) <= tol


@dataclass(frozen=True)
class ManifoldInvariants:
    """Externally supplied Vol, CS, and eta table.

    ``eta`` maps positive weights k to eta(D(sigma_k)); weight 0 is identically
    zero and negative weights follow by antisymmetry, both applied by
    :func:`eta_lookup`.  ``cs`` is stored as a plain real representative;
    consumers treat it mod 1/2.
    """

    volume: float
    cs: float
    eta: Mapping[int, float] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.volume > 0 and math.isfinite(self.volume)):
            raise ValueError(f"volume must be positive, got {self.volume!r}")
        if not math.isfinite(self.cs):
            raise ValueError(f"cs must be finite, got {self.cs!r}")
        for k, v in self.eta.items():
            if not (isinstance(k, int) and k >= 1):
                raise ValueError(f"eta keys must be positive integers, got {k!r}")
            if not math.isfinite(float(v)):
                raise ValueError(f"eta[{k}] must be finite, got {v!r}")

    @property
    def complex_volume(self) -> ComplexVolume:
        return ComplexVolume(self.volume, 2.0 * PI_SQ * self.cs)

    def with_eta(self, k: int, value: float) -> "ManifoldInvariants":
        table = dict(self.eta)
        table[k] = value
        return replace(self, eta=table)

    def with_volume(self, volume: float) -> "ManifoldInvariants":
        return replace(self, volume=volume)

    def with_cs(self, cs: float) -> "ManifoldInvariants":
        return replace(self, cs=cs)


def parse_invariants(text: str) -> ManifoldInvariants:
    """Parse the invariants JSON document {"label", "volume", "cs", "eta": {"1": ...}}."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a decode error, an integer literal over the digit limit, or nesting
        # deeper than the recursion limit
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("top-level invariants document must be a JSON object")
    for key in ("volume", "cs"):
        if key not in doc:
            raise ValueError(f"missing required key {key!r}")
    eta_raw = doc.get("eta", {})
    if not isinstance(eta_raw, dict):
        raise ValueError("'eta' must be an object mapping weights to reals")
    eta = {}
    for k, v in eta_raw.items():
        try:
            ki = int(k)
        except ValueError:
            raise ValueError(f"eta key {k!r} is not an integer") from None
        eta[ki] = _real(f"eta[{k!r}]", v)
    return ManifoldInvariants(_real("volume", doc["volume"]), _real("cs", doc["cs"]), eta,
                              str(doc.get("label", "")))


def _real(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def serialize_invariants(inv: ManifoldInvariants) -> str:
    doc = {
        "label": inv.label,
        "volume": inv.volume,
        "cs": inv.cs,
        "eta": {str(k): inv.eta[k] for k in sorted(inv.eta)},
    }
    return json.dumps(doc, indent=2)


def eta_lookup(inv: ManifoldInvariants, k: int) -> float:
    """eta(D(sigma_k)) with the zero and antisymmetry rules applied.

    eta(D(sigma_0)) = 0 and eta(D(sigma_-k)) = -eta(D(sigma_k)); any other
    weight must be present in the table.
    """
    if k == 0:
        return 0.0
    try:
        base = inv.eta[abs(k)]
    except KeyError:
        raise EtaNotSuppliedError(abs(k)) from None
    return base if k > 0 else -base


def reflection_log_factor(inv: ManifoldInvariants, k: int, s: complex) -> complex:
    """log of the functional-equation factor relating Z(sigma_k, 1+s) to Z(sigma_-k, 1-s)."""
    s = complex(s)
    return (1j * math.pi * eta_lookup(inv, k)
            + (inv.volume / math.pi) * (s ** 3 / 3.0 - (k * k) * s / 4.0))


def reflect_selberg(inv: ManifoldInvariants, k: int, s: complex,
                    value_at_reflected: complex) -> complex:
    """Map Z(sigma_-k, 1-s) to Z(sigma_k, 1+s) through the functional equation."""
    return cmath.exp(reflection_log_factor(inv, k, s)) * value_at_reflected


def selberg_anywhere(spec: LengthSpectrum, inv: ManifoldInvariants, k: int,
                     s: complex, p: EvalParams) -> ZetaValue:
    """Z(sigma_k, s) for Re(s) > 2 (direct) or Re(s) < 0 (one reflection).

    In the reflected branch the convergent value Z(sigma_-k, 2-s) is computed
    first and the functional equation is applied with the substitution
    s -> s-1; the result is flagged "reflected".  Arguments in the strip
    0 <= Re(s) <= 2 are rejected.
    """
    from .zeta import FLAG_REFLECTED, ZetaValue, selberg_sigma

    s = complex(s)
    if s.real > 2.0:
        return selberg_sigma(spec, k, s, p)
    if s.real < 0.0:
        base = selberg_sigma(spec, -k, 2.0 - s, p)
        log_value = reflection_log_factor(inv, k, s - 1.0) + base.log_value
        return ZetaValue(cmath.exp(log_value), log_value, base.abs_error_bound,
                         base.heuristic_bound, False, base.l_cut,
                         base.flags + (FLAG_REFLECTED,))
    raise DomainError(
        f"strip not reachable by one reflection: Re(s)={s.real} lies in [0, 2]")
