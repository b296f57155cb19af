"""Primitive-geodesic length spectra: parsing, validation, power enumeration,
and truncation-tail bookkeeping.

A spectrum entry records one primitive closed geodesic of a closed hyperbolic
3-manifold through four numbers: the real length, the holonomy rotation angle
in [0, 2*pi), the sign of the chosen SL(2,C) lift (the branch that makes the
half-angle characters of odd weight well defined), and the number of primitive
conjugacy classes sharing this data.  An unoriented spectrum stores one entry
per geodesic pair {gamma, gamma^-1}, with the canonical representative's angle
in [0, pi]; every consumer then adds the mirror class (2*pi - theta, same
lift sign), reduced to [0, 2*pi) as ``power_holonomy`` reduces a power: a turn
of 2*pi flips the lift sign, so the mirror of (0, s) is (0, -s).  An input
angle outside [0, 2*pi) is reduced by the same rule.

``GeodesicEntry`` is the one row type for an entry, an expanded class (whose
index is its position in the expanded list) and a single power; the power
table's columns are the only vector form.

Spectra are immutable after construction and safe to share across threads.
The power enumeration of a spectrum is built once per (spectrum, l_cut) as a
read-only ``PowerTable`` of numpy columns, cached and shared by every
evaluator, so each Euler product is one array expression over that table,
summed correctly rounded (``numerics``, the value of ``math.fsum``).  The
table holds the entries' own powers only: on an unoriented spectrum each row
also stands for the same power of the entry's mirror, whose character the
evaluators fold into the row's (``zeta``), and whose length, weight and
Selberg denominator are the row's own.  Only the oracles enumerate mirrors
as classes of their own (``primitive_classes``).

Importing this module loads no numpy: parsing, validation and serialization
use the standard library only, and numpy is imported by the two functions
that build arrays (the power table and the growth fit), so ``geozeta
validate`` starts without it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import threading
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi


# Largest multiplicity an entry may carry: every integer up to 2^53 is exact as
# a float and fits the power table's int64 column.
MULTIPLICITY_MAX = 2 ** 53


class SpectrumError(ValueError):
    """Malformed or inconsistent spectrum data."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


@dataclass(frozen=True)
class GeodesicEntry:
    """One primitive closed geodesic: (length, angle, lift sign, multiplicity)."""

    length: float
    angle: float
    spin_sign: int
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.length, (int, float)) and self.length > 0 and math.isfinite(self.length)):
            raise SpectrumError(f"length must be a positive finite real, got {self.length!r}")
        if not (0.0 <= self.angle < TWO_PI):
            raise SpectrumError(f"angle must lie in [0, 2*pi), got {self.angle!r}")
        if self.spin_sign not in (1, -1):
            raise SpectrumError(f"spin_sign must be +1 or -1, got {self.spin_sign!r}")
        if not (isinstance(self.multiplicity, int) and 1 <= self.multiplicity <= MULTIPLICITY_MAX):
            raise SpectrumError(f"multiplicity must be a positive integer up to 2^53, "
                                f"got {self.multiplicity!r}")


@dataclass(frozen=True)
class LengthSpectrum:
    """Validated, sorted collection of primitive geodesics.

    ``l_max`` is the completeness cutoff: the spectrum claims to contain every
    primitive geodesic of length <= l_max.  ``oriented`` = False means each
    entry stands for the unoriented pair {gamma, gamma^-1}.
    """

    entries: tuple[GeodesicEntry, ...]
    l_max: float
    oriented: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.l_max > 0 and math.isfinite(self.l_max)):
            raise SpectrumError(f"l_max must be a positive finite real, got {self.l_max!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: set[tuple[float, float, int]] = set()
        prev = 0.0
        for i, e in enumerate(self.entries):
            if not isinstance(e, GeodesicEntry):
                raise SpectrumError(f"entries[{i}]: expected GeodesicEntry, got {type(e).__name__}")
            if e.length < prev:
                raise SpectrumError(f"entries[{i}]: entries must be sorted ascending by length")
            prev = e.length
            if e.length > self.l_max:
                raise SpectrumError(f"entries[{i}]: length {e.length} exceeds l_max {self.l_max}")
            if not self.oriented and e.angle > math.pi:
                raise SpectrumError(
                    f"entries[{i}]: unoriented spectra store the canonical representative, "
                    f"angle must lie in [0, pi], got {e.angle}"
                )
            key = (e.length, e.angle, e.spin_sign)
            if key in seen:
                raise SpectrumError(
                    f"entries[{i}]: duplicate (length, angle, spin_sign) triple; "
                    "merge duplicates into one entry via multiplicity"
                )
            seen.add(key)
        # every cache keyed on a spectrum hashes it; do the O(entries) work once
        object.__setattr__(self, "_hash", hash((self.entries, self.l_max, self.oriented,
                                                self.label)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def build(cls, entries: Iterable[GeodesicEntry], l_max: float, oriented: bool = True,
              label: str = "") -> "LengthSpectrum":
        """Construct from unsorted entries (sorts by length, then angle)."""
        ordered = sorted(entries, key=lambda e: (e.length, e.angle, e.spin_sign))
        return cls(tuple(ordered), l_max, oriented, label)

    def primitive_classes(self) -> tuple[GeodesicEntry, ...]:
        """Expanded class list: the entries themselves when oriented; otherwise
        each entry followed by its mirror, so entry i's mirror is class 2i + 1."""
        return _expanded_classes(self)

    def min_length(self) -> float:
        if not self.entries:
            raise SpectrumError("empty spectrum has no minimum length")
        return self.entries[0].length


@lru_cache(maxsize=128)
def _expanded_classes(spec: LengthSpectrum) -> tuple[GeodesicEntry, ...]:
    if spec.oriented:
        return spec.entries
    out: list[GeodesicEntry] = []
    for e in spec.entries:
        mirror = power_holonomy(e.length, TWO_PI - e.angle, e.spin_sign, 1)
        out += (e, GeodesicEntry(*mirror, e.multiplicity))
    return tuple(out)


def power_holonomy(length: float, angle: float, spin_sign: int, m: int) -> tuple[float, float, int]:
    """(length, angle, spin) of the m-th power, with the exact branch correction.

    The total angle m * angle is reduced to [0, 2*pi), and each turn of 2*pi
    taken off (or, for a negative total, added) flips the lift sign.
    """
    total = m * angle
    red = math.fmod(total, TWO_PI)
    wraps = int(round((total - red) / TWO_PI))
    if red < 0.0:  # a negative total: one turn fewer
        red += TWO_PI
        wraps -= 1
    if red >= TWO_PI:  # guard against fmod landing on the divisor through rounding
        red -= TWO_PI
        wraps += 1
    sign = (spin_sign if m % 2 else 1) * (-1 if wraps % 2 else 1)
    return m * length, red, sign


_TABLE_LOCK = threading.Lock()

# Most powers one table may stand for, mirrors counted (56 MB of columns:
# seven 8-byte columns per row, and an unoriented row stands for two powers).
# The largest table of the benchmark spectra stands for 14,590 powers.
POWER_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class PowerTable:
    """Every power gamma_0^m of an entry with total length <= l_cut, as
    read-only columns.

    Row i is the i-th power gamma_0^m in the fixed enumeration order: ``m``,
    the power's ``length``, ``angle`` and ``spin_sign`` as ``power_holonomy``
    gives them, and the entry's ``multiplicity``.
    ``weight`` is multiplicity / m, the log-series coefficient, and
    ``denominator`` is the Selberg factor
    (1 - e^-(L + i theta)) (1 - e^-(L - i theta)) = |1 - e^-(L + i theta)|^2.
    ``mirrored`` (an unoriented spectrum) means each row also stands for the
    m-th power of the entry's mirror: same length, weight and denominator,
    and the weight-k character (-1)^(mk) conj(sigma_k).
    """

    m: np.ndarray
    length: np.ndarray
    angle: np.ndarray
    spin_sign: np.ndarray
    multiplicity: np.ndarray
    weight: np.ndarray
    denominator: np.ndarray
    mirrored: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "mirrored":  # every other field is a column
                getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.m)


def powers_up_to(spec: LengthSpectrum, l_cut: float) -> PowerTable:
    """Every power gamma_0^m with total length m*l_0 <= l_cut, exactly once.

    Order is ascending total length, ties broken by entry index and then by
    m; fixed globally so all downstream summations are reproducible.  The
    table is built once per (spectrum, l_cut) and process, and shared.  An
    unoriented spectrum's mirrors get no rows of their own (``mirrored``).

    A table standing for more than ``POWER_BUDGET`` powers (10^6, each
    mirror counted) is refused with a ``DomainError`` before anything is
    allocated; the message names the total and the entry that needs the most
    powers.
    """
    if not (l_cut > 0):
        raise DomainError(f"l_cut must be positive, got {l_cut!r}")
    with _TABLE_LOCK:  # concurrent first calls must not build the table twice
        return _power_table(spec, l_cut)


@lru_cache(maxsize=32)
def _power_table(spec: LengthSpectrum, l_cut: float) -> PowerTable:
    # vectorized power_holonomy over every (entry, m), then the global sort
    import numpy as np

    entries = spec.entries
    base_length = np.array([e.length for e in entries], dtype=float)
    base_theta = np.array([e.angle for e in entries], dtype=float)
    base_spin = np.array([e.spin_sign for e in entries], dtype=np.int64)
    mult = np.array([e.multiplicity for e in entries], dtype=np.int64)
    m_top = np.floor(l_cut / base_length + 1e-12)
    total = float(m_top.sum()) * (1 if spec.oriented else 2)
    if not total <= POWER_BUDGET:
        worst = int(np.argmax(m_top))
        raise DomainError(
            f"power budget exceeded: l_cut {l_cut} needs {total:.0f} powers, more than "
            f"{POWER_BUDGET}; entries[{worst}] (length {float(base_length[worst])!r}) needs "
            f"{m_top[worst]:.0f} of them")
    m_top = m_top.astype(np.int64)
    base = np.repeat(np.arange(len(base_length), dtype=np.int64), m_top)
    starts = np.repeat(np.cumsum(m_top) - m_top, m_top)
    m = np.arange(len(base), dtype=np.int64) - starts + 1
    total = m * base_theta[base]
    red = np.fmod(total, TWO_PI)
    wraps = np.rint((total - red) / TWO_PI).astype(np.int64)
    over = red >= TWO_PI  # guard against fmod landing on the divisor through rounding
    red = np.where(over, red - TWO_PI, red)
    wraps = wraps + over
    sign = np.where(m % 2 == 1, base_spin[base], 1) * np.where(wraps % 2 == 1, -1, 1)
    length = m * base_length[base]
    order = np.lexsort((m, base, length))
    base, m, length, red, sign = base[order], m[order], length[order], red[order], sign[order]
    w = 1.0 - np.exp(-(length + 1j * red))
    return PowerTable(m, length, red, sign, mult[base], mult[base] / m,
                      w.real * w.real + w.imag * w.imag, not spec.oriented)


# ---------------------------------------------------------------------------
# Growth model and truncation tails

_FIT_SAFETY = 4.0


@dataclass(frozen=True)
class GrowthModel:
    """Exponential growth envelope N(L) <= (constant/2) * e^(2L).

    The exponent is pinned at 2, the universal convergence abscissa for
    cocompact groups; only the constant is estimated.  ``rigorous`` is False
    for fitted constants, and every error bound derived from them is flagged
    heuristic downstream.  A rigorous constant holds only for effective
    exponents in ``[a_min, a_max]``, the range its envelope was established
    on; a bound at any other exponent is flagged heuristic too.
    """

    constant: float
    rigorous: bool = False
    a_min: float = 2.0
    a_max: float = math.inf

    def covers(self, a: float) -> bool:
        """Whether a tail bound at effective exponent ``a`` is rigorous."""
        return self.rigorous and self.a_min <= a <= self.a_max

    @classmethod
    def fit(cls, spec: LengthSpectrum) -> "GrowthModel":
        """Heuristic constant: twice the envelope max N(L) e^(-2L) of the
        counts N(L) of (class, power) pairs of total length <= L with
        multiplicity, over the available powers, times a fixed safety factor."""
        return _fit_growth(spec)

    @classmethod
    def rigorous_envelope(cls, spec: LengthSpectrum, a_min: float = 2.05,
                          a_max: float = 16.0, n_a: int = 160) -> "GrowthModel":
        """Constant that provably dominates the full power-series tail of a
        finite synthetic spectrum, for effective exponents in [a_min, a_max].

        Valid because a finite class list has an exactly summable geometric
        tail; scans a log grid of exponents and all inter-power cut points.
        The model records the scanned range: a bound at an exponent outside
        it is flagged heuristic.  Intended for tests on synthetic data, not
        for real census spectra.
        """
        return _rigorous_growth(spec, a_min, a_max, n_a)


@lru_cache(maxsize=128)
def _fit_growth(spec: LengthSpectrum) -> GrowthModel:
    import numpy as np

    powers = powers_up_to(spec, spec.l_max)
    if not powers:
        return GrowthModel(0.0)
    # a mirrored row counts its mirror's power too
    count = np.cumsum(powers.multiplicity * (2 if powers.mirrored else 1))
    envelope = float(np.max(count * np.exp(-2.0 * powers.length)))
    return GrowthModel(2.0 * envelope * _FIT_SAFETY)


def _exact_ruelle_tail(spec: LengthSpectrum, a: float, l_cut: float) -> float:
    """Upper bound on sum over all powers with m*l0 > l_cut of e^(-a m l0).

    Closed-form geometric sums per class; drops the helpful 1/m factors, so
    this dominates every log-series tail with unit-modulus characters.
    """
    total = 0.0
    for cls in _expanded_classes(spec):
        r = math.exp(-a * cls.length)
        m_start = int(math.floor(l_cut / cls.length + 1e-12)) + 1
        total += cls.multiplicity * r ** m_start / (1.0 - r)
    return total


@lru_cache(maxsize=32)
def _rigorous_growth(spec: LengthSpectrum, a_min: float, a_max: float, n_a: int) -> GrowthModel:
    lengths = powers_up_to(spec, spec.l_max).length.tolist()
    if not lengths:
        return GrowthModel(0.0, rigorous=True)
    cuts = sorted({0.5 * spec.entries[0].length}
                  | {length * (1.0 - 1e-9) for length in lengths}
                  | set(lengths))
    best = 0.0
    ratio = (a_max / a_min) ** (1.0 / (n_a - 1))
    a = a_min
    for _ in range(n_a):
        for l_cut in cuts:
            tail = _exact_ruelle_tail(spec, a, l_cut)
            best = max(best, tail * (a - 2.0) * math.exp((a - 2.0) * l_cut))
        a *= ratio
    # margin for exponents between grid points
    return GrowthModel(best * 1.25, rigorous=True, a_min=a_min, a_max=a_max)


def tail_bound(spec: LengthSpectrum, re_s_effective: float, l_cut: float,
               growth: GrowthModel) -> float:
    """Bound on the absolute value of the omitted log-series tail beyond l_cut.

    C * e^(-(a-2) l_cut) / (a - 2) with a = re_s_effective, requiring a > 2
    (strictly inside the universal convergence half-plane).  Heuristic unless
    the growth model's constant is rigorous.
    """
    if re_s_effective <= 2.0:
        raise DomainError(
            f"re_s_effective must exceed 2 (outside convergence half-plane): {re_s_effective!r}")
    a = re_s_effective
    return growth.constant * math.exp(-(a - 2.0) * l_cut) / (a - 2.0)


# ---------------------------------------------------------------------------
# Serialization

def _entry_from_fields(where: str, length, angle, spin_sign, multiplicity) -> GeodesicEntry:
    try:
        length_f = float(length)
        angle_f = float(angle)
        spin_f = float(spin_sign)
        mult_f = float(multiplicity)
    except (TypeError, ValueError) as exc:
        raise SpectrumError(f"{where}: non-numeric field ({exc})") from None
    except OverflowError as exc:
        raise SpectrumError(f"{where}: numeric field too large for a float ({exc})") from None
    if not (math.isfinite(spin_f) and spin_f == int(spin_f)):
        raise SpectrumError(f"{where}: spin_sign must be +1 or -1, got {spin_sign!r}")
    if not (math.isfinite(mult_f) and mult_f == int(mult_f)):
        raise SpectrumError(f"{where}: multiplicity must be an integer, got {multiplicity!r}")
    spin = int(spin_f)
    if math.isfinite(angle_f):
        # reduced with its lift, as a power's angle is: each turn flips the
        # sign (a sign other than +1 or -1 is reported as given)
        _, angle_f, turn = power_holonomy(length_f, angle_f, 1, 1)
        if spin in (1, -1):
            spin *= turn
    try:
        return GeodesicEntry(length_f, angle_f, spin, int(mult_f))
    except SpectrumError as exc:
        raise SpectrumError(f"{where}: {exc}") from None


def parse_spectrum(text: str) -> LengthSpectrum:
    """Parse the canonical JSON spectrum document.

    Entries are normalized (angles reduced to [0, 2*pi) with their lift
    signs, as ``power_holonomy`` reduces them; sorted ascending by length).
    Duplicate (length, angle, spin_sign) triples are rejected: the producer
    must merge them via multiplicity.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a decode error, an integer literal over the digit limit, or nesting
        # deeper than the recursion limit
        raise SpectrumError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpectrumError("top-level document must be a JSON object")
    for key in ("l_max", "entries"):
        if key not in doc:
            raise SpectrumError(f"missing required key {key!r}")
    raw_entries = doc["entries"]
    if not isinstance(raw_entries, list):
        raise SpectrumError("'entries' must be a list")
    entries = []
    for i, item in enumerate(raw_entries):
        if not isinstance(item, dict):
            raise SpectrumError(f"entries[{i}]: must be an object")
        missing = [k for k in ("length", "angle", "spin_sign", "multiplicity") if k not in item]
        if missing:
            raise SpectrumError(f"entries[{i}]: missing fields {missing}")
        entries.append(_entry_from_fields(f"entries[{i}]", item["length"], item["angle"],
                                          item["spin_sign"], item["multiplicity"]))
    try:
        l_max = float(doc["l_max"])
    except (TypeError, ValueError):
        raise SpectrumError("'l_max' must be a number") from None
    except OverflowError:
        raise SpectrumError("'l_max' is too large for a float") from None
    oriented = doc.get("oriented", True)
    if not isinstance(oriented, bool):
        raise SpectrumError("'oriented' must be a boolean")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SpectrumError("'label' must be a string")
    return LengthSpectrum.build(entries, l_max, oriented, label)


def parse_spectrum_csv(text: str, l_max: float, oriented: bool = True,
                       label: str = "") -> LengthSpectrum:
    """Parse the CSV import format (header: length,angle,spin_sign,multiplicity).

    l_max arrives out of band (a sidecar flag in the CLI) because CSV has no
    place for document-level metadata.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text))
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise SpectrumError(f"not valid CSV: {exc}") from None
    if not rows:
        raise SpectrumError("empty CSV document")
    header = [c.strip() for c in rows[0]]
    if header != ["length", "angle", "spin_sign", "multiplicity"]:
        raise SpectrumError(
            f"line 1: expected header length,angle,spin_sign,multiplicity, "
            f"got {','.join(header)!r}")
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise SpectrumError(f"line {lineno}: expected 4 fields, got {len(row)}")
        entries.append(_entry_from_fields(f"line {lineno}", *[c.strip() for c in row]))
    return LengthSpectrum.build(entries, l_max, oriented, label)


def serialize_spectrum(spec: LengthSpectrum) -> str:
    """Canonical JSON form; parse_spectrum round-trips it field by field."""
    doc = {
        "label": spec.label,
        "oriented": spec.oriented,
        "l_max": spec.l_max,
        "entries": [
            {"length": e.length, "angle": e.angle, "spin_sign": e.spin_sign,
             "multiplicity": e.multiplicity}
            for e in spec.entries
        ],
    }
    return json.dumps(doc, indent=2)


def flip_spins(spec: LengthSpectrum) -> LengthSpectrum:
    """Swap the SL(2,C) lift branch of every entry (the other spin structure)."""
    return LengthSpectrum(
        tuple(GeodesicEntry(e.length, e.angle, -e.spin_sign, e.multiplicity)
              for e in spec.entries),
        spec.l_max, spec.oriented, spec.label)
