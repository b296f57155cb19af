"""The vectorized brute-force Selberg oracle and its log(1 - x) helper.

``scalar_selberg_rho_bruteforce`` and ``scalar_selberg_sigma_bruteforce`` are
the per-term double-product loops the array kernel replaced, kept verbatim
as the reference it must match.  ``scalar_reference.double_product`` is the
one-class-at-a-time array loop the chunked oracle replaced; the oracle must
equal it bit for bit.
"""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geozeta import identities
from geozeta import spectrum as spectrum_module
from geozeta.chars import eigenvalue, sigma_char
from geozeta.identities import (_default_pq_max, selberg_rho_bruteforce,
                                selberg_sigma_bruteforce)
from geozeta.numerics import log1m_array
from geozeta.spectrum import GeodesicEntry, LengthSpectrum, flip_spins
from scalar_reference import CompensatedSum, double_product, log1m

REL = 1e-13


def scalar_selberg_sigma_bruteforce(spec, k, s, pq_max=None):
    """Literal (p, q) double product, truncated at p + q <= pq_max."""
    s = complex(s)
    if pq_max is None:
        pq_max = _default_pq_max(spec)
    acc = CompensatedSum()
    for cls in spec.primitive_classes():
        sig = sigma_char(cls, k)
        a = cmath.exp(-complex(cls.length, cls.angle))
        b = cmath.exp(-complex(cls.length, -cls.angle))
        t = cmath.exp(-s * cls.length)
        for pp in range(pq_max + 1):
            ap = a ** pp
            for qq in range(pq_max + 1 - pp):
                acc.add(cls.multiplicity * log1m(sig * ap * b ** qq * t))
    return cmath.exp(acc.value)


def scalar_selberg_rho_bruteforce(spec, m, k, s, pq_max=None):
    """Literal chi = rho_m double product with per-(p, q) determinant factors."""
    s = complex(s)
    if pq_max is None:
        pq_max = _default_pq_max(spec)
    acc = CompensatedSum()
    for cls in spec.primitive_classes():
        sig = sigma_char(cls, k)
        lam = eigenvalue(cls)
        eigen = [lam ** (m - 2 * j) for j in range(m + 1)]
        a = cmath.exp(-complex(cls.length, cls.angle))
        b = cmath.exp(-complex(cls.length, -cls.angle))
        t = cmath.exp(-s * cls.length)
        for pp in range(pq_max + 1):
            ap = a ** pp
            for qq in range(pq_max + 1 - pp):
                c = sig * ap * b ** qq * t
                for ev in eigen:
                    acc.add(cls.multiplicity * log1m(ev * c))
    return cmath.exp(acc.value)


def close(got, want, rel=REL):
    return abs(got - want) <= rel * abs(want)


def same_bits(got: complex, want: complex) -> bool:
    return (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


classes = st.lists(st.tuples(st.floats(1.0, 3.0), st.floats(0.0, 2 * math.pi, exclude_max=True),
                             st.sampled_from([1, -1]), st.integers(1, 2)),
                   min_size=1, max_size=3, unique_by=lambda t: t[0])


class TestBruteforceMatchesScalarLoop:
    @settings(max_examples=40, deadline=None)
    @given(classes, st.booleans(), st.booleans(), st.integers(0, 3), st.integers(-5, 5),
           st.floats(0.2, 1.5), st.floats(-2.0, 2.0),
           st.one_of(st.none(), st.integers(0, 12)))
    def test_rho(self, rows, oriented, flipped, m, k, re_margin, im, pq_max):
        entries = [GeodesicEntry(length, angle if oriented else angle / 2.0, spin, mult)
                   for length, angle, spin, mult in rows]
        spec = LengthSpectrum.build(entries, 12.0, oriented)
        if flipped:
            spec = flip_spins(spec)
        s = complex(2.0 + m / 2 + re_margin, im)
        got = selberg_rho_bruteforce(spec, m, k, s, pq_max)
        assert close(got, scalar_selberg_rho_bruteforce(spec, m, k, s, pq_max))
        assert same_bits(got, double_product(spec, m, k, s, pq_max))

    @pytest.mark.parametrize("k", [-3, 0, 1, 2])
    def test_sigma_fixtures(self, small_spec, medium_spec, k):
        for spec in (small_spec, flip_spins(small_spec), medium_spec):
            for s, pq_max in ((2.6 + 0.3j, None), (3.4 - 1.1j, 5)):
                got = selberg_sigma_bruteforce(spec, k, s, pq_max)
                assert close(got, scalar_selberg_sigma_bruteforce(spec, k, s, pq_max))
                assert got == selberg_rho_bruteforce(spec, 0, k, s, pq_max)

    @pytest.mark.parametrize("m,k", [(1, 0), (2, 2), (3, -1)])
    def test_rho_medium_default_pq_max(self, medium_spec, m, k):
        s = complex(3.0 + m / 2, 0.3)
        assert close(selberg_rho_bruteforce(medium_spec, m, k, s),
                     scalar_selberg_rho_bruteforce(medium_spec, m, k, s))

    def test_multiplicity_two_squares_the_value(self):
        one = LengthSpectrum.build([GeodesicEntry(1.2, 0.8, -1, 1)], 20.0)
        two = LengthSpectrum.build([GeodesicEntry(1.2, 0.8, -1, 2)], 20.0)
        s = 3.3 + 0.4j
        assert close(selberg_rho_bruteforce(two, 2, 1, s),
                     selberg_rho_bruteforce(one, 2, 1, s) ** 2)

    def test_empty_spectrum_is_one(self):
        empty = LengthSpectrum.build([], 5.0)
        assert selberg_rho_bruteforce(empty, 2, 0, 4.0) == 1.0
        assert selberg_sigma_bruteforce(empty, 1, 4.0) == 1.0
        assert same_bits(selberg_rho_bruteforce(empty, 2, 0, 4.0),
                         double_product(empty, 2, 0, 4.0, None))

    def test_reads_no_power_table(self):
        # the oracle is the independent route: it must not touch the power table
        spec = LengthSpectrum.build([GeodesicEntry(1.37, 0.4, 1, 1)], 9.0)
        before = spectrum_module._power_table.cache_info()
        selberg_rho_bruteforce(spec, 2, 0, 3.5)
        selberg_sigma_bruteforce(spec, 1, 3.5)
        after = spectrum_module._power_table.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def specgen_shaped(seed: int, entries: int, systole: float = 2.0, width: float = 2.5,
                   oriented: bool = False) -> LengthSpectrum:
    """Lengths with density proportional to e^(2L) on [systole, systole + width],
    the first at the systole; uniform angles, lift signs and multiplicities 1-2."""
    rng = random.Random(seed)
    top = math.pi if not oriented else 2 * math.pi
    lengths = [systole] + [systole + 0.5 * math.log1p(rng.random() * math.expm1(2 * width))
                           for _ in range(entries - 1)]
    return LengthSpectrum.build(
        [GeodesicEntry(length, rng.uniform(0.0, top), rng.choice((1, -1)), rng.randint(1, 2))
         for length in lengths], systole + width, oriented)


class TestChunkedOracleMatchesPerClassLoop:
    @pytest.mark.parametrize("m,k", [(0, 0), (1, 0), (2, 2), (3, -1)])
    def test_fixtures(self, small_spec, medium_spec, m, k):
        for spec in (small_spec, flip_spins(small_spec), medium_spec, flip_spins(medium_spec)):
            for s, pq_max in ((3.0 + m / 2 + 0.3j, None), (3.7 + m / 2 - 1.1j, 5)):
                assert same_bits(selberg_rho_bruteforce(spec, m, k, s, pq_max),
                                 double_product(spec, m, k, s, pq_max))

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    @pytest.mark.parametrize("n_classes", [1, 2, 3, 4, 5, 7])
    def test_chunk_boundaries(self, monkeypatch, per_chunk, n_classes):
        # pq_max 4 gives 15 (p, q) pairs; m = 1 gives two weights
        monkeypatch.setattr(identities, "ORACLE_CHUNK", per_chunk * 2 * 15 + 1)
        spec = specgen_shaped(n_classes, n_classes, systole=1.0, width=1.5, oriented=True)
        s = 3.1 + 0.4j
        assert same_bits(selberg_rho_bruteforce(spec, 1, 1, s, 4),
                         double_product(spec, 1, 1, s, 4))

    def test_memory_is_bounded_by_the_chunk(self):
        # 4000 classes of 1134 factors each: 72 MB as one array, 256 kB a chunk
        spec = specgen_shaped(5, 2000)
        assert len(spec.primitive_classes()) * 3 * 378 > 4_000_000
        tracemalloc.start()
        try:
            selberg_rho_bruteforce(spec, 2, 2, 4.0 + 0.3j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestLog1mArray:
    @pytest.mark.parametrize("modulus", [1e-300, 1e-20, 1e-17])
    def test_tiny(self, modulus):
        phases = np.linspace(-math.pi, math.pi, 37)
        x = modulus * np.exp(1j * phases)
        got = log1m_array(x)
        for xi, gi in zip(x.tolist(), got.tolist()):
            want = log1m(xi)
            assert abs(gi - want) <= 2e-16 * abs(want)

    def test_near_one_half(self):
        phases = np.linspace(-math.pi, math.pi, 37)
        for modulus in (0.49, math.nextafter(0.5, 0.0), 0.5, 0.51):
            x = modulus * np.exp(1j * phases)
            for xi, gi in zip(x.tolist(), log1m_array(x).tolist()):
                want = cmath.log(1.0 - xi)
                assert abs(gi - want) <= 1e-15 * abs(want)
                assert abs(gi - log1m(xi)) <= 1e-15 * abs(want)

    def test_one_minus_x_rounds_to_one(self):
        # real x this small leaves 1 - x == 1; the answer must still be ~ -x
        xs = [2.0 ** -54, -(2.0 ** -53), 1e-17, -1e-17, 3e-20, 1e-300, 0.0]
        x = np.array(xs, dtype=complex)
        assert np.all(1.0 - x == 1.0)
        got = log1m_array(x)
        for xi, gi in zip(xs, got.tolist()):
            assert gi == -xi or abs(gi + xi) <= 2e-16 * abs(xi)

    def test_subnormal_imaginary_part(self):
        x = np.array([1e-300 + 1e-310j, 1e-310j, -1e-310 + 1e-300j])
        got = log1m_array(x)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, -x, rtol=1e-15, atol=0.0)

    def test_scattered_moduli_against_reference(self):
        rng = np.random.default_rng(7)
        moduli = 10.0 ** rng.uniform(-25.0, math.log10(0.49), 400)
        x = moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, 400))
        for xi, gi in zip(x.tolist(), log1m_array(x).tolist()):
            want = log1m(xi)
            assert abs(gi - want) <= 1e-15 * abs(want)
