"""The cached power table and the vectorized evaluators that read it.

The per-power loops below are the scalar evaluators the vectorized ones
replaced; they stay here as the reference each array expression must match.
"""

import cmath
import dataclasses
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geozeta import spectrum as spectrum_module
from geozeta.chars import discriminant_D, sigma_char, trace_rho
from geozeta.heattrace import heat_trace_geometric
from geozeta.spectrum import (TWO_PI, GeodesicEntry, LengthSpectrum, PowerTable, flip_spins,
                              power_holonomy, powers_up_to)
from geozeta.zeta import (EvalParams, _k_top, ruelle_sigma, selberg_sigma, zograf_F,
                          zograf_G)
from scalar_reference import CompensatedSum, power_rows

REL = 1e-13


SCALAR_COLUMNS = ("m", "length", "angle", "spin_sign", "multiplicity", "base_length")


def scalar_powers(spec, l_cut):
    """The table's ``SCALAR_COLUMNS`` from one ``power_holonomy`` call per power."""
    rows = []
    for index, cls in enumerate(spec.primitive_classes()):
        m_top = int(math.floor(l_cut / cls.length + 1e-12))
        for m in range(1, m_top + 1):
            length, angle, sign = power_holonomy(cls.length, cls.angle, cls.spin_sign, m)
            rows.append((length, index, m, angle, sign, cls.multiplicity, cls.length))
    rows.sort(key=lambda row: row[:3])
    length, _, m, angle, sign, mult, base = (list(c) for c in zip(*rows)) if rows else [[]] * 7
    return dict(zip(SCALAR_COLUMNS, (m, length, angle, sign, mult, base)))


def loop_ruelle_log(spec, k, s, l_cut):
    acc = CompensatedSum()
    for pw, m, _ in power_rows(powers_up_to(spec, l_cut)):
        acc.add(-(pw.multiplicity / m) * sigma_char(pw, k) * cmath.exp(-s * pw.length))
    return acc.value


def loop_selberg_log(spec, k, s, l_cut):
    acc = CompensatedSum()
    for pw, m, _ in power_rows(powers_up_to(spec, l_cut)):
        x = cmath.exp(complex(-pw.length, -pw.angle))
        y = cmath.exp(complex(-pw.length, pw.angle))
        acc.add(-(pw.multiplicity / m) * sigma_char(pw, k) * cmath.exp(-s * pw.length)
                / ((1.0 - x) * (1.0 - y)))
    return acc.value


def loop_zograf_log(spec, s, l_cut, layer_char, layer_shift):
    acc = CompensatedSum()
    for pw, m, _ in power_rows(powers_up_to(spec, l_cut)):
        for k in range(_k_top(spec) + 1):
            acc.add(-(pw.multiplicity / m) * sigma_char(pw, layer_char(k))
                    * cmath.exp(-(s + layer_shift(k)) * pw.length))
    return acc.value


def loop_heat_hyperbolic(spec, m, p, t, l_cut):
    acc = CompensatedSum()
    gauss = 1.0 / math.sqrt(4.0 * math.pi * t)
    for pw, _, base_length in power_rows(powers_up_to(spec, l_cut)):
        weight = 1.0 if p == 0 else 2.0 * math.cos(pw.angle)
        acc.add(pw.multiplicity * base_length * trace_rho(pw, m) / discriminant_D(pw)
                * weight * gauss * math.exp(-pw.length ** 2 / (4.0 * t)))
    return acc.value


def close(got, want, rel=REL):
    return abs(got - want) <= rel * abs(want)


angles = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(TWO_PI - 1e-9, TWO_PI, exclude_max=True),  # exercises the fmod guard
    st.just(math.nextafter(TWO_PI, 0.0)),
)


class TestTableMatchesScalarEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.2, 3.0), angles, st.sampled_from([1, -1]),
                              st.integers(1, 3)),
                    max_size=8, unique_by=lambda t: t[0]),
           st.booleans(), st.floats(0.5, 12.0))
    def test_bit_for_bit(self, rows, oriented, l_cut):
        entries = [GeodesicEntry(length, angle if oriented else angle / 2.0, spin, mult)
                   for length, angle, spin, mult in rows]
        spec = LengthSpectrum.build(entries, 12.0, oriented)
        table = powers_up_to(spec, l_cut)
        want = scalar_powers(spec, l_cut)
        for name, column in want.items():
            got = getattr(table, name).tolist()
            assert got == column, name
            # same Python types, not just equal values
            assert [type(v) for v in got] == [type(v) for v in column], name
        assert table.weight.tolist() == [mu / m for mu, m in zip(want["multiplicity"], want["m"])]
        for d, length, angle in zip(table.denominator.tolist(), want["length"], want["angle"]):
            x = cmath.exp(complex(-length, -angle))
            assert close(d, ((1.0 - x) * (1.0 - x.conjugate())).real, 1e-15)

    def test_len_and_cache(self, medium_spec):
        table = powers_up_to(medium_spec, medium_spec.l_max)
        assert len(table) == len(scalar_powers(medium_spec, medium_spec.l_max)["m"])
        assert powers_up_to(medium_spec, medium_spec.l_max) is table


def test_the_columns_are_the_eight_the_evaluators_read():
    assert [f.name for f in dataclasses.fields(PowerTable)] == [
        "m", "length", "angle", "spin_sign", "multiplicity", "base_length", "weight",
        "denominator"]
    assert not hasattr(PowerTable, "__iter__")


def test_columns_are_read_only(small_spec):
    table = powers_up_to(small_spec, small_spec.l_max)
    for field in dataclasses.fields(table):
        with pytest.raises(ValueError):
            getattr(table, field.name)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.length = table.length.copy()


def specs(small_spec, medium_spec):
    return [small_spec, medium_spec, flip_spins(small_spec), flip_spins(medium_spec)]


POINTS = (2.5 + 0.3j, 3.1, 4.0 - 1.7j)


class TestEvaluatorsMatchPerPowerLoops:
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
    def test_ruelle_and_selberg(self, small_spec, medium_spec, k):
        for spec in specs(small_spec, medium_spec):
            p = EvalParams.for_spectrum(spec)
            for s in POINTS:
                assert close(ruelle_sigma(spec, k, s, p).log_value,
                             loop_ruelle_log(spec, k, s, p.l_cut))
                assert close(selberg_sigma(spec, k, s, p).log_value,
                             loop_selberg_log(spec, k, s, p.l_cut))

    @pytest.mark.parametrize("n", [1, 3])
    def test_zograf_direct(self, small_spec, medium_spec, n):
        for spec in specs(small_spec, medium_spec):
            p = EvalParams.for_spectrum(spec)
            for s in (0.0, 0.4 + 0.5j):
                f = zograf_F(spec, n, s, p, method="direct").log_value
                assert close(f, loop_zograf_log(spec, s, p.l_cut, lambda j: -2 * (n + j),
                                                lambda j: n + j))
                g = zograf_G(spec, n, s, p, method="direct").log_value
                assert close(g, loop_zograf_log(spec, s, p.l_cut, lambda j: -(2 * (n + j) + 1),
                                                lambda j: n + j + 0.5))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_heat_trace(self, small_spec, medium_spec, invariants, m):
        for spec in specs(small_spec, medium_spec):
            p = EvalParams.for_spectrum(spec)
            for form in (0, 1):
                for t in (0.05, 1.0, 6.0):
                    got = heat_trace_geometric(spec, invariants, m, form, t, p).hyperbolic_term
                    assert close(got, loop_heat_hyperbolic(spec, m, form, t, p.l_cut))


def test_one_build_under_thread_contention():
    # a spectrum no other test builds, so every thread starts on a cold cache
    spec = LengthSpectrum.build([GeodesicEntry(0.7 + 0.01 * i, 0.15 * i, 1, 1)
                                 for i in range(40)], 11.0)
    builds = spectrum_module._power_table.cache_info().misses
    p = EvalParams.for_spectrum(spec)
    start = threading.Barrier(8)
    results = [None] * 8

    def work(i):
        start.wait(timeout=60)
        results[i] = (powers_up_to(spec, p.l_cut), selberg_sigma(spec, 3, 3.0 + 0.2j, p))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert spectrum_module._power_table.cache_info().misses == builds + 1
    assert all(table is results[0][0] for table, _ in results)
    assert all(value == results[0][1] for _, value in results)
