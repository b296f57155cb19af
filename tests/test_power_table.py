"""The cached power table and the vectorized evaluators that read it.

The per-power loops below are the scalar evaluators the vectorized ones
replaced; they stay here as the reference each array expression must match.
"""

import cmath
import dataclasses
import gc
import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from geozeta import spectrum as spectrum_module
from geozeta import zeta
from geozeta.chars import discriminant_D, sigma_char, trace_rho
from geozeta.continuation import ManifoldInvariants
from geozeta.heattrace import heat_trace_geometric
from geozeta.spectrum import (TWO_PI, GeodesicEntry, GrowthModel, LengthSpectrum, PowerTable,
                              flip_spins, power_holonomy, powers_up_to)
from geozeta.zeta import (EvalParams, _k_top, ruelle_sigma, selberg_sigma, zograf_F,
                          zograf_G)
from scalar_reference import CompensatedSum, listed_log_series

REL = 1e-13


SCALAR_COLUMNS = ("m", "length", "angle", "spin_sign", "multiplicity")


def scalar_rows(spec, l_cut, mirrors=True):
    """Every power of total length <= l_cut from one ``power_holonomy`` call
    each, as (length, class index, m, angle, sign, multiplicity, base length)
    in the table's order.

    With ``mirrors``, an unoriented spectrum's class 2i is entry i and class
    2i + 1 its mirror, whose powers are those of the unreduced
    (2*pi - theta, same sign), listed as powers of their own.  Without, only
    the entries' own powers: the rows of a power table.
    """
    classes = [(e.length, e.angle, e.spin_sign, e.multiplicity) for e in spec.entries]
    if mirrors and not spec.oriented:
        classes = [c for length, angle, sign, mult in classes
                   for c in ((length, angle, sign, mult), (length, TWO_PI - angle, sign, mult))]
    rows = []
    for index, (base, theta, spin, mult) in enumerate(classes):
        m_top = int(math.floor(l_cut / base + 1e-12))
        for m in range(1, m_top + 1):
            length, angle, sign = power_holonomy(base, theta, spin, m)
            rows.append((length, index, m, angle, sign, mult, base))
    return sorted(rows, key=lambda row: row[:3])


def scalar_powers(spec, l_cut):
    """The table's ``SCALAR_COLUMNS``, from ``scalar_rows`` without mirrors."""
    rows = scalar_rows(spec, l_cut, mirrors=False)
    length, _, m, angle, sign, mult, _ = (list(c) for c in zip(*rows)) if rows else [[]] * 7
    return dict(zip(SCALAR_COLUMNS, (m, length, angle, sign, mult)))


def enumerated_powers(spec, l_cut):
    """(the power's GeodesicEntry, m, base length) for every power of every
    class, mirrors listed on their own: independent of the table's fold."""
    return [(GeodesicEntry(length, angle, sign, mult), m, base)
            for length, _, m, angle, sign, mult, base in scalar_rows(spec, l_cut)]


def loop_ruelle_log(spec, k, s, l_cut):
    acc = CompensatedSum()
    for pw, m, _ in enumerated_powers(spec, l_cut):
        acc.add(-(pw.multiplicity / m) * sigma_char(pw, k) * cmath.exp(-s * pw.length))
    return acc.value


def loop_selberg_log(spec, k, s, l_cut):
    acc = CompensatedSum()
    for pw, m, _ in enumerated_powers(spec, l_cut):
        x = cmath.exp(complex(-pw.length, -pw.angle))
        y = cmath.exp(complex(-pw.length, pw.angle))
        acc.add(-(pw.multiplicity / m) * sigma_char(pw, k) * cmath.exp(-s * pw.length)
                / ((1.0 - x) * (1.0 - y)))
    return acc.value


def loop_zograf_log(spec, s, l_cut, layer_char, layer_shift):
    acc = CompensatedSum()
    for pw, m, _ in enumerated_powers(spec, l_cut):
        for k in range(_k_top(spec) + 1):
            acc.add(-(pw.multiplicity / m) * sigma_char(pw, layer_char(k))
                    * cmath.exp(-(s + layer_shift(k)) * pw.length))
    return acc.value


def heat_hyperbolic_terms(spec, m, p, t, l_cut):
    gauss = 1.0 / math.sqrt(4.0 * math.pi * t)
    for pw, _, base_length in enumerated_powers(spec, l_cut):
        weight = 1.0 if p == 0 else 2.0 * math.cos(pw.angle)
        yield (pw.multiplicity * base_length * trace_rho(pw, m) / discriminant_D(pw)
               * weight * gauss * math.exp(-pw.length ** 2 / (4.0 * t)))


def loop_heat_hyperbolic(spec, m, p, t, l_cut):
    acc = CompensatedSum()
    for term in heat_hyperbolic_terms(spec, m, p, t, l_cut):
        acc.add(term)
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
    # an angle-0 mirror: a power of the unreduced 2*pi reduces to just below
    # 2*pi, where the mirror reduced first would give 0.0
    @example([(0.25, 0.0, 1, 1)], False, 3.0)
    @given(st.lists(st.tuples(st.floats(0.2, 3.0), angles, st.sampled_from([1, -1]),
                              st.integers(1, 3)),
                    max_size=8, unique_by=lambda t: t[0]),
           st.booleans(), st.floats(0.5, 12.0))
    def test_bit_for_bit(self, rows, oriented, l_cut):
        # an oriented table is the one its entries' powers always gave; an
        # unoriented one holds the same rows, each also standing for its mirror
        entries = [GeodesicEntry(length, angle if oriented else angle / 2.0, spin, mult)
                   for length, angle, spin, mult in rows]
        spec = LengthSpectrum.build(entries, 12.0, oriented)
        table = powers_up_to(spec, l_cut)
        assert table.mirrored is (not oriented)
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
        # the medium fixture is unoriented: one row per entry's power, half
        # the powers of its classes
        table = powers_up_to(medium_spec, medium_spec.l_max)
        assert len(table) == len(scalar_powers(medium_spec, medium_spec.l_max)["m"])
        assert 2 * len(table) == len(scalar_rows(medium_spec, medium_spec.l_max))
        assert powers_up_to(medium_spec, medium_spec.l_max) is table


def test_the_columns_are_those_the_evaluators_read():
    assert [f.name for f in dataclasses.fields(PowerTable)] == [
        "m", "length", "angle", "spin_sign", "multiplicity", "weight", "denominator", "mirrored"]
    assert not hasattr(PowerTable, "__iter__")


def test_columns_are_read_only(small_spec):
    table = powers_up_to(small_spec, small_spec.l_max)
    for field in dataclasses.fields(table)[:-1]:
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


def explicit_mirrors(spec):
    """An unoriented spectrum's classes (``primitive_classes``: each entry and
    its mirror) as the entries of an oriented one; a mirror that coincides
    with an entry, as at angle pi, merges into it."""
    merged = Counter()
    for c in spec.primitive_classes():
        merged[c.length, c.angle, c.spin_sign] += c.multiplicity
    return LengthSpectrum.build([GeodesicEntry(*key, mult) for key, mult in merged.items()],
                                spec.l_max)


unoriented_angles = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))


class TestFoldedMirrorsMatchExplicitMirrors:
    """An unoriented table folds each mirror into its entry's row; the
    evaluators must agree with the same spectrum whose mirrors are listed as
    classes of their own, whose tables hold both."""

    @settings(max_examples=40, deadline=None)
    @example([(0.5, 0.0, -1, 2), (0.8, math.pi, 1, 3), (1.1, math.pi, -1, 1)])
    # the heat trace at m = 2, p = 0, t = 0.8 cancels to 7.5e-4, and the two
    # tables' sums differ by 4.8e-13 of it: the terms' rounding, not a fault
    @example([(1.0, 1.359375, 1, 2), (2.0, 1.71875, 1, 3), (2.375, 2.125, 1, 3),
              (0.75, 2.0, 1, 1)])
    @given(st.lists(st.tuples(st.floats(0.3, 3.0), unoriented_angles, st.sampled_from([1, -1]),
                              st.integers(1, 3)),
                    min_size=1, max_size=5, unique_by=lambda t: t[0]))
    def test_every_evaluator(self, rows):
        spec = LengthSpectrum.build([GeodesicEntry(*row) for row in rows], 8.0, oriented=False)
        listed = explicit_mirrors(spec)
        assert powers_up_to(spec, 8.0).mirrored and not powers_up_to(listed, 8.0).mirrored
        assert GrowthModel.fit(spec) == GrowthModel.fit(listed)
        p = EvalParams.for_spectrum(spec)
        for k in (-3, 0, 1, 2):
            for s in (2.5 + 0.4j, 3.0):
                for evaluate in (ruelle_sigma, selberg_sigma):
                    got, want = evaluate(spec, k, s, p), evaluate(listed, k, s, p)
                    assert close(got.value, want.value)
                    assert (got.abs_error_bound, got.flags) == (want.abs_error_bound, want.flags)
        for zograf, n, s in ((zograf_F, 2, 0.3 + 0.2j), (zograf_G, 1, 0.7 - 0.1j)):
            got, want = (zograf(x, n, s, p, method="direct") for x in (spec, listed))
            assert close(got.value, want.value)
            # the k-tail counts each mirror's power: the bounds agree bit for bit
            assert (got.abs_error_bound, got.flags) == (want.abs_error_bound, want.flags)
        inv = ManifoldInvariants(3.0, 0.0)
        for form in (0, 1):
            for m in (0, 1, 2):
                got, want = (heat_trace_geometric(x, inv, m, form, 0.8, p) for x in (spec, listed))
                # the sum cancels: its rounding scales with the terms' magnitudes
                scale = math.fsum(abs(term) for term in
                                  heat_hyperbolic_terms(listed, m, form, 0.8, p.l_cut))
                assert abs(got.hyperbolic_term - want.hyperbolic_term) <= REL * scale
                assert got.tail_bound == want.tail_bound


def test_an_oriented_table_sums_as_every_power_listed(small_spec, invariants):
    # an oriented table folds nothing: each coefficient column is the
    # character the kernel always computed, so every sum keeps its bits
    for spec in (small_spec, flip_spins(small_spec)):
        table = powers_up_to(spec, spec.l_max)
        ks, ss = [-3, -2, 0, 1, 5, 7], [2.5 + 0.3j, 3.0, 4.0 - 1.7j, 2.2, 5.5 + 2j, 3.25]
        for selberg in (False, True):
            assert same_bits(zeta._log_series(table, ks, ss, selberg),
                             listed_log_series(table, ks, ss, selberg))
        shift, factor = -table.length ** 2 / 2.4, -table.length * 2.0 * np.cos(table.angle)
        ws = list(range(4, -5, -2))
        assert same_bits(
            zeta._log_series(table, ws, [1.0 - 0.5 * w for w in ws], True, shift, factor),
            listed_log_series(table, ws, [1.0 - 0.5 * w for w in ws], True, shift, factor))


def same_bits(got, want):
    return [(z.real.hex(), z.imag.hex()) for z in got] == \
        [(z.real.hex(), z.imag.hex()) for z in want]


class TestCoefficientColumns:
    def test_each_column_is_built_once_and_kept_with_its_table(self):
        spec = LengthSpectrum.build([GeodesicEntry(1.1 + 0.1 * i, 0.3 * i, 1, 1)
                                     for i in range(6)], 9.0, oriented=False)
        table = powers_up_to(spec, 9.0)
        first = zeta._coefficients(table, [3, -1])
        kept = zeta._COLUMNS[table]
        assert sorted(kept) == [-1, 3]
        assert not kept[3].flags.writeable
        again = zeta._coefficients(table, [-1, 3, -1])
        assert np.array_equal(again, first[[1, 0, 1]])
        # a folded column is 2 Re or 2i Im of the character, weight included
        chi = np.exp(1.5j * table.angle) * table.spin_sign
        odd = table.m % 2 == 1
        want = -table.weight * np.where(odd, 2j * chi.imag, 2.0 * chi.real)
        assert np.allclose(first[0], want, rtol=1e-15, atol=0.0)
        assert np.all(first[0].real[odd] == 0.0) and np.all(first[0].imag[~odd] == 0.0)

    def test_the_budget_keeps_the_first_columns_and_flushes_nothing(self, monkeypatch):
        spec = LengthSpectrum.build([GeodesicEntry(1.3 + 0.1 * i, 0.2 * i, -1, 2)
                                     for i in range(4)], 9.0)
        table = powers_up_to(spec, 9.0)
        size = sys.getsizeof(np.empty(len(table), complex))
        monkeypatch.setattr(zeta, "COLUMN_CACHE_BYTES", 5 * size)
        zeta._coefficients(table, [0, 1])
        rows = zeta._coefficients(table, list(range(2, 40)))  # many weights in one call
        assert sorted(zeta._COLUMNS[table]) == [0, 1, 2, 3, 4]
        assert np.array_equal(rows[-1], zeta._coefficients(table, [39])[0])
        assert sorted(zeta._COLUMNS[table]) == [0, 1, 2, 3, 4]

    def test_a_freed_table_drops_its_columns(self):
        spec = LengthSpectrum.build([GeodesicEntry(1.7, 0.9, 1, 1)], 7.0)
        table = spectrum_module._power_table.__wrapped__(spec, 7.0)  # built, not cached
        zeta._coefficients(table, [2])
        tables = len(zeta._COLUMNS)
        del table
        gc.collect()
        assert len(zeta._COLUMNS) == tables - 1


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
