import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geozeta.spectrum import (POWER_BUDGET, DomainError, GeodesicEntry, GrowthModel,
                              LengthSpectrum, SpectrumError, flip_spins, parse_spectrum,
                              parse_spectrum_csv, power_holonomy, powers_up_to,
                              serialize_spectrum, tail_bound)

TWO_PI = 2.0 * math.pi


def make_doc(entries, l_max=2.0, oriented=True, label="t"):
    return json.dumps({"label": label, "oriented": oriented, "l_max": l_max,
                       "entries": entries})


def entry(length, angle, spin=1, mult=1):
    return {"length": length, "angle": angle, "spin_sign": spin, "multiplicity": mult}


class TestParse:
    def test_empty_entries(self):
        spec = parse_spectrum(make_doc([], l_max=1.0))
        assert spec.entries == ()
        assert spec.l_max == 1.0

    def test_single_entry_normalized(self):
        spec = parse_spectrum(make_doc([entry(0.5, 1.0)], l_max=2.0))
        assert len(spec.entries) == 1
        assert spec.entries[0] == GeodesicEntry(0.5, 1.0, 1, 1)

    def test_out_of_order_sorted(self):
        spec = parse_spectrum(make_doc([entry(1.5, 0.2), entry(0.5, 0.1)]))
        assert [e.length for e in spec.entries] == [0.5, 1.5]

    def test_angle_reduced(self):
        # each turn of 2*pi taken off or added flips the lift sign
        spec = parse_spectrum(make_doc([entry(1.0, 7.0)]))
        assert abs(spec.entries[0].angle - (7.0 - TWO_PI)) < 1e-15
        assert spec.entries[0].spin_sign == -1
        spec = parse_spectrum(make_doc([entry(1.0, -1.0, spin=-1)]))
        assert abs(spec.entries[0].angle - (TWO_PI - 1.0)) < 1e-15
        assert spec.entries[0].spin_sign == 1
        spec = parse_spectrum(make_doc([entry(1.0, 2 * TWO_PI + 0.5)]))
        assert abs(spec.entries[0].angle - 0.5) < 1e-14
        assert spec.entries[0].spin_sign == 1
        spec = parse_spectrum_csv("length,angle,spin_sign,multiplicity\n1.0,7.0,-1,1\n", 2.0)
        assert spec.entries[0].spin_sign == 1
        # the reduced class is the one given: the same weight-1 character
        for angle in (7.0, -1.0):
            e = parse_spectrum(make_doc([entry(1.0, angle)])).entries[0]
            assert cmath.isclose(e.spin_sign * cmath.exp(0.5j * e.angle),
                                 cmath.exp(0.5j * angle), abs_tol=1e-15)

    def test_round_trip(self, medium_spec):
        again = parse_spectrum(serialize_spectrum(medium_spec))
        assert again == medium_spec

    @pytest.mark.parametrize("bad", [
        "not json", "[1,2]", json.dumps({"entries": []}),
        make_doc([{"length": 1.0}]),
        make_doc([entry(-1.0, 0.0)]),
        make_doc([entry(1.0, 0.0, mult=0)]),
        make_doc([entry(3.0, 0.0)], l_max=2.0),
        make_doc([entry(1.0, 0.3), entry(1.0, 0.3)]),
        make_doc([entry(1.0, 0.0, spin=2)]),
        make_doc([entry(1.0, 4.0)], oriented=False),
    ])
    def test_rejects(self, bad):
        with pytest.raises(SpectrumError):
            parse_spectrum(bad)

    def test_duplicates_must_be_merged(self):
        with pytest.raises(SpectrumError, match="multiplicity"):
            parse_spectrum(make_doc([entry(1.0, 0.3), entry(1.0, 0.3)]))


class TestCsv:
    def test_import(self):
        text = "length,angle,spin_sign,multiplicity\n0.5,1.0,1,1\n1.5,2.0,-1,2\n"
        spec = parse_spectrum_csv(text, l_max=2.0, label="csv")
        assert [e.length for e in spec.entries] == [0.5, 1.5]
        assert spec.entries[1].spin_sign == -1
        assert spec.entries[1].multiplicity == 2

    def test_bad_header(self):
        with pytest.raises(SpectrumError, match="line 1"):
            parse_spectrum_csv("a,b,c,d\n1,2,3,4\n", l_max=2.0)

    def test_bad_row(self):
        text = "length,angle,spin_sign,multiplicity\n0.5,1.0,1\n"
        with pytest.raises(SpectrumError, match="line 2"):
            parse_spectrum_csv(text, l_max=2.0)


class TestPowers:
    def test_single_class(self):
        spec = LengthSpectrum.build([GeodesicEntry(1.0, 0.3, 1, 1)], 10.0)
        assert powers_up_to(spec, 3.5).m.tolist() == [1, 2, 3]

    def test_empty(self):
        spec = LengthSpectrum((), 1.0)
        assert len(powers_up_to(spec, 5.0)) == 0

    def test_two_class_order(self):
        # hand enumeration: 1.0*{1,2,3} and 1.6*{1,2}, merged ascending
        spec = LengthSpectrum.build(
            [GeodesicEntry(1.0, 0.3, 1, 1), GeodesicEntry(1.6, 0.4, 1, 1)], 10.0)
        lengths = [round(length, 12) for length in powers_up_to(spec, 3.3).length.tolist()]
        assert lengths == [1.0, 1.6, 2.0, 3.0, 3.2]

    def test_mirror_powers_for_unoriented(self):
        entries = [GeodesicEntry(1.0, 0.4, 1, 1), GeodesicEntry(1.3, 2.0, -1, 1)]
        oriented = LengthSpectrum.build(entries, 10.0, oriented=True)
        unoriented = LengthSpectrum.build(entries, 10.0, oriented=False)
        # the table holds the entries' own powers; each row stands for its
        # mirror's power too
        one, both = powers_up_to(oriented, 6.0), powers_up_to(unoriented, 6.0)
        assert (one.mirrored, both.mirrored) == (False, True)
        for f in dataclasses.fields(one)[:-1]:
            assert getattr(one, f.name).tolist() == getattr(both, f.name).tolist()
        assert oriented.primitive_classes() is oriented.entries
        classes = unoriented.primitive_classes()
        assert len(classes) == 4
        for i, entry in enumerate(unoriented.entries):
            assert classes[2 * i] is entry
            mirror = classes[2 * i + 1]
            assert type(mirror) is GeodesicEntry
            assert mirror == GeodesicEntry(
                *power_holonomy(entry.length, TWO_PI - entry.angle, entry.spin_sign, 1),
                entry.multiplicity)
        assert abs(classes[1].angle - (TWO_PI - 0.4)) < 1e-15
        assert classes[1].spin_sign == 1
        assert classes[3].spin_sign == -1

    def test_mirror_of_angle_zero_is_angle_zero(self):
        # 2*pi - 0 takes one turn off, so the mirror's lift sign flips: the
        # limit of the mirror (2*pi - theta, s) as theta -> 0+
        spec = LengthSpectrum.build([GeodesicEntry(1.0, 0.0, -1, 3)], 10.0, oriented=False)
        assert spec.primitive_classes() == (spec.entries[0], GeodesicEntry(1.0, 0.0, 1, 3))
        table = powers_up_to(spec, 1.0)
        assert table.angle.tolist() == [0.0]
        assert table.spin_sign.tolist() == [-1]
        assert table.mirrored

    def test_power_budget(self):
        # the unoriented mirror pair counts twice, though it takes one row;
        # the message names the entry
        entries = [GeodesicEntry(1.0, 0.4, 1, 1), GeodesicEntry(2.0 ** -17, 2.0, -1, 1)]
        spec = LengthSpectrum.build(entries, 12.0, oriented=False)
        assert len(powers_up_to(spec, 0.25)) == 2 ** 15
        # at l_cut 4 the rows would fit the budget, the powers they stand for do not
        assert 4 + 2 ** 19 < POWER_BUDGET < 2 * (4 + 2 ** 19)
        with pytest.raises(DomainError, match=r"needs 1048584 powers.*entries\[0\] "
                                              r"\(length 7.62939453125e-06\) needs 524288"):
            powers_up_to(spec, 4.0)

    def test_l_cut_must_be_positive(self):
        spec = LengthSpectrum((), 1.0)
        with pytest.raises(DomainError):
            powers_up_to(spec, 0.0)

    @given(st.floats(0.3, 3.0), st.floats(0.0, TWO_PI - 1e-9),
           st.sampled_from([1, -1]), st.integers(1, 40))
    def test_power_holonomy_consistency(self, length, angle, spin, m):
        # lifted-eigenvalue relation: spin_m e^(i angle_m / 2) = (spin e^(i theta/2))^m
        _, red, sign = power_holonomy(length, angle, spin, m)
        assert 0.0 <= red < TWO_PI
        lhs = sign * cmath.exp(0.5j * red)
        rhs = (spin * cmath.exp(0.5j * angle)) ** m
        assert abs(lhs - rhs) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.4, 3.0), st.floats(0.0, TWO_PI - 1e-9),
                              st.sampled_from([1, -1])),
                    min_size=0, max_size=5, unique_by=lambda t: t[0]),
           st.floats(0.5, 9.0), st.floats(0.5, 9.0))
    def test_prefix_consistency(self, triples, c1, c2):
        lo, hi = sorted([c1, c2])
        spec = LengthSpectrum.build(
            [GeodesicEntry(l, a, s, 1) for l, a, s in triples], 10.0)
        big = powers_up_to(spec, hi)
        small = powers_up_to(spec, lo)
        # length / m is each power's class length to within an ulp
        prefix = big.m <= np.floor(lo / (big.length / big.m) + 1e-12)
        for f in dataclasses.fields(small)[:-1]:
            assert getattr(small, f.name).tolist() == getattr(big, f.name)[prefix].tolist()


class TestTailBound:
    def test_limit_zero(self):
        spec = LengthSpectrum((), 1.0)
        g = GrowthModel(1.0)
        assert tail_bound(spec, 4.0, 500.0, g) < 1e-300

    def test_direct_substitution(self):
        spec = LengthSpectrum((), 1.0)
        value = tail_bound(spec, 4.0, 10.0, GrowthModel(1.0))
        assert value == pytest.approx(math.exp(-20.0) / 2.0, rel=1e-15)

    def test_domain_error(self):
        spec = LengthSpectrum((), 1.0)
        with pytest.raises(DomainError, match="convergence half-plane"):
            tail_bound(spec, 2.0, 5.0, GrowthModel(1.0))

    def test_monotone(self):
        spec = LengthSpectrum((), 1.0)
        g = GrowthModel(3.0)
        cuts = [1.0, 2.0, 5.0, 11.0]
        res = [4.0, 4.5, 6.0, 9.0]
        for a in res:
            vals = [tail_bound(spec, a, c, g) for c in cuts]
            assert vals == sorted(vals, reverse=True)
        for c in cuts:
            vals = [tail_bound(spec, a, c, g) for a in res]
            assert vals == sorted(vals, reverse=True)

    def test_rigorous_envelope_dominates_actual_tail(self):
        # brute-force the omitted tail far past the cutoffs under test
        spec = LengthSpectrum.build(
            [GeodesicEntry(0.8, 0.5, 1, 1), GeodesicEntry(1.1, 2.9, -1, 1),
             GeodesicEntry(1.7, 4.4, 1, 2), GeodesicEntry(2.3, 1.2, 1, 1)], 40.0)
        growth = GrowthModel.rigorous_envelope(spec)
        assert growth.rigorous
        deep = powers_up_to(spec, 400.0)
        for a in (2.5, 3.0, 4.0, 6.0):
            for l_cut in (5.0, 10.0, 20.0):
                actual = sum(mult / m * math.exp(-a * length)
                             for mult, m, length in zip(deep.multiplicity.tolist(),
                                                        deep.m.tolist(), deep.length.tolist())
                             if length > l_cut)
                assert tail_bound(spec, a, l_cut, growth) >= actual

    def test_fit_is_heuristic(self, small_spec):
        assert not GrowthModel.fit(small_spec).rigorous
        assert GrowthModel.fit(LengthSpectrum((), 1.0)).constant == 0.0


def test_flip_spins_involution(small_spec):
    flipped = flip_spins(small_spec)
    assert flipped != small_spec
    assert flip_spins(flipped) == small_spec
    assert all(a.spin_sign == -b.spin_sign
               for a, b in zip(flipped.entries, small_spec.entries))
