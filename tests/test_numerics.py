"""The certified row summation kernel against ``math.fsum``, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geozeta import numerics
from geozeta.numerics import (FSUM_ROWS_MIN, fsum_complex, fsum_complex_rows, fsum_real,
                              fsum_rows)

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324,
            2.0 ** -1022, 2.0 ** -1074 * 3)


def outcome(fn, *args):
    """A result as hex strings, or the exception it raised."""
    try:
        value = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    values = value if isinstance(value, list) else [value]
    return [v.hex() for v in values]


def reference(rows):
    return [math.fsum(row) for row in rows]


@st.composite
def row_blocks(draw):
    """Rows of one length: terms over a window of up to 1000 binades placed
    anywhere from the subnormals to the top of the range, optionally with
    their exact negatives and special values mixed in."""
    n_rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    low = draw(st.integers(-1100, 1023))
    high = min(1023, low + draw(st.integers(0, 1000)))
    mantissa = st.floats(-1.0, 1.0)
    cancel = draw(st.booleans())
    specials = draw(st.booleans())
    rows = []
    for _ in range(n_rows):
        row = [math.ldexp(draw(mantissa), draw(st.integers(low, high))) for _ in range(n)]
        if cancel:
            row += [-x for x in draw(st.permutations(row))]
        if specials:
            for _ in range(draw(st.integers(1, 3))):
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(SPECIALS))
        rows.append(row)
    return rows


@pytest.mark.filterwarnings("error")
class TestFsumRows:
    @pytest.fixture(autouse=True, scope="class")
    def kernel_on_every_row(self):
        # the numpy kernel is under test here: no row takes the short-row
        # math.fsum route (test_callers_on_both_sides_of_the_crossover covers it)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "FSUM_ROWS_MIN", 1)
            yield

    @settings(max_examples=250, deadline=None)
    @given(row_blocks())
    def test_matches_math_fsum(self, rows):
        assert outcome(fsum_rows, np.array(rows)) == outcome(reference, rows)

    @pytest.mark.parametrize("rows", [
        [[1e308, 1e308]],                          # intermediate overflow
        [[1e308, 1e308, -1e308]],
        [[1.0, 2.0], [math.inf, -math.inf]],       # inf - inf after a good row
        [[math.nan, 1.0], [math.inf, 1.0]],
        [[-0.0, -0.0], [0.0, -0.0]],               # signed zeros
        [[-0.0] * 3, [-0.0, 0.0, -0.0], [0.0] * 3, [-0.0, 1.0, -1.0]],
        [[1e16, 1.0, -1e16], [1e16, -1e16, 0.0]],  # cancellation
        [[2.0 ** -1074] * 7, [2.0 ** -1022, -(2.0 ** -1074)] * 3 + [0.0]],  # subnormals
        [[1.0, 2.0 ** -53, 2.0 ** -106]],          # exactly half an ulp and a bit
        [[1.0, 2.0 ** -53]],                       # a tie, to even
        [[1.0, -(2.0 ** -54), -(2.0 ** -114)]],    # just below a power of two:
        [[-1.0, 2.0 ** -54, 2.0 ** -114]],         # the lower gap is half as wide
        [[2.0 ** 1000, -(2.0 ** 1000), 2.0 ** -1000]],
    ])
    def test_edge_rows(self, rows):
        assert outcome(fsum_rows, np.array(rows)) == outcome(reference, rows)

    def test_sums_next_to_a_rounding_midpoint(self):
        # y plus half the gap to a neighbour (a quarter of spacing(y) below a
        # power of two), a tiny nudge either way, and pairs +-d whose low
        # parts sum inexactly: only an honest error bound rounds these right
        rng = np.random.default_rng(11)
        for _ in range(1500):
            rows = []
            pairs = int(rng.integers(1, 200))
            for _ in range(4):
                e = int(rng.integers(-20, 20))
                if rng.random() < 0.5:
                    y = float(rng.standard_normal()) * 2.0 ** e
                    half = float(np.spacing(abs(y))) / 2
                else:
                    y = float(rng.choice([-1.0, 1.0])) * 2.0 ** e
                    half = -y * 2.0 ** -54
                nudge = float(rng.choice([-1.0, 1.0])) * half * 2.0 ** -int(rng.integers(1, 60))
                d = rng.standard_normal(pairs) * np.exp2(rng.integers(-60, 5, pairs)) * abs(y)
                row = np.concatenate([[y, half, nudge], d, -d])
                rng.shuffle(row)
                rows.append(row)
            x = np.array(rows)
            assert outcome(fsum_rows, x) == outcome(reference, x.tolist())

    def test_shapes(self):
        assert fsum_rows(np.zeros((3, 0))) == [0.0, 0.0, 0.0]
        assert fsum_rows(np.zeros((0, 5))) == []
        with pytest.raises(ValueError, match="2-D"):
            fsum_rows(np.zeros(4))

    @pytest.mark.parametrize("n", [100, 5000])
    def test_certifies_ordinary_rows(self, monkeypatch, n):
        # the kernel must decide these rows itself, not hand them to math.fsum:
        # mixed signs over 17 binades, and one-signed terms (like a tail sum)
        # whose hi parts add up to nearly n times the largest term.  (A sum
        # that lands exactly on a rounding tie is handed over; one-signed
        # terms of one binade make that likely for a few terms, so n >= 100.)
        rng = np.random.default_rng(n)
        x = np.concatenate([
            rng.standard_normal((3, n)) * np.exp(rng.uniform(-40.0, 0.0, (3, n))),
            rng.uniform(0.5, 1.0, (3, n)) * 2.0 ** rng.integers(-30, 30, (3, 1))])
        want = reference(x.tolist())

        class NoFsum:
            def __getattr__(self, name):
                return getattr(math, name)

            def fsum(self, terms):
                raise AssertionError("row handed to math.fsum")

        monkeypatch.setattr(numerics, "math", NoFsum())
        assert [v.hex() for v in fsum_rows(x)] == [v.hex() for v in want]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, FSUM_ROWS_MIN - 1, FSUM_ROWS_MIN, 5 * FSUM_ROWS_MIN])
def test_callers_on_both_sides_of_the_crossover(monkeypatch, n):
    rng = np.random.default_rng(n)
    re = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
    im = rng.standard_normal(n)
    assert fsum_real(re).hex() == math.fsum(re.tolist()).hex()
    got = fsum_complex((re + 1j * im).reshape(1, -1))
    assert got.real.hex() == math.fsum(re.tolist()).hex()
    assert got.imag.hex() == math.fsum(im.tolist()).hex()
    want = [math.fsum(re.tolist()).hex(), math.fsum(im.tolist()).hex()]
    calls = []

    class CountingFsum:
        def __getattr__(self, name):
            return getattr(math, name)

        def fsum(self, terms):
            calls.append(len(terms))
            return math.fsum(terms)

    # short rows go to math.fsum; from the crossover on the kernel sums them
    monkeypatch.setattr(numerics, "math", CountingFsum())
    assert [v.hex() for v in fsum_rows(np.stack((re, im)))] == want
    assert calls == ([n, n] if n < FSUM_ROWS_MIN else [])


@pytest.mark.parametrize("shape", [(3, 7), (2, 2 * FSUM_ROWS_MIN), (0, 4), (2, 0)])
def test_complex_rows_sum_their_parts_apart(shape):
    # each row's real and imaginary parts, as math.fsum sums them
    rng = np.random.default_rng(shape[1])
    x = (rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
         + 1j * rng.standard_normal(shape))
    got = fsum_complex_rows(x)
    assert [(v.real.hex(), v.imag.hex()) for v in got] == [
        (math.fsum(row.real.tolist()).hex(), math.fsum(row.imag.tolist()).hex()) for row in x]
