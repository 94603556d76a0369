"""Graded word indexing, truncated noncommutative arithmetic, slash factors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncperiods.ncpoly import (
    Alphabet,
    GradedWords,
    Letter,
    MultiplierSpec,
    mono_str,
    mono_weight,
    nc_inv,
    nc_mul,
    parse_mono,
    series_block,
    slash_factors,
)
from ncperiods.sl2z import S, T, eta_epsilon, parse_word

AB2 = Alphabet((Letter.trivial(10), Letter.trivial(4)))
ETA4 = Alphabet((Letter.eta(4),))


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter.trivial(-4)  # w + 2 <= 0
    with pytest.raises(ValueError):
        Letter.trivial(5)  # odd
    with pytest.raises(ValueError):
        Letter(3, MultiplierSpec.eta_power(4))  # eta letter must have w = N/2 - 2
    L = Letter.eta(1)
    assert float(L.weight) == -1.5


def test_graded_words_indexing():
    words = GradedWords(AB2, 3)
    assert words.total == 1 + 2 + 4 + 8
    assert words.index(()) == 0
    assert words.index((1,)) == 1
    assert words.index((2,)) == 2
    assert words.index((1, 1)) == 3
    assert words.index((2, 2)) == 6
    assert words.index((1, 2, 1)) == 7 + 0 * 4 + 1 * 2 + 0
    assert words.block(2) == slice(3, 7)
    with pytest.raises(ValueError):
        words.index((1, 1, 1, 1))


@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_index_word_bijection(ell, D, data):
    ab = Alphabet(tuple(Letter.trivial(2 * w) for w in range(1, ell + 1)))
    words = GradedWords(ab, D)
    idx = data.draw(st.integers(0, words.total - 1))
    assert words.index(words.word(idx)) == idx


def test_mono_str_round_trip():
    for m in [(), (1,), (2, 1), (1, 2, 2), (3, 1, 4)]:
        assert parse_mono(mono_str(m)) == m
    assert mono_str(()) == "1"
    with pytest.raises(ValueError):
        parse_mono("A1*B2")


def test_mono_weight_and_multiplier():
    assert mono_weight(AB2, (1, 2)) == 14
    assert mono_weight(AB2, ()) == 0
    # the word's multiplier is carried by slash_factors: at T (c = 0, d = 1)
    # the factor is v(B)(T)^(-1), and eta^4 twice is the eta^8 power
    words = GradedWords(ETA4, 2)
    fac = slash_factors(words, T, np.array([-0.5j]))
    assert fac[0, words.index((1, 1))] == pytest.approx(eta_epsilon(T) ** -8)


def _series(words, data):
    """The coefficient row of sum data[m] * m."""
    row = np.zeros(words.total, dtype=complex)
    for m, v in data.items():
        row[words.index(m)] = v
    return row


def test_nc_mul_concatenation():
    words = GradedWords(AB2, 3)
    a = _series(words, {(1,): 1.0})
    b = _series(words, {(2, 1): 1.0})
    ab = nc_mul(words, a, b)
    assert ab[words.index((1, 2, 1))] == 1.0
    ba = nc_mul(words, b, a)
    assert ba[words.index((2, 1, 1))] == 1.0
    assert ab[words.index((2, 1, 1))] == 0.0
    # unit is a two-sided identity
    one = _series(words, {(): 1.0})
    assert np.allclose(nc_mul(words, one, ab), ab)
    assert np.allclose(nc_mul(words, ab, one), ab)


@st.composite
def unit_rows(draw, words):
    vals = draw(
        st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=words.total - 1,
            max_size=words.total - 1,
        )
    )
    c = np.empty(words.total, dtype=complex)
    c[0] = 1.0
    c[1:] = vals
    return c


WORDS23 = GradedWords(AB2, 3)


@given(unit_rows(WORDS23), unit_rows(WORDS23), unit_rows(WORDS23))
def test_nc_mul_associative(a, b, c):
    lhs = nc_mul(WORDS23, nc_mul(WORDS23, a, b), c)
    rhs = nc_mul(WORDS23, a, nc_mul(WORDS23, b, c))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@given(unit_rows(WORDS23))
def test_nc_inv_two_sided(a):
    ainv = nc_inv(WORDS23, a)
    one = _series(WORDS23, {(): 1.0})
    left = nc_mul(WORDS23, ainv, a)
    right = nc_mul(WORDS23, a, ainv)
    assert np.max(np.abs(left - one)) < 1e-9
    assert np.max(np.abs(right - one)) < 1e-9


def test_nc_mul_inv_broadcast_leading_axes():
    """nc_mul broadcasts the leading axes of its rows before the words-leading
    kernel sees them: a (W,) series against (n_t, W) rows, and (2, 1, W)
    against (3, W), give the per-row products; nc_inv of stacked rows gives
    the per-row inverses."""
    rng = np.random.default_rng(7)

    def rows(*shape):
        x = rng.uniform(-1, 1, shape + (WORDS23.total, 2)) @ np.array([1, 1j])
        x[..., 0] = 1.0
        return x

    a, r = rows(), rows(5)
    assert nc_mul(WORDS23, a, r).shape == (5, WORDS23.total)
    for i in range(5):
        np.testing.assert_array_equal(nc_mul(WORDS23, a, r)[i], nc_mul(WORDS23, a, r[i]))
        np.testing.assert_array_equal(nc_mul(WORDS23, r, a)[i], nc_mul(WORDS23, r[i], a))
        np.testing.assert_array_equal(nc_inv(WORDS23, r)[i], nc_inv(WORDS23, r[i]))
    x, y = rows(2, 1), rows(3)
    xy, yx = nc_mul(WORDS23, x, y), nc_mul(WORDS23, y, x)
    assert xy.shape == yx.shape == (2, 3, WORDS23.total)
    for i in range(2):
        np.testing.assert_array_equal(nc_inv(WORDS23, x)[i, 0], nc_inv(WORDS23, x[i, 0]))
        for j in range(3):
            np.testing.assert_array_equal(xy[i, j], nc_mul(WORDS23, x[i, 0], y[j]))
            np.testing.assert_array_equal(yx[i, j], nc_mul(WORDS23, y[j], x[i, 0]))


def _ref_mul(words, xs, ys):
    """The former product: the words-leading kernel accumulated in extended
    precision, on rows of one shape."""
    xs = np.moveaxis(np.asarray(xs, dtype=np.clongdouble), -1, 0)
    ys = np.moveaxis(np.asarray(ys, dtype=np.clongdouble), -1, 0)
    out = np.concatenate([series_block(words, xs, ys, d, range(d + 1))
                          for d in range(words.D + 1)])
    assert out.dtype == np.clongdouble
    return np.moveaxis(out, 0, -1)


def _ref_inv(words, xs):
    """The former inverse: the geometric series sum_{k<=D} (1-x)^k in
    extended precision."""
    u = -np.asarray(xs, dtype=np.clongdouble)
    u[..., 0] += 1.0
    out = np.zeros(u.shape, dtype=np.clongdouble)
    out[..., 0] = 1.0
    power = out.copy()
    for _ in range(words.D):
        power = _ref_mul(words, power, u)
        out += power
    return out


@pytest.mark.parametrize("growth", [1.0, 1e3, 1e6])
def test_kernel_matches_extended_precision_reference(growth):
    """On criterion 1's draws, with block d scaled by growth^d, the complex128
    product and degree-recursion inverse agree with the extended-precision
    product and geometric-series inverse to 1e-14 of the term scale: the
    product of the absolute values, and for the inverse the same geometric
    series in |1 - x|."""
    words = GradedWords(AB2, 4)
    parts = np.random.default_rng(2024).uniform(-1, 1, (500, 3, 2, words.total))
    a, b, c = np.moveaxis(parts[:, :, 0] + 1j * parts[:, :, 1], 1, 0)
    degree = np.repeat(np.arange(words.D + 1), np.diff(words.offsets))
    for x in (a, b, c):
        x[:, 0] = 1.0
        x *= growth ** degree
    one = np.zeros(words.total)
    one[0] = 1.0
    for x, y in ((a, b), (b, c), (c, a)):
        got = nc_mul(words, x, y)
        assert got.dtype == np.complex128
        err = np.abs(got - _ref_mul(words, x, y))
        assert np.all(err <= 1e-14 * nc_mul(words, np.abs(x), np.abs(y)).real)
    for x in (a, b, c):
        got = nc_inv(words, x)
        assert got.dtype == np.complex128
        err = np.abs(got - _ref_inv(words, x))
        assert np.all(err <= 1e-14 * nc_inv(words, one - np.abs(one - x)).real)


def test_nc_inv_needs_unit():
    with pytest.raises(ValueError):
        nc_inv(WORDS23, np.zeros(WORDS23.total, dtype=complex))


def test_slash_factors_shape_and_unit():
    words = GradedWords(AB2, 2)
    t = np.array([-0.5j, -1.0 - 0.7j])
    fac = slash_factors(words, T, t)
    assert fac.shape == (2, words.total)
    # trivial letters, c = 0: (0*t + 1)^w = 1 everywhere
    assert np.allclose(fac, 1.0)


def test_slash_factors_cocycle():
    """(ct+d)-power and multiplier assemble into a right action:
    factor(gh, t) = factor(h, t) * factor(g, h t)."""
    words = GradedWords(ETA4, 2)
    t = np.array([-0.3 - 0.8j, 0.4 - 1.2j, -1.1 - 0.2j])
    for wg, wh in [("S", "T"), ("TS", "ST"), ("S", "S"), ("T^-1S", "TST")]:
        g, h = parse_word(wg), parse_word(wh)
        lhs = slash_factors(words, g * h, t)
        rhs = slash_factors(words, h, t) * slash_factors(words, g, h.mobius(t))
        assert np.max(np.abs(lhs - rhs)) < 1e-12, (wg, wh)


def test_slash_factors_weight():
    words = GradedWords(AB2, 2)
    t = np.array([-0.6 - 0.9j])
    fac = slash_factors(words, S, t)
    # word (1,2): w = 14, factor at S is t^14 (trivial multiplier)
    idx = words.index((1, 2))
    assert fac[0, idx] == pytest.approx(t[0] ** 14)
