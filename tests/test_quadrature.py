"""Piecewise-Legendre quadrature building blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import legendre as L

from ncperiods import quadrature
from ncperiods.quadrature import (
    NODES,
    NPTS,
    READ_BYTES,
    PwPoly,
    QuadratureError,
    WEIGHTS,
    adaptive_pw,
)


def test_gauss_rule():
    assert NPTS == 16
    assert WEIGHTS.sum() == pytest.approx(2.0)
    # exact for polynomials of degree <= 31
    for deg in (0, 7, 16, 31):
        quad = np.sum(WEIGHTS * NODES**deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert quad == pytest.approx(exact, abs=1e-14)


def test_adaptive_oscillatory():
    omega = 37.0
    pw = adaptive_pw(lambda s: np.exp(1j * omega * s), 0.0, 2.0, tol=1e-13)
    exact = (np.exp(2j * omega) - 1.0) / (1j * omega)
    assert abs(pw.antiderivative()(pw.breaks[-1]) - exact) < 1e-12
    # evaluation agrees with the integrand away from panel edges
    s = np.linspace(0.05, 1.95, 11)
    assert np.max(np.abs(pw(s) - np.exp(1j * omega * s))) < 1e-11


def test_antiderivative():
    pw = adaptive_pw(lambda s: np.cos(3 * s), 0.0, 4.0, tol=1e-13)
    F = pw.antiderivative()
    s = np.linspace(0.0, 4.0, 23)
    assert np.max(np.abs(F(s) - np.sin(3 * s) / 3)) < 1e-12
    # vanishes at the left endpoint, continuous across internal breaks
    assert abs(F(0.0)) < 1e-14
    eps = 1e-9
    for br in F.breaks[1:-1]:
        assert abs(F(br - eps) - F(br + eps)) < 1e-8


def test_vector_valued():
    t = np.array([1.0, 2.0, 3.0])

    def fun(s):
        return np.exp(np.outer(-s, t))

    pw = adaptive_pw(fun, 0.0, 5.0, tol=1e-13)
    exact = (1 - np.exp(-5.0 * t)) / t
    assert np.max(np.abs(pw.antiderivative()(pw.breaks[-1]) - exact)) < 1e-12
    assert pw.coeffs.shape[2:] == (3,)


def _one_scale_build(fun, a, b, tol):
    """The single-array rule as a plain reference: one running scale over
    every value column, panels judged in order, bisection until resolved."""
    edges = np.linspace(a, b, quadrature.INIT_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    accepted, scale = [], 0.0
    while len(lo):
        pts = (NODES[None, :] * (hi - lo)[:, None] / 2 + (hi + lo)[:, None] / 2).ravel()
        vals = np.asarray(fun(pts))
        vals = vals.reshape((len(lo), NPTS) + vals.shape[1:])
        coeffs = np.moveaxis(np.tensordot(quadrature.TMAT, vals, axes=([1], [1])), 0, 1)
        split = np.zeros(len(lo), dtype=bool)
        for i, c in enumerate(coeffs):
            scale = max(scale, np.abs(c).max())
            if (np.abs(c[-2]) + np.abs(c[-1])).max() <= tol * max(scale, 1e-300):
                accepted.append((lo[i], hi[i], c))
            else:
                split[i] = True
        mid = (lo[split] + hi[split]) / 2
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
    accepted.sort(key=lambda p: p[0])
    return np.array([p[0] for p in accepted] + [accepted[-1][1]]), np.stack([p[2] for p in accepted])


@pytest.mark.parametrize("fun, a, b, tol", [
    (lambda s: np.exp(37j * s), 0.0, 2.0, 1e-13),
    (lambda s: np.cos(3 * s), 0.0, 4.0, 1e-13),
    (lambda s: np.exp(np.outer(-s, [1.0, 2.0, 3.0])), 0.0, 5.0, 1e-13),
    (lambda s: 1.0 / (1e-6 + (s - 0.3) ** 2), 0.0, 1.0, 1e-13),
    (lambda s: np.sin(s) ** 2, 0.0, 3.0, 1e-13),
    (lambda s: np.exp(np.multiply.outer(s, [[1.0, -2.0], [0.5j, 3.0]])), 0.0, 2.0, 1e-12),
], ids=["oscillatory", "cos", "vector", "needle", "sin2", "matrix"])
def test_single_array_fun_keeps_one_running_scale(fun, a, b, tol):
    """A build is bit for bit the single-scale rule, whatever the shape of
    the value axes of its fun."""
    breaks, coeffs = _one_scale_build(fun, a, b, tol)
    pw = adaptive_pw(fun, a, b, tol)
    assert pw.breaks.tobytes() == breaks.tobytes()
    assert pw.coeffs.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("fun, ends, tol", [
    (lambda s: np.exp(37j * s), [0.0, 2.0, 3.5, 4.0], 1e-13),
    (lambda s: np.exp(np.outer(-s, [1.0, 2.0, 3.0])), [0.0, 1.0, 2.0, 3.0], 1e-13),
    (lambda s: 1.0 / (1e-6 + (s - 1.3) ** 2), [0.0, 1.0, 2.0], 1e-13),
], ids=["oscillatory", "vector", "needle"])
def test_intervals_build_as_each_interval_alone(fun, ends, tol):
    """A build over interval ends is, interval by interval, the build on that
    interval alone: the same breaks bit for bit, and coefficients within a
    few ulps (the fit's product runs over another batch of panels)."""
    pw = adaptive_pw(fun, ends[0], np.array(ends[1:]), tol)
    parts = [adaptive_pw(fun, a, b, tol) for a, b in zip(ends[:-1], ends[1:])]
    want = np.concatenate([p.breaks[:-1] for p in parts] + [parts[-1].breaks[-1:]])
    assert pw.breaks.tobytes() == want.tobytes()
    coeffs = np.concatenate([p.coeffs for p in parts])
    assert np.all(np.abs(pw.coeffs - coeffs) <= 8 * np.finfo(float).eps * np.max(np.abs(coeffs)))
    one = [_one_scale_build(fun, a, b, tol) for a, b in zip(ends[:-1], ends[1:])]
    assert np.concatenate([p[0][:-1] for p in one] + [one[-1][0][-1:]]).tobytes() == want.tobytes()


def test_each_interval_keeps_its_own_scale():
    """A 1e-8-sized oscillation on the interval after a 1e6-sized one is
    resolved to tol of its own size: the scale does not carry over."""
    tol = 1e-10

    def fun(s):
        return np.where(s < 1.0, 1e6 * np.exp(s), 1e-8 * np.cos(60.0 * s))

    pw = adaptive_pw(fun, 0.0, np.array([1.0, 2.0]), tol)
    s = np.linspace(1.0, 2.0, 201)[1:]
    assert np.max(np.abs(pw(s) - fun(s))) <= 10 * tol * 1e-8
    # each panel integrates to width * c0
    second = pw.breaks[:-1] >= 1.0
    area = np.diff(pw.breaks)[second] @ pw.coeffs[second, 0]
    assert abs(area - 1e-8 * (np.sin(120.0) - np.sin(60.0)) / 60.0) <= tol * 1e-8
    assert abs(pw.antiderivative()(1.0) - 1e6 * (np.e - 1)) <= tol * 1e6 * np.e


def test_no_panel_crosses_an_interval_end():
    """Every interval end is a break, so an integrand that jumps there (it
    is never sampled at an end) still resolves, where the same jump inside
    one interval is refused at MIN_WIDTH."""
    def fun(s):
        return np.where(s < 1.0, np.cos(3 * s), np.where(s < 1.7, np.exp(-s), s**2))

    ends = np.array([1.0, 1.7, 3.0])  # 1.7 is no break of equal panels on [0, 3]
    pw = adaptive_pw(fun, 0.0, ends, 1e-13)
    assert np.all(np.isin(ends, pw.breaks))
    assert np.all(np.diff(pw.breaks) > 0)
    s = np.linspace(0.0, 3.0, 61)
    assert np.max(np.abs(pw(s) - fun(s))) < 1e-12 * 9
    with pytest.raises(QuadratureError, match="MIN_WIDTH"):
        adaptive_pw(fun, 0.0, 3.0, 1e-13)


def test_panel_budget_is_per_interval(monkeypatch):
    """MAX_PANELS bounds each interval's build, not the path's: a budget of
    the most panels one interval accepts suffices however many the intervals
    hold together, and one fewer is refused on that interval, named."""
    ends = np.array([1.0, 2.0, 3.0])

    def build():
        return adaptive_pw(lambda s: 1.0 / (1e-4 + (s - 1.3) ** 2), 0.0, ends, tol=1e-13)

    breaks = build().breaks
    counts = np.histogram(breaks[:-1], bins=np.concatenate([[0.0], ends]))[0]
    n, k = counts.max(), int(np.argmax(counts))
    assert k == 1 and counts.sum() > n
    monkeypatch.setattr(quadrature, "MAX_PANELS", n)
    assert np.array_equal(build().breaks, breaks)
    monkeypatch.setattr(quadrature, "MAX_PANELS", n - 1)
    with pytest.raises(QuadratureError, match=rf"exceeded {n - 1} panels on \[1\.0, 2\.0\]") as err:
        build()
    assert err.value.interval == 1


def test_panel_budget(monkeypatch):
    # needle far too sharp for 8 panels
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureError):
        adaptive_pw(lambda s: 1.0 / (1e-12 + (s - 0.3) ** 2), 0.0, 1.0, tol=1e-13)


def test_panel_budget_counts_each_panel_once(monkeypatch):
    # a budget of exactly the panels an unbudgeted build accepts suffices and
    # one fewer is refused, whatever that count is at the last bit of the fit
    def build():
        return adaptive_pw(lambda s: 1.0 / (1e-6 + (s - 0.3) ** 2), 0.0, 1.0, tol=1e-13)

    breaks = build().breaks
    n = len(breaks) - 1
    monkeypatch.setattr(quadrature, "MAX_PANELS", n)
    assert np.array_equal(build().breaks, breaks)
    monkeypatch.setattr(quadrature, "MAX_PANELS", n - 1)
    with pytest.raises(QuadratureError, match=f"exceeded {n - 1} panels"):
        build()


def test_unresolved_panel_is_refused():
    # a jump never resolves: bisection reaches MIN_WIDTH at s = 0.3
    with pytest.raises(QuadratureError, match=r"panel \[0\.29"):
        adaptive_pw(lambda s: np.where(s < 0.3, 0.0, 1.0), 0.0, 1.0, tol=1e-12)


def test_resolution_tail_small_when_converged():
    pw = adaptive_pw(lambda s: np.sin(s) ** 2, 0.0, 3.0, tol=1e-13)
    tail = np.abs(pw.coeffs[:, -2:]).sum(axis=1)
    assert np.max(tail) < 1e-13 * max(1.0, np.max(np.abs(pw.coeffs)))


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_polynomial_exactness(cs):
    """Degree <= 7 polynomials are captured exactly by a single panel fit."""
    p = np.polynomial.Polynomial(cs)
    with mock.patch.object(quadrature, "INIT_PANELS", 1):
        pw = adaptive_pw(lambda s: p(s), -1.0, 2.0, tol=1e-12)
    exact = p.integ()(2.0) - p.integ()(-1.0)
    scale = max(1.0, np.max(np.abs(pw.coeffs)))
    assert abs(pw.antiderivative()(pw.breaks[-1]) - exact) < 1e-11 * scale
    s = np.linspace(-1.0, 2.0, 9)
    assert np.max(np.abs(pw(s) - p(s))) < 1e-10 * scale


@st.composite
def pwpolys(draw):
    """Random sorted breaks (1-6 panels) and complex (K, 16[, 3]) coefficients,
    or (K, 16, n_t, ncols) as the layered route's antiderivatives hold them."""
    K = draw(st.integers(1, 6))
    start = draw(st.floats(-5, 5))
    widths = draw(st.lists(st.floats(0.01, 3), min_size=K, max_size=K))
    shape = (K, NPTS) + draw(st.sampled_from([(), (3,), (4, 7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs *= draw(st.floats(1e-3, 1e3))
    return PwPoly(start + np.concatenate([[0.0], np.cumsum(widths)]), coeffs)


def _reference(pw, s):
    """Per-panel numpy.polynomial values in the local coordinate, and the
    size sum_k |c_k P_k| of the terms each value sums."""
    vals, sizes = [], []
    for v in s:
        p = int(np.clip(np.searchsorted(pw.breaks, v, side="right") - 1, 0, len(pw.breaks) - 2))
        a, b = pw.breaks[p], pw.breaks[p + 1]
        x = (2 * v - a - b) / (b - a)
        vals.append(L.legval(x, pw.coeffs[p]))
        sizes.append(np.max(np.abs(L.legvander(x, NPTS - 1)) @ np.abs(pw.coeffs[p].reshape(NPTS, -1))))
    return np.array(vals), max(1.0, max(sizes))


@given(pwpolys())
def test_pwpoly_matches_per_panel_reference(pw):
    br = pw.breaks
    s = np.concatenate([br, (br[:-1] + br[1:]) / 2, [br[0] - 0.7, br[-1] + 0.4]])
    want, size = _reference(pw, s)
    assert np.max(np.abs(pw(s) - want)) <= 1e-13 * size
    # a one-point read runs the same recurrence as a many-point one, bit for bit
    assert all(np.array_equal(pw(s[j:j + 1]), pw(s)[j:j + 1]) for j in range(len(s)))
    scale = max(1.0, float(np.max(np.abs(pw.coeffs))))

    # antiderivative: legint per panel, offset by the integrals of earlier panels
    F = pw.antiderivative()
    offset = 0.0
    for p in range(len(br) - 1):
        width = br[p + 1] - br[p]
        want = L.legint(pw.coeffs[p], lbnd=-1, scl=width / 2)
        want[0] += offset
        size = scale * max(1.0, width + np.max(np.abs(offset)))
        assert np.max(np.abs(F.coeffs[p] - want)) <= 1e-13 * size
        offset = offset + width * pw.coeffs[p, 0]

    # scalar in, scalar out
    mid = (br[0] + br[1]) / 2
    assert np.shape(pw(mid)) == pw.coeffs.shape[2:]
    assert np.shape(F(mid)) == pw.coeffs.shape[2:]
    assert np.array_equal(pw(mid), pw(np.array([mid]))[0])


@st.composite
def sub_panels(draw):
    """A random PwPoly and sub-panels inside its panels: each panel cut at
    0-3 random points, the pieces read in a random order."""
    pw = draw(pwpolys())
    lo, hi = [], []
    for p, q in zip(pw.breaks[:-1], pw.breaks[1:]):
        cuts = np.sort(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))
        edges = np.unique(np.concatenate([[p], p + (q - p) * cuts, [q]]))
        lo.extend(edges[:-1])
        hi.extend(edges[1:])
    order = draw(st.permutations(range(len(lo))))
    return pw, np.array(lo)[order], np.array(hi)[order]


@given(sub_panels())
def test_panel_read_matches_pointwise_read(case):
    """gauss_values equals the pointwise read at the same nodes to 1e-13 of
    the size of the terms each value sums, and a sub-panel's values are the
    same bits whichever sub-panels are read with it."""
    pw, lo, hi = case
    got = pw.gauss_values(lo, hi)
    assert got.shape == (len(lo), NPTS) + pw.coeffs.shape[2:]
    s = (NODES * ((hi - lo) / 2)[:, None] + ((hi + lo) / 2)[:, None]).ravel()
    want, size = _reference(pw, s)
    assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-13 * size
    assert np.max(np.abs(got.reshape(want.shape) - pw(s))) <= 1e-13 * size
    for j in range(len(lo)):
        assert pw.gauss_values(lo[j:j + 1], hi[j:j + 1])[0].tobytes() == got[j].tobytes()
    half = len(lo) // 2
    assert np.concatenate([pw.gauss_values(lo[:half], hi[:half]),
                           pw.gauss_values(lo[half:], hi[half:])]).tobytes() == got.tobytes()


def test_panel_read_refuses_a_sub_panel_across_a_break():
    """A sub-panel must lie inside one panel: one that crosses a break, lies
    outside the breaks or is empty is refused, whatever is read with it."""
    pw = PwPoly(np.array([0.0, 1.0, 2.5]), np.ones((2, NPTS, 3)))
    pw.gauss_values(np.array([0.0, 1.0, 0.25]), np.array([1.0, 2.5, 0.5]))
    for lo, hi in ((0.5, 1.5), (-0.5, 0.5), (2.0, 3.0), (2.5, 3.0), (-1.0, 0.0), (0.5, 0.5),
                   (0.75, 0.25)):
        with pytest.raises(ValueError, match="does not lie inside one panel"):
            pw.gauss_values(np.array([0.0, lo]), np.array([1.0, hi]))


def test_panel_read_is_exact_on_the_product():
    """Gauss on the panel read at merged breaks integrates a degree-15 series
    times a degree-16 one (an antiderivative) on other breaks exactly: it
    equals a 40-point Gauss rule, exact to degree 79, on the same panels."""
    rng = np.random.default_rng(5)
    a = PwPoly(np.array([0.5, 1.5, 2.75, 4.0]),
               rng.standard_normal((3, NPTS, 4)) + 1j * rng.standard_normal((3, NPTS, 4)))
    b = PwPoly(np.array([0.8, 1.2, 2.0, 2.75, 3.1]), rng.standard_normal((4, NPTS, 5))).antiderivative()
    br = np.array([1.0, 1.2, 1.5, 2.0, 2.75, 3.1])  # every break of a or b in [1, 3.1], once
    lo, hi = br[:-1], br[1:]
    wts = WEIGHTS * ((hi - lo) / 2)[:, None]
    got = np.sum((wts[:, :, None] * a.gauss_values(lo, hi)).transpose(0, 2, 1)
                 @ b.gauss_values(lo, hi), axis=0)
    x40, w40 = L.leggauss(40)
    want = np.zeros((4, 5), dtype=complex)
    for p, q in zip(lo, hi):
        yy = (p + q) / 2 + (q - p) / 2 * x40
        want += (q - p) / 2 * ((w40[:, None] * a(yy)).T @ b(yy))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_read_in_blocks_is_bitwise_one_gather():
    """A read of a few thousand points and a panel read of over a thousand
    sub-panels each span many READ_BYTES blocks and equal bit for bit one
    unbounded gather of legvander rows (points outside the breaks included);
    the pointwise read also equals its reads in small blocks."""
    rng = np.random.default_rng(11)
    breaks = np.sort(rng.uniform(0.0, 10.0, 40))
    pw = PwPoly(breaks, rng.standard_normal((39, NPTS + 1, 27)) + 1j * rng.standard_normal((39, NPTS + 1, 27)))
    s = rng.uniform(-1.0, 11.0, 3000)
    assert s.size * pw.coeffs[0].nbytes > 20 * READ_BYTES
    full = pw(s)
    assert full.tobytes() == np.concatenate([pw(s[i:i + 7]) for i in range(0, s.size, 7)]).tobytes()
    assert full[123].tobytes() == pw(s[123]).tobytes()
    idx = np.searchsorted(breaks[1:-1], s, side="right")
    x = (2 * s - breaks[idx] - breaks[idx + 1]) / (breaks[idx + 1] - breaks[idx])
    one = (L.legvander(x, NPTS)[:, None, :] @ pw.coeffs[idx])[:, 0]
    assert full.tobytes() == one.tobytes()

    # the panel read: every panel cut into 30 sub-panels, read in a random order
    edges = np.linspace(breaks[:-1], breaks[1:], 31)
    order = rng.permutation(edges[:-1].size)
    lo, hi = edges[:-1].ravel()[order], edges[1:].ravel()[order]
    assert lo.size * pw.coeffs[0].nbytes > 20 * READ_BYTES
    idx = np.searchsorted(breaks, lo, side="right") - 1
    s = NODES * ((hi - lo) / 2)[:, None] + ((hi + lo) / 2)[:, None]
    x = (2 * s - breaks[idx, None] - breaks[idx + 1, None]) / (breaks[idx + 1] - breaks[idx])[:, None]
    assert pw.gauss_values(lo, hi).tobytes() == (L.legvander(x, NPTS) @ pw.coeffs[idx]).tobytes()


def test_pwpoly_shape_validation():
    with pytest.raises(ValueError):
        PwPoly(np.array([0.0, 1.0, 2.0]), np.zeros((1, NPTS)))
    with pytest.raises(ValueError):
        adaptive_pw(np.cos, 1.0, 1.0, tol=1e-12)
