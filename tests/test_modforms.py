"""Evaluable cusp forms: modular transformation law, special values, tails.

The k-sweep modularity check is the load-bearing regression here: any error in
the exact q-expansion bases (wrong Eisenstein powers, shifted indices, ...)
shows up as an O(1) violation of f(-1/z) = z^k f(z) long before it corrupts a
multi-step computation downstream.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ncperiods.modforms import (
    CuspForm,
    EvalError,
    QSeries,
    cusp_space_basis,
    eta_form,
    eval_form,
    eval_forms,
    form_linear_combination,
    level_one_basis,
    transformation_factor,
)
from ncperiods.ncpoly import MultiplierSpec, TRIVIAL
from ncperiods.sl2z import S, T, parse_word

POINTS = np.array([0.13 + 0.95j, -0.41 + 1.2j, 0.5 + 1.02j, -0.07 + 2.3j])


def test_modularity_sweep_level_one():
    """f(gamma tau) = (c tau + d)^k f(tau) for every echelon basis form,
    k = 12..36, at gamma = S and a generic word."""
    gammas = [S, parse_word("TST^-1S")]
    for k in range(12, 38, 2):
        for f in level_one_basis(k):
            vals = eval_form(f, POINTS)
            for g in gammas:
                lhs = eval_form(f, g.mobius(POINTS))
                rhs = transformation_factor(f, g, POINTS) * vals
                scale = max(float(np.max(np.abs(lhs))), 1.0)
                assert np.max(np.abs(lhs - rhs)) < 5e-13 * scale, (k, f.label)


def test_modularity_eta_spaces():
    for N, w in [(4, Fraction(0)), (4, Fraction(4)), (12, Fraction(4)), (1, Fraction(-3, 2))]:
        basis = cusp_space_basis(w, MultiplierSpec.eta_power(N))
        assert basis, (N, w)
        for f in basis:
            vals = eval_form(f, POINTS)
            for g in (S, parse_word("TS")):
                lhs = eval_form(f, g.mobius(POINTS))
                rhs = transformation_factor(f, g, POINTS) * vals
                scale = max(float(np.max(np.abs(lhs))), 1.0)
                assert np.max(np.abs(lhs - rhs)) < 5e-13 * scale, (N, w, f.label)


def test_eta_special_value():
    """eta(i) = Gamma(1/4) / (2 pi^(3/4)), a closed form independent of this
    code base; Delta(i) is its 24th power."""
    eta_i = math.gamma(0.25) / (2 * math.pi**0.75)
    f1 = eta_form(1)
    assert eval_form(f1, 1j) == pytest.approx(eta_i, rel=1e-13)
    delta = level_one_basis(12)[0]
    assert eval_form(delta, 1j) == pytest.approx(eta_i**24, rel=1e-12)


def test_eval_vectorized_matches_scalar():
    delta = level_one_basis(12)[0]
    g16 = level_one_basis(16)[0]
    block = eval_forms([delta, g16], POINTS)
    assert block.shape == (2, 4)
    for j, tau in enumerate(POINTS):
        assert block[0, j] == pytest.approx(eval_form(delta, complex(tau)))
        assert block[1, j] == pytest.approx(eval_form(g16, complex(tau)))


def test_decay_bound():
    """|f(x+iy)| <= decay_C exp(-2 pi kappa_min y) on a grid of heights."""
    for f in [level_one_basis(12)[0], eta_form(4), level_one_basis(24)[1]]:
        for y in (1.0, 1.5, 2.5, 4.0):
            taus = np.linspace(-0.5, 0.5, 7) + 1j * y
            vals = np.abs(eval_form(f, taus))
            assert np.all(vals <= f.decay_C * np.exp(-2 * np.pi * f.kappa_min * y) * (1 + 1e-12))


def test_eval_refuses_uncertified():
    delta = level_one_basis(12)
    with pytest.raises(EvalError):
        eval_form(delta[0], 0.02j)
    with pytest.raises(ValueError):
        eval_form(delta[0], 1.0 - 0.5j)


def test_form_linear_combination():
    b = level_one_basis(24)
    combo = form_linear_combination([2.0, -3.0], b)
    lhs = eval_form(combo, POINTS)
    rhs = 2.0 * eval_form(b[0], POINTS) - 3.0 * eval_form(b[1], POINTS)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    # cancellation of the leading coefficient moves kappa up
    shifted = form_linear_combination([0.0, 1.0], b)
    assert shifted.expansion.kappa == 2
    zero = form_linear_combination([0.0, 0.0], b)
    assert zero.is_zero
    with pytest.raises(ValueError):
        form_linear_combination([1.0, 1.0], [b[0], level_one_basis(12)[0]])
    with pytest.raises(ValueError, match="not finite"):
        form_linear_combination([1e300, 0.0], b)


def test_cached_constants_cannot_go_stale():
    """Expansions are private read-only copies, so the constants a form
    caches from its coefficients always match a fresh computation."""
    src = np.array(level_one_basis(16)[0].expansion.coeffs)
    f = CuspForm(Fraction(14), TRIVIAL, QSeries(Fraction(1), src), label="S16.1")
    names = ("kappa_min", "growth_power", "growth_const", "decay_C", "digest")
    cached = [getattr(f, n) for n in names] + [f.expansion.r24]
    src[3] = 1e6  # the caller's array is not the expansion
    with pytest.raises(ValueError):
        f.expansion.coeffs[3] = 1e6
    g = CuspForm(
        f.shifted_weight,
        f.multiplier,
        QSeries(f.expansion.kappa, np.array(f.expansion.coeffs)),
        label=f.label,
    )
    assert cached == [getattr(g, n) for n in names] + [g.expansion.r24]


def test_digest_distinguishes():
    assert level_one_basis(12)[0].digest != level_one_basis(16)[0].digest
    assert eta_form(4).digest != eta_form(8).digest


def test_transformation_factor_T():
    """At T the factor reduces to the multiplier alone."""
    delta = level_one_basis(12)[0]
    assert np.allclose(transformation_factor(delta, T, POINTS), 1.0)
    f = eta_form(4)
    fac = transformation_factor(f, T, POINTS)
    assert np.allclose(fac, np.exp(4j * np.pi / 12))
