"""Period polynomials and (multiple) L-values of even-weight forms.

Single moments M_k = int_0^{ioo} f(tau) tau^k dtau are computed from the
split integral i^(k+1) [int_{y0}^oo f(iy) y^k dy + i^(w+2) int_{1/y0}^oo
f(iu) u^(w-k) du]; the S-transformation folds the cusp at 0 into a second
exponentially convergent tail.  The default split y0 = 1 makes the
functional equation an algebraic identity of the formula, so the
consistency probe deliberately uses two different split points, where
equality is earned by the quadrature, not by symmetry.

Every moment of a form reads one memoized fit (_moment_fit): f(iy) y^m,
m = 0..w, resolved to quad_tol on [Y_LO, Y_HI(f)] with the fold y = 1 and
the probe's split heights as breaks, where Y_HI(f) is the height past which
f(iy) y^w is exactly 0 in float64.  A split y0 is allowed when y0 and 1/y0
both lie at or above Y_LO.  Each table is the fit's antiderivative read at
the split, its fold and the top, so the truncation is 0 (the atol of
QuadConfig changes no moment) and the error is the fit's, about quad_tol of
the running scale of f y^m.

Double moments read the inner form's antiderivatives F_m(Y) = int_{Y_LO}^Y
f2(iu) u^m du, and the inner integral from 0 is assembled from F at the
outer nodes on both sides of the fold.  The outer integrand is a sum of two
products of factors, the outer form's fit and the inner integrals, each a
polynomial on every panel of the merged breaks, so Gauss on those panels
integrates it exactly, and the (w1+1, w2+1) tensor is never sampled.  No
double moment runs an adaptive build or evaluates a form.

Values here are "completed moments"; the conventional completed L-function
at integer arguments is Lambda(f, s) = M_{s-1} / i^s.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np
from numpy.polynomial import Polynomial

from .iterint import QuadConfig, cutoff_height, identity_report
from .modforms import CuspForm, eval_forms
from .quadrature import PwPoly, adaptive_pw, merged_gauss

__all__ = [
    "moment",
    "moments_table",
    "lambda_value",
    "period_polynomial",
    "double_moments",
    "double_period_polynomial",
    "verify_shuffle",
    "lambda_probe",
    "clear_caches",
]

PROBE_SPLITS = (0.7, 1.3)  # the functional-equation probe's two split heights
Y_LO = min(PROBE_SPLITS)  # the lowest height a moment fit covers
# the inner ends of every moment fit: the fold and the other heights the probe reads
FIT_ENDS = tuple(sorted({1.0, *PROBE_SPLITS, *(1.0 / s for s in PROBE_SPLITS)} - {Y_LO}))
# cutoff_height's atol for the top Y_HI(f) of a moment fit: the tail bound is
# below 1e-302 there, and past it e^(-2 pi y) has underflowed, so f(iy) y^w
# is exactly 0 in float64
FLOOR_ATOL = 1e-300


def _check_trivial(f: CuspForm) -> int:
    if f.multiplier.kind != "trivial":
        raise ValueError("moments need a trivial-multiplier form")
    w = f.shifted_weight
    if w.denominator != 1 or int(w) % 2:
        raise ValueError("moments need even integer shifted weight")
    return int(w)


@lru_cache(maxsize=64)
def _moment_fit(f: CuspForm, quad_tol: float) -> PwPoly:
    """PwPoly fit of f(iy) y^m, m = 0..w, of a nonzero form, resolved to
    quad_tol on [Y_LO, Y_HI(f)]; every moment of f reads it.

    The fold y = 1 and the probe's heights (FIT_ENDS) are ends of the build,
    so each interval between them keeps its own running scale and a read
    there sums whole panels.  A read inside a panel is only as good as the
    panel's fit, resolved against its largest column's scale: read that way
    at split 1, S40.1's period polynomial is 1e-12 off, and 2e-16 with the
    fold as an end."""
    w = int(f.shifted_weight)
    ms = np.arange(w + 1)
    # a real q-expansion is real on the imaginary axis: its fit is real, half the bytes
    real = not np.any(f.expansion.coeffs.imag)

    def fun(y):
        fv = eval_forms([f], 1j * y)[0]
        fv = fv.real if real else fv
        return fv[:, None] * y[:, None] ** ms[None, :]

    return adaptive_pw(fun, Y_LO, np.array([*FIT_ENDS, cutoff_height([f], w, None, FLOOR_ATOL)]),
                       tol=quad_tol)


clear_caches = _moment_fit.cache_clear


def moments_table(f: CuspForm, split: float = 1.0,
                  cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """M_k(f) = int_0^{ioo} f(tau) tau^k dtau for k = 0..w, split at
    y = split: one antiderivative read at the top, split and 1/split.
    Raises ValueError unless split and 1/split are both >= Y_LO."""
    w = _check_trivial(f)
    if not (split >= Y_LO and 1.0 / split >= Y_LO):
        raise ValueError(f"split must lie in [{Y_LO}, {1.0 / Y_LO:.6g}], where split and "
                         f"1/split are both >= Y_LO = {Y_LO}; got {split!r}")
    if f.is_zero:
        return np.zeros(w + 1, dtype=complex)
    F = _moment_fit(f, cfg.quad_tol).antiderivative()
    top, at_split, at_fold = F(np.array([F.breaks[-1], split, 1.0 / split]))
    upper = top - at_split
    lower = 1j ** (w + 2) * (top - at_fold)[::-1]
    return 1j ** np.arange(1, w + 2) * (upper + lower)


def moment(f: CuspForm, k: int, split: float = 1.0,
           cfg: QuadConfig = QuadConfig()) -> complex:
    """M_k(f) = int_0^{ioo} f(tau) tau^k dtau, split at y = split."""
    w = _check_trivial(f)
    if not 0 <= k <= w:
        raise ValueError(f"moment index k must be in 0..{w}")
    return complex(moments_table(f, split, cfg)[k])


def lambda_value(f: CuspForm, s: int, split: float = 1.0,
                 cfg: QuadConfig = QuadConfig()) -> complex:
    """Completed L-value Lambda(f, s) = M_{s-1} / i^s for s = 1..w+1."""
    return moment(f, s - 1, split, cfg) / 1j**s


def _kernel_expansion(w: int) -> np.ndarray:
    """Exact ints C(w,k) (-1)^(w-k), k = 0..w: the tau^k t^(w-k) terms of (tau - t)^w."""
    return np.array([comb(w, k) * (-1) ** (w - k) for k in range(w + 1)], dtype=object)


def period_polynomial(f: CuspForm, cfg: QuadConfig = QuadConfig()) -> Polynomial:
    """p(t) = sum_k C(w,k) (-1)^(w-k) M_k t^(w-k), equal to the single
    iterated integral from 0 to oo with kernel (tau - t)^w."""
    w = _check_trivial(f)
    return Polynomial((_kernel_expansion(w).astype(float) * moments_table(f, 1.0, cfg))[::-1])


def double_moments(f1: CuspForm, f2: CuspForm,
                   cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """M_{k1,k2} = int_0^{ioo} f1(tau1) tau1^k1 int_0^{tau1} f2(tau2) tau2^k2,
    shape (w1+1, w2+1); inner integral folded at y = 1 through F_m.

    Past the fold the integrand is G = a_0 (x) b_0 + a_1 (x) b_1 in y, with
    factor columns a = [f1 y^k1, i^(w1+2) f1 y^(w1-k1)] (outer form, direct
    and folded) and b = [A, Arec] (inner integral up to iy and up to i/y).
    a is read from f1's moment fit and b from the antiderivative F2 of f2's,
    held at its top value past its last break, where f2's integrand is
    exactly 0.  On each panel of the two PwPolys' merged breaks over
    [1, Y_HI(f1)], a is of degree 15 and b of degree 16, so 16-point Gauss
    sums the table exactly from the factors at its nodes.  The error is
    each factor's, about quad_tol of its running scale: |da| |b| + |a| |db|
    is about quad_tol max|a| max|b| per group pair.  The truncation is 0:
    past Y_HI(f1) the outer factor is exactly 0 in float64.
    """
    w1 = _check_trivial(f1)
    w2 = _check_trivial(f2)
    if f1.is_zero or f2.is_zero:
        return np.zeros((w1 + 1, w2 + 1), dtype=complex)
    fit1 = _moment_fit(f1, cfg.quad_tol)
    F2 = _moment_fit(f2, cfg.quad_tol).antiderivative()
    top = F2.breaks[-1]
    top2, F1v = F2(np.array([top, 1.0]))
    k1s = np.arange(w1 + 1)
    k2s = np.arange(w2 + 1)
    # inner integral from 0 to i: the fold constant, indexed by k2
    below_one = 1j ** (w2 + 2) * (top2 - F1v)[::-1]
    y, wts = merged_gauss(1.0, fit1.breaks[-1], fit1, F2)
    Fy = F2(np.minimum(y, top))                             # (npts, w2+1)
    # inner integral from 0 to iy, and from 0 to i/y, for each k2
    A = 1j ** (k2s + 1) * (below_one[None, :] + (Fy - F1v[None, :]))
    Arec = 1j ** (k2s + w2 + 3) * (top2[None, :] - Fy)[:, ::-1]
    a = wts[:, None] * fit1(y)                              # (npts, w1+1): weighted f1 y^k1
    table = a.T @ A + 1j ** (w1 + 2) * a[:, ::-1].T @ Arec
    return 1j ** (k1s + 1)[:, None] * table


def double_period_polynomial(f1: CuspForm, f2: CuspForm,
                             cfg: QuadConfig = QuadConfig()) -> Polynomial:
    """Coefficients in t of the order-2 integral from 0 to oo: both kernels
    expanded binomially; term (k1, k2) adds to t^((w1-k1)+(w2-k2)) in loop order."""
    w1 = _check_trivial(f1)
    w2 = _check_trivial(f2)
    # exact int products rounded once, as the loop's were (C(w,k) passes 2^53 at w = 57)
    binom = np.outer(_kernel_expansion(w1), _kernel_expansion(w2)).astype(float)
    terms = binom * double_moments(f1, f2, cfg)
    coeffs = np.zeros(w1 + w2 + 1, dtype=complex)
    np.add.at(coeffs, np.add.outer(range(w1, -1, -1), range(w2, -1, -1)), terms)
    return Polynomial(coeffs)


def verify_shuffle(f1: CuspForm, f2: CuspForm, panel,
                   cfg: QuadConfig = QuadConfig()) -> dict:
    """Residual of P2(t) + t^(w1+w2) P2(-1/t) = P1(t) Q1(t) on the panel.

    This is the coefficient identity from comparing the order-2 composition
    with the S-equivariance of the order-1 integrals.
    """
    t = np.atleast_1d(np.asarray(panel, dtype=complex))
    P2 = double_period_polynomial(f1, f2, cfg)  # degree w1 + w2
    P1 = period_polynomial(f1, cfg)
    Q1 = period_polynomial(f2, cfg)
    lhs = P2(t) + t ** P2.degree() * P2(-1.0 / t)
    return identity_report("shuffle", lhs, P1(t) * Q1(t), t, forms=[f1.label, f2.label])


def lambda_probe(f: CuspForm, cfg: QuadConfig = QuadConfig()) -> dict:
    """Functional-equation consistency Lambda(s) = (-1)^((w+2)/2)
    Lambda(w+2-s), the two sides split at different heights so the identity
    is not a symmetry of the formula (PROBE_SPLITS).

    Each row's rel_err is relative to |Lambda(s)|, except the central row of
    a sign -1 form: there the equation forces Lambda(k/2) = 0, so that row is
    relative to the table scale max_s |Lambda(s)|."""
    w = _check_trivial(f)
    k = w + 2
    sign = (-1) ** (k // 2)
    Ma = moments_table(f, PROBE_SPLITS[0], cfg)
    Mb = moments_table(f, PROBE_SPLITS[1], cfg)
    lam = [complex(Ma[s - 1]) / 1j**s for s in range(1, w + 2)]
    table_scale = max(abs(La) for La in lam)
    rows = []
    worst = 0.0
    for s, La in enumerate(lam, 1):
        Lb = complex(Mb[k - s - 1]) / 1j**(k - s)
        size = table_scale if sign < 0 and 2 * s == k else abs(La)
        rel = abs(La - sign * Lb) / size
        worst = max(worst, rel)
        rows.append({"s": s, "lambda": [La.real, La.imag], "rel_err": rel})
    return {"identity": "functional_equation", "form": f.label,
            "sign": sign, "rows": rows, "max_rel": worst}
