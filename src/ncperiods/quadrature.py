"""Adaptive piecewise-Legendre quadrature on real intervals.

Each panel stores a degree-15 Legendre series fitted through 16-point
Gauss-Legendre samples; the transform node-values -> coefficients is exact
for polynomials of degree <= 15, so the top two coefficients measure how
unresolved the panel is.  Antiderivatives stay in the same representation,
which is what makes layered iterated integrals cheap: integrate once, then
reevaluate the antiderivative anywhere.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as L

__all__ = ["NPTS", "NODES", "WEIGHTS", "PwPoly", "QuadratureError", "adaptive_pw"]

NPTS = 16
NODES, WEIGHTS = L.leggauss(NPTS)

# row k: (2k+1)/2 * w_i * P_k(x_i); values @ TMAT.T == Legendre coefficients
TMAT = np.empty((NPTS, NPTS))
for _k in range(NPTS):
    _e = np.zeros(_k + 1)
    _e[_k] = 1.0
    TMAT[_k] = (2 * _k + 1) / 2.0 * WEIGHTS * L.legval(NODES, _e)
del _k, _e


class QuadratureError(Exception):
    """The integrand did not resolve within the panel budget or min_width."""


def _coeffs_from_values(vals: np.ndarray) -> np.ndarray:
    """(..., NPTS, *extra) node values -> same-shape Legendre coefficients."""
    return np.tensordot(TMAT, vals, axes=([1], [0])) if vals.ndim > 1 else TMAT @ vals


class PwPoly:
    """Piecewise Legendre series over [breaks[0], breaks[-1]].

    coeffs has shape (K, ncoef, *extra): panel, Legendre degree, then any
    value dimensions (e.g. one axis for a batch of t arguments).
    """

    def __init__(self, breaks: np.ndarray, coeffs: np.ndarray):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = np.asarray(coeffs)
        if self.coeffs.shape[0] != len(self.breaks) - 1:
            raise ValueError("panel count mismatch")

    @property
    def extra_shape(self):
        return self.coeffs.shape[2:]

    def _panel_index(self, s: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breaks, s, side="right") - 1
        return np.clip(idx, 0, len(self.breaks) - 2)

    def __call__(self, s):
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = self._panel_index(s)
        out = np.empty((len(s),) + self.extra_shape, dtype=self.coeffs.dtype)
        for p in np.unique(idx):
            sel = idx == p
            a, b = self.breaks[p], self.breaks[p + 1]
            x = (2 * s[sel] - a - b) / (b - a)
            out[sel] = np.tensordot(L.legvander(x, self.coeffs.shape[1] - 1),
                                    self.coeffs[p], axes=([1], [0]))
        return out[0] if scalar else out

    def antiderivative(self) -> "PwPoly":
        """Antiderivative vanishing at breaks[0], continuous across panels."""
        widths = np.diff(self.breaks)
        K, ncoef = self.coeffs.shape[:2]
        out = np.zeros((K, ncoef + 1) + self.extra_shape,
                       dtype=np.result_type(self.coeffs, float))
        # integral of panel p is width * c0 (only P_0 survives over [-1,1])
        panel_ints = self.coeffs[:, 0] * widths.reshape((-1,) + (1,) * len(self.extra_shape))
        csum = np.cumsum(panel_ints, axis=0)
        for p in range(K):
            ai = L.legint(self.coeffs[p], m=1, lbnd=-1, scl=widths[p] / 2, axis=0)
            out[p, : ai.shape[0]] = ai
            if p:
                out[p, 0] += csum[p - 1]
        return PwPoly(self.breaks, out)

    def integral(self):
        widths = np.diff(self.breaks)
        return np.tensordot(widths, self.coeffs[:, 0], axes=([0], [0]))

    def resolution_tail(self) -> float:
        """max over panels/value-dims of |c[-2]| + |c[-1]|."""
        tail = np.abs(self.coeffs[:, -2]) + np.abs(self.coeffs[:, -1])
        return float(np.max(tail))


def adaptive_pw(fun, a: float, b: float, tol: float = 1e-12,
                max_panels: int = 4096, min_width: float = 1e-12,
                init_panels: int = 4) -> PwPoly:
    """Build a PwPoly for fun on [a, b] by bisection until resolved.

    fun maps a flat array of parameter values to (npts, *extra) samples; each
    round evaluates every pending panel's 16 nodes in a single call.  A panel
    is accepted when |c[14]| + |c[15]| <= tol * scale, with scale the running
    max coefficient magnitude over the whole build (so the criterion is
    relative to the function's global size, not per-panel).  A panel that
    would have to split below min_width raises QuadratureError.
    """
    if not b > a:
        raise ValueError("need b > a")
    edges = np.linspace(a, b, init_panels + 1)
    pending = [(edges[i], edges[i + 1]) for i in range(init_panels)]
    accepted = []
    scale = 0.0
    while pending:
        if len(accepted) + len(pending) > max_panels:
            raise QuadratureError(
                f"exceeded {max_panels} panels on [{a}, {b}]; integrand too rough for tol={tol:.1e}")
        lo = np.array([p[0] for p in pending])
        hi = np.array([p[1] for p in pending])
        pts = (NODES[None, :] * (hi - lo)[:, None] / 2 + (hi + lo)[:, None] / 2).ravel()
        vals = np.asarray(fun(pts))
        vals = vals.reshape((len(pending), NPTS) + vals.shape[1:])
        nxt = []
        for i, (plo, phi) in enumerate(pending):
            c = _coeffs_from_values(vals[i])
            scale = max(scale, float(np.max(np.abs(c))))
            tail = float(np.max(np.abs(c[-2]) + np.abs(c[-1])))
            if tail <= tol * max(scale, 1e-300):
                accepted.append((plo, phi, c))
            elif (phi - plo) <= min_width:
                raise QuadratureError(
                    f"panel [{plo}, {phi}] of [{a}, {b}] still unresolved at width "
                    f"{phi - plo:.1e} <= min_width; integrand too rough for tol={tol:.1e}")
            else:
                mid = (plo + phi) / 2
                nxt.extend([(plo, mid), (mid, phi)])
        pending = nxt
    accepted.sort(key=lambda t: t[0])
    breaks = np.array([p[0] for p in accepted] + [accepted[-1][1]])
    coeffs = np.stack([p[2] for p in accepted])
    return PwPoly(breaks, coeffs)
