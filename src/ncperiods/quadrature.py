"""Adaptive piecewise-Legendre quadrature on real intervals.

Each panel stores a degree-15 Legendre series fitted through 16-point
Gauss-Legendre samples; the transform node-values -> coefficients is exact
for polynomials of degree <= 15, so the top two coefficients measure how
unresolved the panel is.  Antiderivatives stay in the same representation,
which is what makes layered iterated integrals cheap: integrate once, then
reevaluate the antiderivative anywhere.

Every panel has the same order, so the fit (TMAT) and the antiderivative
(LEGINT) are fixed matrices, each applied to all panels in one product;
evaluation builds a Legendre Vandermonde row per point at each read.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as L

__all__ = ["NPTS", "NODES", "WEIGHTS", "MAX_PANELS", "MIN_WIDTH", "INIT_PANELS",
           "PwPoly", "QuadratureError", "adaptive_pw"]

NPTS = 16
NODES, WEIGHTS = L.leggauss(NPTS)
MAX_PANELS = 4096
MIN_WIDTH = 1e-12
INIT_PANELS = 4

# row k: (2k+1)/2 * w_i * P_k(x_i); TMAT @ values == Legendre coefficients
TMAT = L.legvander(NODES, NPTS - 1).T * WEIGHTS * (np.arange(NPTS) + 0.5)[:, None]
# column j: antiderivative of P_j on [-1, 1] vanishing at -1 (NPTS + 1 rows)
LEGINT = L.legint(np.eye(NPTS), lbnd=-1)


class QuadratureError(Exception):
    """The integrand did not resolve within MAX_PANELS panels, or a panel
    still unresolved would have to split below MIN_WIDTH."""


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

    def __call__(self, s):
        """Values at s; points outside the breaks extrapolate the edge panel."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, s, side="right") - 1, 0, len(self.breaks) - 2)
        a, b = self.breaks[idx], self.breaks[idx + 1]
        V = L.legvander((2 * s - a - b) / (b - a), self.coeffs.shape[1] - 1)
        out = np.einsum("nk,nk...->n...", V, self.coeffs[idx])
        return out[0] if scalar else out

    def antiderivative(self) -> "PwPoly":
        """Antiderivative vanishing at breaks[0], continuous across panels."""
        half = (np.diff(self.breaks) / 2).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        out = np.einsum("ij,pj...->pi...", LEGINT, self.coeffs * half)
        # integral of panel p is width * c0 (only P_0 survives over [-1,1])
        out[1:, 0] += np.cumsum(2 * half[:, 0] * self.coeffs[:, 0], axis=0)[:-1]
        return PwPoly(self.breaks, out)

    def integral(self):
        widths = np.diff(self.breaks)
        return np.tensordot(widths, self.coeffs[:, 0], axes=([0], [0]))


def adaptive_pw(fun, a: float, b: float, tol: float) -> PwPoly:
    """Build a PwPoly for fun on [a, b] by bisection until resolved.

    fun maps a flat array of parameter values to (npts, *extra) samples; each
    round evaluates every pending panel's 16 nodes in a single call and fits
    them in one product.  A panel is accepted when |c[14]| + |c[15]| <= tol *
    scale, with scale the running max coefficient magnitude over the whole
    build in panel order (so the criterion is relative to the function's
    global size, not per-panel).  The build starts from INIT_PANELS equal
    panels; more than MAX_PANELS panels, or a panel that would have to split
    below MIN_WIDTH, raises QuadratureError.
    """
    if not b > a:
        raise ValueError("need b > a")
    edges = np.linspace(a, b, INIT_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    accepted = []
    scale = 0.0
    while len(lo):
        if len(accepted) + len(lo) > MAX_PANELS:
            raise QuadratureError(
                f"exceeded {MAX_PANELS} panels on [{a}, {b}]; integrand too rough for tol={tol:.1e}")
        pts = (NODES[None, :] * (hi - lo)[:, None] / 2 + (hi + lo)[:, None] / 2).ravel()
        vals = np.asarray(fun(pts))
        vals = vals.reshape((len(lo), NPTS) + vals.shape[1:])
        coeffs = np.moveaxis(np.tensordot(TMAT, vals, axes=([1], [1])), 0, 1)
        mags = np.abs(coeffs).reshape(len(lo), -1).max(axis=1)
        tails = (np.abs(coeffs[:, -2]) + np.abs(coeffs[:, -1])).reshape(len(lo), -1).max(axis=1)
        split = np.zeros(len(lo), dtype=bool)
        for i in range(len(lo)):
            scale = max(scale, mags[i])
            if tails[i] <= tol * max(scale, 1e-300):
                accepted.append((lo[i], hi[i], coeffs[i]))
            elif hi[i] - lo[i] <= MIN_WIDTH:
                raise QuadratureError(
                    f"panel [{lo[i]}, {hi[i]}] of [{a}, {b}] still unresolved at width "
                    f"{hi[i] - lo[i]:.1e} <= MIN_WIDTH; integrand too rough for tol={tol:.1e}")
            else:
                split[i] = True
        mid = (lo[split] + hi[split]) / 2
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
    accepted.sort(key=lambda t: t[0])
    breaks = np.array([p[0] for p in accepted] + [accepted[-1][1]])
    return PwPoly(breaks, np.stack([p[2] for p in accepted]))
