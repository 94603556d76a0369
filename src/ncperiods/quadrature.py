"""Adaptive piecewise-Legendre quadrature on real intervals.

Each panel stores a degree-15 Legendre series fitted through 16-point
Gauss-Legendre samples; the transform node-values -> coefficients is exact
for polynomials of degree <= 15, so the top two coefficients measure how
unresolved the panel is.  Antiderivatives stay in the same representation,
which is what makes layered iterated integrals cheap: integrate once, then
reevaluate the antiderivative anywhere.

Every panel has the same order, so the fit (TMAT) and the antiderivative
(LEGINT) are fixed matrices, each applied to all panels in one product;
a read runs the Legendre three-term recurrence at its points and contracts
each point's row with its panel's coefficients in one batched matmul, in
blocks of points whose gathered coefficients stay under READ_BYTES.  Two
piecewise series integrate their product exactly by Gauss on the merged
breaks (merged_gauss), which is how factored integrands skip their outer
product.

One build may cover several abutting intervals (adaptive_pw with an array of
ends): each interval keeps its own running scale and limits, as if built
alone, while every round fits all intervals' pending panels with one call of
the integrand, which is how a path of several segments costs one pass per
round instead of one per segment.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as L

__all__ = ["NPTS", "NODES", "WEIGHTS", "MAX_PANELS", "MIN_WIDTH", "INIT_PANELS",
           "READ_BYTES", "PwPoly", "QuadratureError", "adaptive_pw", "merged_gauss"]

NPTS = 16
NODES, WEIGHTS = L.leggauss(NPTS)
MAX_PANELS = 4096
MIN_WIDTH = 1e-12
INIT_PANELS = 4
READ_BYTES = 1 << 18  # a read gathers at most this many bytes of panel coefficients at once

# row k: (2k+1)/2 * w_i * P_k(x_i); TMAT @ values == Legendre coefficients
TMAT = L.legvander(NODES, NPTS - 1).T * WEIGHTS * (np.arange(NPTS) + 0.5)[:, None]
# column j: antiderivative of P_j on [-1, 1] vanishing at -1 (NPTS + 1 rows)
LEGINT = L.legint(np.eye(NPTS), lbnd=-1)


class QuadratureError(Exception):
    """The integrand did not resolve within MAX_PANELS panels on an interval,
    or a panel still unresolved would have to split below MIN_WIDTH; interval
    is the index of the interval of adaptive_pw's build where it stopped."""

    def __init__(self, message: str, interval: int):
        super().__init__(message)
        self.interval = int(interval)


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
        """Values at s; points outside the breaks extrapolate the edge panel.

        Each point's panel coefficients are gathered in blocks of points that
        take at most READ_BYTES (one point at least); a point's value does
        not depend on its block."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        # the panel of each point, the edge panels extended beyond the ends
        idx = np.searchsorted(self.breaks[1:-1], s, side="right")
        a, b = self.breaks[idx], self.breaks[idx + 1]
        x = (2 * s - a - b) / (b - a)
        # legvander's own three-term recurrence, so V is the same bit for bit;
        # one point runs it on a numpy scalar, ten times faster than on a 1-array
        x = x[0] if len(s) == 1 else x
        K, ncoef = self.coeffs.shape[:2]
        P = [x * 0 + 1, x]
        for i in range(2, ncoef):
            P.append((P[i - 1] * x * (2 * i - 1) - P[i - 2] * (i - 1)) / i)
        V = np.array(P).T.reshape(len(s), 1, ncoef)
        c = self.coeffs.reshape(K, ncoef, -1)
        out = np.empty((len(s), 1, c.shape[2]), dtype=np.result_type(V, c))
        block = max(1, READ_BYTES // c[0].nbytes)
        for i in range(0, len(s), block):
            np.matmul(V[i:i + block], c[idx[i:i + block]], out=out[i:i + block])
        out = out.reshape((len(s),) + self.coeffs.shape[2:])
        return out[0] if scalar else out

    def antiderivative(self) -> "PwPoly":
        """Antiderivative vanishing at breaks[0], continuous across panels."""
        K, ncoef = self.coeffs.shape[:2]
        half = (np.diff(self.breaks) / 2).reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        scaled = (self.coeffs * half).reshape(K, ncoef, -1)
        out = (LEGINT @ scaled).reshape((K, ncoef + 1) + self.coeffs.shape[2:])
        # integral of panel p is width * c0 (only P_0 survives over [-1,1])
        out[1:, 0] += np.cumsum(2 * half[:, 0] * self.coeffs[:, 0], axis=0)[:-1]
        return PwPoly(self.breaks, out)


def merged_gauss(lo: float, hi: float, *pws: PwPoly) -> tuple:
    """Nodes and weights of NPTS-point Gauss-Legendre on [lo, hi] cut at every
    break of pws inside it, flat in panel order.  On each of these panels
    every pw is one polynomial, so the rule integrates the product of a
    degree-15 series and a degree-16 one (a fit and an antiderivative)
    exactly."""
    br = np.sort(np.concatenate([[lo, hi]] + [pw.breaks for pw in pws]))
    br = br[(br >= lo) & (br <= hi)]
    br = br[np.append(True, br[1:] > br[:-1])]  # np.unique, without its import of numpy.ma
    half, mid = np.diff(br)[:, None] / 2, (br[1:] + br[:-1])[:, None] / 2
    return (NODES * half + mid).ravel(), (WEIGHTS * half).ravel()


def adaptive_pw(fun, a: float, b, tol: float) -> PwPoly:
    """Build a PwPoly for fun on [a, b] by bisection until resolved.

    b is one end, or an ascending array of interval ends, in which case the
    build covers [a, b[0]], [b[0], b[1]], ... and the PwPoly's breaks hold
    every end.  Each interval is its own build: it starts from INIT_PANELS
    equal panels, no panel crosses its ends, and it keeps its own running
    scale, its own count against MAX_PANELS and its own MIN_WIDTH refusal,
    so its panels are accepted or split exactly as a build on that interval
    alone decides; the intervals share only the rounds.

    fun maps a flat array of parameter values to (npts, *extra) samples, or
    to a tuple of such arrays (groups) that differ only in their last axis;
    each round evaluates every pending panel's 16 nodes, over all intervals,
    in a single call and fits them in one product, a tuple's groups
    concatenated on the last axis.  A panel is accepted when, in every group,
    |c[14]| + |c[15]| <= tol * scale, with scale that group's running max
    coefficient magnitude over its interval's build in panel order (so the
    criterion is relative to the group's size on the interval, not
    per-panel; a single array is one group).  More than MAX_PANELS panels on
    an interval, or a panel that would have to split below MIN_WIDTH, raises
    QuadratureError naming the interval.
    """
    ends = np.concatenate([[a], np.atleast_1d(np.asarray(b, dtype=float))])
    if not np.all(ends[1:] > ends[:-1]):
        raise ValueError("need ascending interval ends, b > a")
    n_iv = len(ends) - 1
    edges = np.linspace(ends[:-1], ends[1:], INIT_PANELS + 1)  # column k: interval k's panels
    lo, hi = edges[:-1].T.ravel(), edges[1:].T.ravel()
    iv = np.repeat(np.arange(n_iv), INIT_PANELS)  # each pending panel's interval, ascending
    acc_lo, acc_c = [], []  # each round's accepted panels
    n_done = 0
    scale = [0.0] * n_iv  # per interval: each group's running max coefficient magnitude
    while len(lo):
        bounds = np.searchsorted(iv, np.arange(n_iv + 1))  # interval k pends bounds[k]:bounds[k + 1]
        if n_done + len(lo) > MAX_PANELS:  # only then can an interval exceed it
            done = np.concatenate(acc_lo) if acc_lo else lo[:0]
            per_iv = np.bincount(np.searchsorted(ends, done, "right") - 1, minlength=n_iv)
            over = np.flatnonzero(per_iv + np.diff(bounds) > MAX_PANELS)
            if len(over):
                k = over[0]
                raise QuadratureError(
                    f"exceeded {MAX_PANELS} panels on [{ends[k]}, {ends[k + 1]}]; "
                    f"integrand too rough for tol={tol:.1e}", k)
        pts = (NODES[None, :] * (hi - lo)[:, None] / 2 + (hi + lo)[:, None] / 2).ravel()
        vals = fun(pts)
        groups = [Ellipsis]  # index of each group's columns in vals: one array is one group
        if isinstance(vals, tuple):
            cuts = np.cumsum([0] + [np.shape(v)[-1] for v in vals])
            groups = [(..., slice(p, q)) for p, q in zip(cuts[:-1], cuts[1:])]
            vals = np.concatenate(vals, axis=-1)
        vals = np.asarray(vals)
        vals = vals.reshape((len(lo), NPTS) + vals.shape[1:])
        coeffs = np.moveaxis(np.tensordot(TMAT, vals, axes=([1], [1])), 0, 1)
        absc = np.abs(coeffs)
        tail = absc[:, -2] + absc[:, -1]
        # per panel and group: the largest coefficient, turned in place into
        # the running scale in panel order within its interval, and the
        # largest tail
        running = np.array([absc[g].reshape(len(lo), -1).max(axis=1) for g in groups]).T
        for k in range(n_iv):
            r = running[bounds[k]:bounds[k + 1]]
            if len(r):
                np.maximum(np.maximum.accumulate(r, axis=0, out=r), scale[k], out=r)
                scale[k] = r[-1]
        tails = np.array([tail[g].reshape(len(lo), -1).max(axis=1) for g in groups]).T
        split = ~np.all(tails <= tol * np.maximum(running, 1e-300), axis=1)
        stuck = np.flatnonzero(split & (hi - lo <= MIN_WIDTH))
        if len(stuck):
            i = stuck[0]
            k = iv[i]
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] of [{ends[k]}, {ends[k + 1]}] still unresolved at width "
                f"{hi[i] - lo[i]:.1e} <= MIN_WIDTH; integrand too rough for tol={tol:.1e}", k)
        keep = ~split
        acc_lo.append(lo[keep])
        acc_c.append(coeffs[keep])
        n_done += len(acc_lo[-1])
        mid = (lo[split] + hi[split]) / 2
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
        iv = np.repeat(iv[split], 2)
    lo = np.concatenate(acc_lo)
    order = np.argsort(lo, kind="stable")
    breaks = np.append(lo[order], ends[-1])
    return PwPoly(breaks, np.concatenate(acc_c)[order])
