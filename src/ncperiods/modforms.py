"""Evaluable cusp forms: truncated q-expansions with certified tails.

A CuspForm bundles a q-expansion (exact coefficients cast to complex), the
shifted weight w (modular weight w + 2), a multiplier spec, and a decay bound
|f(x+iy)| <= C exp(-2 pi kappa_min y) valid for y >= 1.  Evaluation refuses,
rather than silently degrades, when the stored expansion cannot certify the
requested tolerance at the requested height.

Supported spaces: the eta powers eta^N, level-one trivial-multiplier cusp
forms (echelonized Delta * E4^b * E6^c), and eta^N' times level-one modular
forms, which together realize every cusp space S_{w+2}(SL2(Z), eps^N') a
monomial over a Trivial/EtaPower alphabet can ask for.

The refusal reads the whole stored expansion: eval_forms raises EvalError
unless the stored tail's bound is below TAIL_TOL at the lowest point.  Past
it each form sums its stored terms only up to the smallest index whose
dropped stored terms the same bound certifies below CUT_REL of the leading
coefficient there, far below the sum's rounding error.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import qexp
from .ncpoly import MultiplierSpec, TRIVIAL
from .sl2z import GroupElement, sqrt_upper

__all__ = [
    "QSeries",
    "CuspForm",
    "EvalError",
    "eta_qseries",
    "eta_form",
    "level_one_basis",
    "cusp_space_basis",
    "eval_form",
    "eval_forms",
    "transformation_factor",
    "form_linear_combination",
]

DEFAULT_M = 200
TAIL_TOL = 1e-13  # the certified tail bound every evaluation must beat
CUT_REL = 2.0**-60  # stored terms certified below this share of |a_0| are not summed


class EvalError(Exception):
    """Stored expansion cannot certify the requested tolerance."""


@dataclass(frozen=True)
class QSeries:
    """sum_n coeffs[n] q^(n + kappa), q = exp(2 pi i tau).

    kappa is a rational with denominator dividing 24 (integer for trivial
    multipliers, N/24 for eta powers), so q^kappa is an exact integer power
    of q^(1/24).
    """

    kappa: Fraction
    coeffs: np.ndarray

    def __post_init__(self):
        k = Fraction(self.kappa)
        if k <= 0 or (24 * k).denominator != 1:
            raise ValueError(f"kappa must be positive with denominator | 24, got {k}")
        object.__setattr__(self, "kappa", k)
        # a private read-only copy: the forms built on it cache constants
        # derived from the coefficients
        coeffs = np.array(self.coeffs, dtype=complex)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def M(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def r24(self) -> int:
        """kappa as an exact multiple of 1/24."""
        return int(24 * self.kappa)


@dataclass(frozen=True)
class CuspForm:
    shifted_weight: Fraction
    multiplier: MultiplierSpec
    expansion: QSeries
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "shifted_weight", Fraction(self.shifted_weight))

    @property
    def weight(self) -> Fraction:
        return self.shifted_weight + 2

    @cached_property
    def kappa_min(self) -> float:
        return float(self.expansion.kappa)

    @cached_property
    def growth_power(self) -> float:
        # crude coefficient growth model |a_n| <= c_g (n+1)^p, enough for tails
        return float(self.weight) + 2.0

    @cached_property
    def growth_const(self) -> float:
        a = np.abs(self.expansion.coeffs)
        n = np.arange(len(a), dtype=float) + 1.0
        return float(np.max(a / n**self.growth_power)) if len(a) else 0.0

    @cached_property
    def decay_C(self) -> float:
        """|f(x+iy)| <= decay_C * exp(-2 pi kappa_min y) for y >= 1."""
        a = np.abs(self.expansion.coeffs)
        n = np.arange(len(a), dtype=float)
        head = float(np.sum(a * np.exp(-2 * np.pi * n)))
        M = self.expansion.M
        # stored-tail bound at y = 1 via the growth model
        x = np.exp(-2 * np.pi)
        rho = x * (1 + 1 / (M + 2)) ** self.growth_power
        tail = self.growth_const * (M + 2) ** self.growth_power * x ** (M + 1) / (1 - rho)
        return head + tail

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.expansion.coeffs == 0))

    @cached_property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.shifted_weight).encode())
        h.update(f"{self.multiplier.kind}:{self.multiplier.N}".encode())
        h.update(str(self.expansion.kappa).encode())
        h.update(np.ascontiguousarray(self.expansion.coeffs).tobytes())
        return h.hexdigest()[:16]

    def __eq__(self, other):
        return isinstance(other, CuspForm) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        name = self.label or f"w={self.shifted_weight}"
        return f"CuspForm({name}, kappa={self.expansion.kappa})"


def eta_qseries(N: int) -> QSeries:
    """q-expansion of eta^N: kappa = N/24, integer product coefficients."""
    return QSeries(Fraction(N, 24), np.array(qexp.eta_power_coeffs(N, DEFAULT_M), dtype=complex))


def eta_form(N: int) -> CuspForm:
    mult = TRIVIAL if N == 24 else MultiplierSpec.eta_power(N)
    return CuspForm(Fraction(N, 2) - 2, mult, eta_qseries(N), label=f"eta^{N}")


def level_one_basis(k: int) -> list:
    """Echelonized basis of S_k(SL2(Z), trivial); [] when the space is zero."""
    if k % 2 or k < 12:
        return []
    rows = qexp.cusp_basis_coeffs(k, DEFAULT_M)
    out = []
    for i, row in enumerate(rows):
        lead = i + 1  # row i is q^(i+1) + O(q^(d+1))
        coeffs = np.array([float(x) for x in row[lead:]], dtype=complex)
        q = QSeries(Fraction(lead), coeffs)
        out.append(CuspForm(Fraction(k - 2), TRIVIAL, q, label=f"S{k}.{i + 1}"))
    return out


def cusp_space_basis(w: Fraction, multiplier: MultiplierSpec) -> list:
    """Basis of S_{w+2}(SL2(Z), v) for v trivial or an eta power.

    Nontrivial eta power N' in 1..23: the space is eta^N' * M_{w+2-N'/2},
    echelonized through the modular-form factor.
    """
    w = Fraction(w)
    k = w + 2
    if multiplier.kind == "trivial":
        if k.denominator != 1:
            return []
        return level_one_basis(int(k))
    N = multiplier.N % 24
    if N == 0:
        return level_one_basis(int(k)) if k.denominator == 1 else []
    m = k - Fraction(N, 2)
    if m.denominator != 1 or m < 0 or int(m) % 2:
        return []
    mrows = qexp.modular_basis_coeffs(int(m), DEFAULT_M)
    eta_c = qexp.eta_power_coeffs(N, DEFAULT_M)
    out = []
    for i, row in enumerate(mrows):
        prod = qexp.mul_trunc(eta_c, row, DEFAULT_M)
        # leading term q^(N/24 + i): strip the known zero head
        coeffs = np.array([float(x) for x in prod[i:]], dtype=complex)
        assert coeffs[0] != 0
        q = QSeries(Fraction(N, 24) + i, coeffs)
        out.append(CuspForm(w, MultiplierSpec.eta_power(N), q, label=f"eta{N}.M{int(m)}.{i}"))
    return out


def _tail_bound(f: CuspForm, y: float) -> float:
    """Certified bound on the dropped tail sum_{n > M} |a_n| |q|^(n+kappa)."""
    M = f.expansion.M
    p = f.growth_power
    x = np.exp(-2 * np.pi * y)
    rho = x * (1 + 1 / (M + 2)) ** p
    if rho >= 0.999:
        return np.inf
    first = f.growth_const * (M + 2) ** p * x ** (M + 1 + f.kappa_min)
    return float(first / (1 - rho))


def _cut_index(f: CuspForm, y: float) -> int:
    """The last stored index the sum at heights >= y needs: the smallest m,
    up to a fixed-point step, whose dropped stored terms
    sum_{m < n <= M} |a_n| |q|^n are certified below CUT_REL |a_0| (M when
    a_0 = 0).

    _tail_bound's growth model taken at m, with rho <= 1/2, bounds them by
    2 c_g (m+2)^p x^(m+1), x = exp(-2 pi y).  Stepping that condition's
    fixed-point map down from M keeps every iterate certified when M is, and
    leaves M when it is not.
    """
    M = f.expansion.M
    if M <= 0 or f.expansion.coeffs[0] == 0:
        return M
    p = f.growth_power
    two_pi_y = 2 * math.pi * y
    lead = math.log(2 * f.growth_const / (CUT_REL * abs(f.expansion.coeffs[0])))
    m = float(M)
    for _ in range(3):
        m = (lead + p * math.log(m + 2)) / two_pi_y - 1
    m = min(M, math.ceil(m))
    rho = math.exp(-two_pi_y) * (1 + 1 / (m + 2)) ** p
    return m if rho <= 0.5 else M


def eval_forms(forms, tau) -> np.ndarray:
    """Evaluate several forms at points tau (Im tau > 0), sharing power tables.

    Returns shape (n_forms, n_tau).  Raises EvalError when any stored
    expansion cannot push its tail below TAIL_TOL at min Im tau.  Each form
    then sums its stored terms only up to _cut_index at min Im tau: the
    terms it drops are certified below CUT_REL of its leading term.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=complex))
    ymin = float(np.min(tau.imag))
    if ymin <= 0:
        raise ValueError("evaluation requires Im tau > 0")
    for f in forms:
        tb = _tail_bound(f, ymin)
        if not tb < TAIL_TOL:
            amax = float(np.max(np.abs(f.expansion.coeffs), initial=0.0))
            raise EvalError(
                f"{f!r}: tail bound {tb:.2e} > tol {TAIL_TOL:.1e} at Im tau = {ymin:.4f} "
                f"(largest stored coefficient {amax:.2e}); expansion too short for this "
                "height or its coefficients too large"
            )
    cuts = [_cut_index(f, ymin) for f in forms]
    Mmax = max(cuts)
    q24 = np.exp(2j * np.pi * tau / 24)
    q = q24**24
    pows = np.empty((len(tau), Mmax + 1), dtype=complex)
    pows[:, 0] = 1.0
    if Mmax:
        np.cumprod(np.broadcast_to(q[:, None], (len(tau), Mmax)), axis=1, out=pows[:, 1:])
    out = np.empty((len(forms), len(tau)), dtype=complex)
    for i, (f, m) in enumerate(zip(forms, cuts)):
        out[i] = (pows[:, : m + 1] @ f.expansion.coeffs[: m + 1]) * q24 ** f.expansion.r24
    return out


def eval_form(f: CuspForm, tau):
    """Single-form wrapper; scalar in, scalar out."""
    scalar = np.ndim(tau) == 0
    vals = eval_forms([f], tau)[0]
    return complex(vals[0]) if scalar else vals


def transformation_factor(f: CuspForm, gamma: GroupElement, tau) -> np.ndarray:
    """Full factor in f(gamma tau) = factor * f(tau), tau in the upper half
    plane, principal square root per eta-power unit."""
    N = f.multiplier.eta_N % 24
    j = gamma.c * np.asarray(tau, dtype=complex) + gamma.d
    iexp = int(f.weight - Fraction(N, 2))
    return f.multiplier.value(gamma) * sqrt_upper(j) ** N * j**iexp


def form_linear_combination(coeffs, forms) -> CuspForm:
    """sum_j coeffs[j] forms[j] within one cusp space."""
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one form")
    if len(coeffs) != len(forms):
        raise ValueError(f"expected {len(forms)} coefficients, got {len(coeffs)}")
    w, mult = forms[0].shifted_weight, forms[0].multiplier
    for f in forms[1:]:
        if f.shifted_weight != w or f.multiplier != mult:
            raise ValueError("forms live in different spaces")
    r0 = min(f.expansion.r24 for f in forms)
    M = min(f.expansion.M + (f.expansion.r24 - r0) // 24 for f in forms)
    acc = np.zeros(M + 1, dtype=complex)
    bound = np.zeros(M + 1)  # per-index input magnitude, to spot cancellation zeros
    with np.errstate(over="ignore", invalid="ignore"):
        for c, f in zip(coeffs, forms):
            off = (f.expansion.r24 - r0) // 24
            n = min(M + 1 - off, f.expansion.M + 1)
            acc[off : off + n] += c * f.expansion.coeffs[:n]
            bound[off : off + n] += abs(c) * np.abs(f.expansion.coeffs[:n])
    if not (np.all(np.isfinite(acc)) and np.all(np.isfinite(bound))):
        raise ValueError("combination overflows: its q-expansion coefficients are not finite")
    live = np.abs(acc) > 1e-12 * bound
    if not live.any():
        return CuspForm(w, mult, QSeries(Fraction(r0, 24), np.zeros(M + 1, complex)), label="zero")
    lead = int(np.argmax(live))
    return CuspForm(
        w, mult, QSeries(Fraction(r0 + 24 * lead, 24), acc[lead:]), label="combo"
    )
