"""Group cocycles built from generating series of iterated integrals.

For a collection h (cusp forms attached to monomials in the letters, weights
and multipliers matching) the series J(h; z0, oo; t) transforms under gamma by

    Psi_gamma = (J(z0)|gamma)^(-1) * J(gamma^(-1) z0)

which is a cocycle for the slashed multiplication: Psi_{gd} = (Psi_g|d) Psi_d.
Psi is independent of the base point z0.  A cocycle known only up to a
conjugation (n|gamma) X_gamma n^(-1), n a series with constant term 1, is
brought back to X by untwist_rows from n's rows.

Value convention throughout: a "rows" array has shape (n_t, n_words), row r
the truncated series at panel point t[r], words indexed by
GradedWords(h.alphabet, D).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import RunConfig
from .iterint import (Endpoint, IterIntError, QuadConfig, identity_report, j_rows_direct,
                      validate_panel, vertical_J)
from .modforms import EvalError
from .ncpoly import (Alphabet, GradedWords, mono_multiplier, mono_str, mono_weight, nc_inv,
                     nc_mul, slash_factors)
from .sl2z import GroupElement

__all__ = [
    "CuspCollection",
    "rows_mul",
    "rows_inv",
    "rows_slash",
    "psi_evaluator",
    "psi",
    "j_rows_direct",
    "untwist_rows",
    "verify_cocycle",
    "verify_multiplicativity",
    "verify_equivariance",
    "verify_base_point_independence",
    "eta_example_check",
    "apply_to_endpoint",
]


@dataclass(frozen=True)
class CuspCollection:
    """Cusp forms attached to monomials: h(B) = support[B].

    support maps a word (nonempty tuple of 1-based letter indices) to a form
    whose modular weight is w(B) + 2 and whose multiplier is the product of
    the letter multipliers, reduced mod 24.  The common case of one form per
    letter is CuspCollection.from_letters(alphabet, [f1, ..., f_ell]); a zero
    form for a letter, or an absent key, both mean h vanishes there.
    """

    alphabet: Alphabet
    support: tuple = field(default=())

    def __post_init__(self):
        items = self.support
        if hasattr(items, "items"):
            items = items.items()
        entries = []
        for m, f in items:
            m = tuple(int(j) for j in m)
            if not m or any(j < 1 or j > self.alphabet.ell for j in m):
                raise ValueError(f"bad monomial {m!r} for an {self.alphabet.ell}-letter alphabet")
            if f.is_zero:
                continue
            if f.shifted_weight != mono_weight(self.alphabet, m):
                raise ValueError(
                    f"{mono_str(m)}: weight mismatch "
                    f"(monomial {mono_weight(self.alphabet, m)}, form {f.shifted_weight})")
            if f.multiplier != mono_multiplier(self.alphabet, m):
                raise ValueError(f"{mono_str(m)}: multiplier mismatch")
            entries.append((m, f))
        entries.sort(key=lambda e: (len(e[0]), e[0]))
        seen = {m for m, _ in entries}
        if len(seen) != len(entries):
            raise ValueError("duplicate monomial in support")
        object.__setattr__(self, "support", tuple(entries))

    @classmethod
    def from_letters(cls, alphabet: Alphabet, forms) -> "CuspCollection":
        forms = list(forms)
        if len(forms) != alphabet.ell:
            raise ValueError("need exactly one form per letter")
        return cls(alphabet, tuple(((j,), f) for j, f in enumerate(forms, start=1)))

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for L in self.alphabet.letters:
            h.update(f"{L.weight}|{L.multiplier.kind}{L.multiplier.N};".encode())
        for m, f in self.support:
            h.update(f"{m}:{f.digest};".encode())
        return h.hexdigest()[:16]

    @property
    def support_monos(self) -> tuple:
        return tuple(m for m, _ in self.support)

    @property
    def support_forms(self) -> tuple:
        return tuple(f for _, f in self.support)

    def form_of(self, m):
        m = tuple(m)
        for mm, f in self.support:
            if mm == m:
                return f
        return None

    def words(self, D: int) -> GradedWords:
        return GradedWords(self.alphabet, D)


# --- batched series arithmetic on value rows -------------------------------

def rows_mul(words: GradedWords, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-by-row series product."""
    return nc_mul(words, A, B)


def rows_inv(words: GradedWords, A: np.ndarray) -> np.ndarray:
    """Row-by-row series inverse."""
    return nc_inv(words, A)


def rows_slash(words: GradedWords, rows_at_gamma_t: np.ndarray,
               gamma: GroupElement, t: np.ndarray) -> np.ndarray:
    """(F|gamma)(t) rows from F's rows at gamma t."""
    return slash_factors(words, gamma, np.asarray(t)) * rows_at_gamma_t


def apply_to_endpoint(gamma: GroupElement, e: Endpoint) -> Endpoint:
    e = Endpoint.coerce(e)
    if e.kind == "point":
        return Endpoint.point(gamma.mobius(e.z))
    if e.is_infinity:
        return Endpoint.cusp(gamma.cusp())
    p, q = e.cusp_value.numerator, e.cusp_value.denominator
    num, den = gamma.a * p + gamma.b * q, gamma.c * p + gamma.d * q
    return Endpoint.cusp(None) if den == 0 else Endpoint.cusp(Fraction(num, den))


# --- the cocycle ------------------------------------------------------------

def psi_evaluator(h: CuspCollection, D: int, z0=RunConfig.z0,
                  cfg: QuadConfig = QuadConfig()):
    """The evaluator (gamma, panel) -> Psi(h)_gamma rows.

    Psi_gamma is exactly 1 for c = 0 (gamma = +-T^m fixes oo and the two
    series coincide); otherwise it takes two vertical solves, J(z0) at gamma t
    and J(gamma^(-1) z0) at t.  Reads and plans of either kind refuse a
    panel that breaks iterint.validate_panel's rule before anything else.
    The evaluator keeps its solves, keyed on
    (base point, panel bytes), so requests sharing a ray solve it once.

    ev.plan(reads) takes a list of (gamma, panel) reads before they are
    made and solves their rays ahead: grouped by base point in the order of
    the reads, each base point's panels not yet solved (repeats dropped by
    bytes) go to one vertical_J call on their concatenated points, and each
    panel's slice is kept under its own key, so the reads then solve
    nothing.  Every read goes through plan, so a read made without one plans
    its own two rays.  A ray that fails re-raises naming z0, gamma and
    gamma^(-1) z0.
    """
    words = h.words(D)
    z0 = complex(z0)
    solves = {}

    def rays(gamma, t):
        return (z0, gamma.mobius(t)), (gamma.inv().mobius(z0), t)

    def solve(z, t, gamma):
        try:
            return vertical_J(h, z, t, D, cfg)
        except (EvalError, IterIntError) as e:
            # + 0.0 prints a negative zero real part as 0
            at = [f"{w + 0.0:.6g}" for w in (z, z0, gamma.inv().mobius(z0))]
            raise type(e)(f"ray from {at[0]} for Psi_gamma, gamma = {gamma!r}, z0 = {at[1]}, "
                          f"gamma^-1 z0 = {at[2]}: {e}") from e

    def plan(reads):
        todo = {}  # base point -> (the first gamma reading it, {panel bytes: panel})
        for gamma, t in reads:
            t = validate_panel(t)
            if gamma.c == 0:
                continue
            for z, pts in rays(gamma, t):
                key = pts.tobytes()
                if (z, key) not in solves:
                    todo.setdefault(z, (gamma, {}))[1].setdefault(key, pts)
        for z, (gamma, panels) in todo.items():
            rows = solve(z, np.concatenate(list(panels.values())), gamma)
            ends = np.cumsum([len(p) for p in panels.values()])
            for key, part in zip(panels, np.split(rows, ends[:-1])):
                solves[z, key] = part

    def ev(gamma: GroupElement, t):
        t = validate_panel(t)
        if gamma.c == 0:
            return words.unit_rows(len(t))
        plan([(gamma, t)])
        (z, gt), (zi, _) = rays(gamma, t)
        slashed = rows_slash(words, solves[z, gt.tobytes()], gamma, t)
        return rows_mul(words, rows_inv(words, slashed), solves[zi, t.tobytes()])

    ev.plan = plan
    return ev


def psi(h: CuspCollection, gamma: GroupElement, z0: complex, t, D: int,
        cfg: QuadConfig = QuadConfig()) -> np.ndarray:
    """Psi_gamma rows at the t panel, from a one-off psi_evaluator."""
    return psi_evaluator(h, D, z0, cfg)(gamma, t)


def untwist_rows(words: GradedWords, phi1_rows: np.ndarray, n_rows_at_t: np.ndarray,
                 n_rows_at_gamma_t: np.ndarray, gamma: GroupElement, t) -> np.ndarray:
    """Undo the base-point conjugation Phi^{z1} = (n|gamma) Phi^{z0} n^(-1),
    n = J(z1, z0): returns Phi^{z0} rows from Phi^{z1} rows."""
    slashed_n = rows_slash(words, n_rows_at_gamma_t, gamma, t)
    return rows_mul(words, rows_mul(words, rows_inv(words, slashed_n), phi1_rows),
                    n_rows_at_t)


# --- verification reports ---------------------------------------------------

def verify_cocycle(h: CuspCollection, gamma: GroupElement, delta: GroupElement,
                   z0: complex, t, D: int, cfg: QuadConfig = QuadConfig()) -> dict:
    """Residual of Psi_{gamma delta} = (Psi_gamma|delta) Psi_delta at the panel.

    The right side sums products of factor entries that can be far larger
    than either side (at gamma = S, delta = STTT the factors reach 2.9e10
    while no entry of either side exceeds 1), and its error scales with the
    terms it sums.  So the report's scale, which report_passes judges by, is
    the largest entry of |Psi_gamma|delta| |Psi_delta|, the series product
    of the factors' entrywise absolute values: each entry is the sum of the
    sizes of the terms that make the matching entry of the right side.
    sides_max keeps max(|lhs|, |rhs|) for reading."""
    t = validate_panel(t)
    words = h.words(D)
    P = psi_evaluator(h, D, z0, cfg)
    lhs = P(gamma * delta, t)
    slashed = rows_slash(words, P(gamma, delta.mobius(t)), delta, t)
    psi_d = P(delta, t)
    rep = identity_report("cocycle", lhs, rows_mul(words, slashed, psi_d), t, words,
                          gamma=gamma.entries(), delta=delta.entries())
    rep["sides_max"] = rep["scale"]
    rep["scale"] = float(np.max(np.abs(rows_mul(words, np.abs(slashed), np.abs(psi_d)))))
    return rep


def verify_multiplicativity(h: CuspCollection, z, y, x, t, D: int,
                            cfg: QuadConfig = QuadConfig()) -> dict:
    """J(z,x) = J(z,y) J(y,x) with every side from independent layered
    integrals; the degree-2 block is the classical two-term composition rule,
    degree 3 the three-term one."""
    t = validate_panel(t)
    words = h.words(D)
    lhs = j_rows_direct(h, z, x, t, D, cfg)
    rhs = rows_mul(words, j_rows_direct(h, z, y, t, D, cfg),
                   j_rows_direct(h, y, x, t, D, cfg))
    return identity_report("multiplicativity", lhs, rhs, t, words)


def verify_equivariance(h: CuspCollection, gamma: GroupElement, y, x, t, D: int,
                        cfg: QuadConfig = QuadConfig()) -> dict:
    """(J(y,x)|gamma)(t) = J(gamma^(-1) y, gamma^(-1) x)(t), both sides from
    the layered route coefficient by coefficient."""
    t = validate_panel(t)
    words = h.words(D)
    y = Endpoint.coerce(y)
    x = Endpoint.coerce(x)
    gi = gamma.inv()
    lhs = rows_slash(words, j_rows_direct(h, y, x, gamma.mobius(t), D, cfg), gamma, t)
    rhs = j_rows_direct(h, apply_to_endpoint(gi, y), apply_to_endpoint(gi, x), t, D, cfg)
    return identity_report("equivariance", lhs, rhs, t, words, gamma=gamma.entries())


def verify_base_point_independence(h: CuspCollection, gamma: GroupElement,
                                   z0a: complex, z0b: complex, t, D: int,
                                   cfg: QuadConfig = QuadConfig()) -> dict:
    t = validate_panel(t)
    return identity_report("base_point_independence", psi(h, gamma, z0a, t, D, cfg),
                           psi(h, gamma, z0b, t, D, cfg), t, h.words(D),
                           gamma=gamma.entries())


def eta_example_check(h: CuspCollection, z0: complex, t, D: int,
                      cfg: QuadConfig = QuadConfig()) -> dict:
    """The defining relations of a one-letter eta collection's cocycle.

    With T' = TST lower triangular, triviality at the parabolic elements plus
    the cocycle property force
        Psi_S = (Psi_S|T') (Psi_S|T)     and     (Psi_S|S) Psi_S = 1.
    Neither residual is tautological for the solver: every slash term needs
    Psi_S on a different t panel, hence separate vertical solves.
    """
    from .sl2z import S, T
    t = validate_panel(t)
    words = h.words(D)
    Tp = T * S * T
    P = psi_evaluator(h, D, z0, cfg)
    psiS = P(S, t)
    sTp = rows_slash(words, P(S, Tp.mobius(t)), Tp, t)
    sT = rows_slash(words, P(S, T.mobius(t)), T, t)
    product = rows_mul(words, sTp, sT)
    sS = rows_slash(words, P(S, S.mobius(t)), S, t)
    involution = rows_mul(words, sS, psiS)
    unit = words.unit_rows(len(t))
    return identity_report(
        "eta_example", np.concatenate([psiS, involution]), np.concatenate([product, unit]),
        t, words, product_relation_max=float(np.max(np.abs(psiS - product))),
        involution_relation_max=float(np.max(np.abs(involution - unit))))
