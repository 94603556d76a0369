"""Truncated noncommutative series over a weighted alphabet.

Letters carry a shifted weight w (the kernel exponent; actual modular weight
is w + 2) and a multiplier spec.  Words over the letters are graded by length
and indexed degree-major, positionally within a degree (base-ell digits, most
significant first), so concatenation is index arithmetic and degreewise
multiplication reduces to outer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .sl2z import GroupElement, eta_epsilon, sqrt_lower

__all__ = [
    "MultiplierSpec",
    "TRIVIAL",
    "Letter",
    "Alphabet",
    "GradedWords",
    "mono_weight",
    "mono_multiplier",
    "mono_str",
    "parse_mono",
    "parse_mono_keys",
    "series_block",
    "nc_mul",
    "nc_inv",
    "slash_factors",
]

# Monomials are tuples of 1-based letter indices, () for the empty word.
Mono = tuple

UNIT_TOL = 1e-9  # how far a constant term may sit from 1 and still count as a unit


@dataclass(frozen=True)
class MultiplierSpec:
    """Trivial, or the eta-power multiplier epsilon^N (N taken mod 24)."""

    kind: str  # "trivial" | "eta_power"
    N: int = 0

    def __post_init__(self):
        if self.kind == "trivial":
            if self.N != 0:
                raise ValueError("trivial multiplier carries no eta power")
        elif self.kind == "eta_power":
            if not 1 <= self.N <= 24:
                raise ValueError(f"eta power N must be in 1..24, got {self.N}")
        else:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")

    @staticmethod
    def trivial() -> "MultiplierSpec":
        return MultiplierSpec("trivial")

    @staticmethod
    def eta_power(N: int) -> "MultiplierSpec":
        return MultiplierSpec("eta_power", N)

    @property
    def eta_N(self) -> int:
        return self.N if self.kind == "eta_power" else 0

    def value(self, gamma: GroupElement) -> complex:
        if self.kind == "trivial":
            return 1.0 + 0.0j
        return eta_epsilon(gamma) ** self.N


TRIVIAL = MultiplierSpec.trivial()


@dataclass(frozen=True)
class Letter:
    """One alphabet letter: shifted weight w (modular weight w+2) + multiplier."""

    weight: Fraction
    multiplier: MultiplierSpec

    def __post_init__(self):
        w = Fraction(self.weight)
        object.__setattr__(self, "weight", w)
        if w + 2 <= 0:
            raise ValueError(f"need w + 2 > 0, got w = {w}")
        if self.multiplier.kind == "trivial":
            if w.denominator != 1 or w.numerator % 2 != 0:
                raise ValueError(f"trivial multiplier needs even integer w, got {w}")
        else:
            if w != Fraction(self.multiplier.N, 2) - 2:
                raise ValueError(
                    f"eta-power letter needs w = N/2 - 2, got w = {w}, N = {self.multiplier.N}"
                )

    @staticmethod
    def trivial(w: int) -> "Letter":
        return Letter(Fraction(w), TRIVIAL)

    @staticmethod
    def eta(N: int) -> "Letter":
        return Letter(Fraction(N, 2) - 2, MultiplierSpec.eta_power(N))


@dataclass(frozen=True)
class Alphabet:
    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must have at least one letter")
        object.__setattr__(self, "letters", tuple(self.letters))

    @property
    def ell(self) -> int:
        return len(self.letters)

    def letter(self, j: int) -> Letter:
        """1-based letter lookup, matching the A1, A2, ... naming."""
        if not 1 <= j <= self.ell:
            raise IndexError(f"letter index {j} out of range 1..{self.ell}")
        return self.letters[j - 1]


def mono_weight(alphabet: Alphabet, m: Mono) -> Fraction:
    """Total shifted weight w(B) = sum of letter weights; empty word -> 0."""
    return sum((alphabet.letter(j).weight for j in m), Fraction(0))


def mono_eta_power(alphabet: Alphabet, m: Mono) -> int:
    return sum(alphabet.letter(j).multiplier.eta_N for j in m)


def mono_multiplier(alphabet: Alphabet, m: Mono) -> MultiplierSpec:
    """Multiplier eps^(N mod 24) of a monomial's cusp space, N its eta power."""
    n = mono_eta_power(alphabet, m) % 24
    return TRIVIAL if n == 0 else MultiplierSpec.eta_power(n)


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(f"A{j}" for j in m)


def parse_mono(text: str) -> Mono:
    text = text.strip()
    if text == "1":
        return ()
    parts = text.split("*")
    out = []
    for p in parts:
        p = p.strip()
        if not p.startswith("A"):
            raise ValueError(f"bad monomial token {p!r} in {text!r}")
        out.append(int(p[1:]))
    return tuple(out)


def parse_mono_keys(keys) -> dict:
    """{monomial: key} by parse_mono, refusing a bad key or two spellings of one monomial."""
    out = {}
    for key in keys:
        try:
            m = parse_mono(key)
        except ValueError as e:
            raise ValueError(f"bad monomial {key!r}: {e}") from None
        if m in out:
            raise ValueError(f"keys {out[m]!r} and {key!r} both spell monomial {mono_str(m)}")
        out[m] = key
    return out


class GradedWords:
    """Indexing of all words of degree <= D over an alphabet.

    Global index of a word (m_1,...,m_d): offsets[d] + sum (m_i - 1) ell^(d-1-i),
    i.e. degree-major, then base-ell positional with the leftmost letter most
    significant.  Concatenation is then
        idx(BC) = offsets[dB+dC] + pos(B) * ell^dC + pos(C)
    which makes degreewise products contiguous outer products.
    """

    def __init__(self, alphabet: Alphabet, D: int):
        if D < 0:
            raise ValueError("truncation degree must be >= 0")
        self.alphabet = alphabet
        self.D = D
        ell = alphabet.ell
        self.offsets = [0]
        for d in range(D + 1):
            self.offsets.append(self.offsets[-1] + ell**d)
        self.total = self.offsets[-1]

    def index(self, m: Mono) -> int:
        d = len(m)
        if d > self.D:
            raise ValueError(f"{mono_str(m)}: degree {d} exceeds truncation {self.D}")
        ell = self.alphabet.ell
        pos = 0
        for j in m:
            if not 1 <= j <= ell:
                raise ValueError(f"{mono_str(m)}: letter index {j} out of range")
            pos = pos * ell + (j - 1)
        return self.offsets[d] + pos

    def word(self, idx: int) -> Mono:
        if not 0 <= idx < self.total:
            raise IndexError(idx)
        d = 0
        while idx >= self.offsets[d + 1]:
            d += 1
        pos = idx - self.offsets[d]
        ell = self.alphabet.ell
        digits = []
        for _ in range(d):
            digits.append(pos % ell + 1)
            pos //= ell
        return tuple(reversed(digits))

    def words_of_degree(self, d: int):
        for pos in range(self.alphabet.ell**d):
            yield self.word(self.offsets[d] + pos)

    def block(self, d: int) -> slice:
        return slice(self.offsets[d], self.offsets[d + 1])

    def unit_rows(self, n: int) -> np.ndarray:
        """(n, n_words) complex rows of the unit series 1."""
        out = np.zeros((n, self.total), dtype=complex)
        out[:, 0] = 1.0
        return out

    @cached_property
    def _tables(self):
        """Per-word weight and eta-power tables used by the slash action."""
        w = np.empty(self.total, dtype=float)
        n = np.empty(self.total, dtype=np.int64)
        for idx in range(self.total):
            m = self.word(idx)
            w[idx] = float(mono_weight(self.alphabet, m))
            n[idx] = mono_eta_power(self.alphabet, m)
        return w, n


def series_block(words: GradedWords, xs, ys, d: int, x_degrees) -> np.ndarray:
    """Block d of the concatenation product of words-leading (n_words, ...)
    coefficient arrays, shape (len(block d), ...), in their common dtype.

    xs and ys have the same number of axes, and the trailing ones broadcast.
    Sums the outer products of block d1 of xs with block d - d1 of ys over
    the ascending degrees x_degrees, the only degrees at which xs may be
    nonzero (degrees above d contribute nothing and are passed over).  Only
    those blocks of xs are read, so xs may end after its top one.  With the
    words axis first, each outer product is one contiguous broadcast.
    """
    if xs.ndim != ys.ndim:
        raise ValueError(f"series_block needs arrays of one rank, got {xs.shape} and {ys.shape}")
    tail = np.broadcast_shapes(xs.shape[1:], ys.shape[1:])
    out = np.zeros((words.offsets[d + 1] - words.offsets[d],) + tail,
                   dtype=np.result_type(xs, ys))
    for d1 in x_degrees:
        if d1 <= d:
            outer = xs[words.block(d1), None] * ys[None, words.block(d - d1)]
            out += outer.reshape((-1,) + tail)
    return out


def nc_mul(words: GradedWords, xs, ys) -> np.ndarray:
    """Concatenation product of (..., n_words) coefficient rows, truncated
    at D; leading axes broadcast, so one call multiplies a whole panel of rows.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.shape[-1] != words.total or ys.shape[-1] != words.total:
        raise ValueError("coefficient vector length mismatch")
    x, y = (np.moveaxis(a, -1, 0) for a in np.broadcast_arrays(xs, ys))  # words-leading views
    out = np.empty(x.shape[1:] + (words.total,), dtype=complex)
    for d in range(words.D + 1):
        np.moveaxis(out, -1, 0)[words.block(d)] = series_block(words, x, y, d, range(d + 1))
    return out


def nc_inv(words: GradedWords, xs) -> np.ndarray:
    """Inverse y of (..., n_words) coefficient rows x, degree by degree:
    block d of x y = 1 gives y_d = -y_0 sum_{1<=d1<=d} x_d1 y_(d-d1), with
    y_0 = 1/x_0.

    Every row needs constant term 1 (within UNIT_TOL).
    """
    xs = np.asarray(xs, dtype=complex)
    bad = np.abs(xs[..., 0] - 1.0) > UNIT_TOL
    if np.any(bad):
        raise ValueError(f"series inverse needs constant term 1, got {xs[..., 0][bad][0]}")
    out = np.zeros(xs.shape, dtype=complex)
    x, y = np.moveaxis(xs, -1, 0), np.moveaxis(out, -1, 0)  # words-leading views
    y[0] = 1.0 / x[0]
    for d in range(1, words.D + 1):
        y[words.block(d)] = -y[:1] * series_block(words, x, y, d, range(1, d + 1))
    return out


def slash_factors(words: GradedWords, gamma: GroupElement, t) -> np.ndarray:
    """Per-word slash factors v(B)(gamma)^(-1) (ct+d)^(w(B)) at t in the lower
    half plane.

    The power is assembled per word as sqrt_lower(ct+d)^(N mod 24) times an
    integer power of ct+d, with the eta-power reduced mod 24 and the reduction
    compensated exactly by the integer exponent.  t is a 1-d array; the
    result has shape (n_t, n_words).
    """
    wvec, nvec = words._tables
    nred = nvec % 24
    iexp = np.rint(wvec - nred / 2.0).astype(np.int64)
    eps = eta_epsilon(gamma)
    vinv = np.where(nred == 0, 1.0 + 0.0j, eps ** (-nred.astype(float)))
    t = np.asarray(t)
    j = gamma.c * t + gamma.d
    return vinv[None, :] * sqrt_lower(j)[:, None] ** nred[None, :] * j[:, None] ** iexp[None, :]
