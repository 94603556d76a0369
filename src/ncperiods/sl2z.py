"""Integer matrices in SL2(Z), generator words, and the eta multiplier.

The group acts on the upper half plane H by Mobius transformations and on the
lower half plane H^- by the same formulas.  Everything downstream fixes the
standard generators

    S = [[0, -1], [1, 0]],   T = [[1, 1], [0, 1]].

Half integral weights force explicit square root branches.  Two conventions
are used consistently throughout the package:

* on H (automorphy factors of the forms themselves): the principal square
  root, ``sqrt_upper``;
* on H^- (the variable the cocycles live in): the square root with argument
  in [-pi/2, pi/2), ``sqrt_lower``, equal to the conjugate of the principal
  root of the conjugate.

With this pair the weight-1/2 consistency cocycles of the two half planes
agree, which is what makes the half integral weight slash action on H^- a
genuine right action.  Property tests pin this down; flipping either branch
breaks them on pairs like (S, S^-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "GroupElement",
    "I2",
    "S",
    "T",
    "decompose_word",
    "parse_word",
    "parse_gamma_label",
    "word_product",
    "dedekind_sum",
    "eta_epsilon",
    "sqrt_lower",
    "sqrt_upper",
]


@dataclass(frozen=True)
class GroupElement:
    """An element [[a, b], [c, d]] of SL2(Z)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1, got {self!r}")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d)

    def mobius(self, z):
        """Apply the fractional linear map.  z may be complex scalar or array."""
        return (self.a * z + self.b) / (self.c * z + self.d)

    def jfactor(self, z):
        """c z + d."""
        return self.c * z + self.d

    def cusp(self):
        """Image of infinity: a Fraction, or None when it is infinity again."""
        if self.c == 0:
            return None
        return Fraction(self.a, self.c)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


I2 = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)

_GEN = {"S": S, "T": T, "T^-1": GroupElement(1, -1, 0, 1)}


def word_product(tokens) -> GroupElement:
    """Multiply out a sequence of tokens from {"S", "T", "T^-1"}."""
    g = I2
    for tok in tokens:
        g = g * _GEN[tok]
    return g


def parse_word(text: str) -> GroupElement:
    """Parse a generator word such as "TS", "ST^-1S" or "" (identity)."""
    g = I2
    i = 0
    text = text.strip()
    while i < len(text):
        ch = text[i]
        if ch not in ("S", "T"):
            raise ValueError(f"unexpected character {ch!r} in word {text!r}")
        i += 1
        inverse = False
        if text[i : i + 3] == "^-1":
            inverse = True
            i += 3
        base = _GEN[ch]
        g = g * (base.inv() if inverse else base)
    return g


def parse_gamma_label(label: str) -> GroupElement:
    """Group element from a generator word ("TS", "ST^-1S") or from its
    entries as "m:a,b,c,d"; raises ValueError on anything else."""
    label = label.strip()
    if label.startswith("m:"):
        a, b, c, d = (int(x) for x in label[2:].split(","))
        return GroupElement(a, b, c, d)
    return parse_word(label)


def decompose_word(gamma: GroupElement):
    """Express gamma as a generator word up to sign.

    Returns ``(tokens, sign)`` with ``word_product(tokens) == sign * gamma``
    and ``sign in {+1, -1}``.  Euclidean reduction on the bottom row: each
    round applies T^-k then S on the right with k the nearest integer to d/c,
    which at least halves |c|.
    """
    ops: list[GroupElement] = []
    g = gamma
    while g.c != 0:
        k = round(g.d / g.c)
        tk = I2
        for _ in range(abs(k)):
            tk = tk * (_GEN["T^-1"] if k > 0 else _GEN["T"])
        g = g * tk * S
        ops.append(tk)
        ops.append(S)
    # now g = sign_f * T^m
    if g.a == 1:
        sign_f, m = 1, g.b
    else:
        sign_f, m = -1, -g.b
    tokens: list[str] = ["T" if m > 0 else "T^-1"] * abs(m)
    sign = sign_f
    for op in reversed(ops):
        if op.c != 0:  # op is S; S^-1 = -S
            tokens.append("S")
            sign = -sign
        else:  # op is T^j; inverse is T^-j
            j = op.b
            tokens.extend(["T" if -j > 0 else "T^-1"] * abs(j))
    # accumulated relation: gamma = sign * word_product(tokens), and sign^-1 = sign
    return tokens, sign


# ---------------------------------------------------------------------------
# Dedekind eta multiplier
# ---------------------------------------------------------------------------

def _sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - Fraction(math.floor(x)) - Fraction(1, 2)


def dedekind_sum(d: int, c: int) -> Fraction:
    """s(d, c) = sum_{k=1}^{c-1} ((k/c)) ((kd/c)) for c > 0, exact."""
    if c <= 0:
        raise ValueError("dedekind_sum needs c > 0")
    total = Fraction(0)
    for k in range(1, c):
        total += _sawtooth(Fraction(k, c)) * _sawtooth(Fraction(k * d, c))
    return total


def eta_epsilon(gamma: GroupElement) -> complex:
    """Multiplier of the eta function: eta(g t) = eta_epsilon(g) (c t + d)^{1/2} eta(t).

    The square root is principal (t in H).  For c > 0 this is the classical
    Dedekind sum evaluation; c <= 0 reduces to it through eta(-g t) = eta(g t)
    and the sign of the principal root of -(c t + d).
    """
    a, b, c, d = gamma.entries()
    if c < 0:
        return 1j * eta_epsilon(gamma.neg())
    if c == 0:
        # gamma = +-T^b
        if d > 0:
            return _unit_exp(Fraction(b, 12))
        return -1j * _unit_exp(Fraction(-b, 12))
    arg = Fraction(a + d, 12 * c) - dedekind_sum(d, c) - Fraction(1, 4)
    return _unit_exp(arg)


def _unit_exp(frac: Fraction) -> complex:
    """exp(i pi frac) with the fraction reduced mod 2 before going to float."""
    frac = frac - 2 * (frac / 2).__floor__()
    return complex(np.exp(1j * np.pi * float(frac)))


# ---------------------------------------------------------------------------
# square root branches
# ---------------------------------------------------------------------------

def sqrt_upper(z):
    """Principal square root (argument in (-pi/2, pi/2]), signed-zero safe."""
    th = np.angle(z)
    th = np.where(th == -np.pi, np.pi, th)
    return np.sqrt(np.abs(z)) * np.exp(0.5j * th)


def sqrt_lower(z):
    """Square root with argument in [-pi/2, pi/2).

    Agrees with the principal root off the negative real axis reached from
    above; on the negative reals it takes -i sqrt|z|.  This is the branch
    under which the weight-1/2 slash factors on H^- compose with the same
    sign cocycle as the automorphy factors on H.
    """
    th = np.angle(z)
    th = np.where(th == np.pi, -np.pi, th)
    return np.sqrt(np.abs(z)) * np.exp(0.5j * th)
