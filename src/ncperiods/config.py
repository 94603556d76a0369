"""Run configuration: alphabet/panel specs, quadrature knobs, reporting.

A RunConfig is the single source every command resolves before doing any
work, and every report embeds the resolved dict so runs are reproducible
from their own output.  File values come from a JSON object with the same
field names; explicit flags override file values.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .iterint import Endpoint, QuadConfig, validate_panel
from .ncpoly import Alphabet, Letter

__all__ = [
    "DEFAULT_PANEL",
    "RunConfig",
    "ConfigError",
    "parse_alphabet",
    "format_alphabet",
    "parse_panel",
    "read_json",
    "json_points",
]

# canonical 5-point panel in the lower half plane
DEFAULT_PANEL = (-0.8j, -1.5j, -0.4 - 0.9j, 0.6 - 1.1j, -1.3 - 0.5j)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ConfigError(ValueError):
    pass


def read_json(path: str):
    """The JSON value in the file at path.  A file that is not UTF-8 JSON,
    nests too deeply to decode, holds an integer too long to convert or a
    non-finite number (NaN, Infinity, -Infinity, or 1e999, which overflows)
    or gives one object key twice is a ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys,
                             parse_float=_finite_float, parse_constant=_finite_float)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: not a readable JSON file: {e}") from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} given twice")
        out[key] = value
    return out


def _is_pair(p) -> bool:
    """An [re, im] pair: a list of two JSON numbers (a bool is not a number)."""
    return isinstance(p, list) and len(p) == 2 and all(type(x) in (int, float) for x in p)


def json_points(pairs, what: str) -> np.ndarray:
    """Complex points from a JSON list of [re, im] pairs.  Only JSON numbers
    are numbers: a string or a bool is refused with the point it sits in."""
    if not isinstance(pairs, list):
        raise ValueError(f"{what} must list [re,im] pairs of numbers")
    for j, pair in enumerate(pairs):
        if not _is_pair(pair):
            raise ValueError(f"{what} must list [re,im] pairs of numbers; point {j} is {pair!r}")
    try:
        arr = np.array(pairs, dtype=float).reshape(-1, 2)
    except OverflowError:
        raise ValueError(f"{what}: a number overflows float64") from None
    return arr[:, 0] + 1j * arr[:, 1]


def _eta_power(text: str) -> int:
    """N of an eta<N> multiplier name, in 1..24."""
    try:
        N = int(text[3:])
    except ValueError:
        raise ConfigError(f"bad eta letter {text!r}")
    if not 1 <= N <= 24:
        raise ConfigError(f"eta power must be 1..24, got {N}")
    return N


def parse_alphabet(spec: str) -> Alphabet:
    """Alphabet from a spec string.

    A comma list of letters: "10:trivial" (or a bare "10") is a shifted
    weight with its multiplier, and "eta3" the letter of eta^N, N = 3, whose
    shifted weight N/2 - 2 may be written before it when it is an integer
    ("0:eta4").  "eta4" is the one-letter alphabet of the eta-power
    collection eta^4, and "10:trivial,eta3" mixes the two kinds.
    """
    letters = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("eta"):
            letters.append(Letter.eta(_eta_power(part)))
            continue
        if ":" in part:
            wtext, mult = part.split(":", 1)
        else:
            wtext, mult = part, "trivial"
        try:
            w = int(wtext)
        except ValueError:
            raise ConfigError(f"bad weight {wtext!r} in alphabet spec")
        mult = mult.strip().lower()
        try:
            if mult == "trivial":
                letters.append(Letter.trivial(w))
            elif mult.startswith("eta"):
                N = _eta_power(mult)
                L = Letter.eta(N)
                if L.weight != w:
                    raise ConfigError(f"eta{N} letter has weight {L.weight}, spec says {w}")
                letters.append(L)
            else:
                raise ConfigError(f"unknown multiplier {mult!r}")
        except ValueError as e:
            raise ConfigError(f"bad letter {part!r}: {e}")
    if not letters:
        raise ConfigError(f"empty alphabet spec {spec!r}")
    return Alphabet(tuple(letters))


def format_alphabet(alphabet: Alphabet) -> str:
    """The spec parse_alphabet reads back: every eta letter as eta<N>."""
    return ",".join(f"{int(L.weight)}:trivial" if L.multiplier.kind == "trivial"
                    else f"eta{L.multiplier.N}" for L in alphabet.letters)


def _series_weight(weights, D: int) -> float:
    """Polynomial weight of a product of D kernels over forms of the given
    shifted weights: D kernels of weight at most max w, plus D + 2 (the
    bound RunConfig.check_kernel_range keeps below float64 overflow)."""
    return D * max(max(float(w) for w in weights), 0.0) + D + 2


def _point(p) -> complex:
    """One point from a number, an "re+imj" string or an [re, im] pair."""
    if isinstance(p, str):
        return complex(p.replace(" ", ""))
    if isinstance(p, list):
        if not _is_pair(p):
            raise ValueError(f"{p!r} is not an [re, im] pair of numbers")
        return complex(*p)
    return complex(p)


def parse_panel(spec) -> tuple:
    """Panel points from "re+imj;re+imj;..." or a list of [re, im] pairs."""
    try:
        parts = [p for p in spec.split(";") if p.strip()] if isinstance(spec, str) else spec
        vals = [_point(p) for p in parts]
        validate_panel(vals)
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"bad panel {spec!r} (want \"re+imj;...\" or [re, im] pairs): {e}")
    return tuple(vals)


# numeric fields and the types a config file may give them (bools refused)
_NUMBER_FIELDS = {"degree": (int,), "seed": (int,), "rtol": (int, float),
                  "atol": (int, float), "quad_tol": (int, float), "threshold": (int, float)}
# tolerances: finite, and above 0 where a zero disables the cutoff height or
# the panel test (atol 0 puts the cusp cutoff at infinity)
_POSITIVE_FIELDS = ("atol", "quad_tol")
_NONNEGATIVE_FIELDS = ("rtol", "threshold")


@dataclass(frozen=True)
class RunConfig:
    alphabet: str = "10:trivial"
    degree: int = 3
    rtol: float = QuadConfig.rtol
    atol: float = QuadConfig.atol
    quad_tol: float = QuadConfig.quad_tol
    panel: tuple = DEFAULT_PANEL
    format: str = "json"  # "json" | "csv"
    seed: int = 0
    threshold: float = 1e-7
    z0: complex = 2.0j

    def __post_init__(self):
        for name, kinds in _NUMBER_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ConfigError(f"{name} must be {kinds[-1].__name__}, got {value!r}")
        for name in _POSITIVE_FIELDS + _NONNEGATIVE_FIELDS:
            value = getattr(self, name)
            positive = name in _POSITIVE_FIELDS
            if not ((value > 0 if positive else value >= 0) and value < math.inf):
                bound = "> 0" if positive else ">= 0"
                raise ConfigError(f"{name} must be finite and {bound}, got {value!r}")
        if not isinstance(self.alphabet, str):
            raise ConfigError(f"alphabet must be a spec string, got {self.alphabet!r}")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        object.__setattr__(self, "panel", parse_panel(self.panel))
        parse_alphabet(self.alphabet)  # validate early
        try:
            object.__setattr__(self, "z0", Endpoint.point(_point(self.z0)).z)
        except (ValueError, TypeError, OverflowError) as e:
            raise ConfigError(f"bad z0 {self.z0!r}: {e}") from None
        self.check_kernel_range(self.degree)

    def check_kernel_range(self, degree: int, weights=None):
        """Refuse a panel point t or a z0 so far out that the bound
        (1 + |z0| + |t|)^polw of a product of `degree` kernels overflows
        float64, polw being _series_weight, the polynomial weight of a product
        of `degree` kernels of the given shifted weights (by default the
        alphabet's letters') at a panel point: the integrands would turn inf
        before any later check could name the point.  RunConfig checks its
        own degree; a command that multiplies more kernels (verify rel3
        multiplies three) or kernels of other forms (mlv's shuffle check)
        checks again at its order."""
        if weights is None:
            weights = [L.weight for L in self.the_alphabet().letters]
        polw = _series_weight(weights, degree)
        reach = _LOG_FLOAT_MAX / polw
        points = [(f"panel point {t}", abs(t)) for t in self.panel]
        points.append((f"z0 {self.z0}", abs(self.z0) + max(abs(t) for t in self.panel)))
        for name, size in points:
            if math.log1p(size) > reach:
                raise ConfigError(f"{name}: its degree-{degree} kernel bound "
                                  f"(1 + {size:.3g})^{polw:g} overflows float64")

    @classmethod
    def from_sources(cls, path: str | None = None, **overrides) -> "RunConfig":
        """File values (if any) merged with explicit overrides (flags win)."""
        data = {}
        if path is not None:
            raw = read_json(path)
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
            known = {f.name for f in fields(cls)}
            unknown = set(raw) - known
            if unknown:
                raise ConfigError(f"unknown config fields: {sorted(unknown)}")
            data.update(raw)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def quad(self) -> QuadConfig:
        return QuadConfig(rtol=self.rtol, atol=self.atol, quad_tol=self.quad_tol)

    def the_alphabet(self) -> Alphabet:
        return parse_alphabet(self.alphabet)

    def panel_array(self) -> np.ndarray:
        return np.asarray(self.panel, dtype=complex)

    def resolved(self) -> dict:
        """JSON-ready dict of every field, embedded in all reports."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["panel"] = [[p.real, p.imag] for p in self.panel]
        out["z0"] = [self.z0.real, self.z0.imag]
        return out
