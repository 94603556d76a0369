"""Degree-by-degree recovery of a cusp-form collection from its cocycle.

Given panel values of a cocycle X that is Psi(h') for some
collection h' supported in degrees <= D, peel reconstructs h' one degree at a
time.  At stage d the discrepancy

    Delta = X_S - Psi(h_<d)_S        (degree-d block)

depends only on the degree-d entries of h', coefficient by coefficient:
Delta[C](t) = -psi_{h'(C),S}(t) with psi_{g,S}(t) = int_0^oo g(tau)(tau-t)^w(C).
Each monomial C with a nonzero cusp space is fitted by least squares against
the catalog basis of that space; monomials outside the catalog must show a
coefficient below tolerance, anything larger means X is not in the reachable
class (the general splitting of a cocycle into period part plus coboundary is
nonconstructive and out of scope here).

The catalog stores the psi samples once per (alphabet, D, panel), sampled
once per cusp space; peel then needs only vertical solves for the partial
collections it accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cocycle import CuspCollection, psi, psi_evaluator, rows_slash
from .config import ConfigError, RunConfig, json_points
from .iterint import Endpoint, QuadConfig, r_direct, validate_panel
from .modforms import cusp_space_basis, form_linear_combination
from .ncpoly import (Alphabet, GradedWords, mono_multiplier, mono_str, mono_weight, parse_mono,
                     parse_mono_keys, slash_factors)
from .sl2z import GroupElement, S, parse_gamma_label, parse_word

__all__ = [
    "BasisCatalog",
    "CatalogEntry",
    "PeelError",
    "PeelReport",
    "UnavailableValue",
    "build_catalog",
    "hidden_collection",
    "compare_recovery",
    "peel",
    "injectivity_probe",
    "psi_evaluator",
    "cocycle_from_json",
    "dump_cocycle_values",
]


PEEL_TOL = 1e-6  # the relative gate of peel's fits and of injectivity_probe


class PeelError(ValueError):
    """Input cocycle outside the supported class."""


class UnavailableValue(KeyError):
    """A file-backed evaluator has no stored value for the requested point."""


@dataclass(frozen=True)
class CatalogEntry:
    mono: tuple
    forms: tuple
    psi_samples: np.ndarray  # (n_panel, dim), psi_{g_j,S}(t_i) = int_0^oo g_j (tau-t_i)^w

    @property
    def dim(self) -> int:
        return len(self.forms)


@dataclass(frozen=True)
class BasisCatalog:
    """Cusp-space bases and period samples for every monomial of degree <= D
    whose weight/multiplier pair carries a nonzero space."""

    alphabet: Alphabet
    D: int
    panel: tuple
    entries: tuple

    def entry(self, mono):
        return next((e for e in self.entries if e.mono == tuple(mono)), None)


def build_catalog(alphabet: Alphabet, D: int, panel,
                  cfg: QuadConfig = QuadConfig()) -> BasisCatalog:
    """Enumerate monomials of degree 1..D with nonzero cusp space and sample
    each basis form's period integral on the panel.

    The samples depend only on the cusp space (weight, multiplier), so every
    monomial of one space shares one basis tuple and one read-only samples
    array, sampled once per call."""
    panel = validate_panel(panel)
    words = GradedWords(alphabet, D)
    top = Endpoint.cusp(None)
    zero = Endpoint.cusp(Fraction(0))
    spaces = {}  # (weight, multiplier) -> (basis, samples), for this call only
    entries = []
    for d in range(1, D + 1):
        for m in words.words_of_degree(d):
            space = (mono_weight(alphabet, m), mono_multiplier(alphabet, m))
            if space not in spaces:
                basis = tuple(cusp_space_basis(*space))
                samples = None
                if basis:
                    samples = np.column_stack([r_direct([g], top, zero, panel, cfg)
                                               for g in basis])
                    samples.flags.writeable = False
                spaces[space] = basis, samples
            basis, samples = spaces[space]
            if basis:
                entries.append(CatalogEntry(m, basis, samples))
    return BasisCatalog(alphabet, D, tuple(panel.tolist()), tuple(entries))


def hidden_collection(catalog: BasisCatalog, coeffs: dict) -> CuspCollection:
    """The collection whose form at each monomial m is the combination
    coeffs[m] of the catalog basis at m (the input a round trip hides)."""
    forms = {}
    words = GradedWords(catalog.alphabet, catalog.D)
    for m, c in coeffs.items():
        words.index(m)  # names a degree above D or a letter outside the alphabet
        entry = catalog.entry(m)
        if entry is None:
            raise ValueError(f"{mono_str(m)}: no cusp forms exist for this monomial")
        try:
            forms[m] = form_linear_combination(c, entry.forms)
        except ValueError as e:
            raise ValueError(f"{mono_str(m)}: {e}") from None
    return CuspCollection(catalog.alphabet, forms)


def compare_recovery(coeffs: dict, report: PeelReport) -> tuple:
    """Hidden basis coefficients against the ones peel fitted, on every
    monomial that was hidden or fitted.

    Returns ({monomial: {"hidden", "recovered", "rel_err"}}, worst rel_err);
    each error is relative to max(1, largest hidden coefficient), a monomial
    peel did not fit counts as recovered zero and one that was not hidden
    as hidden zero.
    """
    fits = {parse_mono(key): np.asarray(fit["coefficients"])
            for stage in report.degrees for key, fit in stage["fits"].items()}
    worst = 0.0
    comparison = {}
    for m in sorted(set(coeffs) | set(fits), key=lambda m: (len(m), m)):
        want = np.asarray(coeffs[m]) if m in coeffs else np.zeros_like(fits[m])
        got = fits.get(m, np.zeros_like(want))
        err = float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
        worst = max(worst, err)
        comparison[mono_str(m)] = {
            "hidden": [float(v) for v in want],
            "recovered": [float(v) for v in got],
            "rel_err": err,
        }
    return comparison, worst


# --- cocycle evaluators ------------------------------------------------------

def _canon_key(gamma: GroupElement) -> tuple:
    # +-gamma act identically on the cocycle, fold the sign
    ent = gamma.entries()
    for v in ent:
        if v != 0:
            return ent if v > 0 else tuple(-x for x in ent)
    raise ValueError("singular matrix")


def _same_panel(pts: np.ndarray, t: np.ndarray) -> bool:
    """The values reader's panel match: same length, every point within 1e-12."""
    return len(pts) == len(t) and np.allclose(pts, t, rtol=0, atol=1e-12)


def cocycle_from_json(data, alphabet: Alphabet, D: int):
    """Evaluator backed by the parsed JSON of precomputed panel values.

    data has the shape that dump_cocycle_values and `ncperiods psi` write:
        {"entries": [{"gamma": "S", "panel": [[re,im],...],
                      "values": {"A1": [[re,im],...], ...}}, ...]}
    with one values list and one key per monomial, one pair per panel point,
    and at most one entry per gamma (up to sign) and panel, two panels being
    one when the reader cannot tell them apart (_same_panel).  Monomials not
    listed are zero, the constant term is fixed at 1.  A "degree" field, which
    dump_cocycle_values writes, must be the JSON int D.  Requests off the
    stored grid raise UnavailableValue, which peel turns into a refusal naming
    the missing PEEL_VALUE_GRID entry.  Any other shape raises ValueError.
    """
    words = GradedWords(alphabet, D)
    store = []  # (canonical gamma, panel points, rows, the entry that gave them)
    if not isinstance(data, dict):
        raise ValueError("cocycle values must be a JSON object")
    if "entries" not in data:
        raise ValueError("cocycle values need a field 'entries' (the shape ncperiods psi writes)")
    if not isinstance(data["entries"], list):
        raise ValueError("field 'entries' must be a list of objects")
    degree = data.get("degree", D)
    if type(degree) is not int:
        raise ValueError(f"field 'degree' must be a JSON int, got {degree!r}")
    if degree != D:
        raise ValueError(f"cocycle values were dumped at degree {degree}, read at degree {D}")
    for i, ent in enumerate(data["entries"]):
        where = f"entry {i}"
        if not isinstance(ent, dict):
            raise ValueError(f"{where}: must be an object")
        for name in ("gamma", "panel", "values"):
            if name not in ent:
                raise ValueError(f"{where}: missing field {name!r}")
        label, values = ent["gamma"], ent["values"]
        if not isinstance(label, str):
            raise ValueError(f"{where}: field 'gamma' must be a label string")
        try:
            gamma = parse_gamma_label(label)
        except ValueError as e:
            raise ValueError(f"{where}: bad gamma label {label!r}: {e}") from None
        if not isinstance(values, dict):
            raise ValueError(f"{where}: values must map monomials to [re,im] pairs")
        try:
            panel_pts = validate_panel(json_points(ent["panel"], "field 'panel'"))
            cols = {key: words.index(m) for m, key in parse_mono_keys(values).items() if m}
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        rows = words.unit_rows(len(panel_pts))
        for key, col in cols.items():
            pts = json_points(values[key], f"{label}/{key}: values")
            if len(pts) != len(panel_pts):
                raise ValueError(f"{label}/{key}: need one [re,im] pair per panel point")
            rows[:, col] = pts
        canon = _canon_key(gamma)
        for gk, pts, _, who in store:
            if gk == canon and _same_panel(pts, panel_pts):
                raise ValueError(f"{where}: gamma {label!r} repeats {who} on its panel, up to sign")
        store.append((canon, panel_pts, rows, f"entry {i} ({label!r})"))

    def ev(gamma: GroupElement, t):
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        key = _canon_key(gamma)
        for gk, pts, rows, _ in store:
            if gk == key and _same_panel(pts, t):
                return rows.copy()
        raise UnavailableValue(f"no stored values for {gamma.entries()} at this panel")

    return ev


#: (label, panel transform) pairs whose values peel reads, every one of them,
#: including the translated panels the abelian checks slash through.
PEEL_VALUE_GRID = (
    ("T", None),
    ("T", "S"),
    ("S", None),
    ("S", "T"),
    ("S", "S"),
    ("ST", None),
    ("TS", None),
    ("SS", None),
)


def _grid_reads(X, panel, grid) -> list:
    """(label, move, gamma, points) for each (label, move) entry of the grid;
    an evaluator with a planner (psi_evaluator) is handed all the reads at
    once, before any is made."""
    panel = np.atleast_1d(np.asarray(panel, dtype=complex))
    reads = [(label, move, parse_gamma_label(label),
              panel if move is None else parse_word(move).mobius(panel))
             for label, move in grid]
    plan = getattr(X, "plan", None)
    if plan is not None:
        plan([(gamma, pts) for _, _, gamma, pts in reads])
    return reads


def _grid_values(X, panel) -> dict:
    """X on every PEEL_VALUE_GRID entry, keyed by (label, move); an entry X
    has no value for is refused with UnavailableValue, one with a non-finite
    value with PeelError."""
    out = {}
    for label, move, gamma, pts in _grid_reads(X, panel, PEEL_VALUE_GRID):
        where = "t" if move is None else f"{move} t"
        try:
            rows = np.asarray(X(gamma, pts), dtype=complex)
        except UnavailableValue:
            raise UnavailableValue(f"peel needs X_{label} at {where} on its panel") from None
        if not np.all(np.isfinite(rows)):
            raise PeelError(f"X_{label} at {where}: non-finite cocycle value")
        out[label, move] = rows
    return out


def dump_cocycle_values(X, alphabet: Alphabet, D: int, panel, grid=PEEL_VALUE_GRID) -> dict:
    """Evaluate X on the (label, move) entries of the grid, by default the one
    peel consumes, and pack it in the full JSON shape."""
    words = GradedWords(alphabet, D)
    entries = []
    for label, move, gamma, pts in _grid_reads(X, panel, grid):
        rows = np.asarray(X(gamma, pts), dtype=complex)
        first = words.block(1).start
        cols = (first + np.flatnonzero(np.max(np.abs(rows[:, first:]), axis=0) != 0.0)).tolist()
        # one tolist of the kept columns' (columns, rows, 2) real/imag pairs packs them all
        pairs = np.stack([rows.real, rows.imag], axis=-1)[:, cols].transpose(1, 0, 2).tolist()
        values = {mono_str(words.word(i)): col for i, col in zip(cols, pairs)}
        entries.append({
            "gamma": label,
            "panel": [[float(p.real), float(p.imag)] for p in pts],
            "values": values,
        })
    return {"degree": D, "entries": entries}


# --- peel --------------------------------------------------------------------

@dataclass
class PeelReport:
    panel: list
    parabolic_check: str
    degrees: list = field(default_factory=list)
    final_residual: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "tol": PEEL_TOL,
            "panel": self.panel,
            "parabolic_check": self.parabolic_check,
            "degrees": self.degrees,
            "final_residual": self.final_residual,
        }


_ABELIAN_PAIRS = (("S", "T"), ("T", "S"), ("S", "S"))


def _abelian_check(xv, pv, words, d, panel, cfg) -> dict:
    """Residual of Ybar_{gd} = Ybar_g|d + Ybar_d on the generator pairs,
    for Ybar the degree-d block of X - Psi(h_prev), read from the grid
    tables xv of X and pv of Psi(h_prev).  Run before fitting the degree; a
    breach, which means X is not a cocycle compatible with the lower degrees
    already recovered, raises PeelError."""
    block = words.block(d)

    def ybar(label, move=None):
        raw, prev = xv[label, move], pv[label, move]
        out = np.zeros_like(raw)
        out[:, block] = raw[:, block] - prev[:, block]
        # the raw magnitude is what the difference cancels against
        return out, float(np.max(np.abs(raw[:, block])))

    worst = 0.0
    scale = 1.0
    details = {}
    for gl, dl in _ABELIAN_PAIRS:
        lhs, s1 = ybar(gl + dl)
        moved, _ = ybar(gl, dl)
        rhs_g = rows_slash(words, moved, parse_word(dl), panel)
        rhs_d, s3 = ybar(dl)
        resid = float(np.max(np.abs((lhs - rhs_g - rhs_d)[:, block])))
        details[f"{gl},{dl}"] = resid
        worst = max(worst, resid)
        scale = max(scale, s1, s3, float(np.max(np.abs(rhs_g[:, block]))))
    thresh = 10.0 * max(cfg.atol, cfg.rtol * scale, cfg.quad_tol * scale)
    if worst <= thresh:
        return {"status": "ok", "pairs": details, "max": worst,
                "scale": scale, "threshold": thresh}
    raise PeelError(f"degree {d}: abelian cocycle check failed "
                    f"(max {worst:.2e} > {thresh:.2e}); "
                    "input is not a cocycle over the recovered lower degrees")


def _fit(design, rhs) -> tuple:
    """Real coefficients of the complex rhs on the complex columns of design:
    least squares on the stacked real and imaginary parts, columns scaled to
    unit norm.  Returns (coefficients, residual, cond): the largest misfit
    relative to max(1, the largest entry of rhs or of the fit), and the
    condition number of the scaled columns from the solve's singular values."""
    A = np.concatenate([design.real, design.imag])
    colnorm = np.linalg.norm(A, axis=0)
    colnorm[colnorm == 0.0] = 1.0
    A = A / colnorm
    b = np.concatenate([rhs.real, rhs.imag])
    coef, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
    fit = A @ coef
    resid = float(np.max(np.abs(fit - b)) / max(1.0, np.max(np.abs(b)), np.max(np.abs(fit))))
    return coef / colnorm, resid, float(sv[0] / sv[-1])


def peel(X, catalog: BasisCatalog, z0=RunConfig.z0, cfg: QuadConfig = QuadConfig()) -> tuple:
    """Reconstruct a collection from cocycle panel values.

    X is an evaluator (gamma, panel) -> rows: psi_evaluator, or
    cocycle_from_json for a values file.  It is read on the catalog's panel,
    where the period samples live, up to the catalog's degree, one read on
    every PEEL_VALUE_GRID entry, planned ahead as one grid (as is each
    Psi(h_<d) peel builds).  Every check either passes or refuses.  Returns
    (CuspCollection, PeelReport).
    Raises UnavailableValue when X has no value on a grid entry, PeelError
    when X is not parabolic at oo, when the abelian pre-check fails or when a
    degree's discrepancy cannot be explained by the catalog to within
    PEEL_TOL, and ConfigError when the panel has fewer than two points per
    fit dimension.
    """
    D = catalog.D
    panel = np.asarray(catalog.panel, dtype=complex)
    alphabet = catalog.alphabet
    words = GradedWords(alphabet, D)

    ndim_max = max((e.dim for e in catalog.entries), default=0)
    if len(panel) < 2 * ndim_max:
        raise ConfigError(f"panel too small: {len(panel)} points for fit dimension {ndim_max}")

    xv = _grid_values(X, panel)
    x_t, x_s = xv["T", None], xv["S", None]
    unit = words.unit_rows(len(panel))
    worst_t = float(np.max(np.abs(x_t - unit)) / max(1.0, np.max(np.abs(x_t))))
    if worst_t > 10.0 * PEEL_TOL:
        raise PeelError(f"X_T differs from 1 by {worst_t:.2e} relative; "
                        "peel needs the parabolic normalization at the base point oo")
    report = PeelReport(panel=[[float(p.real), float(p.imag)] for p in panel],
                        parabolic_check=f"ok ({worst_t:.2e})")

    # coefficients grow with the kernel power, so every tolerance below is
    # taken relative to the magnitude of the values whose cancellation
    # produced the quantity under test
    entries = {}
    P = None
    for d in range(1, D + 1):
        if P is None:  # Psi(h_<d) of a collection no earlier stage has read
            P = psi_evaluator(CuspCollection(alphabet, dict(entries)), D, z0, cfg)
            pv = _grid_values(P, panel)
        stage = {"degree": d, "abelian": _abelian_check(xv, pv, words, d, panel, cfg)}

        prev_rows = pv["S", None]
        delta = x_s - prev_rows
        blk = words.block(d)
        block_scale = max(1.0, float(np.max(np.abs(x_s[:, blk]))),
                          float(np.max(np.abs(prev_rows[:, blk]))))
        fits = {}
        recovered = []
        absent_rel = 0.0
        for m in words.words_of_degree(d):
            col = delta[:, words.index(m)]
            entry = catalog.entry(m)
            if entry is None:
                absent_rel = max(absent_rel, float(np.max(np.abs(col))) / block_scale)
                continue
            coef, resid, cond = _fit(-entry.psi_samples, col)
            fits[mono_str(m)] = {
                "coefficients": [float(c) for c in coef],
                "residual": resid,
                "cond": cond,
            }
            if resid > PEEL_TOL:
                raise PeelError(f"{mono_str(m)}: fit residual {resid:.2e} exceeds tol "
                                f"{PEEL_TOL:.2e}; cocycle not in the reachable class")
            if np.max(np.abs(coef)) > PEEL_TOL:
                entries[m] = form_linear_combination(coef, entry.forms)
                recovered.append(mono_str(m))
        if absent_rel > PEEL_TOL:
            raise PeelError(f"degree {d}: relative coefficient {absent_rel:.2e} on a monomial "
                            "with zero cusp space; cocycle not in the reachable class")
        stage.update(fits=fits, recovered=recovered, absent_max=absent_rel,
                     block_scale=block_scale)
        report.degrees.append(stage)
        if recovered:
            P = None

    h_rec = CuspCollection(alphabet, dict(entries))
    if P is None:
        P = psi_evaluator(h_rec, D, z0, cfg)
    final = np.abs(x_s - P(S, panel))
    report.final_residual = float(np.max(final / np.maximum(1.0, np.abs(x_s))))
    return h_rec, report


# --- injectivity -------------------------------------------------------------

def _extend_panel(panel: np.ndarray, needed: int) -> np.ndarray:
    """Deterministically append lower-half-plane points until the panel has
    `needed` entries (distinct radii, golden-ratio angle steps)."""
    pts = list(panel)
    k = 0
    while len(pts) < needed:
        r = 0.4 + 0.23 * k
        phi = -np.pi * (0.15 + 0.7 * ((k * 0.6180339887498949) % 1.0))
        pts.append(r * np.exp(1j * phi))
        k += 1
    return np.asarray(pts, dtype=complex)


def _degree_one_coboundaries(words: GradedWords, idx: int, t: np.ndarray):
    """Coboundary directions a degree-one difference is only defined up to.

    Both cocycles take the value 1 at T, so an allowed coboundary q|gamma - q
    must vanish at T: for a trivial-multiplier letter that forces q constant,
    leaving the single direction (1|S - 1)(t).  Eta-multiplier letters admit
    no nonzero T-invariant polynomial at all."""
    j = words.word(idx)[0]
    L = words.alphabet.letter(j)
    if L.multiplier.eta_N % 24 != 0:
        return None
    return slash_factors(words, S, t)[:, idx] - 1.0


def injectivity_probe(h: CuspCollection, hp: CuspCollection, panel, z0=RunConfig.z0,
                      cfg: QuadConfig = QuadConfig()) -> dict:
    """Separation margin of Psi(h) and Psi(h') at the first degree where the
    collections differ.

    At degree one the margin is computed modulo the best coboundary fit per
    letter (the direction a shared parabolic normalization leaves free, see
    _degree_one_coboundaries); the panel is extended so the fit is
    overdetermined.  At higher degrees the raw block difference is used.
    Margin is the max residual over panel points and words of that degree;
    'separated' requires some word's residual to exceed 10 PEEL_TOL and to clear
    the evaluation noise floor on that word's own scale.
    """
    if h.alphabet != hp.alphabet:
        raise ValueError("collections must share an alphabet")
    panel = np.atleast_1d(np.asarray(panel, dtype=complex))

    per = {}
    for m in sorted(set(h.support_monos) | set(hp.support_monos), key=lambda m: (len(m), m)):
        a, b = h.form_of(m), hp.form_of(m)
        if (a.digest if a else None) != (b.digest if b else None):
            per.setdefault(len(m), []).append(m)
    if not per:
        return {"first_differing_degree": None, "margin": 0.0, "separated": False}
    dstar = min(per)

    words = GradedWords(h.alphabet, dstar)
    t = panel
    if dstar == 1 and any(h.alphabet.letter(m[0]).multiplier.eta_N % 24 == 0
                          for m in per[1]):
        t = _extend_panel(panel, max(len(panel), 8))
    rows_h = psi(h, S, z0, t, dstar, cfg)
    rows_hp = psi(hp, S, z0, t, dstar, cfg)
    diff = rows_h - rows_hp

    blk = words.block(dstar)
    eps = max(cfg.rtol, cfg.quad_tol)
    margin = 0.0
    separated = False
    per_word = {}
    for idx in range(blk.start, blk.stop):
        col = diff[:, idx]
        if dstar == 1:
            q = _degree_one_coboundaries(words, idx, t)
            if q is not None:  # a complex multiple of q is a real one of (q, iq)
                A = np.stack([q, 1j * q], axis=1)
                col = col - A @ _fit(A, col)[0]
        worst = float(np.max(np.abs(col)))
        word_scale = max(1.0, float(np.max(np.abs(rows_h[:, idx]))),
                         float(np.max(np.abs(rows_hp[:, idx]))))
        per_word[mono_str(words.word(idx))] = worst
        margin = max(margin, worst)
        # a word separates when its residual clears both the requested
        # tolerance and the noise floor of the evaluations on its own scale
        if worst > 10.0 * PEEL_TOL and worst > 10.0 * eps * word_scale:
            separated = True
    return {
        "first_differing_degree": dstar,
        "margin": margin,
        "separated": separated,
        "per_word_max": per_word,
        "panel_size": int(len(t)),
    }
