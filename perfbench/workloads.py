"""Seeded inputs, timed operations and correctness gates of the workloads.

Every workload has three parts:

* ``setup(seed)`` builds the exact q-expansion bases the workload needs and
  draws its inputs from the seed.  It is the set-up the benchmark times.
* ``run(inputs)`` is one operation: only the public library calls the
  matching CLI command makes.  This is the timed section.
* ``check(inputs, result, scales)`` turns the result into gate rows.  Any
  scale a report does not carry is computed here, after the timer stopped,
  and memoized in ``scales`` so repeated operations on one input pay it once.

A gate row is ``(label, residual, scale, tol, abs_tol)``.  The operation
passes when ``residual / max(1, scale) <= tol`` for every row.  ``abs_tol``
is the absolute bound the CLI applies to the same number (``None`` where
the CLI has none); breaches of it are counted but do not fail the operation.

Functions are looked up on their modules at call time, so a tracer that
swaps module attributes sees every call.
"""

from __future__ import annotations

import itertools

import numpy as np

import ncperiods.cli as cli
import ncperiods.cocycle as cocycle
import ncperiods.iterint as iterint
import ncperiods.mlv as mlv
import ncperiods.modforms as modforms
import ncperiods.ncpoly as ncpoly
import ncperiods.reconstruct as reconstruct
from ncperiods.config import RunConfig
from ncperiods.sl2z import S, T, parse_word

# interior endpoints of the CLI path identities (cli._Z_HI etc.)
Z_HI = 2.2j
Y_MID = 0.5 + 1.3j
X_LO = -0.3 + 0.8j

# region the default panel spans; seeded panels are drawn inside it
PANEL_RE = 1.3
PANEL_IM = (-1.5, -0.4)

# the tolerances criterion 8 and the tight acceptance checks use
TIGHT = RunConfig(rtol=1e-11, atol=1e-13, quad_tol=1e-12)

# relative acceptance tolerances
RECOVERY_TOL = 1e-4          # cmd_roundtrip: max_rel_err <= 1e-4
IDENTITY_TOL = RunConfig().threshold  # the CLI's default pass/fail threshold
FUNCEQ_TOL = 1e-9            # functional-equation consistency (criterion 7)


def seeded_panel(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points drawn uniformly from the default panel's region."""
    re = rng.uniform(-PANEL_RE, PANEL_RE, size=n)
    im = rng.uniform(PANEL_IM[0], PANEL_IM[1], size=n)
    return re + 1j * im


def jittered_grid_panel(rng: np.random.Generator, side: int) -> np.ndarray:
    """side x side points, one drawn uniformly from each cell of a grid over
    the default panel's region.  The ODE's cutoff height and the moved panels
    S t and T t depend on the panel's extreme points; one point per cell keeps
    those alike across seeds while every point still moves."""
    cells = (np.arange(side)[:, None] + rng.uniform(size=(side, side))) / side
    cols = (np.arange(side)[None, :] + rng.uniform(size=(side, side))) / side
    re = -PANEL_RE + 2 * PANEL_RE * cells
    im = PANEL_IM[0] + (PANEL_IM[1] - PANEL_IM[0]) * cols
    return (re + 1j * im).ravel()


def catalog_bases(alphabet, D: int) -> dict:
    """Cusp-space basis of every monomial of degree 1..D whose space is
    nonzero, in build_catalog's order (all letters have trivial multiplier)."""
    words = ncpoly.GradedWords(alphabet, D)
    bases = {}
    for d in range(1, D + 1):
        for m in words.words_of_degree(d):
            basis = modforms.cusp_space_basis(ncpoly.mono_weight(alphabet, m), ncpoly.TRIVIAL)
            if basis:
                bases[m] = basis
    return bases


def _trivial_forms(h, count: int) -> list:
    """The form tuple `verify rel2/rel3` runs on (cli._first_trivial_forms)."""
    forms = [f for f in h.support_forms if f.multiplier.kind == "trivial"]
    while len(forms) < count:
        forms.append(forms[-1])
    return forms[:count]


# --- roundtrip -----------------------------------------------------------------

class Roundtrip:
    """`ncperiods roundtrip --random`: build_catalog, psi_evaluator, peel."""

    name = "roundtrip"
    cfg = TIGHT.with_(alphabet="10:trivial,4:trivial", degree=3)

    def setup(self, seed: int) -> dict:
        cfg = self.cfg.with_(seed=seed)
        alphabet = cfg.the_alphabet()
        rng = np.random.default_rng(seed)
        # drawn in catalog order, as `roundtrip --random --seed` draws them
        coeffs = {m: rng.uniform(-2.0, 2.0, size=len(basis))
                  for m, basis in catalog_bases(alphabet, cfg.degree).items()}
        return {"cfg": cfg, "alphabet": alphabet, "coeffs": coeffs}

    def run(self, inp: dict):
        cfg = inp["cfg"]
        quad = cfg.quad()
        alphabet = inp["alphabet"]
        catalog = reconstruct.build_catalog(alphabet, cfg.degree, cfg.panel_array(), quad)
        hidden = cocycle.CuspCollection(alphabet, {
            m: modforms.form_linear_combination(c, catalog.entry(m).forms)
            for m, c in inp["coeffs"].items()
        })
        X = reconstruct.psi_evaluator(hidden, cfg.degree, cfg.z0, quad)
        _, report = reconstruct.peel(X, catalog, z0=cfg.z0, cfg=quad)
        return report

    def check(self, inp: dict, report, scales: dict) -> list:
        fits = {}
        rows = []
        for stage in report.degrees:
            fits.update(stage.get("fits", {}))
            ab = stage["abelian"]
            # the threshold already carries the stage's scale; a failed
            # stage has max > threshold, so its ratio fails the gate
            rows.append((f"abelian d={stage['degree']}", ab["max"] / ab["threshold"],
                         1.0, 1.0, None))
        for m, want in inp["coeffs"].items():
            got = np.asarray(fits.get(ncpoly.mono_str(m), {}).get("coefficients",
                                                                  np.zeros_like(want)))
            rows.append((f"recover {ncpoly.mono_str(m)}", float(np.max(np.abs(got - want))),
                         float(np.max(np.abs(want))), RECOVERY_TOL, None))
        return rows


# --- psi_wide ------------------------------------------------------------------

def psi_relations(dump: dict, alphabet, D: int, panel) -> list:
    """Gate rows for a PEEL_VALUE_GRID dump: Psi_ST = Psi_S|T and
    (Psi_S|S) Psi_S = 1, each residual against the scale of its terms."""
    words = ncpoly.GradedWords(alphabet, D)
    X = reconstruct.cocycle_from_json(dump, alphabet, D)
    panel = np.asarray(panel, dtype=complex)
    psi_s = X(S, panel)
    lhs = X(parse_word("ST"), panel)
    rhs = cocycle.rows_slash(words, X(S, T.mobius(panel)), T, panel)
    st_scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    slashed = cocycle.rows_slash(words, X(S, S.mobius(panel)), S, panel)
    unit = np.zeros_like(psi_s)
    unit[:, 0] = 1.0
    prod = cocycle.rows_mul(words, slashed, psi_s)
    # every term of the product is bounded by the product of the factor sizes
    ss_scale = float(np.max(np.abs(slashed))) * float(np.max(np.abs(psi_s)))
    return [
        ("Psi_ST = Psi_S|T", float(np.max(np.abs(lhs - rhs))), st_scale, IDENTITY_TOL, None),
        ("(Psi_S|S) Psi_S = 1", float(np.max(np.abs(prod - unit))), ss_scale,
         IDENTITY_TOL, None),
    ]


class PsiWide:
    """`ncperiods psi`: dump_cocycle_values over PEEL_VALUE_GRID on a wide panel."""

    name = "psi_wide"
    cfg = RunConfig(alphabet="10:trivial,14:trivial", degree=4)
    panel_side = 16  # 256 panel points

    def setup(self, seed: int) -> dict:
        cfg = self.cfg.with_(seed=seed)
        h = cli.default_collection(cfg)
        panel = jittered_grid_panel(np.random.default_rng(seed), self.panel_side)
        return {"cfg": cfg, "h": h, "panel": panel}

    def run(self, inp: dict):
        cfg, h = inp["cfg"], inp["h"]
        X = reconstruct.psi_evaluator(h, cfg.degree, cfg.z0, cfg.quad())
        return reconstruct.dump_cocycle_values(X, h.alphabet, cfg.degree, inp["panel"])

    def check(self, inp: dict, dump: dict, scales: dict) -> list:
        return psi_relations(dump, inp["h"].alphabet, inp["cfg"].degree, inp["panel"])


# --- quadrature ----------------------------------------------------------------

MLV_FORMS = ("S12.1", "S16.1", "S18.1", "S20.1", "S22.1", "S26.1")


class Quadrature:
    """The layered route only: verify mult/equivariance/rel2/rel3, catalog,
    and `mlv --max-order 2` shuffle plus functional-equation probes."""

    name = "quadrature"
    cfg = TIGHT.with_(alphabet="10:trivial,14:trivial", degree=3)
    n_panel = 5
    degrees = (2, 3)
    gammas = ("S", "T", "TS")

    def setup(self, seed: int) -> dict:
        cfg = self.cfg.with_(seed=seed)
        h = cli.default_collection(cfg)
        catalog_bases(h.alphabet, cfg.degree)  # the qexp memo build_catalog reads
        forms = {spec: modforms.level_one_basis(int(spec[1:].split(".")[0]))[0]
                 for spec in MLV_FORMS}
        panel = seeded_panel(np.random.default_rng(seed), self.n_panel)
        return {"cfg": cfg, "h": h, "forms": forms, "panel": panel}

    def run(self, inp: dict):
        cfg, h, panel = inp["cfg"], inp["h"], inp["panel"]
        quad = cfg.quad()
        out = {"mult": {}, "equiv": {}, "split": {}, "shuffle": {}, "funceq": {}}
        for D in self.degrees:
            out["mult"][D] = cocycle.verify_multiplicativity(h, Z_HI, Y_MID, X_LO, panel, D, quad)
            for g in self.gammas:
                out["equiv"][g, D] = cocycle.verify_equivariance(
                    h, parse_word(g), Y_MID, X_LO, panel, D, quad)
        for order in (2, 3):
            out["split"][order] = iterint.path_split_check(
                _trivial_forms(h, order), Z_HI, Y_MID, X_LO, panel, quad)
        out["catalog"] = reconstruct.build_catalog(h.alphabet, cfg.degree, panel, quad)
        forms = inp["forms"]
        for a, b in itertools.permutations(MLV_FORMS, 2):
            out["shuffle"][a, b] = mlv.verify_shuffle(forms[a], forms[b], panel, quad)
        for a in MLV_FORMS:
            out["funceq"][a] = mlv.lambda_probe(forms[a], cfg=quad)
        return out

    def _scale(self, scales: dict, key, compute):
        if key not in scales:
            scales[key] = compute()
        return scales[key]

    def check(self, inp: dict, out: dict, scales: dict) -> list:
        cfg, h, panel = inp["cfg"], inp["h"], inp["panel"]
        quad = cfg.quad()
        Dmax = max(self.degrees)
        words = h.words(Dmax)
        rows = []

        def top_rows(key, y, x, t):
            # rows at the top degree; lower degrees are a prefix of them
            return self._scale(scales, key, lambda: np.abs(
                cocycle.j_rows_direct(h, y, x, t, Dmax, quad)))

        for D, rep in out["mult"].items():
            lhs = top_rows("mult", Z_HI, X_LO, panel)
            scale = float(np.max(lhs[:, : words.offsets[D + 1]]))
            rows.append((f"mult D={D}", rep["max"], scale, IDENTITY_TOL, IDENTITY_TOL))
        for (g, D), rep in out["equiv"].items():
            gamma = parse_word(g)
            lhs = top_rows(("equiv", g), Y_MID, X_LO, gamma.mobius(panel))
            fac = np.abs(ncpoly.slash_factors(words, gamma, panel))
            scale = float(np.max((fac * lhs)[:, : words.offsets[D + 1]]))
            rows.append((f"equiv {g} D={D}", rep["max"], scale, IDENTITY_TOL, IDENTITY_TOL))
        for order, rep in out["split"].items():
            rows.append((f"rel{order}", rep["max"], rep["scale"], IDENTITY_TOL, IDENTITY_TOL))
        for e in out["catalog"].entries:
            # psi_{g,S}(t) = int_0^oo g(tau)(tau-t)^w is the period polynomial
            # of g, which the moments route computes independently
            want = self._scale(scales, ("period", e.mono), lambda e=e: np.column_stack(
                [mlv.period_polynomial(g, quad)(panel) for g in e.forms]))
            rows.append((f"catalog {ncpoly.mono_str(e.mono)}",
                         float(np.max(np.abs(e.psi_samples - want))),
                         float(np.max(np.abs(want))), IDENTITY_TOL, None))
        for (a, b), rep in out["shuffle"].items():
            rows.append((f"shuffle {a} {b}", rep["max"], rep["scale"], IDENTITY_TOL,
                         IDENTITY_TOL))
        for a, rep in out["funceq"].items():
            # lambda_probe divides by |Lambda(s)|, which vanishes at the central
            # value of a form with sign -1; gate the difference on max(1, |Lambda|)
            for r in rep["rows"]:
                size = abs(complex(*r["lambda"]))
                rows.append((f"funceq {a} s={r['s']}", r["rel_err"] * size, size,
                             FUNCEQ_TOL, None))
        return rows


WORKLOADS = {w.name: w for w in (Roundtrip(), PsiWide(), Quadrature())}


def gate(rows: list) -> dict:
    """Summary of one operation's gate rows: pass flag, worst residual/tolerance
    ratio, and how many rows the CLI's absolute threshold would reject."""
    worst = 0.0
    abs_breaches = []
    for label, resid, scale, tol, abs_tol in rows:
        ratio = resid / max(1.0, scale) / tol
        if np.isnan(ratio) or ratio > worst:
            worst = ratio  # once NaN, it stays NaN and fails the gate
        if abs_tol is not None and not resid <= abs_tol:
            abs_breaches.append(label)
    return {"ok": bool(worst <= 1.0), "resid_ratio": worst, "abs_breaches": abs_breaches}
