"""Command-line front end.

Commands
  verify     run one identity check and report residuals (basepoint: Psi_gamma
             from z0 and from 0.4+1.1j)
  mlv        (multiple) L-value tables for one or two forms; order 1 adds the
             functional-equation residual (funceq) of each form
  roundtrip  hide a collection, peel it back, compare
  catalog    dump the basis catalog for an alphabet
  psi        dump cocycle panel values for the default collection
  peel       recover a collection from a values file that psi writes

Every report is JSON with sorted keys and embeds the resolved config, so a
fixed (config, seed) reproduces the bytes.  Exit codes: 0 pass, 1 config or
numerical error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields

import numpy as np

from .config import ConfigError, RunConfig, format_alphabet, read_json
from .cocycle import (
    CuspCollection,
    eta_example_check,
    verify_base_point_independence,
    verify_cocycle,
    verify_equivariance,
    verify_multiplicativity,
)
from .iterint import IterIntError, path_split_check, report_passes
from .mlv import double_moments, lambda_probe, moments_table, verify_shuffle
from .modforms import EvalError, cusp_space_basis, eta_form, level_one_basis
from .ncpoly import mono_str, parse_mono_keys
from .quadrature import QuadratureError
from .reconstruct import (
    PEEL_VALUE_GRID,
    PeelError,
    UnavailableValue,
    build_catalog,
    cocycle_from_json,
    compare_recovery,
    dump_cocycle_values,
    hidden_collection,
    peel,
    psi_evaluator,
)
from .sl2z import parse_gamma_label

IDENTITIES = ("cocycle", "equivariance", "mult", "rel2", "rel3", "eta-example", "shuffle",
              "basepoint")

# fixed interior endpoints for the path identities (documented, not flags:
# the identities hold for any choice, these just have to be reproducible)
_Z_HI = 2.2j
_Y_MID = 0.5 + 1.3j
_X_LO = -0.3 + 0.8j
_Z0_ALT = 0.4 + 1.1j  # the second base point of verify basepoint
# a check whose group elements all have c = 0 reads only unit series: refused
_UNIT_PSI = "c = 0, so every Psi is the unit series; nothing to check"


def _parse_gamma(text: str):
    try:
        return parse_gamma_label(text)
    except ValueError as e:
        raise ConfigError(f"bad group element {text!r}: {e}")


def default_collection(cfg: RunConfig) -> CuspCollection:
    """One form per letter: the first echelon basis element of its space.

    Letters whose cusp space is zero stay absent, matching the support
    filter.  This is the collection every verify/psi run uses unless the
    command builds its own.
    """
    alphabet = cfg.the_alphabet()
    entries = {}
    for j in range(1, alphabet.ell + 1):
        L = alphabet.letter(j)
        basis = cusp_space_basis(L.weight, L.multiplier)
        if basis:
            entries[(j,)] = basis[0]
    return CuspCollection(alphabet, entries)


def _checked_collection(cfg: RunConfig, identity: str) -> CuspCollection:
    """default_collection, refused when it is empty: the identity would then
    compare 1 with 1 and pass having checked nothing."""
    h = default_collection(cfg)
    if not h.support:
        raise ConfigError(f"verify {identity}: no letter of alphabet "
                          f"{format_alphabet(h.alphabet)} carries a cusp form; nothing to check")
    return h


def _first_trivial_forms(cfg: RunConfig, count: int) -> list:
    """The form pair/tuple the decomposition and shuffle identities run on,
    refused when no trivial-multiplier letter carries a form."""
    h = default_collection(cfg)
    forms = [f for f in h.support_forms if f.multiplier.kind == "trivial"]
    if not forms:
        raise ConfigError(f"no trivial-multiplier letter of alphabet "
                          f"{format_alphabet(h.alphabet)} carries a cusp form; nothing to check")
    while len(forms) < count:
        forms.append(forms[-1])
    return forms[:count]


def cmd_verify(cfg: RunConfig, identity: str, gamma: str | None, delta: str | None) -> tuple:
    if gamma is not None and identity not in ("cocycle", "equivariance", "basepoint"):
        raise ConfigError(f"verify {identity} takes no --gamma")
    if delta is not None and identity != "cocycle":
        raise ConfigError(f"verify {identity} takes no --delta")
    panel = cfg.panel_array()
    quad = cfg.quad()
    D = cfg.degree
    if identity == "cocycle":
        h = _checked_collection(cfg, identity)
        g = _parse_gamma(gamma or "S")
        d = _parse_gamma(delta or "T")
        if g.c == 0 and d.c == 0:
            raise ConfigError(f"verify cocycle: gamma {g!r} and delta {d!r} both have {_UNIT_PSI}")
        rep = verify_cocycle(h, g, d, cfg.z0, panel, D, quad)
    elif identity == "equivariance":
        h = _checked_collection(cfg, identity)
        g = _parse_gamma(gamma or "S")
        rep = verify_equivariance(h, g, _Y_MID, _X_LO, panel, D, quad)
    elif identity == "basepoint":
        h = _checked_collection(cfg, identity)
        g = _parse_gamma(gamma or "S")
        if g.c == 0:
            raise ConfigError(f"verify basepoint: gamma {g!r} has {_UNIT_PSI}")
        rep = verify_base_point_independence(h, g, cfg.z0, _Z0_ALT, panel, D, quad)
    elif identity == "mult":
        h = _checked_collection(cfg, identity)
        rep = verify_multiplicativity(h, _Z_HI, _Y_MID, _X_LO, panel, D, quad)
    elif identity in ("rel2", "rel3"):
        order = 2 if identity == "rel2" else 3
        cfg.check_kernel_range(max(D, order))
        forms = _first_trivial_forms(cfg, order)
        rep = path_split_check(forms, _Z_HI, _Y_MID, _X_LO, panel, quad)
    elif identity == "eta-example":
        if any(L.multiplier.kind != "eta_power" for L in cfg.the_alphabet().letters):
            raise ConfigError("eta-example needs an eta alphabet, e.g. --alphabet eta4")
        h = _checked_collection(cfg, identity)
        rep = eta_example_check(h, cfg.z0, panel, D, quad)
    elif identity == "shuffle":
        cfg.check_kernel_range(max(D, 2))
        f1, f2 = _first_trivial_forms(cfg, 2)
        rep = verify_shuffle(f1, f2, panel, quad)
    else:
        raise ConfigError(f"unknown identity {identity!r}; choose from {IDENTITIES}")
    ok = report_passes(rep, cfg.threshold)
    rep["threshold"] = cfg.threshold
    rep["pass"] = bool(ok)
    return rep, (0 if ok else 2)


def _parse_form(spec: str):
    """Form lookup: 'S<k>.<i>' from the level-one echelon basis, 'eta<N>'.
    Moments need a trivial multiplier, so eta<N> is refused unless N = 24."""
    spec = spec.strip()
    bad = f"bad form spec {spec!r} (want S<k>.<i> or eta<N>)"
    if spec.startswith("eta"):
        try:
            f = eta_form(int(spec[3:]))
        except ValueError as e:
            raise ConfigError(f"{bad}: {e}")
        if f.multiplier.kind != "trivial":
            raise ConfigError(f"{spec!r}: L-value tables need a trivial-multiplier form, "
                              f"this one has multiplier eta^{f.multiplier.N}")
        return f
    if spec.startswith("S") and "." in spec:
        try:
            k, i = (int(part) for part in spec[1:].split(".", 1))
        except ValueError as e:
            raise ConfigError(f"{bad}: {e}")
        basis = level_one_basis(k)
        if not 1 <= i <= len(basis):
            raise ConfigError(f"{spec!r}: space has dimension {len(basis)}")
        return basis[i - 1]
    raise ConfigError(bad)


def cmd_mlv(cfg: RunConfig, form_specs: list, max_order: int) -> tuple:
    quad = cfg.quad()
    if not form_specs:
        raise ConfigError("mlv needs at least one form spec")
    report = {"tables": []}
    if max_order == 1:
        code = 0
        for spec in form_specs:
            f = _parse_form(spec)
            M = moments_table(f, 1.0, quad)
            probe = lambda_probe(f, quad)
            ok = probe["max_rel"] <= cfg.threshold
            code = max(code, 0 if ok else 2)
            w = len(M) - 1
            rows = []
            for k, mk in enumerate(M):
                lam = mk / 1j ** (k + 1)
                rows.append({
                    "k": k,
                    "moment": [mk.real, mk.imag],
                    "lambda_s": k + 1,
                    "lambda": [lam.real, lam.imag],
                })
            report["tables"].append({
                "form": spec,
                "shifted_weight": w,
                "normalization": "moment M_k = int_0^ioo f(tau) tau^k dtau; "
                                 "Lambda(f, k+1) = M_k / i^(k+1)",
                "rows": rows,
                "funceq": {"sign": probe["sign"], "max_rel": probe["max_rel"]},
                "pass": bool(ok),
            })
        return report, code
    if max_order == 2:
        if len(form_specs) != 2:
            raise ConfigError("max-order 2 needs exactly two form specs")
        f1, f2 = (_parse_form(s) for s in form_specs)
        # the shuffle check multiplies a kernel of each form on the panel
        cfg.check_kernel_range(2, [f1.shifted_weight, f2.shifted_weight])
        M = double_moments(f1, f2, quad)
        shuf = verify_shuffle(f1, f2, cfg.panel_array(), quad)
        ok = report_passes(shuf, cfg.threshold)
        report["tables"].append({
            "forms": list(form_specs),
            "normalization": "M_{k1,k2} = int_0^ioo f1(tau1) tau1^k1 "
                             "int_0^tau1 f2(tau2) tau2^k2 dtau2 dtau1",
            "double_moments": [[[v.real, v.imag] for v in row] for row in M],
            "shuffle_residual": shuf["max"],
            "pass": bool(ok),
        })
        return report, (0 if ok else 2)
    raise ConfigError("max-order must be 1 or 2")


def _hidden_from_file(path: str) -> dict:
    """monomial -> coefficient vector from a hidden-h file, read before any
    catalog is built: each value a list of finite JSON numbers."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: hidden-h file must map monomials to coefficient lists")
    coeffs = {}
    try:
        for m, key in parse_mono_keys(raw).items():
            val = raw[key]
            if not (isinstance(val, list) and all(type(x) in (int, float) for x in val)):
                raise ValueError(f"{key}: coefficients must be a list of numbers")
            coeffs[m] = np.array(val, dtype=float)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from None
    return coeffs


def cmd_roundtrip(cfg: RunConfig, hidden_path: str | None, random: bool) -> tuple:
    if (hidden_path is None) == (not random):
        raise ConfigError("need exactly one of a hidden-h file or --random")
    coeffs = None if random else _hidden_from_file(hidden_path)
    panel = cfg.panel_array()
    quad = cfg.quad()
    catalog = build_catalog(cfg.the_alphabet(), cfg.degree, panel, quad)
    if not catalog.entries:
        raise ConfigError(f"roundtrip: no monomial of degree <= {cfg.degree} over alphabet "
                          f"{format_alphabet(catalog.alphabet)} carries a cusp form; "
                          "nothing to recover")
    if random:
        rng = np.random.default_rng(cfg.seed)
        coeffs = {e.mono: rng.uniform(-2.0, 2.0, size=e.dim) for e in catalog.entries}
    try:
        h = hidden_collection(catalog, coeffs)
    except ValueError as e:
        raise ConfigError(str(e))
    X = psi_evaluator(h, cfg.degree, cfg.z0, quad)
    _, rep = peel(X, catalog, z0=cfg.z0, cfg=quad)
    comparison, worst = compare_recovery(coeffs, rep)
    ok = worst <= 1e-4
    report = rep.to_dict()
    report.update(comparison=comparison, max_rel_err=worst, **{"pass": bool(ok)})
    return report, (0 if ok else 2)


def cmd_peel(cfg: RunConfig, path: str) -> tuple:
    """Peel the values file at path (the shape `ncperiods psi` writes) against
    the catalog of the config's alphabet, degree and panel."""
    data = read_json(path)
    alphabet = cfg.the_alphabet()
    try:
        X = cocycle_from_json(data, alphabet, cfg.degree)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")
    quad = cfg.quad()
    catalog = build_catalog(alphabet, cfg.degree, cfg.panel_array(), quad)
    try:
        _, rep = peel(X, catalog, z0=cfg.z0, cfg=quad)
    except UnavailableValue as e:
        raise ConfigError(f"{path}: {e.args[0]} {cfg.resolved()['panel']}")
    return rep.to_dict(), 0


def cmd_catalog(cfg: RunConfig) -> tuple:
    catalog = build_catalog(cfg.the_alphabet(), cfg.degree, cfg.panel_array(), cfg.quad())
    entries = []
    for e in catalog.entries:
        entries.append({
            "monomial": mono_str(e.mono),
            "dim": e.dim,
            "forms": [f.label for f in e.forms],
            "psi_samples": [[[v.real, v.imag] for v in col] for col in e.psi_samples.T],
        })
    return {"alphabet": format_alphabet(catalog.alphabet), "degree": catalog.D,
            "entries": entries}, 0


def cmd_psi(cfg: RunConfig, gamma: str | None) -> tuple:
    grid = PEEL_VALUE_GRID
    if gamma is not None:
        _parse_gamma(gamma)  # a bad label is a config error
        grid = ((gamma, None),)
    h = default_collection(cfg)
    X = psi_evaluator(h, cfg.degree, cfg.z0, cfg.quad())
    return dump_cocycle_values(X, h.alphabet, cfg.degree, cfg.panel_array(), grid), 0


def _emit(report: dict, cfg: RunConfig, out: str | None):
    report = dict(report)
    report["config"] = cfg.resolved()
    if cfg.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        text = _to_csv(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(report: dict) -> str:
    """Flat key,value rows; list-of-dict tables get one row per entry."""
    buf = io.StringIO()
    w = csv.writer(buf)

    def walk(prefix, val):
        if isinstance(val, dict):
            for k in sorted(val):
                walk(f"{prefix}.{k}" if prefix else str(k), val[k])
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for i, item in enumerate(val):
                walk(f"{prefix}[{i}]", item)
        else:
            w.writerow([prefix, json.dumps(val)])

    walk("", report)
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 1); exit 2 means a failed check.
    The subcommand parsers inherit this class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--alphabet", help='letters, e.g. "10:trivial,14:trivial", "eta4" or '
                        '"10:trivial,eta3"')
    common.add_argument("--degree", type=int, help="truncation degree D")
    common.add_argument("--rtol", type=float, help="ODE relative tolerance")
    common.add_argument("--atol", type=float, help="ODE absolute tolerance")
    common.add_argument("--panel", help='t panel, e.g. --panel="-0.8j;0.6-1.1j" (a value '
                        'starting with "-" needs the "=" form)')
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), help="report format")
    common.add_argument("--seed", type=int, help="seed for randomized suites")
    common.add_argument("--threshold", type=float, help="pass/fail residual bound")

    p = _Parser(prog="ncperiods", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", parents=[common], help="verify one identity")
    pv.add_argument("identity", choices=IDENTITIES)
    pv.add_argument("--gamma", help='group element, word ("TS") or "m:a,b,c,d", for '
                    "cocycle, equivariance and basepoint")
    pv.add_argument("--delta", help="second group element for the cocycle relation")
    pv.set_defaults(run=lambda cfg, a: cmd_verify(cfg, a.identity, a.gamma, a.delta))

    pm = sub.add_parser("mlv", parents=[common], help="L-value tables")
    pm.add_argument("forms", nargs="*", help="form specs like S12.1")
    pm.add_argument("--max-order", type=int, default=1, choices=(1, 2))
    pm.set_defaults(run=lambda cfg, a: cmd_mlv(cfg, a.forms, a.max_order))

    pr = sub.add_parser("roundtrip", parents=[common], help="hide, peel, compare")
    pr.add_argument("hidden", nargs="?", help="JSON file: monomial -> coefficients")
    pr.add_argument("--random", action="store_true", help="random hidden collection from --seed")
    pr.set_defaults(run=lambda cfg, a: cmd_roundtrip(cfg, a.hidden, a.random))

    pc = sub.add_parser("catalog", parents=[common], help="dump the basis catalog")
    pc.set_defaults(run=lambda cfg, a: cmd_catalog(cfg))

    pp = sub.add_parser("psi", parents=[common], help="dump cocycle panel values")
    pp.add_argument("--gamma", help="single group element (default: the standard grid)")
    pp.set_defaults(run=lambda cfg, a: cmd_psi(cfg, a.gamma))

    pk = sub.add_parser("peel", parents=[common], help="recover a collection from psi values")
    pk.add_argument("values", help="JSON file in the shape ncperiods psi writes")
    pk.set_defaults(run=lambda cfg, a: cmd_peel(cfg, a.values))

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig.from_sources(
            args.config, **{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
        report, code = args.run(cfg, args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PeelError as e:
        # the input failed a reconstruction precondition or residual gate
        print(f"recovery failure: {e}", file=sys.stderr)
        return 2
    except (QuadratureError, IterIntError, EvalError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    _emit(report, cfg, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
