"""Sweep every verification identity over degrees and group elements.

Prints one residual line per check, its max and scale, and exits 1 if any
fails: an identity report fails when max / max(1, scale) exceeds the
threshold (iterint.report_passes, the CLI's rule).

    python3 scripts/identity_sweep.py --degree 3 --threshold 1e-7
"""

import argparse
import sys
import time

import numpy as np

from ncperiods.cocycle import (
    CuspCollection,
    eta_example_check,
    verify_base_point_independence,
    verify_cocycle,
    verify_equivariance,
    verify_multiplicativity,
)
from ncperiods.config import DEFAULT_PANEL
from ncperiods.iterint import QuadConfig, path_split_check, report_passes
from ncperiods.mlv import lambda_probe, verify_shuffle
from ncperiods.modforms import eta_form, level_one_basis
from ncperiods.ncpoly import Alphabet, Letter
from ncperiods.sl2z import S, T, parse_word

Z0 = 2.0j
Z_HI, Y_MID, X_LO = 2.2j, 0.5 + 1.3j, -0.3 + 0.8j


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--threshold", type=float, default=1e-7)
    ap.add_argument("--rtol", type=float, default=1e-11)
    args = ap.parse_args(argv)

    cfg = QuadConfig(rtol=args.rtol, atol=args.rtol * 1e-2, quad_tol=args.rtol * 10)
    panel = np.asarray(DEFAULT_PANEL, dtype=complex)
    delta = level_one_basis(12)[0]
    g16 = level_one_basis(16)[0]
    h = CuspCollection.from_letters(Alphabet((Letter.trivial(10),)), [delta])

    reports = []
    for forms in ([delta, g16], [delta, delta, delta]):
        rep = path_split_check(forms, Z_HI, Y_MID, X_LO, panel, cfg)
        reports.append((rep["identity"], rep))
    for D in range(1, args.degree + 1):
        rep = verify_multiplicativity(h, Z_HI, Y_MID, X_LO, panel, D, cfg)
        reports.append((f"multiplicativity D={D}", rep))
        for name, g in (("S", S), ("T", T), ("TS", parse_word("TS"))):
            rep = verify_equivariance(h, g, None, 0, panel, D, cfg)
            reports.append((f"equivariance {name} D={D}", rep))
    for name, g, d in [("S,S", S, S), ("S,T", S, T), ("T,S", T, S),
                       ("TS,ST", T * S, S * T)]:
        rep = verify_cocycle(h, g, d, Z0, panel, args.degree, cfg)
        reports.append((f"cocycle ({name})", rep))
    rep = verify_base_point_independence(h, S, 2.0j, 0.4 + 1.1j, panel, args.degree, cfg)
    reports.append(("base point independence", rep))
    for N in (1, 4, 12, 24):
        hh = CuspCollection.from_letters(Alphabet((Letter.eta(N),)), [eta_form(N)])
        rep = eta_example_check(hh, Z0, panel, args.degree, cfg)
        reports.append((f"eta^{N} relations", rep))
    for f1, f2 in [(delta, delta), (delta, g16)]:
        rep = verify_shuffle(f1, f2, panel, cfg)
        reports.append((f"shuffle {rep['forms'][0]}*{rep['forms'][1]}", rep))

    # identity reports pass by the CLI's rule; the functional-equation probe
    # is already relative to |Lambda(s)|
    rows = [(name, f"{rep['max']:10.3e}", f"{rep['scale']:10.3e}",
             report_passes(rep, args.threshold)) for name, rep in reports]
    max_rel = lambda_probe(delta, cfg=cfg)["max_rel"]
    rows.append(("functional equation (rel)", f"{max_rel:10.3e}", f"{'-':>10}",
                 max_rel <= args.threshold))
    width = max(len(name) for name, *_ in rows)
    print(f"{'check':<{width}}  {'max':>10}  {'scale':>10}")
    for name, res, scale, ok in rows:
        print(f"{name:<{width}}  {res}  {scale}  {'ok' if ok else 'FAIL'}")
    bad = sum(not ok for *_, ok in rows)
    print(f"\n{len(rows)} checks, {bad} over threshold {args.threshold:g} "
          "(max / max(1, scale) for identity reports)")
    return 1 if bad else 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"[{time.perf_counter() - t0:.1f}s]", file=sys.stderr)
    sys.exit(code)
