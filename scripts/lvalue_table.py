"""Completed L-values of the level-one cusp forms at integer points.

For each weight with a one-dimensional cusp space, tabulate
Lambda(f, s) = M_{s-1} / i^s for s = 1..w+1, the functional-equation
residual, and the order-2 shuffle residual against the weight-12 form.

    python3 scripts/lvalue_table.py --weights 12,16,18
"""

import argparse
import sys

import numpy as np

from ncperiods.config import DEFAULT_PANEL
from ncperiods.iterint import QuadConfig
from ncperiods.mlv import lambda_probe, moments_table, verify_shuffle
from ncperiods.modforms import level_one_basis


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--weights", default="12,16,18,20,22,26")
    ap.add_argument("--rtol", type=float, default=1e-12)
    args = ap.parse_args(argv)

    cfg = QuadConfig(rtol=args.rtol, atol=args.rtol * 1e-2, quad_tol=args.rtol * 10)
    panel = np.asarray(DEFAULT_PANEL, dtype=complex)
    weights = [int(w) for w in args.weights.split(",")]
    delta = level_one_basis(12)[0]

    for k in weights:
        basis = level_one_basis(k)
        if len(basis) != 1:
            print(f"weight {k}: cusp space dimension {len(basis)}, skipping")
            continue
        f = basis[0]
        probe = lambda_probe(f, cfg=cfg)
        shuffle = verify_shuffle(delta, f, panel, cfg)
        print(f"\n{f.label}  (weight {k}, sign {probe['sign']:+d}, "
              f"funceq rel {probe['max_rel']:.1e}, "
              f"shuffle vs {delta.label} {shuffle['max']:.1e})")
        M = moments_table(f, cfg=cfg)
        for s in range(1, k):
            lam = complex(M[s - 1]) / 1j**s
            mark = "" if abs(lam.imag) > 1e-12 * abs(lam) else "   (real)"
            print(f"  Lambda({s:2d}) = {lam.real:+.12e}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
