"""Hide a random cusp-form collection, serialize its cocycle, recover it.

The recovery side sees only the JSON file: panel values of Psi on the grid
of group elements that peeling consumes, nothing about the hidden forms.

    python3 scripts/roundtrip_demo.py --seed 11 --degree 3 --out /tmp/hidden.json
"""

import argparse
import json
import sys

import numpy as np

from ncperiods.config import DEFAULT_PANEL, parse_alphabet
from ncperiods.iterint import QuadConfig
from ncperiods.reconstruct import (
    build_catalog,
    cocycle_from_json,
    compare_recovery,
    dump_cocycle_values,
    hidden_collection,
    peel,
    psi_evaluator,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--alphabet", default="10:trivial,4:trivial")
    ap.add_argument("--out", default=None, help="where to leave the cocycle JSON")
    ap.add_argument("--rtol", type=float, default=1e-11)
    args = ap.parse_args(argv)

    cfg = QuadConfig(rtol=args.rtol, atol=args.rtol * 1e-2, quad_tol=args.rtol * 10)
    panel = np.asarray(DEFAULT_PANEL, dtype=complex)
    alphabet = parse_alphabet(args.alphabet)
    catalog = build_catalog(alphabet, args.degree, panel, cfg)

    rng = np.random.default_rng(args.seed)
    hidden = {e.mono: rng.uniform(-2.0, 2.0, size=e.dim) for e in catalog.entries}
    h = hidden_collection(catalog, hidden)
    print(f"hidden collection: {len(hidden)} supported monomials, seed {args.seed}")

    data = dump_cocycle_values(psi_evaluator(h, args.degree, cfg=cfg),
                               alphabet, args.degree, panel)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
        print(f"cocycle values -> {args.out}")

    X = cocycle_from_json(data, alphabet, args.degree)
    _, report = peel(X, catalog, cfg=cfg)
    for stage in report.degrees:
        print(f"degree {stage['degree']}: abelian check {stage['abelian']['status']}")

    comparison, worst = compare_recovery(hidden, report)
    print(f"\n{'monomial':<12} {'hidden':>24} {'recovered':>24} {'rel err':>10}")
    for mono, row in comparison.items():
        wtxt = " ".join(f"{v:+.4f}" for v in row["hidden"])
        gtxt = " ".join(f"{v:+.4f}" for v in row["recovered"])
        print(f"{mono:<12} {wtxt:>24} {gtxt:>24} {row['rel_err']:10.2e}")
    print(f"\nworst relative error {worst:.2e}, "
          f"final residual {report.final_residual:.2e}")
    return 0 if worst <= 1e-4 else 1


if __name__ == "__main__":
    sys.exit(main())
