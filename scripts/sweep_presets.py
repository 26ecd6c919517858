#!/usr/bin/env python3
"""Sweep detector presets across an SNR grid and tabulate mean Pf/Pd.

The per-cell SNR spread is tied to the grid point (delta = factor * rho),
which keeps the relative link asymmetry constant as the operating point
slides.  Results land in a CSV next to a printed summary table.

    python3 scripts/sweep_presets.py --out out/sweep
"""

import argparse
import csv
import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mpfusion import pipeline
from mpfusion.scenario import ScenarioConfig

DEFAULT_METHODS = ("local", "mp0.1", "mp1.0", "bp0.1", "linProp", "linOpt")
DEFAULT_GRID = (-12.0, -9.0, -6.0, -3.0, 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--methods", nargs="+", default=list(DEFAULT_METHODS))
    ap.add_argument("--grid", nargs="+", type=float, default=list(DEFAULT_GRID))
    ap.add_argument("--kappa", type=float, default=0.5,
                    help="transmitter activity coupling")
    ap.add_argument("--delta-factor", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--out", default="out/sweep")
    args = ap.parse_args()

    cfg = ScenarioConfig(coupling=args.kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = pipeline.sweep_rho(
            cfg, args.methods, args.grid, args.seed,
            delta_rule="proportional", proportional_factor=args.delta_factor,
            calibration_slots=args.trials, eval_slots=args.trials)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("method", "rho_db", "delta_rho_db", "node",
                         "pf", "pd", "stderr_pf", "stderr_pd"))
        for res in results:
            for row in res.rows():
                writer.writerow([f"{v:.9g}" if isinstance(v, float) else v
                                 for v in row])

    print(f"{'rho':>6s}  " + "".join(f"{m:>10s}" for m in args.methods))
    for rho in args.grid:
        cells = {r.label: r for r in results if r.rho_db == rho}
        line = f"{rho:6.1f}  "
        for m in args.methods:
            line += f"{np.nanmean(cells[m].report.pd):10.4f}"
        print(line)
    print(f"\nmean Pd per method (Pf pinned at {cfg.far}); rows -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
