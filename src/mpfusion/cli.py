"""Command-line workbench.

    mpfusion simulate         evaluate detector presets at one operating point
    mpfusion sweep-snr        same, across an SNR grid
    mpfusion verify-linearity check that fused decision variables are linear
                              in the local scores (weight extraction report)
    mpfusion gaussianity      KS distance of conditioned decision variables
                              from moment-matched normals
    mpfusion optimize         linear fusion designs (per-node / network / blind)

Every subcommand takes --config (JSON run configuration), --seed, --out
and --trials; command-line values override the config file.  All JSON
reports carry a top-level spec_version; CSV numbers use 9 significant
digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as config_mod
from . import discrete, optimizer, pipeline, quadratic, rng, scenario
from .graph import MrfParams
from .performance import gaussianity_check
from .sensing import q_function

_DEFAULT_RHO_GRID = (-12.0, -9.0, -6.0, -3.0, 0.0)


# ---------------------------------------------------------------------------
# plumbing


def _sanitize(obj):
    """Make a payload json.dump-safe: numpy scalars/arrays out, NaN -> None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path, payload: dict) -> None:
    body = {"spec_version": config_mod.FORMAT_VERSION}
    body.update(_sanitize(payload))
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_run(args) -> config_mod.RunConfig:
    cfg = config_mod.load(args.config) if args.config else config_mod.RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=int(args.seed))
    if args.trials is not None:
        cfg = replace(cfg, evaluation=replace(cfg.evaluation,
                                              trials=int(args.trials)))
    return cfg


def _out_dir(args) -> str:
    """Create the output directory, after the work: a failed run leaves none."""
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (overrides config)")
    sub.add_argument("--out", default=None, help="output directory (default ./out)")
    sub.add_argument("--trials", type=int, default=None,
                     help="evaluation slots / sample count (overrides config)")


def _result_rows(results) -> list:
    """CSV rows of every preset and node: the result rows without stderr_pf."""
    return [row[:6] + row[7:] for res in results for row in res.rows()]


_CSV_HEADER = ("method", "rho_db", "delta_rho_db", "node", "pf", "pd", "stderr")


def _result_doc(r: pipeline.MethodResult) -> dict:
    """The report entry of one preset in one cell."""
    return {"method": r.label, "rho_db": r.rho_db, "delta_rho_db": r.delta_rho_db,
            "thresholds": r.thresholds, "report": r.report.to_dict()}


def _cell_kwargs(cfg: config_mod.RunConfig) -> dict:
    """The pipeline keywords a run configuration sets for every cell."""
    return {"iterations": cfg.detector.iterations,
            "training_labels": cfg.detector.training_labels,
            "training_slots": cfg.evaluation.training_slots,
            "calibration_slots": cfg.evaluation.calibration_slots,
            "eval_slots": cfg.evaluation.trials}


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _load_run(args)
    results = pipeline.evaluate_cell(cfg.scenario, cfg.evaluation.methods, cfg.seed,
                                     **_cell_kwargs(cfg))
    out = _out_dir(args)
    _write_csv(os.path.join(out, "results.csv"), _CSV_HEADER, _result_rows(results))
    _write_json(os.path.join(out, "report.json"), {
        "command": "simulate",
        "config": config_mod.to_dict(cfg),
        "results": [dict(_result_doc(r), extras=r.extras) for r in results],
    })
    for r in results:
        pd_avg = np.nanmean(r.report.pd)
        pf_avg = np.nanmean(r.report.pf)
        print(f"{r.label:>10s}  rho={r.rho_db:+.1f} dB  "
              f"mean_pf={pf_avg:.4f}  mean_pd={pd_avg:.4f}")
    print(f"wrote {out}/results.csv and {out}/report.json")
    return 0


def cmd_sweep_snr(args) -> int:
    cfg = _load_run(args)
    grid = cfg.evaluation.rho_grid or _DEFAULT_RHO_GRID
    results = pipeline.sweep_rho(
        cfg.scenario, cfg.evaluation.methods, grid, cfg.seed,
        delta_rule=cfg.evaluation.delta_rule,
        proportional_factor=cfg.evaluation.proportional_factor,
        **_cell_kwargs(cfg))
    out = _out_dir(args)
    _write_csv(os.path.join(out, "sweep.csv"), _CSV_HEADER, _result_rows(results))
    _write_json(os.path.join(out, "sweep.json"), {
        "command": "sweep-snr",
        "config": config_mod.to_dict(cfg),
        "rho_grid": list(grid),
        "results": [_result_doc(r) for r in results],
    })
    print(f"swept {len(grid)} operating points x "
          f"{len(cfg.evaluation.methods)} methods -> {out}/sweep.csv")
    return 0


def cmd_verify_linearity(args) -> int:
    cfg = _load_run(args)
    # --trials means random probes here, not slots; 200 is plenty
    trials = 200 if args.trials is None else int(args.trials)
    scn = cfg.scenario
    top = scn.topology()

    # node energies from the nominal templates; couplings random but weak
    # enough to keep every local curvature negative through the iterations
    templates = scenario.nominal_templates(scn)
    energies = scn.sample_count * templates ** 2
    draw = rng.stream(cfg.seed, rng.COUPLING_DRAW)
    scale = 0.05 * float(np.min(energies))
    couplings = {e: float(draw.uniform(-scale, scale)) for e in top.edges}
    params = MrfParams(top, couplings)

    payload = {"command": "verify-linearity",
               "config": config_mod.to_dict(cfg),
               "couplings": {f"{i}-{j}": c for (i, j), c in couplings.items()},
               "energies": energies,
               "results": []}
    worst = 0.0
    tables = {}
    gen = rng.stream(cfg.seed, rng.PROBES)
    for convention in (quadratic.PAPER, quadratic.EXACT):
        inst = quadratic.QuadraticInstance(top, params, tuple(energies),
                                           convention=convention)
        for iteration in range(1, 5):
            weights = quadratic.extract_weights(inst, iteration)
            residual = quadratic.verify_linearity(inst, iteration, trials, gen,
                                                  weights=weights)
            violations = weights.locality_violations(top)
            payload["results"].append({
                "convention": convention,
                "iteration": iteration,
                "max_residual": residual,
                "locality_violations": violations,
            })
            worst = max(worst, residual)
            if convention == quadratic.PAPER:
                tables[iteration] = weights
    payload["max_residual_overall"] = worst
    out = _out_dir(args)
    for iteration, weights in tables.items():
        weights.to_csv(os.path.join(out, f"weights_l{iteration}.csv"))
    _write_json(os.path.join(out, "linearity.json"), payload)
    print(f"max |lambda - (W gamma + w0)| over all probes: {worst:.3e}")
    print(f"wrote {out}/linearity.json and per-iteration weight tables")
    return 0 if worst < 1e-9 else 1


def cmd_gaussianity(args) -> int:
    cfg = _load_run(args)
    trials = 10000 if args.trials is None else int(args.trials)
    flags = args.pattern.split(",")
    try:
        pattern = tuple(int(b) for b in flags)
    except ValueError:      # left as text, for the pattern check to name
        pattern = tuple(flags)
    scn = cfg.scenario
    reports = []
    cdf_rows = []
    for algorithm in (discrete.MAX_PRODUCT, discrete.SUM_PRODUCT):
        lam, _, _ = pipeline.conditioned_samples(
            scn, algorithm, pattern, trials, cfg.seed,
            iterations=cfg.detector.iterations)
        for j in range(1, scn.node_count + 1):
            rep = gaussianity_check(lam[j - 1])
            reports.append({"algorithm": algorithm, "node": j,
                            "ks": rep.ks_statistic, "mean": rep.mean,
                            "std": rep.std, "count": rep.count})
            qs = np.linspace(0.0, 1.0, 257)[1:-1]
            values = np.quantile(lam[j - 1], qs)
            fitted = 1.0 - q_function((values - rep.mean) / rep.std)
            for q, val, fit in zip(qs, values, fitted):
                cdf_rows.append((algorithm, j, val, q, fit))
    out = _out_dir(args)
    _write_json(os.path.join(out, "gaussianity.json"), {
        "command": "gaussianity",
        "config": config_mod.to_dict(cfg),
        "pattern": list(pattern),
        "trials": trials,
        "reports": reports,
    })
    _write_csv(os.path.join(out, "cdf.csv"),
               ("algorithm", "node", "value", "empirical_cdf", "normal_cdf"),
               cdf_rows)
    worst = max(r["ks"] for r in reports)
    print(f"worst KS distance across engines/nodes: {worst:.4f}")
    print(f"wrote {out}/gaussianity.json and {out}/cdf.csv")
    return 0


def cmd_optimize(args) -> int:
    cfg = _load_run(args)
    scn = cfg.scenario
    top = scn.topology()
    moments = scenario.moments_from_scenario(scenario.scenario_stats(scn))
    hood = optimizer.neighbourhood_designs(moments, top, scn.far)
    designs = {"neighbourhood": hood,
               "network": optimizer.optimize_p1(moments, top, scn.far, hood)}
    if args.blind:
        camp = scenario.run_campaign(scn, cfg.evaluation.calibration_slots,
                                     cfg.seed, index=1)
        blind = optimizer.blind_adapt(camp.gamma, top, scn.far, truth=camp.x)
        designs["blind"] = blind.design
    payload = {"command": "optimize", "config": config_mod.to_dict(cfg),
               **{kind: dict(vars(design)) for kind, design in designs.items()}}
    if args.blind:
        payload["blind"].update(label_accuracy={"initial": blind.initial_accuracy,
                                                "final": blind.final_accuracy},
                                folded_cells=blind.folded_cells)
    out = _out_dir(args)
    _write_json(os.path.join(out, "solution.json"), payload)
    for kind, design in designs.items():
        for j, converged in zip(top.nodes, design.converged):
            if not converged:
                print(f"warning: {kind} design for node {j} did not converge", file=sys.stderr)
    for kind, design in designs.items():
        print(f"{kind} design: mean model pd = {float(np.mean(design.pd)):.4f}")
    print(f"wrote {out}/solution.json")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfusion",
        description="Distributed-detection workbench: message-passing fusion "
                    "of local spectrum-sensing scores on small Markov graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evaluate presets at one operating point")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-snr", help="evaluate presets across an SNR grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_snr)

    p = sub.add_parser("verify-linearity",
                       help="extract fusion weights and report max residual")
    _add_common(p)
    p.set_defaults(func=cmd_verify_linearity)

    p = sub.add_parser("gaussianity",
                       help="KS distance of conditioned decision variables")
    _add_common(p)
    p.add_argument("--pattern", default="1,0",
                   help="pinned transmitter pattern, e.g. '1,0'")
    p.set_defaults(func=cmd_gaussianity)

    p = sub.add_parser("optimize", help="linear fusion designs")
    _add_common(p)
    p.add_argument("--blind", action="store_true",
                   help="also run the blind bootstrap design")
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (config_mod.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
