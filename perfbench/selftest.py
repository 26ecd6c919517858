"""Show that every benchmark check can fail.

    python3 perfbench/selftest.py [--seed N]

Runs one real round of preset-cell and of tree-engines (about 25 s), checks
that the clean outputs pass, then feeds each check a deliberately corrupted
copy and confirms it reports a failed operation.  Exits 1 if a corruption
goes unnoticed or the clean outputs fail.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _find(results, label):
    return next(r for r in results if r["label"] == label)


def _flip_one_message(inputs, res, gamma):
    """Decision variables with the largest engine message sign-flipped."""
    from mpfusion import discrete

    top = inputs["config"].topology()
    state = workloads.engine_state(top, res, gamma)
    edge = max(state.delta, key=lambda e: float(np.max(np.abs(state.delta[e]))))
    state.delta[edge] = -state.delta[edge]
    return discrete.decision_variables(state, top, gamma)


def cell_cases(out):
    """(description, expected check, corrupted outputs) for preset-cell."""
    def corrupt(fn):
        bad = copy.deepcopy(out)
        fn(bad["results"])
        return bad

    def far(results):
        _find(results, "bp0.1")["pf"] += 0.05

    def threshold(results):
        _find(results, "linOpt")["thresholds"][0] += 0.05

    def model(results):
        _find(results, "linProp")["model_pd"][2] += 1e-3

    def local_row(results):
        opt, local = _find(results, "linOpt"), _find(results, "local")
        opt["weights"][2] = local["weights"][2]
        opt["thresholds"][2] = local["thresholds"][2]

    def detection(results):
        _find(results, "linProp")["pd"] -= 0.2

    return [("bp0.1 false-alarm rates raised by 0.05", "far-band", corrupt(far)),
            ("linOpt threshold shifted by 0.05", "threshold", corrupt(threshold)),
            ("linProp model Pd raised by 1e-3", "model-pd", corrupt(model)),
            ("linOpt row replaced by the local row", "design-order", corrupt(local_row)),
            ("linProp measured Pd lowered by 0.2", "detection-order", corrupt(detection))]


def tree_cases(inputs, out):
    cases = []
    for label, check in (("mp1.0", "engine-exact"), ("bp0.1", "engine-exact"),
                         ("egc0.3", "engine-linear")):
        bad = copy.deepcopy(out)
        eng = next(e for e in bad["engines"] if e["label"] == label)
        eng["lam"] = _flip_one_message(inputs, _find(bad["results"], label), eng["gamma"])
        cases.append((f"{label}: one engine message sign-flipped", check, bad))

    bad = copy.deepcopy(out)
    bad["quadratic"][3]["offset"][0] += 1e-6
    cases.append(("quadratic offset moved by 1e-6", "quadratic-reproduce", bad))

    bad = copy.deepcopy(out)
    ex = next(e for e in bad["quadratic"] if e["iteration"] == 3)
    ex["weights"][0, 14] = 1e-6        # nodes 1 and 15 are three hops apart
    cases.append(("weight planted beyond the hop bound", "quadratic-locality", bad))
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=workloads.MASTER_SEED)
    args = ap.parse_args(argv)

    ok = True
    for name, make_cases in (("preset-cell", lambda i, o: cell_cases(o)),
                             ("tree-engines", tree_cases)):
        inputs = workloads.build(name, args.seed)
        out = workloads.run_round(inputs)
        checker = checks.Checker(name, inputs)
        clean = checker(out)
        if clean or not checker.complete(out):
            print(f"FAIL {name}: clean outputs fail: {clean}")
            ok = False
        for what, check, bad in make_cases(inputs, out):
            fails = checker(bad)
            if name == "preset-cell" and check == "detection-order":
                fails = checks.check_detection_order(bad["results"])
            hit = [f for f in fails if f[1] == check]
            print(f"{'ok  ' if hit else 'FAIL'} {name}: {what} -> "
                  + (f"{hit[0][0]} [{check}] {hit[0][2]}" if hit else f"no {check} failure"))
            ok = ok and bool(hit)
        short = copy.deepcopy(out)
        short["results"].pop()
        dropped = not checker.complete(short)
        print(f"{'ok  ' if dropped else 'FAIL'} {name}: a missing result marks the run incorrect")
        ok = ok and dropped
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
