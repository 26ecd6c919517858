"""mpfusion benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload preset-cell --seed 12345 --seconds 55 --trace 0

Run from anywhere inside a checkout that has src/mpfusion.  The workload
runs in a fresh worker process (perfbench/worker.py); this process times
set-up in separate fresh processes, checks every round's outputs
(perfbench/checks.py), writes a results file under .perfbench/, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are run_s, setup_s and peak_rss_mb; with --trace 1
they are the per-layer figures of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 5          # fresh set-up processes besides the worker's own
DEADLINE_S = 170.0         # whole run, set-up and checks included
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _cap_threads() -> None:
    # the workload is single-threaded and this process only waits on it, so
    # one BLAS/OpenMP thread per process keeps the total within nproc
    for var in THREAD_CAPS:
        os.environ[var] = "1"


def _worker_cmd(args, mode, out=None) -> list:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    if out is not None:
        cmd += ["--seconds", str(args.seconds), "--out", out]
    return cmd


def _start(cmd, deadline):
    """Start a worker; return (process, seconds from spawn to "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _finish(proc, deadline) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the run deadline") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def measure(args, deadline):
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup = _start(_worker_cmd(args, "setup"), deadline)
        _finish(proc, deadline)
        setups.append(setup)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"worker-{os.getpid()}.pkl")
    try:
        proc, setup = _start(_worker_cmd(args, "trace" if args.trace else "run", out),
                             deadline)
        setups.append(setup)
        _finish(proc, deadline)
        records = []
        with open(out, "rb") as fh:
            while True:
                try:
                    records.append(pickle.load(fh))
                except EOFError:
                    break
        report = records.pop()          # the worker's last record
        report["rounds"] = records
    finally:
        if os.path.exists(out):
            os.remove(out)
    return setups, report


def machine_facts() -> dict:
    import numpy
    import scipy
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_CAPS},
            "src_lines": lines, "platform": platform.platform()}


def check_rounds(args, rounds):
    """(attempted, failed, correct, failures) over every round."""
    import checks
    import workloads

    checker = checks.Checker(args.workload, workloads.build(args.workload, args.seed))
    per_round = workloads.operations(args.workload)
    attempted = failed = 0
    correct = True
    failures = []
    for i, rnd in enumerate(rounds):
        attempted += per_round
        if not checker.complete(rnd["outputs"]):
            correct = False
            failed += per_round
            continue
        fails = checker(rnd["outputs"])
        failed += len({op for op, _, _ in fails})
        failures += [{"round": i, "op": op, "check": chk, "detail": det}
                     for op, chk, det in fails]
    return attempted, failed, correct, failures


def design_pd(rounds) -> float:
    """Mean model Pd of the linProp and linOpt designs (0 when absent)."""
    values = [float(v) for res in rounds[0]["outputs"]["results"]
              if res["label"] in ("linProp", "linOpt") for v in res["model_pd"]]
    return statistics.fmean(values) if values else 0.0


def layer_metrics(report) -> dict:
    """Per-layer figures of the traced rounds, per round."""
    import tracing

    tr = report["trace"]
    plain = [r["seconds"] for r in report["rounds"] if not r["traced"]]
    traced = [r for r in report["rounds"] if r["traced"]]
    count = len(traced)
    dur, attrs = {}, {}
    for _, name, _, start, end, _, attr, _ in tr["spans"]:
        keys = [name]
        if name == "discrete.run_messages":
            keys.append(f"{name}.{attr['algorithm']}")
        for key in keys:
            dur[key] = dur.get(key, 0.0) + (end - start)
        attrs.setdefault(name, []).append(attr)
    cnt, timed = tr["counters"], tr["timed_s"]

    def per_round(value):
        return value / count

    def span_s(name):
        return per_round(dur.get(name, 0.0))

    def total(name, field):
        return sum(a[field] for a in attrs.get(name, []))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    selfs = tracing.self_times(tr)
    cover = {layer: 0.0 for layer in tracing.LAYERS + ("any",)}
    for rnd in traced:
        for layer, share in tracing.layer_coverage(tr, rnd["start"], rnd["end"]).items():
            cover[layer] += share / count
    solves = cnt.get("performance.solve_threshold", 0)
    p2 = attrs.get("optimizer.optimize_p2", [])
    run_traced = statistics.median(r["seconds"] for r in traced)
    m = {
        "scenario.run_campaign_s": span_s("scenario.run_campaign"),
        "scenario.node_slots_per_s": rate(total("scenario.run_campaign", "node_slots"),
                                          dur.get("scenario.run_campaign", 0.0)),
        "scenario.scenario_stats_s": span_s("scenario.scenario_stats"),
        "scenario.stats_for_weights_s": span_s("scenario.stats_for_weights"),
        "scenario.empirical_conditional_stats_s":
            span_s("scenario.empirical_conditional_stats"),
        "discrete.max_product_s": span_s("discrete.run_messages.max_product"),
        "discrete.sum_product_s": span_s("discrete.run_messages.sum_product"),
        "discrete.linearized_s": span_s("discrete.run_messages.linearized"),
        "discrete.edge_updates": per_round(total("discrete.run_messages", "edge_updates")),
        "discrete.edge_updates_per_s": rate(total("discrete.run_messages", "edge_updates"),
                                            dur.get("discrete.run_messages", 0.0)),
        "quadratic.extract_weights_s": span_s("quadratic.extract_weights"),
        "quadratic.run_s": span_s("quadratic.run"),
        "quadratic.probe_columns": per_round(total("quadratic.run", "probe_columns")),
        "performance.solve_threshold_s":
            per_round(timed.get("performance.solve_threshold", 0.0)),
        "performance.solve_threshold_calls": per_round(solves),
        "performance.gfun_calls": per_round(cnt.get("performance.gfun", 0)
                                            + cnt.get("performance.gfun_neighbors", 0)),
        "performance.gfun_calls_per_solve":
            rate(cnt.get("performance.gfun.in_timed", 0), solves),
        "performance.conditional_stats_builds":
            per_round(cnt.get("performance.conditional_stats_builds", 0)),
        "performance.monte_carlo_perf_s": span_s("performance.monte_carlo_perf"),
        "optimizer.optimize_p1_s": span_s("optimizer.optimize_p1"),
        "optimizer.optimize_p2_s": span_s("optimizer.optimize_p2"),
        "optimizer.optimize_p2_calls": per_round(len(p2)),
        "optimizer.objective_evals": per_round(cnt.get("optimizer.objective_evals", 0)),
        "optimizer.unconverged": per_round(sum(not a["converged"] for a in p2)),
        "optimizer.blind_adapt_s": span_s("optimizer.blind_adapt"),
        "optimizer.learn_couplings_s": span_s("optimizer.learn_couplings"),
        "optimizer.design_pd": design_pd(report["rounds"]),
        "pipeline.evaluate_cell_s": span_s("pipeline.evaluate_cell"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = per_round(selfs[layer])
        m[f"{layer}.cover"] = cover[layer]
    m["trace.run_s"] = run_traced
    m["trace.untraced_run_s"] = statistics.median(plain)
    m["trace.overhead_s"] = run_traced - statistics.median(plain)
    m["trace.cover"] = cover["any"]
    m["trace.bench_self_s"] = per_round(selfs["bench"])
    m["trace.spans"] = per_round(len(tr["spans"]))
    return m


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = started + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "mpfusion", "__init__.py")):
        print(f"benchmark: no mpfusion sources under {SRC}", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        setups, report = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    rounds = report["rounds"]
    attempted, failed, correct, failures = check_rounds(args, rounds)

    plain = [r["seconds"] for r in rounds if not r["traced"]]
    if args.trace:
        values = layer_metrics(report)
    else:
        values = {"run_s": statistics.median(plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(),
              "samples": {"run_s": plain,
                          "traced_run_s": [r["seconds"] for r in rounds if r["traced"]],
                          "setup_s": setups},
              "peak_rss_mb": report["peak_rss_mb"],
              "functions_wrapped": report.get("wrapped"),
              "failures": failures, "result": result}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(report["trace"], fh)
    for f in failures[:20]:
        print(f"FAILED round {f['round']} {f['op']} [{f['check']}]: {f['detail']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
