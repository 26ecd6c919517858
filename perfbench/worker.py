"""One workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S --out FILE]

Imports mpfusion from the checkout's src/, builds the workload inputs, and
prints "ready" (the parent times process start to this line as set-up).
MODE "setup" stops there.  MODE "run" repeats untraced rounds while
another round fits in --seconds (at least one); MODE "trace" runs untraced
rounds for half the time, then instruments the library and runs traced
rounds for the rest (at least one of each).  Each round's outputs and times
are pickled to --out as the round ends, and dropped, so peak memory does not
grow with the number of rounds; a last record holds peak RSS and the trace.
"""

from __future__ import annotations

import argparse
import os
import pickle
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mpfusion  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _rounds(inputs, seconds, sink, tracer=None) -> None:
    times = []
    start = time.perf_counter()
    while True:
        if tracer is None:
            t0 = time.perf_counter()
            out = workloads.run_round(inputs)
            t1 = time.perf_counter()
        else:
            with tracer.root("round") as sid:
                out = workloads.run_round(inputs)
            t0, t1 = tracer.spans[sid][3:5]
        pickle.dump({"seconds": t1 - t0, "start": t0, "end": t1,
                     "traced": tracer is not None, "outputs": out},
                    sink, protocol=pickle.HIGHEST_PROTOCOL)
        out = None
        times.append(t1 - t0)
        # stop before a round that would overrun: a run then lasts about
        # `seconds` whatever the round length, and rounds stay whole
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    inputs = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    summary = {}
    with open(args.out, "wb") as sink:
        if args.mode == "run":
            _rounds(inputs, args.seconds, sink)
        else:
            _rounds(inputs, args.seconds / 2.0, sink)
            tracer = tracing.Tracer(args.workload)
            summary["wrapped"] = tracing.instrument(tracer, mpfusion)
            _rounds(inputs, args.seconds / 2.0, sink, tracer)
            summary["trace"] = tracer.export()
        summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0)
        pickle.dump(summary, sink, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
