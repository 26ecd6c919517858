"""The benchmark harness instruments the library by name.

`perfbench/tracing.instrument` wraps every public function of the traced
modules and patches `performance.ConditionalStats.__post_init__` and
`optimizer.ComponentMoments.stats_for_row`; the span attributes read
arguments such as `run_campaign`'s `slots` and `run_messages`'s
`algorithm`.  A library rename that breaks `perfbench/run.py --trace 1`
fails here.  No cell builds a `ConditionalStats`, so both class patches are
exercised by one `stats_for_row` call on exact components after the cell,
which each must count exactly once.  The check runs in a subprocess because
instrumenting patches the library's classes for the rest of the process.

A second check keeps `scipy.optimize` out of a design run, and a third keeps
scipy out of the library altogether: the package, its CLI module and a cell
of each workload's kind must run without loading any `scipy` module.  A
fourth keeps test-only entry points out of the library: every
top-level public function and class of `src/mpfusion` must be loaded
somewhere in the library or the harness, outside its own definition.
Builders and oracles that only the tests call belong in `tests/helpers.py`.
A fifth reads a small cell of every `preset-cell` preset the way the
benchmark does, through `workloads._plain` and its threshold and design
checks, so a report shape the harness cannot read fails here.
"""

import os
import subprocess
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import mpfusion, tracing
from mpfusion import pipeline, scenario
from mpfusion.scenario import ScenarioConfig

tracer = tracing.Tracer("preset-cell")
wrapped = tracing.instrument(tracer, mpfusion)
pipeline.evaluate_cell(ScenarioConfig(), ["local", "mp0.1", "egc0.3", "linProp"], 5,
                       training_slots=60, calibration_slots=200, eval_slots=60)
exact = scenario.moments_from_scenario(scenario.scenario_stats(ScenarioConfig()))
mpfusion.optimizer.ComponentMoments.stats_for_row(exact, 2, [2, 1, 3], [1.0, 0.3, 0.3])
names = {{span[1] for span in tracer.spans}}
print(wrapped, tracer.counters["performance.conditional_stats_builds"],
      tracer.counters["optimizer.objective_evals"], " ".join(sorted(names)))
"""


def test_benchmark_tracer_instruments_the_library():
    script = _SCRIPT.format(bench=os.path.join(ROOT, "perfbench"),
                            src=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    wrapped, builds, evals, *names = done.stdout.split()
    assert int(wrapped) > 30
    assert (int(builds), int(evals)) == (1, 1)
    assert {"pipeline.evaluate_cell", "scenario.run_campaign",
            "discrete.run_messages"} <= set(names)


_DESIGN_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from mpfusion import pipeline
from mpfusion.scenario import ScenarioConfig
pipeline.evaluate_cell(ScenarioConfig(), ["linProp", "linPropB", "linOpt"], 5,
                       training_slots=60, calibration_slots=500, eval_slots=60)
print("scipy.optimize" in sys.modules)
"""


def test_designs_leave_scipy_optimize_unloaded():
    # the design ascent is numpy-only: loading scipy.optimize would cost
    # every run its import time and memory
    done = subprocess.run(
        [sys.executable, "-c", _DESIGN_SCRIPT.format(src=os.path.join(ROOT, "src"))],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


_NO_SCIPY_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import mpfusion, mpfusion.cli
from mpfusion import pipeline
from mpfusion.scenario import ScenarioConfig
pipeline.evaluate_cell(ScenarioConfig(), ["local", "bp0.3", "linProp", "linOpt"], 5,
                       training_slots=60, calibration_slots=500, eval_slots=60)
tree = ScenarioConfig(node_count=7, edges=tuple((i // 2, i) for i in range(2, 8)),
                      coverage={{p: (p, 2 * p, 2 * p + 1) for p in (1, 2, 3)}},
                      on_prob=(0.5,) * 3, sensing_mode="matched", rho_db=-16.0)
pipeline.evaluate_cell(tree, ["local", "mp1.0", "bp1.0", "linear0.3"], 5,
                       training_slots=60, calibration_slots=500, eval_slots=60)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_library_runs_without_scipy():
    # the Gaussian tails come from the standard library: importing
    # scipy.special alone would cost every process start about 25 MB
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT.format(src=os.path.join(ROOT, "src"))],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _public_api_without_callers() -> list:
    """Top-level public functions and classes of `src/mpfusion` that no code
    in `src/mpfusion` or `perfbench` loads outside their own definition, by
    name, attribute or import; 'module.name' each."""
    import ast
    import glob

    paths = sorted(glob.glob(os.path.join(ROOT, "src", "mpfusion", "*.py"))
                   + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    defined, uses = [], set()      # (module, name); (name, module, owner)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.splitext(os.path.basename(path))[0]
        library = os.path.basename(os.path.dirname(path)) == "mpfusion"
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if (library and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not owner.startswith("_")):
                defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    uses.add((node.attr, module, owner))
                elif isinstance(node, ast.alias):
                    uses.add((node.name, module, owner))
    return sorted(f"{m}.{name}" for m, name in defined
                  if not any(used == name and (mod, owner) != (m, name)
                             for used, mod, owner in uses))


def test_library_has_no_test_only_api():
    assert _public_api_without_callers() == []


def test_benchmark_reads_every_cell_preset(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import checks
    import workloads
    from mpfusion import pipeline
    from mpfusion.scenario import ScenarioConfig

    cfg = ScenarioConfig()
    with warnings.catch_warnings():
        # egc1.0 sits on the chain's stability bound and warns by design
        warnings.simplefilter("ignore")
        results = pipeline.evaluate_cell(cfg, workloads.CELL_PRESETS, 5, training_slots=60,
                                         calibration_slots=500, eval_slots=500)
    plain = [workloads._plain(res) for res in results]
    linear = {res["label"] for res in plain if res["weights"] is not None}
    assert linear == {label for label in workloads.CELL_PRESETS
                      if workloads.preset_kind(label) not in ("mp", "bp")}
    mix = checks.Mixtures("preset-cell")
    assert checks.check_thresholds(plain, mix, cfg.far) == []
    assert checks.check_designs(plain, mix, cfg.far) == []
