"""CLI surface: argument plumbing, report formats, determinism."""

import csv
import json

import pytest

from mpfusion import config as config_mod
from mpfusion import optimizer
from mpfusion.cli import build_parser, main


def _fast_config(tmp_path, **eval_kw):
    ev = dict(methods=["local"], trials=800, training_slots=300,
              calibration_slots=800)
    ev.update(eval_kw)
    doc = {"scenario": {"rho_db": -4.0}, "evaluation": ev, "seed": 404}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_parser_lists_all_subcommands():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, type(parser._actions[-1]))
                      and hasattr(a, "choices") and a.choices)
    for name in ("simulate", "sweep-snr", "verify-linearity",
                 "gaussianity", "optimize"):
        assert name in subparsers.choices


def test_common_flags_parse_everywhere():
    parser = build_parser()
    for name in ("simulate", "sweep-snr", "verify-linearity",
                 "gaussianity", "optimize"):
        args = parser.parse_args([name, "--seed", "7", "--trials", "10",
                                  "--out", "x"])
        assert args.seed == 7 and args.trials == 10 and args.out == "x"


def test_threads_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep-snr", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_writes_csv_and_json(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["spec_version"] == config_mod.FORMAT_VERSION
    assert report["command"] == "simulate"
    assert report["config"]["seed"] == 404
    assert len(report["results"]) == 1
    assert report["results"][0]["method"] == "local"
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "rho_db", "delta_rho_db", "node",
                       "pf", "pd", "stderr"]
    assert len(rows) == 6                      # header + one row per node
    assert rows[1][0] == "local"
    float(rows[1][4])                          # pf parses as a number
    out_text = capsys.readouterr().out
    assert "mean_pd" in out_text


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = _fast_config(tmp_path)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "11"])
    main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "11"])
    main(["simulate", "--config", cfg, "--out", str(out_c), "--seed", "12"])
    bytes_a = (out_a / "results.csv").read_bytes()
    assert bytes_a == (out_b / "results.csv").read_bytes()
    assert bytes_a != (out_c / "results.csv").read_bytes()
    assert _read_json(out_a / "report.json")["config"]["seed"] == 11


def test_sweep_snr_covers_grid(tmp_path):
    cfg = _fast_config(tmp_path, rho_grid=[-6.0, -3.0])
    out = tmp_path / "sweep"
    rc = main(["sweep-snr", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = _read_json(out / "sweep.json")
    assert doc["spec_version"] == config_mod.FORMAT_VERSION
    assert doc["rho_grid"] == [-6.0, -3.0]
    assert [r["rho_db"] for r in doc["results"]] == [-6.0, -3.0]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 5
    assert {row[1] for row in rows[1:]} == {"-6", "-3"}


def test_verify_linearity_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "lin"
    rc = main(["verify-linearity", "--out", str(out), "--seed", "3",
               "--trials", "25"])
    assert rc == 0
    doc = _read_json(out / "linearity.json")
    assert doc["spec_version"] == config_mod.FORMAT_VERSION
    assert doc["max_residual_overall"] < 1e-9
    assert len(doc["results"]) == 8            # 2 conventions x 4 iterations
    for entry in doc["results"]:
        assert entry["locality_violations"] == []
        assert entry["max_residual"] < 1e-9
    assert (out / "weights_l2.csv").exists()
    assert "max |lambda" in capsys.readouterr().out


def test_gaussianity_reports_all_nodes(tmp_path):
    out = tmp_path / "gauss"
    rc = main(["gaussianity", "--out", str(out), "--seed", "2",
               "--trials", "400", "--pattern", "1,0"])
    assert rc == 0
    doc = _read_json(out / "gaussianity.json")
    assert doc["spec_version"] == config_mod.FORMAT_VERSION
    assert doc["pattern"] == [1, 0]
    assert len(doc["reports"]) == 10           # 2 engines x 5 nodes
    algos = {r["algorithm"] for r in doc["reports"]}
    assert algos == {"max_product", "sum_product"}
    for rep in doc["reports"]:
        assert 0.0 <= rep["ks"] <= 1.0
        assert rep["count"] == 400
    with open(out / "cdf.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["algorithm", "node", "value",
                      "empirical_cdf", "normal_cdf"]


_DESIGN_KEYS = {"weights", "thresholds", "pf", "pd", "converged", "evaluations", "alpha"}


def test_optimize_emits_designs(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "opt"
    rc = main(["optimize", "--config", cfg, "--out", str(out)])
    assert rc == 0
    doc = _read_json(out / "solution.json")
    assert doc["spec_version"] == config_mod.FORMAT_VERSION
    for kind in ("neighbourhood", "network"):
        design = doc[kind]
        assert set(design) == _DESIGN_KEYS
        assert len(design["weights"]) == 5
        assert all(len(design[key]) == 5 for key in _DESIGN_KEYS - {"alpha"})
        assert all(0.0 <= pd <= 1.0 for pd in design["pd"])
    assert "blind" not in doc
    assert "network design" in capsys.readouterr().out


def test_optimize_blind_flag_adds_block(tmp_path):
    cfg = _fast_config(tmp_path, calibration_slots=1500)
    out = tmp_path / "optb"
    rc = main(["optimize", "--config", cfg, "--out", str(out), "--blind"])
    assert rc == 0
    doc = _read_json(out / "solution.json")
    blind = doc["blind"]
    assert set(blind) == _DESIGN_KEYS | {"label_accuracy", "folded_cells"}
    assert 0.0 <= blind["label_accuracy"]["final"] <= 1.0
    assert len(blind["weights"]) == 5
    assert set(blind["folded_cells"]) == {"1", "2", "3", "4", "5"}


def test_optimize_warns_of_unconverged_designs(tmp_path, capsys, monkeypatch):
    # one trial per row leaves the designs short of a stationary point
    monkeypatch.setattr(optimizer, "_MAX_STEPS", 1)
    cfg = _fast_config(tmp_path, calibration_slots=1500)
    out = tmp_path / "optw"
    rc = main(["optimize", "--config", cfg, "--out", str(out), "--blind"])
    assert rc == 0
    doc = _read_json(out / "solution.json")
    warned = capsys.readouterr().err.splitlines()
    assert all(line.startswith("warning: ") for line in warned)
    count = 0
    for kind in ("neighbourhood", "network", "blind"):
        unconverged = [j for j, ok in enumerate(doc[kind]["converged"], 1) if not ok]
        assert unconverged
        for j in unconverged:
            assert f"warning: {kind} design for node {j} did not converge" in warned
        count += len(unconverged)
    assert doc["network"]["converged"] == [False] * 5
    assert len(warned) == count


def test_bad_config_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"snr": -5}}))
    rc = main(["simulate", "--config", str(path), "--out",
               str(tmp_path / "never")])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_non_numeric_level_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"rho_db": "x"}}))
    rc = main(["simulate", "--config", str(path), "--out",
               str(tmp_path / "never")])
    assert rc == 2
    assert "$.scenario: rho_db must be a finite number" in capsys.readouterr().err


def test_non_label_method_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"evaluation": {"methods": [5]}}))
    rc = main(["simulate", "--config", str(path), "--out",
               str(tmp_path / "never")])
    assert rc == 2
    assert "error: $.evaluation.methods[0]: method label must be a string" \
        in capsys.readouterr().err


def test_json_reports_have_no_nan_tokens(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "nantest"
    main(["simulate", "--config", cfg, "--out", str(out)])
    text = (out / "report.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    json.loads(text)                           # strictly valid JSON


@pytest.mark.parametrize("scenario,message", [
    ({"edges": [1, 2]}, "$.scenario: edge must be a sequence, got 1"),
    ({"initial_activity": 5}, "$.scenario: initial_activity must be a sequence, got 5"),
    ({"on_prob": None}, "$.scenario: on_prob must be a sequence, got None"),
], ids=["edge-not-a-pair", "scalar-activity", "null-duty"])
def test_malformed_scenario_shape_is_a_clean_error(tmp_path, capsys, scenario, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": scenario}))
    rc = main(["simulate", "--config", str(path), "--out",
               str(tmp_path / "never")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_flag_outside_64_bits_is_a_clean_error(tmp_path, capsys, seed):
    out = tmp_path / "never"
    assert main(["optimize", "--seed", str(seed), "--out", str(out)]) == 2
    assert f"error: $.seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pattern", ["1,0,1", "1,2"], ids=["wrong-length", "not-0-1"])
def test_bad_pattern_is_a_clean_error(tmp_path, capsys, pattern):
    rc = main(["gaussianity", "--out", str(tmp_path / "never"), "--trials", "200",
               "--pattern", pattern])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"pattern {tuple(int(b) for b in pattern.split(','))} must be 2 0/1 flags" in err
    assert "initial_activity" not in err


def test_non_integer_pattern_is_a_clean_error(tmp_path, capsys):
    rc = main(["gaussianity", "--out", str(tmp_path / "never"), "--trials", "200",
               "--pattern", "1,x"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: pattern ('1', 'x') must be 2 0/1 flags, one per transmitter" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("argv", [
    ["gaussianity", "--trials", "200", "--pattern", "1,0,1"],
    ["gaussianity", "--trials", "200", "--pattern", "1,x"],
    ["simulate"], ["sweep-snr"], ["optimize"],
], ids=["wrong-length-pattern", "non-integer-pattern", "simulate", "sweep-snr",
        "optimize"])
def test_failed_run_leaves_no_out_directory(tmp_path, capsys, argv):
    # duty cycle 1 keeps every node occupied: the run fails after validation
    path = tmp_path / "never-idle.json"
    path.write_text(json.dumps({
        "scenario": {"on_prob": [1.0, 1.0], "coupling": 0.0},
        "evaluation": {"methods": ["local"], "trials": 800, "training_slots": 300,
                       "calibration_slots": 800}}))
    config = [] if argv[0] == "gaussianity" else ["--config", str(path)]
    out = tmp_path / "never"
    assert main(argv + config + ["--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-snr", "optimize"])
def test_alternating_activity_is_a_clean_error(tmp_path, capsys, command):
    # flip 1 without coupling negates every chain each slot: a pattern only
    # meets its complement, so no unique activity law exists to start from
    path = tmp_path / "alternating.json"
    path.write_text(json.dumps({"scenario": {"coupling": 0.0, "flip": 1.0}}))
    out = tmp_path / "never"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: flip = 1 and coupling = 0" in err
    assert not out.exists()
