"""Strict config parsing: round-trips, unknown-key paths, validation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mpfusion.config import (
    ConfigError,
    DetectorBlock,
    EvaluationBlock,
    FORMAT_VERSION,
    RunConfig,
    from_dict,
    load,
    to_dict,
)
from mpfusion.scenario import ScenarioConfig


def test_format_version_pinned():
    assert FORMAT_VERSION == "3.0"


def test_default_round_trip():
    cfg = RunConfig()
    again = from_dict(to_dict(cfg))
    assert again == cfg


def _custom_config():
    return RunConfig(
        scenario=ScenarioConfig(rho_db=-9.0, delta_rho_db=0.5,
                                sensing_mode="matched",
                                on_prob=(0.4, 0.4), coupling=0.25,
                                initial_activity=(1, 0)),
        detector=DetectorBlock(iterations=2, training_labels="genie"),
        evaluation=EvaluationBlock(methods=("local", "mp0.1"),
                                   trials=500, rho_grid=(-8.0, -4.0),
                                   delta_rule="proportional"),
        seed=777,
    )


def test_custom_round_trip():
    cfg = _custom_config()
    d = to_dict(cfg)
    assert json.loads(json.dumps(d)) == d           # plain-JSON representable
    assert from_dict(d) == cfg


def test_to_dict_keys_and_order_pinned():
    # the JSON written into every report: key names, their order and the
    # list/string forms of tuples and transmitter ids must not drift
    want = {
        "scenario": {"node_count": 5, "edges": None,
                     "coverage": {"1": [1, 2, 3], "2": [3, 4, 5]},
                     "rho_db": -9.0, "delta_rho_db": 0.5, "sample_count": 100,
                     "noise_var": 1.0, "far": 0.1, "on_prob": [0.4, 0.4],
                     "flip": 0.2, "coupling": 0.25, "sensing_mode": "matched",
                     "initial_activity": [1, 0]},
        "detector": {"iterations": 2, "training_labels": "genie"},
        "evaluation": {"methods": ["local", "mp0.1"], "trials": 500,
                       "training_slots": 2500, "calibration_slots": 20000,
                       "rho_grid": [-8.0, -4.0], "delta_rule": "proportional",
                       "proportional_factor": 0.1},
        "seed": 777,
    }
    assert json.dumps(to_dict(_custom_config())) == json.dumps(want)
    edged = to_dict(RunConfig(scenario=ScenarioConfig(
        node_count=3, edges=((2, 3), (1, 2)), coverage={1: (1, 2, 3)}, on_prob=0.5)))
    assert edged["scenario"]["edges"] == [[2, 3], [1, 2]]
    assert edged["scenario"]["on_prob"] == [0.5]


def test_empty_dict_gives_defaults():
    assert from_dict({}) == RunConfig()


@pytest.mark.parametrize("doc,path_bit", [
    ({"scnario": {}}, "'scnario' at $"),
    ({"detector": {"iters": 3}}, "'iters' at $.detector"),
    ({"scenario": {"snr": -5}}, "'snr' at $.scenario"),
    ({"evaluation": {"budget": 1}}, "'budget' at $.evaluation"),
    ({"evaluation": {"threads": 2}}, "'threads' at $.evaluation"),
    ({"detector": {"convention": "exact"}}, "'convention' at $.detector"),
    ({"detector": {"coupling_convention": "raw"}},
     "'coupling_convention' at $.detector"),
    ({"detector": {"majority_rounds": 3}}, "'majority_rounds' at $.detector"),
])
def test_unknown_keys_name_their_path(doc, path_bit):
    with pytest.raises(ConfigError, match="unknown key"):
        try:
            from_dict(doc)
        except ConfigError as exc:
            assert path_bit in str(exc)
            raise


@pytest.mark.parametrize("doc,message", [
    ({"scenario": {"edges": [[1.5, 2], [2, 3], [3, 4], [4, 5]]}},
     r"\$\.scenario: edges entry must be an integer, got 1\.5"),
    ({"scenario": {"coverage": {"1": [1, 2, 3], "2": [3, 4, 5, 2.7]}}},
     r"\$\.scenario: coverage entry must be an integer, got 2\.7"),
    ({"scenario": {"initial_activity": [0.9, 1]}},
     r"\$\.scenario: initial_activity entry must be an integer, got 0\.9"),
    ({"scenario": {"sample_count": True}},
     r"\$\.scenario: sample_count must be an integer, got True"),
    ({"detector": {"iterations": 2.5}},
     r"\$\.detector\.iterations must be an integer, got 2\.5"),
    ({"detector": {"iterations": True}},
     r"\$\.detector\.iterations must be an integer, got True"),
    ({"evaluation": {"rho_grid": []}},
     r"\$\.evaluation\.rho_grid must not be empty"),
    ({"evaluation": {"trials": 2000.5}},
     r"\$\.evaluation\.trials must be an integer, got 2000\.5"),
    ({"scenario": {"rho_db": "x"}},
     r"\$\.scenario: rho_db must be a finite number, got 'x'"),
    ({"scenario": {"delta_rho_db": "1"}},
     r"\$\.scenario: delta_rho_db must be a finite number, got '1'"),
    ({"scenario": {"far": "0.1"}},
     r"\$\.scenario: far must be a finite number, got '0\.1'"),
    ({"scenario": {"noise_var": True}},
     r"\$\.scenario: noise_var must be a finite number, got True"),
    ({"scenario": {"rho_db": float("nan")}},
     r"\$\.scenario: rho_db must be a finite number, got nan"),
    ({"scenario": {"noise_var": float("inf")}},
     r"\$\.scenario: noise_var must be a finite number, got inf"),
    ({"scenario": {"flip": "0.2"}},
     r"\$\.scenario: flip must be a finite number, got '0\.2'"),
    ({"scenario": {"coupling": False}},
     r"\$\.scenario: coupling must be a finite number, got False"),
    ({"scenario": {"on_prob": ["0.5", 0.5]}},
     r"\$\.scenario: on_prob entry must be a finite number, got '0\.5'"),
    ({"scenario": {"on_prob": "0.5"}},
     r"\$\.scenario: on_prob must be a finite number, got '0\.5'"),
    ({"evaluation": {"proportional_factor": "0.1"}},
     r"\$\.evaluation\.proportional_factor must be a finite number, got '0\.1'"),
    ({"evaluation": {"rho_grid": [-6.0, float("inf")]}},
     r"\$\.evaluation\.rho_grid\[1\] must be a finite number, got inf"),
    ({"evaluation": {"rho_grid": ["a"]}},
     r"\$\.evaluation\.rho_grid\[0\] must be a finite number, got 'a'"),
    ({"evaluation": {"rho_grid": -6.0}},
     r"\$\.evaluation\.rho_grid must be a list of numbers or null, got -6\.0"),
], ids=["float-edge-id", "float-coverage-id", "float-activity-flag",
        "bool-sample-count", "float-iterations", "bool-iterations",
        "empty-rho-grid", "float-trials", "string-rho", "string-delta-rho",
        "string-far", "bool-noise-var", "nan-rho", "infinite-noise-var",
        "string-flip", "bool-coupling", "string-duty-entry",
        "string-duty-scalar", "string-proportional-factor",
        "infinite-rho-grid-entry", "string-rho-grid-entry", "scalar-rho-grid"])
def test_bad_values_name_their_path(doc, message):
    with pytest.raises(ConfigError, match=message):
        from_dict(doc)


def test_non_object_blocks_rejected():
    with pytest.raises(ConfigError):
        from_dict({"detector": [1, 2]})
    with pytest.raises(ConfigError):
        from_dict({"scenario": "defaults"})


def test_bad_seed_rejected():
    with pytest.raises(ConfigError):
        from_dict({"seed": "twelve"})
    with pytest.raises(ConfigError):
        from_dict({"seed": True})


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_rejected_at_load(seed):
    with pytest.raises(ConfigError, match=r"\$\.seed"):
        from_dict({"seed": seed})
    assert from_dict({"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1
    # a copy with another seed, as the CLI's --seed makes, is checked too
    with pytest.raises(ConfigError, match=r"\$\.seed must lie in"):
        replace(RunConfig(), seed=seed)


@pytest.mark.parametrize("scenario,message", [
    ({"edges": [1, 2]}, r"edge must be a sequence, got 1"),
    ({"edges": 5}, r"edges must be a sequence, got 5"),
    ({"edges": [[1, 2, 3]]}, r"edge \(1, 2, 3\) is not a pair"),
    ({"initial_activity": 5}, r"initial_activity must be a sequence, got 5"),
    ({"on_prob": None}, r"on_prob must be a sequence, got None"),
    ({"on_prob": np.array(0.5)}, r"on_prob must be a sequence, got array\(0\.5\)"),
], ids=["edge-not-a-pair", "edges-not-a-list", "edge-triple", "scalar-activity",
        "null-duty", "zero-dimensional-duty"])
def test_malformed_scenario_shapes_name_their_path(scenario, message):
    with pytest.raises(ConfigError, match=r"^\$\.scenario: " + message):
        from_dict({"scenario": scenario})
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**scenario)


def test_scenario_errors_carry_scenario_path():
    with pytest.raises(ConfigError, match=r"\$\.scenario"):
        from_dict({"scenario": {"noise_var": -1.0}})
    with pytest.raises(ConfigError, match=r"\$\.scenario: edge .* outside"):
        from_dict({"scenario": {"edges": [[1, 9]]}})


def test_methods_must_be_list():
    with pytest.raises(ConfigError):
        from_dict({"evaluation": {"methods": "local"}})
    cfg = from_dict({"evaluation": {"methods": ["local", "bp0.3"]}})
    assert cfg.evaluation.methods == ("local", "bp0.3")


@pytest.mark.parametrize("methods,index", [
    ([5], 0), (["local", "mp"], 1), (["local", "linOpt", None], 2),
], ids=["int", "bad-label", "null"])
def test_method_labels_checked_at_load(methods, index):
    with pytest.raises(ConfigError, match=rf"^\$\.evaluation\.methods\[{index}\]: "):
        from_dict({"evaluation": {"methods": methods}})


def test_detector_block_validation():
    with pytest.raises(ConfigError):
        DetectorBlock(iterations=0)
    with pytest.raises(ConfigError):
        DetectorBlock(training_labels="oracle")


def test_evaluation_block_validation():
    with pytest.raises(ConfigError):
        EvaluationBlock(methods=())
    with pytest.raises(ConfigError):
        EvaluationBlock(trials=0)
    with pytest.raises(ConfigError):
        EvaluationBlock(delta_rule="creeping")
    blk = EvaluationBlock(rho_grid=[-8, -4])
    assert blk.rho_grid == (-8.0, -4.0)


def test_save_load_round_trip(tmp_path):
    cfg = RunConfig(seed=99, evaluation=EvaluationBlock(methods=("mp1.0",)))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(to_dict(cfg), indent=2))
    assert load(path) == cfg


def test_load_bad_json_reports_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load(path)


def test_coverage_keys_parsed_from_strings():
    cfg = from_dict({"scenario": {
        "node_count": 3,
        "coverage": {"1": [1, 2], "2": [2, 3]},
        "edges": [[1, 2], [2, 3]],
    }})
    assert cfg.scenario.coverage == {1: (1, 2), 2: (2, 3)}
    assert cfg.scenario.topology().edges == ((1, 2), (2, 3))
