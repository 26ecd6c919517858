"""Run configuration: strict JSON in, dataclasses out.

Unknown keys are rejected with the offending path (e.g. "$.detector.iters")
rather than silently ignored — a typo in a config file should fail loudly,
not run a subtly different experiment.  The same check retires keys: a
config written for an older FORMAT_VERSION fails on the first key that no
longer exists, with no translation shim.  Scenario errors, including a bad
edge list, surface at load time under "$.scenario", and every preset label
is checked by `pipeline.parse_method`, the one label grammar, under
"$.evaluation.methods[i]".  `to_dict`/`from_dict` round-trip.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .pipeline import parse_method
from .scenario import ScenarioConfig, _is_integer, _is_real

FORMAT_VERSION = "3.0"


class ConfigError(ValueError):
    """Malformed run configuration; message carries the JSON path."""


def _mapping(obj, path: str, allowed=None) -> dict:
    """`obj` as a JSON object, every key in `allowed` unless that is None."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    for key in obj:
        if allowed is not None and key not in allowed:
            raise ConfigError(f"unknown key {key!r} at {path}")
    return obj


def _check_count(value, path: str) -> None:
    if not _is_integer(value):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{path} must be >= 1")


def _check_real(value, path: str) -> None:
    if not _is_real(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class DetectorBlock:
    """Engine-side knobs shared by all presets in a run."""

    iterations: int | None = None        # None -> node_count - 1
    training_labels: str = "local"       # or "genie"

    def __post_init__(self) -> None:
        if self.iterations is not None:
            _check_count(self.iterations, "$.detector.iterations")
        if self.training_labels not in ("local", "genie"):
            raise ConfigError(
                "$.detector.training_labels must be 'local' or 'genie'")


@dataclass(frozen=True)
class EvaluationBlock:
    """What to run and how much data to spend on it."""

    methods: tuple = ("local",)
    trials: int = 20000
    training_slots: int = 2500
    calibration_slots: int = 20000
    rho_grid: tuple | None = None
    delta_rule: str = "fixed"
    proportional_factor: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ConfigError("$.evaluation.methods must not be empty")
        for i, label in enumerate(self.methods):
            try:
                parse_method(label)
            except ValueError as exc:
                raise ConfigError(f"$.evaluation.methods[{i}]: {exc}") from None
        for t, name in ((self.trials, "trials"),
                        (self.training_slots, "training_slots"),
                        (self.calibration_slots, "calibration_slots")):
            _check_count(t, f"$.evaluation.{name}")
        if self.rho_grid is not None:
            if not isinstance(self.rho_grid, (list, tuple)):
                raise ConfigError("$.evaluation.rho_grid must be a list of numbers "
                                  f"or null, got {self.rho_grid!r}")
            for i, r in enumerate(self.rho_grid):
                _check_real(r, f"$.evaluation.rho_grid[{i}]")
            object.__setattr__(self, "rho_grid",
                               tuple(float(r) for r in self.rho_grid))
            if not self.rho_grid:
                raise ConfigError("$.evaluation.rho_grid must not be empty "
                                  "(null selects the default grid)")
        if self.delta_rule not in ("fixed", "proportional"):
            raise ConfigError(
                "$.evaluation.delta_rule must be 'fixed' or 'proportional'")
        _check_real(self.proportional_factor, "$.evaluation.proportional_factor")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    detector: DetectorBlock = field(default_factory=DetectorBlock)
    evaluation: EvaluationBlock = field(default_factory=EvaluationBlock)
    seed: int = 12345

    def __post_init__(self) -> None:
        if not _is_integer(self.seed):
            raise ConfigError("$.seed must be an integer")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"$.seed must lie in [0, 2**64), got {self.seed}")


_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}
_DETECTOR_KEYS = {f.name for f in fields(DetectorBlock)}
_EVALUATION_KEYS = {f.name for f in fields(EvaluationBlock)}
_TOP_KEYS = {"scenario", "detector", "evaluation", "seed"}


def _scenario_from_dict(d: dict) -> ScenarioConfig:
    kwargs = dict(_mapping(d, "$.scenario", _SCENARIO_KEYS))
    if "coverage" in kwargs:
        cov = _mapping(kwargs["coverage"], "$.scenario.coverage")
        try:
            kwargs["coverage"] = {int(k): tuple(v) for k, v in cov.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"$.scenario.coverage: {exc}") from None
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"$.scenario: {exc}") from None


def from_dict(d: dict) -> RunConfig:
    d = _mapping(d, "$", _TOP_KEYS)
    scenario_cfg = _scenario_from_dict(d.get("scenario", {}))
    det = _mapping(d.get("detector", {}), "$.detector", _DETECTOR_KEYS)
    ev = _mapping(d.get("evaluation", {}), "$.evaluation", _EVALUATION_KEYS)
    if not isinstance(ev.get("methods", []), list):
        raise ConfigError("$.evaluation.methods must be a list of labels")
    try:
        detector = DetectorBlock(**det)
        evaluation = EvaluationBlock(**ev)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(scenario_cfg, detector, evaluation, d.get("seed", RunConfig.seed))


def to_dict(cfg: RunConfig) -> dict:
    """The JSON form of a run configuration: every dataclass field, in
    declaration order, with tuples as lists and transmitter ids as strings."""
    return json.loads(json.dumps(asdict(cfg)))


def load(path) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return from_dict(raw)

