"""Experiment configuration: one JSON file describes one run.

Every command reads the same self-describing format, so a reported
result is reproducible from its config file and seeds alone.  Sections
are optional; each command validates the ones it needs.

    {
      "class": {"components": [<measure spec>, ...],
                "weights": "index-code" | "uniform" | [w1, w2, ...]},
      "true_measure": "<component name>" | <measure spec>,
      "rho": <predictor spec>,
      "horizons": [4, 6, 8] | {"start": 4, "stop": 14, "step": 2},
      "mode": "exact" | "monte-carlo",
      "samples": 100000, "seed": 7,
      "inequalities": {"grid": {...GridSpec fields}, "mode": "strict",
                       "explore": {"distance": [[1.0, 1.2]]}},
      "game": {"spec": {"stake_cents": 300, "payout_cents": 500},
               "rule": "constant-die1", "rounds": 400, "games": 100,
               "seed": 7, "mode": "sampled",
               "predictors": ["threshold-mixture", ...]},
      "semimeasure": {"machine": "echo" | "register",
                      "cap": 10, "fuel": 64, "depth": 4}
    }

Measure specs: {"type": "bernoulli", "theta": p}, {"type": "markov",
"order": k, "table": {pattern: p}}, {"type": "deterministic",
"generator": "alternating" | "ones" | "zeros" | "program:<hex>"} or
{"type": "game", "rule": name}.  Predictor specs: {"type": "laplace"},
{"type": "constant", "p": p}, {"type": "measure", "measure": spec},
each optionally wrapped as {"type": "threshold", "base": spec}.
"""

from __future__ import annotations

import json

from .dicegame import GameMeasure, GameSpec, dealer_rule
from .inequality_lab import GridSpec
from .measures import (
    BernoulliMeasure,
    MarkovMeasure,
    MeasureError,
    SequenceMeasure,
    deterministic,
)
from .predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    Predictor,
    ThresholdPredictor,
)
from .universal import MixtureMeasure, WeightedClass


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    return payload


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return section[key]


def build_measure(spec, where: str = "measure") -> SequenceMeasure:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    kind = _require(spec, "type", where)
    name = spec.get("name")
    try:
        if kind == "bernoulli":
            return BernoulliMeasure(_require(spec, "theta", where), name=name)
        if kind == "markov":
            return MarkovMeasure(
                _require(spec, "order", where),
                _require(spec, "table", where),
                name=name,
            )
        if kind == "deterministic":
            return deterministic(
                _require(spec, "generator", where),
                fuel=spec.get("fuel", 100_000),
            )
        if kind == "game":
            rule = dealer_rule(_require(spec, "rule", where))
            game_spec = build_game_spec(spec.get("spec", {}))
            return GameMeasure(rule, game_spec)
    except MeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where} has unknown measure type {kind!r}")


def build_class(section, where: str = "class") -> WeightedClass:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    specs = _require(section, "components", where)
    if not isinstance(specs, list) or not specs:
        raise ConfigError(f"{where}.components must be a nonempty list")
    measures = [
        build_measure(spec, f"{where}.components[{i}]")
        for i, spec in enumerate(specs)
    ]
    weights = section.get("weights", "index-code")
    try:
        if weights == "index-code":
            return WeightedClass.with_index_code_weights(measures)
        if weights == "uniform":
            return WeightedClass.uniform(measures)
        if isinstance(weights, list):
            if len(weights) != len(measures):
                raise ConfigError(
                    f"{where}.weights has {len(weights)} entries for "
                    f"{len(measures)} components"
                )
            return WeightedClass(zip(measures, weights))
    except MeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.weights must be 'index-code', 'uniform' or a list")


def resolve_true_measure(config: dict, weighted: WeightedClass) -> SequenceMeasure:
    selector = _require(config, "true_measure", "config")
    if isinstance(selector, str):
        for measure, _w in weighted.components:
            if measure.name == selector:
                return measure
        names = [m.name for m, _ in weighted.components]
        raise ConfigError(
            f"true_measure {selector!r} is not in the class; members: {names}"
        )
    return build_measure(selector, "true_measure")


def build_predictor(spec, where: str = "rho") -> Predictor:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    kind = _require(spec, "type", where)
    try:
        if kind == "laplace":
            return LaplaceRulePredictor()
        if kind == "constant":
            return ConstantPredictor(_require(spec, "p", where))
        if kind == "measure":
            return MeasurePredictor(
                build_measure(_require(spec, "measure", where), where)
            )
        if kind == "threshold":
            return ThresholdPredictor(
                build_predictor(_require(spec, "base", where), f"{where}.base")
            )
    except MeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where} has unknown predictor type {kind!r}")


def resolve_horizons(config: dict) -> list[int]:
    raw = _require(config, "horizons", "config")
    if isinstance(raw, dict):
        start = _require(raw, "start", "horizons")
        stop = _require(raw, "stop", "horizons")
        step = raw.get("step", 1)
        if step < 1:
            raise ConfigError(f"horizons.step must be >= 1, got {step}")
        raw = list(range(start, stop + 1, step))
    if not isinstance(raw, list) or not raw:
        raise ConfigError("horizons must be a nonempty list or a range object")
    horizons = []
    for h in raw:
        if not isinstance(h, int) or h < 1:
            raise ConfigError(f"horizons must be positive integers, got {h!r}")
        horizons.append(h)
    return horizons


def resolve_mode(config: dict):
    """Returns (mode, samples, seed); seed is required for monte-carlo."""
    mode = config.get("mode", "exact")
    if mode == "exact":
        return "exact", None, config.get("seed")
    if mode == "monte-carlo":
        samples = _require(config, "samples", "config")
        if "seed" not in config:
            raise ConfigError("monte-carlo mode requires an explicit seed")
        return "monte-carlo", samples, config["seed"]
    raise ConfigError(f"mode must be 'exact' or 'monte-carlo', got {mode!r}")


def build_grid_spec(section) -> GridSpec:
    if not isinstance(section, dict):
        raise ConfigError("inequalities.grid must be an object")
    allowed = {
        "y_count", "z_count", "epsilon", "refine_per_side",
        "param_samples", "param_seed",
    }
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    for key, value in section.items():
        if key == "epsilon":
            if not _is_real(value):
                raise ConfigError(
                    f"inequalities.grid.epsilon must be a number, got {value!r}"
                )
        elif not _is_int(value):
            raise ConfigError(
                f"inequalities.grid.{key} must be an integer, got {value!r}"
            )
    try:
        return GridSpec(**section)
    except ValueError as exc:
        raise ConfigError(f"inequalities.grid: {exc}") from None


def build_explore_pairs(section) -> dict:
    """{name: [(A, B), ...]} from inequalities.explore, pairs type-checked.

    Names are checked by the scan itself before any scan runs.
    """
    if not isinstance(section, dict):
        raise ConfigError("inequalities.explore must map name -> pairs")
    explore = {}
    for name, pairs in section.items():
        where = f"inequalities.explore.{name}"
        if not isinstance(pairs, list):
            raise ConfigError(f"{where} must be a list of [A, B] pairs")
        for pair in pairs:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(_is_real(v) for v in pair)
            ):
                raise ConfigError(
                    f"{where} entries must be [A, B] number pairs, got {pair!r}"
                )
        explore[name] = [tuple(pair) for pair in pairs]
    return explore


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def build_game_spec(section) -> GameSpec:
    if not isinstance(section, dict):
        raise ConfigError("game.spec must be an object")
    allowed = {"stake_cents", "payout_cents", "die1_white", "die2_white"}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown game.spec keys: {sorted(unknown)}")
    kwargs = dict(section)
    try:
        for key in ("die1_white", "die2_white"):
            if key in kwargs:
                kwargs[key] = _as_fraction(kwargs[key], f"game.spec.{key}")
        return GameSpec(**kwargs)
    except MeasureError as exc:
        raise ConfigError(f"game.spec: {exc}") from None


def _as_fraction(value, where: str):
    from fractions import Fraction

    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            raise ConfigError(f"{where}: cannot parse fraction {value!r}") from None
    if isinstance(value, (int, float)):
        return Fraction(value).limit_denominator(10**9)
    raise ConfigError(f"{where}: expected a number or 'p/q' string, got {value!r}")


def mixture_from_config(config: dict):
    """(weighted class, mixture, true measure) from the class sections."""
    weighted = build_class(_require(config, "class", "config"))
    mu = resolve_true_measure(config, weighted)
    xi = MixtureMeasure(weighted)
    return weighted, xi, mu
