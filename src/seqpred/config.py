"""Experiment configuration: one JSON file describes one run.

Every command reads the same self-describing format, so a reported
result is reproducible from its config file and seeds alone.  Sections
are optional; each command validates the ones it needs, and verify-bounds
and simulate accept no top-level keys besides the experiment's (class
through seed below).  Horizons increase: each lies above the one
before, so a repeated or decreasing list is refused before any walk.

    {
      "class": {"components": [<measure spec>, ...],
                "weights": "index-code" | "uniform" | [w1, w2, ...]},
      "true_measure": "<component name>" | <measure spec>,
      "rho": <predictor spec>,
      "horizons": [4, 6, 8] | {"start": 4, "stop": 14, "step": 2},
      "mode": "exact" | "monte-carlo",
      "samples": 100000, "seed": 7,
      "inequalities": {"grid": {...GridSpec fields},
                       "explore": {"distance": [[1.0, 1.2]]}},
      "game": {"spec": {"stake_cents": 300, "payout_cents": 500},
               "rule": "constant-die1", "rounds": 400, "games": 100,
               "seed": 7, "mode": "sampled",
               "predictors": ["threshold-mixture", ...]},
      "semimeasure": {"machine": "echo" | "register",
                      "cap": 10, "fuel": 64, "depth": 4}
    }

Measure specs: {"type": "bernoulli", "theta": p}, {"type": "markov",
"order": k, "table": {pattern: p}}, either with an optional string
"name", {"type": "deterministic", "generator": "alternating" | "ones" |
"zeros" | "program:<hex>", "fuel": steps} or {"type": "game", "rule":
name, "spec": {...}}.  Predictor specs: {"type": "laplace"}, {"type":
"constant", "p": p}, {"type": "measure", "measure": spec}, each
optionally wrapped as {"type": "threshold", "base": spec}; a measure
predictor is the measure itself, since any state rule predicts.  A spec
of either kind holds no other keys.  A string true_measure selects a
class member, whose entropy budget verify-bounds checks; a spec
true_measure must not reuse a member's name.  GridSpec and GameSpec
values are read by their dataclass field types.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import get_type_hints

from .dicegame import GameMeasure, GameSpec, dealer_rule
from .inequality_lab import GridSpec
from .measures import (
    BernoulliMeasure,
    MarkovMeasure,
    MeasureError,
    SequenceMeasure,
    StateRule,
    deterministic,
)
from .predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
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


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def read_section(config: dict, name: str, allowed) -> dict:
    """config[name], or {} when absent; an object with only allowed keys."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be an object")
    _check_keys(section, allowed, name)
    return section


def int_field(section: dict, key: str, default: int | None, minimum: int,
              where: str) -> int:
    """section[key] (or default): an integer, not a bool, >= minimum.

    A default of None makes the key required.
    """
    if default is None:
        _require(section, key, where)
    value = section.get(key, default)
    if not _is_int(value) or value < minimum:
        raise ConfigError(
            f"{where}.{key} must be an integer >= {minimum}, got {value!r}"
        )
    return value


_MEASURE_KEYS = {
    "bernoulli": ("type", "theta", "name"),
    "markov": ("type", "order", "table", "name"),
    "deterministic": ("type", "generator", "fuel"),
    "game": ("type", "rule", "spec"),
}

_PREDICTOR_KEYS = {
    "laplace": ("type",),
    "constant": ("type", "p"),
    "measure": ("type", "measure"),
    "threshold": ("type", "base"),
}

_EXPERIMENT_KEYS = (
    "class", "true_measure", "rho", "horizons", "mode", "samples", "seed",
)


def build_measure(spec, where: str = "measure") -> SequenceMeasure:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    kind = _require(spec, "type", where)
    if not isinstance(kind, str) or kind not in _MEASURE_KEYS:
        raise ConfigError(f"{where} has unknown measure type {kind!r}")
    _check_keys(spec, _MEASURE_KEYS[kind], where)
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError(f"{where}.name must be a string, got {name!r}")
    try:
        if kind == "bernoulli":
            return BernoulliMeasure(
                _real_field(spec, "theta", where), name=name,
            )
        if kind == "markov":
            return MarkovMeasure(
                int_field(spec, "order", None, 1, where),
                _markov_table(_require(spec, "table", where), where),
                name=name,
            )
        if kind == "deterministic":
            generator = _require(spec, "generator", where)
            if not isinstance(generator, str):
                raise ConfigError(
                    f"{where}.generator must be a string, got {generator!r}"
                )
            return deterministic(
                generator, fuel=int_field(spec, "fuel", 100_000, 1, where),
            )
        # kind == "game"
        rule = dealer_rule(_require(spec, "rule", where))
        return GameMeasure(
            rule, _read_fields(GameSpec, spec.get("spec", {}), f"{where}.spec"),
        )
    except MeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _real_field(section: dict, key: str, where: str):
    return _number(_require(section, key, where), f"{where}.{key}")


def _markov_table(table, where: str) -> dict:
    if not isinstance(table, dict) or not all(
        _is_real(value) for value in table.values()
    ):
        raise ConfigError(
            f"{where}.table must map bit patterns to numbers, got {table!r}"
        )
    return table


def build_class(section, where: str = "class") -> WeightedClass:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(section, ("components", "weights"), where)
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
            if not all(_is_real(w) for w in weights):
                raise ConfigError(
                    f"{where}.weights must be numbers, got {weights!r}"
                )
            return WeightedClass(zip(measures, weights))
    except MeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.weights must be 'index-code', 'uniform' or a list")


def resolve_true_measure(config: dict, weighted: WeightedClass) -> SequenceMeasure:
    selector = _require(config, "true_measure", "config")
    names = list(weighted.names())
    if isinstance(selector, str):
        if selector not in names:
            raise ConfigError(
                f"true_measure {selector!r} is not in the class; members: {names}"
            )
        return weighted.measures()[names.index(selector)]
    mu = build_measure(selector, "true_measure")
    if mu.name in names:
        raise ConfigError(
            f"true_measure spec is named {mu.name!r} like a class member; "
            f'select the member by its name, "true_measure": "{mu.name}"'
        )
    return mu


def build_predictor(spec, where: str = "rho") -> StateRule:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {spec!r}")
    kind = _require(spec, "type", where)
    if not isinstance(kind, str) or kind not in _PREDICTOR_KEYS:
        raise ConfigError(f"{where} has unknown predictor type {kind!r}")
    _check_keys(spec, _PREDICTOR_KEYS[kind], where)
    try:
        if kind == "laplace":
            return LaplaceRulePredictor()
        if kind == "constant":
            return ConstantPredictor(_real_field(spec, "p", where))
        if kind == "measure":
            return build_measure(
                _require(spec, "measure", where), f"{where}.measure"
            )
        # kind == "threshold"
        return ThresholdPredictor(
            build_predictor(_require(spec, "base", where), f"{where}.base")
        )
    except MeasureError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def resolve_horizons(config: dict) -> list[int]:
    raw = _require(config, "horizons", "config")
    if isinstance(raw, dict):
        _check_keys(raw, ("start", "stop", "step"), "horizons")
        start = int_field(raw, "start", None, 1, "horizons")
        stop = int_field(raw, "stop", None, 1, "horizons")
        step = int_field(raw, "step", 1, 1, "horizons")
        raw = list(range(start, stop + 1, step))
    if not isinstance(raw, list) or not raw:
        raise ConfigError("horizons must be a nonempty list or a range object")
    for i, h in enumerate(raw):
        if not _is_int(h) or h < 1:
            raise ConfigError(f"horizons must be positive integers, got {h!r}")
        if i and h == raw[i - 1]:
            raise ConfigError(f"horizons must not repeat, got {h} twice")
        if i and h < raw[i - 1]:
            raise ConfigError(f"horizons must increase, got {raw}")
    return list(raw)


def resolve_mode(config: dict):
    """Returns (mode, samples, seed); samples and seed are required for
    monte-carlo and checked whenever present (None when absent)."""
    mode = config.get("mode", "exact")
    if mode not in ("exact", "monte-carlo"):
        raise ConfigError(
            f"mode must be 'exact' or 'monte-carlo', got {mode!r}"
        )
    required = mode == "monte-carlo"
    samples = seed = None
    if required or "samples" in config:
        samples = int_field(config, "samples", None, 2, "config")
    if required or "seed" in config:
        seed = int_field(config, "seed", None, 0, "config")
    return mode, samples, seed


def build_grid_spec(section) -> GridSpec:
    return _read_fields(GridSpec, section, "inequalities.grid")


def build_game_spec(section) -> GameSpec:
    return _read_fields(GameSpec, section, "game.spec")


def _read_fields(cls, section, where: str):
    """cls(**section), each value read by its field's type."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    types = get_type_hints(cls)
    _check_keys(section, types, where)
    kwargs = {key: _FIELD_READERS[types[key]](value, f"{where}.{key}")
              for key, value in section.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _integer(value, where: str) -> int:
    if not _is_int(value):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str):
    if not _is_real(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return value


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{where}: expected a number or 'p/q' string, got {value!r}")
    try:
        fraction = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{where}: cannot parse fraction {value!r}") from None
    return fraction if isinstance(value, str) else fraction.limit_denominator(10**9)


_FIELD_READERS = {int: _integer, float: _number, Fraction: _as_fraction}


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
                and all(_is_real(v) and math.isfinite(v) for v in pair)
            ):
                raise ConfigError(
                    f"{where} entries must be [A, B] pairs of finite "
                    f"numbers, got {pair!r}"
                )
        explore[name] = [tuple(pair) for pair in pairs]
    return explore


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mixture_from_config(config: dict):
    """(weighted class, mixture, true measure) from an experiment config.

    The config may hold no top-level keys besides the experiment's.
    """
    _check_keys(config, _EXPERIMENT_KEYS, "config")
    weighted = build_class(_require(config, "class", "config"))
    mu = resolve_true_measure(config, weighted)
    xi = MixtureMeasure(weighted)
    return weighted, xi, mu
