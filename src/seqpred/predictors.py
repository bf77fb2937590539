"""Predictors, per-step error quantities, and expected-total accounting.

Per step, with y the informed conditional P(next=1), z the mixture
conditional, and r any predictor's conditional:

    informed error            2 y (1 - y)
    mixture error             y (1 - z) + (1 - y) z
    general error             y (1 - r) + (1 - y) r
    threshold mixture error   |y - step(z - 1/2)|
    threshold informed error  min(y, 1 - y)
    distance                  |y - z|
    quadratic distance        (y - z)^2
    relative entropy          y ln(y/z) + (1-y) ln((1-y)/(1-z))

Totals over a horizon are expectations of the per-step quantities under
the informed measure, obtained exactly by enumerating the full context
tree or estimated by seeded Monte Carlo over sampled paths.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics
from .measures import (
    BinaryString,
    MeasureError,
    SequenceMeasure,
    StateRule,
)
from .numerics import kl_bernoulli, threshold_step

EXACT_HORIZON_CAP = 16

SCHEMES = (
    "informed",
    "mixture",
    "general",
    "threshold-informed",
    "threshold-mixture",
)


class PredictionError(MeasureError):
    """Invalid prediction request or report operation."""


_STEP_FIELDS = (
    "informed",
    "mixture",
    "general",
    "distance",
    "quadratic",
    "entropy",
    "threshold_informed",
    "threshold_mixture",
    "threshold_gap",
)


def step_terms(y: float, z: float, r: float | None = None, weight: float = 1.0):
    """The per-step quantities in _STEP_FIELDS order, each scaled by weight.

    The weight multiplies first (weight * 2.0 * y * (1.0 - y)), so the
    exact walk's probability-weighted terms and the unweighted terms of
    Monte Carlo and StepQuantities come from the same expressions; the
    general term is None without a predictor conditional r.
    """
    e_theta_mix = abs(y - threshold_step(z - 0.5))
    e_theta_inf = y if y < 1.0 - y else 1.0 - y
    return (
        weight * 2.0 * y * (1.0 - y),
        weight * (y * (1.0 - z) + (1.0 - y) * z),
        None if r is None else weight * (y * (1.0 - r) + (1.0 - y) * r),
        weight * abs(y - z),
        weight * (y - z) ** 2,
        weight * kl_bernoulli(y, z),
        weight * e_theta_inf,
        weight * e_theta_mix,
        weight * abs(e_theta_mix - e_theta_inf),
    )


@dataclass(frozen=True)
class StepQuantities:
    """Conditionals for one step: informed y, mixture z, optional general r."""

    y: float
    z: float
    r: float | None = None

    def __post_init__(self):
        for label, value in (("y", self.y), ("z", self.z), ("r", self.r)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise PredictionError(f"{label} outside [0, 1]: {value}")

    @cached_property
    def _terms(self) -> dict:
        return dict(zip(_STEP_FIELDS, step_terms(self.y, self.z, self.r)))

    @property
    def informed_error(self) -> float:
        return self._terms["informed"]

    @property
    def mixture_error(self) -> float:
        return self._terms["mixture"]

    @property
    def general_error(self) -> float:
        if self.r is None:
            raise PredictionError("no general predictor conditional supplied")
        return self._terms["general"]

    @property
    def distance(self) -> float:
        return self._terms["distance"]

    @property
    def quadratic_distance(self) -> float:
        return self._terms["quadratic"]

    @property
    def relative_entropy(self) -> float:
        return self._terms["entropy"]

    @property
    def threshold_mixture_error(self) -> float:
        return self._terms["threshold_mixture"]

    @property
    def threshold_informed_error(self) -> float:
        return self._terms["threshold_informed"]


def step_error(quantities: StepQuantities, scheme: str) -> float:
    """Expected error of one prediction scheme for a single step."""
    if scheme == "informed":
        return quantities.informed_error
    if scheme == "mixture":
        return quantities.mixture_error
    if scheme == "general":
        return quantities.general_error
    if scheme == "threshold-informed":
        return quantities.threshold_informed_error
    if scheme == "threshold-mixture":
        return quantities.threshold_mixture_error
    raise PredictionError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


class Predictor(StateRule):
    """Assigns a probability to the next bit being 1 given the context.

    Predictors are state rules like measures; the context route replays
    the rule.
    """

    name: str = "predictor"

    def probability_of_one(self, context: BinaryString) -> float:
        return self.p1(self.state_after(context))

    def cursor(self) -> "PredictorCursor":
        return PredictorCursor(self, self.start())


class PredictorCursor:
    """Incremental predictor state along a growing context."""

    __slots__ = ("predictor", "state")

    def __init__(self, predictor, state):
        self.predictor = predictor
        self.state = state

    def probability_of_one(self) -> float:
        return self.predictor.p1(self.state)

    def advanced(self, bit: int) -> "PredictorCursor":
        return PredictorCursor(
            self.predictor, self.predictor.step(self.state, bit)
        )


class MeasurePredictor(Predictor):
    """Predict with the conditionals of a sequence measure."""

    def __init__(self, measure: SequenceMeasure, name: str | None = None):
        self.measure = measure
        self.name = name if name is not None else measure.name

    def start(self):
        return self.measure.start()

    def p1(self, state) -> float:
        return self.measure.p1(state)

    def step(self, state, bit: int):
        return self.measure.step(state, bit)


class ConstantPredictor(Predictor):
    """Always assigns the same probability to the next bit being 1."""

    def __init__(self, p: float, name: str | None = None):
        if not 0.0 <= p <= 1.0:
            raise PredictionError(f"probability outside [0, 1]: {p}")
        self.p = float(p)
        self.name = name if name is not None else f"constant({self.p:g})"

    def start(self):
        return None

    def p1(self, state) -> float:
        return self.p

    def step(self, state, bit: int):
        return None


class LaplaceRulePredictor(Predictor):
    """Add-one frequency estimate: (ones + 1) / (length + 2)."""

    name = "laplace-rule"

    def start(self):
        return (0, 0)

    def p1(self, state) -> float:
        length, ones = state
        return (ones + 1.0) / (length + 2.0)

    def step(self, state, bit: int):
        length, ones = state
        return (length + 1, ones + bit)


class ThresholdPredictor(Predictor):
    """Deterministic wrap: predict 1 iff the base probability exceeds 1/2.

    A base probability of exactly 1/2 falls back to the named tie
    constant in numerics.
    """

    def __init__(self, base: Predictor, name: str | None = None):
        self.base = base
        self.name = name if name is not None else f"threshold({base.name})"

    def start(self):
        return self.base.start()

    def p1(self, state) -> float:
        return float(threshold_step(self.base.p1(state) - 0.5))

    def step(self, state, bit: int):
        return self.base.step(state, bit)


def deterministic_wrap(source) -> ThresholdPredictor:
    """Threshold a predictor, or a measure's conditionals, at 1/2."""
    if isinstance(source, SequenceMeasure):
        source = MeasurePredictor(source)
    if not isinstance(source, Predictor):
        raise PredictionError(f"cannot wrap {source!r} as a predictor")
    return ThresholdPredictor(source)


@dataclass(frozen=True)
class ExpectationReport:
    """Per-step expected quantities and their totals over a horizon.

    step_* sequences hold the expectation of the per-step quantity at
    each step k = 1..horizon under the informed measure; totals are their
    sums.  threshold_gap tracks the expected absolute difference between
    the two threshold schemes' step errors, which must telescope to the
    difference of their totals.
    """

    horizon: int
    mode: str
    mu_name: str
    xi_name: str
    rho_name: str | None
    step_informed: tuple[float, ...]
    step_mixture: tuple[float, ...]
    step_general: tuple[float, ...] | None
    step_distance: tuple[float, ...]
    step_quadratic: tuple[float, ...]
    step_entropy: tuple[float, ...]
    step_threshold_informed: tuple[float, ...]
    step_threshold_mixture: tuple[float, ...]
    step_threshold_gap: tuple[float, ...]
    telescoped_entropy: float | None = None
    samples: int | None = None
    seed: int | None = None
    std_errors: dict | None = None

    def steps(self, name: str) -> tuple[float, ...] | None:
        if name not in _STEP_FIELDS:
            raise PredictionError(f"unknown quantity {name!r}")
        return getattr(self, f"step_{name}")

    def total(self, name: str) -> float | None:
        steps = self.steps(name)
        return None if steps is None else math.fsum(steps)

    @property
    def informed_total(self) -> float:
        return self.total("informed")

    @property
    def mixture_total(self) -> float:
        return self.total("mixture")

    @property
    def general_total(self) -> float | None:
        return self.total("general")

    @property
    def distance_total(self) -> float:
        return self.total("distance")

    @property
    def quadratic_total(self) -> float:
        return self.total("quadratic")

    @property
    def entropy_total(self) -> float:
        return self.total("entropy")

    @property
    def threshold_informed_total(self) -> float:
        return self.total("threshold_informed")

    @property
    def threshold_mixture_total(self) -> float:
        return self.total("threshold_mixture")

    @property
    def threshold_gap_total(self) -> float:
        return self.total("threshold_gap")

    def truncated(self, horizon: int) -> "ExpectationReport":
        """Report over the first `horizon` steps of this run."""
        if not 1 <= horizon <= self.horizon:
            raise PredictionError(
                f"truncation horizon {horizon} outside 1..{self.horizon}"
            )
        if horizon == self.horizon:
            return self
        cut = {
            f"step_{name}": (
                None if self.steps(name) is None else self.steps(name)[:horizon]
            )
            for name in _STEP_FIELDS
        }
        return replace(
            self, horizon=horizon, telescoped_entropy=None, std_errors=None, **cut
        )

    def to_dict(self) -> dict:
        body = {
            "schema": "expectation-report/1",
            "horizon": self.horizon,
            "mode": self.mode,
            "mu": self.mu_name,
            "xi": self.xi_name,
            "rho": self.rho_name,
            "totals": {
                name: self.total(name)
                for name in _STEP_FIELDS
                if self.steps(name) is not None
            },
            "steps": {
                name: list(self.steps(name))
                for name in _STEP_FIELDS
                if self.steps(name) is not None
            },
        }
        if self.telescoped_entropy is not None:
            body["telescoped_entropy"] = self.telescoped_entropy
        if self.mode == "monte-carlo":
            body["samples"] = self.samples
            body["seed"] = self.seed
            body["std_errors"] = dict(self.std_errors or {})
        return body

    def write_csv(self, path) -> None:
        names = [n for n in _STEP_FIELDS if self.steps(n) is not None]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step"] + names)
            for k in range(self.horizon):
                writer.writerow(
                    [k + 1] + [numerics.fmt17(self.steps(n)[k]) for n in names]
                )


def exact_expectations(
    mu: SequenceMeasure,
    xi: SequenceMeasure,
    n: int,
    rho: Predictor | None = None,
) -> ExpectationReport:
    """Exact totals by enumerating every informed-positive context.

    Walks the full depth-n binary tree, weighting each context by its
    informed probability and pruning zero-probability branches.  Also
    recomputes the entropy total from the leaf probability ratios (the
    telescoped form) and insists the two routes agree to 1e-9.
    """
    if n < 1:
        raise PredictionError(f"horizon must be >= 1, got {n}")
    if n > EXACT_HORIZON_CAP:
        raise PredictionError(
            f"horizon {n} exceeds the exact enumeration cap "
            f"{EXACT_HORIZON_CAP}; use monte_carlo_expectations"
        )
    track_rho = rho is not None
    steps = [[0.0] * n for _ in _STEP_FIELDS]
    if not track_rho:
        steps[_STEP_FIELDS.index("general")] = None
    leaf_terms = []
    path = []

    def walk(k, log_mu, mu_state, xi_state, rho_state):
        if k == n:
            # Independent route for the telescoped entropy total: both
            # prefix probabilities are recomputed from scratch.
            leaf = BinaryString(tuple(path))
            lm = mu.log_prefix_probability(leaf)
            lx = xi.log_prefix_probability(leaf)
            leaf_terms.append(math.exp(lm) * (lm - lx))
            return
        y = mu.p1(mu_state)
        z = xi.p1(xi_state)
        r = rho.p1(rho_state) if track_rho else None
        for row, term in zip(steps, step_terms(y, z, r, math.exp(log_mu))):
            if row is not None:
                row[k] += term
        for bit, p_mu in ((0, 1.0 - y), (1, y)):
            if p_mu <= 0.0:
                continue
            path.append(bit)
            walk(
                k + 1,
                log_mu + math.log(p_mu),
                mu.step(mu_state, bit),
                xi.step(xi_state, bit),
                rho.step(rho_state, bit) if track_rho else None,
            )
            path.pop()

    walk(0, 0.0, mu.start(), xi.start(), rho.start() if track_rho else None)

    telescoped = math.fsum(leaf_terms)
    entropy_total = math.fsum(steps[_STEP_FIELDS.index("entropy")])
    if math.isfinite(entropy_total) and abs(entropy_total - telescoped) > 1e-9:
        raise PredictionError(
            "entropy total disagrees with its telescoped form: "
            f"{entropy_total} vs {telescoped}"
        )
    return ExpectationReport(
        horizon=n,
        mode="exact",
        mu_name=mu.name,
        xi_name=xi.name,
        rho_name=rho.name if track_rho else None,
        telescoped_entropy=telescoped,
        **{
            f"step_{name}": (None if row is None else tuple(row))
            for name, row in zip(_STEP_FIELDS, steps)
        },
    )


def monte_carlo_expectations(
    mu: SequenceMeasure,
    xi: SequenceMeasure,
    n: int,
    samples: int,
    seed: int,
    rho: Predictor | None = None,
) -> ExpectationReport:
    """Estimate the same totals from sampled informed paths.

    Paths are sampled in lockstep with one uniform draw per step per
    path; per-path sums give unbiased total estimates and their standard
    errors.  Results depend only on (seed, samples, n), not on scheduling.
    """
    if n < 1:
        raise PredictionError(f"horizon must be >= 1, got {n}")
    if samples < 2:
        raise PredictionError(f"need at least 2 samples, got {samples}")
    if seed is None:
        raise PredictionError("monte carlo mode requires a seed")
    track_rho = rho is not None
    rng = np.random.default_rng(seed)
    names = [name for name in _STEP_FIELDS if track_rho or name != "general"]
    # ids[i] is the rank of path i among the distinct paths sampled so
    # far, in lexicographic order, and states[id] its cursor states; an
    # id never exceeds the sample count, so any horizon fits in int64.
    ids = np.zeros(samples, dtype=np.int64)
    states = [(mu.start(), xi.start(), rho.start() if track_rho else None)]
    per_path = {name: np.zeros(samples) for name in names}
    step_means = {name: [] for name in names}

    for _ in range(n):
        rows = []
        y_vals = np.empty(len(states))
        for idx, (mu_state, xi_state, rho_state) in enumerate(states):
            y = mu.p1(mu_state)
            z = xi.p1(xi_state)
            r = rho.p1(rho_state) if track_rho else None
            y_vals[idx] = y
            rows.append([t for t in step_terms(y, z, r) if t is not None])
        values = np.array(rows).T
        for name, column in zip(names, values):
            gathered = column[ids]
            per_path[name] += gathered
            step_means[name].append(float(gathered.mean()))
        draws = rng.random(samples)
        bits = (draws < y_vals[ids]).astype(np.int64)
        children, ids = np.unique(ids * 2 + bits, return_inverse=True)
        next_states = []
        for child in children.tolist():
            mu_state, xi_state, rho_state = states[child >> 1]
            bit = child & 1
            next_states.append((
                mu.step(mu_state, bit),
                xi.step(xi_state, bit),
                rho.step(rho_state, bit) if track_rho else None,
            ))
        states = next_states

    std_errors = {
        name: float(per_path[name].std(ddof=1) / math.sqrt(samples))
        for name in names
    }
    step_fields = {
        f"step_{name}": (
            tuple(step_means[name]) if name in names else None
        )
        for name in _STEP_FIELDS
    }
    return ExpectationReport(
        horizon=n,
        mode="monte-carlo",
        mu_name=mu.name,
        xi_name=xi.name,
        rho_name=rho.name if track_rho else None,
        samples=samples,
        seed=seed,
        std_errors=std_errors,
        **step_fields,
    )
