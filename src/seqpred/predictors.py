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

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .measures import FiniteRule, MeasureError, SequenceMeasure, StateRule
from .numerics import kl_bernoulli, threshold_step

EXACT_HORIZON_CAP = 16


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
    exact walk's probability-weighted terms and Monte Carlo's unweighted
    terms come from the same expressions; the general term is None
    without a predictor conditional r.
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


class Predictor(StateRule):
    """Assigns a probability to the next bit being 1 given the context.

    Predictors are state rules like measures: each defines start() and
    split(state), and StateRule derives p1, step and the context route,
    conditional(context, bit), from them.
    """

    name: str = "predictor"

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
    """Forward a measure's rule under a predictor's name.  Every seat
    takes a measure itself; only perfbench still calls this."""

    def __init__(self, measure: SequenceMeasure, name: str | None = None):
        self.measure = measure
        self.name = name if name is not None else measure.name

    def start(self):
        return self.measure.start()

    def split(self, state):
        return self.measure.split(state)


class ConstantPredictor(FiniteRule, Predictor):
    """Always assigns probability p to the next bit being 1: one row."""

    def __init__(self, p: float, name: str | None = None):
        if not 0.0 <= p <= 1.0:
            raise PredictionError(f"probability outside [0, 1]: {p}")
        self.p = float(p)
        name = name if name is not None else f"constant({self.p:g})"
        super().__init__(((self.p, 0, 0),), name)


class LaplaceRulePredictor(Predictor):
    """Add-one frequency estimate: (ones + 1) / (length + 2)."""

    name = "laplace-rule"

    def start(self):
        return (0, 0)

    def split(self, state):
        length, ones = state
        return (
            (ones + 1.0) / (length + 2.0),
            (length + 1, ones),
            (length + 1, ones + 1),
        )


class ThresholdPredictor(Predictor):
    """Deterministic wrap: predict 1 iff the base probability exceeds 1/2.

    The base is any state rule, a measure or a predictor.  A base
    probability of exactly 1/2 falls back to the named tie constant in
    numerics.
    """

    def __init__(self, base: StateRule, name: str | None = None):
        if not isinstance(base, StateRule):
            raise PredictionError(f"cannot wrap {base!r} as a predictor")
        self.base = base
        self.name = name if name is not None else f"threshold({base.name})"

    def start(self):
        return self.base.start()

    def split(self, state):
        p1, zero, one = self.base.split(state)
        return (float(threshold_step(p1 - 0.5)), zero, one)


# ThresholdPredictor's older name, which perfbench still calls.
deterministic_wrap = ThresholdPredictor


@dataclass(frozen=True)
class ExpectationReport:
    """Per-step expected quantities and their totals over a horizon.

    per_step maps each quantity name, in _STEP_FIELDS order ("general"
    only when a predictor rho was walked), to its expectation at each step
    k = 1..horizon under the informed measure; totals are the sums.
    threshold_gap tracks the expected absolute difference between the two
    threshold schemes' step errors, which must telescope to the
    difference of their totals.
    """

    horizon: int
    mode: str
    mu_name: str
    xi_name: str
    rho_name: str | None
    per_step: dict[str, tuple[float, ...]]
    telescoped_entropy: float | None = None
    samples: int | None = None
    seed: int | None = None
    std_errors: dict | None = None

    def steps(self, name: str) -> tuple[float, ...] | None:
        if name not in _STEP_FIELDS:
            raise PredictionError(f"unknown quantity {name!r}")
        return self.per_step.get(name)

    def total(self, name: str) -> float | None:
        steps = self.steps(name)
        return None if steps is None else math.fsum(steps)

    # tests/test_acceptance.py reads these two totals as attributes.

    @property
    def entropy_total(self) -> float:
        return self.total("entropy")

    @property
    def quadratic_total(self) -> float:
        return self.total("quadratic")

    def to_dict(self) -> dict:
        body = {
            "schema": "expectation-report/1",
            "horizon": self.horizon,
            "mode": self.mode,
            "mu": self.mu_name,
            "xi": self.xi_name,
            "rho": self.rho_name,
            "totals": {name: self.total(name) for name in self.per_step},
            "steps": {name: list(s) for name, s in self.per_step.items()},
        }
        if self.telescoped_entropy is not None:
            body["telescoped_entropy"] = self.telescoped_entropy
        if self.mode == "monte-carlo":
            body["samples"] = self.samples
            body["seed"] = self.seed
            body["std_errors"] = dict(self.std_errors or {})
        return body

    def write_csv(self, path) -> None:
        rows = zip(*self.per_step.values())
        numerics.write_csv(
            path, ["step", *self.per_step],
            ([k, *row] for k, row in enumerate(rows, 1)),
        )


# Stand-in for an absent predictor rho: its conditional is None, so
# step_terms leaves the general term out.
_NO_PREDICTOR = FiniteRule(((None, 0, 0),), name=None)


def _walked(rho: StateRule | None, n: int):
    """The predictor an engine walks, once the horizon n is checked."""
    if n < 1:
        raise PredictionError(f"horizon must be >= 1, got {n}")
    return _NO_PREDICTOR if rho is None else rho


def _report(mode, mu, xi, rho, columns, std_errors=None, **fields):
    """Either engine's report from one column per _STEP_FIELDS name; with
    the stand-in rho the general column holds no values and is dropped."""
    per_step = dict(zip(_STEP_FIELDS, map(tuple, columns)))
    if rho is _NO_PREDICTOR:
        del per_step["general"]
    if std_errors is not None:
        std_errors = {name: std_errors[name] for name in per_step}
    return ExpectationReport(
        horizon=len(per_step["informed"]),
        mode=mode,
        mu_name=mu.name,
        xi_name=xi.name,
        rho_name=rho.name,
        per_step=per_step,
        std_errors=std_errors,
        **fields,
    )


def exact_expectations(
    mu: SequenceMeasure,
    xi: SequenceMeasure,
    n: int,
    rho: StateRule | None = None,
) -> ExpectationReport:
    """Exact totals by enumerating every informed-positive context.

    Walks the full depth-n binary tree, weighting each context by its
    informed probability and pruning zero-probability branches.  Each
    node is expanded once, by split() on mu, xi and rho, into p1 and
    both children's states.  Also sums the entropy total from the leaf
    probability ratios (the telescoped form), priced by each measure's
    own prefix rule carried down the same walk and split at depth n - 1
    into both leaves' prices, and insists the two routes agree to 1e-9.
    """
    rho = _walked(rho, n)
    if n > EXACT_HORIZON_CAP:
        raise PredictionError(
            f"horizon {n} exceeds the exact enumeration cap "
            f"{EXACT_HORIZON_CAP}"
        )
    steps = [[0.0] * n for _ in _STEP_FIELDS]
    leaf_terms = []
    last = n - 1

    def walk(k, log_mu, mu_state, xi_state, rho_state, mu_price, xi_price):
        mu_split = mu.split(mu_state)
        xi_split = xi.split(xi_state)
        rho_split = rho.split(rho_state)
        y, z, r = mu_split[0], xi_split[0], rho_split[0]
        for row, term in zip(steps, step_terms(y, z, r, math.exp(log_mu))):
            if term is not None:
                row[k] += term
        mu_prices = mu.prefix_split(mu_price)
        xi_prices = xi.prefix_split(xi_price)
        for bit, p_mu in ((0, 1.0 - y), (1, y)):
            if p_mu <= 0.0:
                continue
            if k < last:
                walk(
                    k + 1,
                    log_mu + math.log(p_mu),
                    mu_split[bit + 1],
                    xi_split[bit + 1],
                    rho_split[bit + 1],
                    mu_prices[bit],
                    xi_prices[bit],
                )
            else:
                # Independent route for the telescoped entropy total:
                # both leaf prices come from the prefix rules, not from
                # the conditionals the steps above were weighted with.
                lm = mu.log_prefix(mu_prices[bit])
                lx = xi.log_prefix(xi_prices[bit])
                leaf_terms.append(math.exp(lm) * (lm - lx))

    walk(0, 0.0, mu.start(), xi.start(), rho.start(),
         mu.prefix_start(), xi.prefix_start())

    telescoped = math.fsum(leaf_terms)
    entropy_total = math.fsum(steps[_STEP_FIELDS.index("entropy")])
    if math.isfinite(entropy_total) and abs(entropy_total - telescoped) > 1e-9:
        raise PredictionError(
            "entropy total disagrees with its telescoped form: "
            f"{entropy_total} vs {telescoped}"
        )
    return _report("exact", mu, xi, rho, steps, telescoped_entropy=telescoped)


def monte_carlo_expectations(
    mu: SequenceMeasure,
    xi: SequenceMeasure,
    n: int,
    samples: int,
    seed: int,
    rho: StateRule | None = None,
) -> ExpectationReport:
    """Estimate the same totals from sampled informed paths: the
    one-rung ladder."""
    return monte_carlo_ladder(mu, xi, [n], samples, seed, rho=rho)[0]


def monte_carlo_ladder(
    mu: SequenceMeasure,
    xi: SequenceMeasure,
    horizons,
    samples: int,
    seed: int,
    rho: StateRule | None = None,
) -> list[ExpectationReport]:
    """Monte Carlo reports at each horizon of an increasing ladder.

    Paths are sampled in lockstep with one uniform draw per step per
    path, walked once to the top rung; per-path sums give unbiased
    total estimates and their standard errors.  A rung's report takes
    the step means up to its horizon and the standard errors of the
    per-path sums at that step, so it equals a walk to that horizon
    alone, bit for bit.  Results depend only on (seed, samples,
    horizons), not on scheduling.
    """
    horizons = list(horizons)
    if not horizons:
        raise PredictionError("need at least one horizon")
    rho = _walked(rho, horizons[0])
    if any(h <= before for before, h in zip(horizons, horizons[1:])):
        raise PredictionError(f"horizons must increase, got {horizons}")
    if samples < 2:
        raise PredictionError(f"need at least 2 samples, got {samples}")
    if seed is None:
        raise PredictionError("monte carlo mode requires a seed")
    rng = np.random.default_rng(seed)
    # ids[i] is the rank of path i among the distinct paths sampled so
    # far, in lexicographic order, and states[id] its (mu, xi, rho)
    # states; an id never exceeds the sample count, so any horizon fits
    # in int64.  Each step splits every distinct prefix once, and the
    # sampled children take their states from those splits.
    ids = np.zeros(samples, dtype=np.int64)
    states = [(mu.start(), xi.start(), rho.start())]
    per_path = np.zeros((len(_STEP_FIELDS), samples))
    step_means = [[] for _ in _STEP_FIELDS]
    rungs = set(horizons)
    reports = []

    for k in range(1, horizons[-1] + 1):
        splits = [
            (mu.split(mu_state), xi.split(xi_state), rho.split(rho_state))
            for mu_state, xi_state, rho_state in states
        ]
        y_vals = np.array(
            [mu_split[0] for mu_split, _, _ in splits], dtype=float
        )
        # An absent general term becomes NaN here; _report drops it.
        values = np.array([
            step_terms(mu_split[0], xi_split[0], rho_split[0])
            for mu_split, xi_split, rho_split in splits
        ], dtype=float).T
        for sums, means, column in zip(per_path, step_means, values):
            gathered = column[ids]
            sums += gathered
            means.append(float(gathered.mean()))
        if k in rungs:
            std_errors = {
                name: float(sums.std(ddof=1) / math.sqrt(samples))
                for name, sums in zip(_STEP_FIELDS, per_path)
            }
            # _report copies the columns, which grow on past this rung.
            reports.append(_report(
                "monte-carlo", mu, xi, rho, step_means, std_errors=std_errors,
                samples=samples, seed=seed,
            ))
        draws = rng.random(samples)
        bits = (draws < y_vals[ids]).astype(np.int64)
        children, ids = np.unique(ids * 2 + bits, return_inverse=True)
        states = []
        for child in children.tolist():
            mu_split, xi_split, rho_split = splits[child >> 1]
            bit = child & 1
            states.append(
                (mu_split[bit + 1], xi_split[bit + 1], rho_split[bit + 1])
            )
    return reports
