"""Betting game against a dealer who picks between two biased dice.

Each round the dealer applies a deterministic rule to the outcome
history, rolls the selected die, and the player stakes a fixed amount
on a color call; a correct call wins a fixed payout.  Outcome bit 1 is
white, bit 0 is black.  Die 1 shows white with probability 1/3 and die
2 with probability 2/3, so the best informed call always errs with
probability 1/3 and the game is profitable exactly when the per-round
error rate stays below 1 - stake/payout.

A dealer rule is data: a finite state machine held as two integer
tables, the next state per (state, outcome bit) and the die per state,
started in state 0.  The family shipped here (constant die, round
alternation, one-bit outcome feedback, and two three-bit automata) is
a design choice: any deterministic rule works, but a small enumerable
family with index-code prior weights makes the complexity of each rule
an exact, inspectable number and the turnaround analysis fully
computable.

Money is integer cents everywhere; expected-value mode produces
fractional cents and keeps them as floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import numerics
from .measures import FiniteRule, MeasureError, SequenceMeasure, StateRule
from .predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
    ThresholdPredictor,
)
from .universal import MixtureMeasure, WeightedClass

DEFAULT_STAKE_CENTS = 300
DEFAULT_PAYOUT_CENTS = 500
GAME_MODES = ("sampled", "expected")


class GameError(MeasureError):
    """Invalid game configuration or an impossible request."""


@dataclass(frozen=True)
class GameSpec:
    """Stakes and dice for the betting game.

    A zero stake is allowed (free bets) so the limiting coefficient in
    the turnaround analysis is reachable; the payout must exceed the
    stake or no strategy can ever profit.
    """

    stake_cents: int = DEFAULT_STAKE_CENTS
    payout_cents: int = DEFAULT_PAYOUT_CENTS
    die1_white: Fraction = Fraction(1, 3)
    die2_white: Fraction = Fraction(2, 3)

    def __post_init__(self):
        if any(
            not isinstance(cents, int) or isinstance(cents, bool)
            for cents in (self.stake_cents, self.payout_cents)
        ):
            raise GameError("stake and payout must be integer cents")
        if not 0 <= self.stake_cents < self.payout_cents:
            raise GameError(
                f"need payout > stake >= 0, got stake {self.stake_cents} "
                f"and payout {self.payout_cents}"
            )
        for label, p in (("die1", self.die1_white), ("die2", self.die2_white)):
            if not 0 < p < 1:
                raise GameError(f"{label} white probability {p} not in (0, 1)")

    def white_probability(self, die: int) -> Fraction:
        if die == 1:
            return self.die1_white
        if die == 2:
            return self.die2_white
        raise GameError(f"die must be 1 or 2, got {die}")

    @property
    def winning_threshold(self) -> Fraction:
        """Per-round error rate below which the game turns profitable."""
        return 1 - Fraction(self.stake_cents, self.payout_cents)


@dataclass(frozen=True)
class DealerRule:
    """Deterministic die selection as a finite state machine, held as tables.

    States are 0..len(die) - 1 and the dealer starts in state 0;
    next_state[state][bit] is the state after outcome bit and die[state]
    the die rolled in that state.
    """

    name: str
    next_state: tuple
    die: tuple

    def die_sequence(self, outcomes) -> list:
        """Dice chosen along a fixed outcome history, for inspection."""
        state = 0
        dice = []
        for bit in outcomes:
            dice.append(self.die[state])
            state = self.next_state[state][bit]
        dice.append(self.die[state])
        return dice


def _window3(name: str, die_by_ones: tuple) -> DealerRule:
    # State is the last three outcomes as a 3-bit number, oldest bit
    # highest, seeded with black; the die depends on how many are white.
    return DealerRule(
        name=name,
        next_state=tuple(
            ((state << 1) & 7, (state << 1 | 1) & 7) for state in range(8)
        ),
        die=tuple(die_by_ones[bin(state).count("1")] for state in range(8)),
    )


# Feedback rules remember the last outcome (round one behaves as if
# after black) and roll the white-leaning die 2 after white (repeat) or
# the black-leaning die 1 (oppose).
DEALER_RULES = (
    DealerRule("constant-die1", ((0, 0),), (1,)),
    DealerRule("constant-die2", ((0, 0),), (2,)),
    DealerRule("alternate-12", ((1, 1), (0, 0)), (1, 2)),
    DealerRule("alternate-21", ((1, 1), (0, 0)), (2, 1)),
    DealerRule("feedback-repeat", ((0, 1), (0, 1)), (1, 2)),
    DealerRule("feedback-oppose", ((0, 1), (0, 1)), (2, 1)),
    # majority3 rolls die 2 once two of the last three were white,
    # parity3 when an odd number of them were.
    _window3("majority3", (1, 1, 2, 2)),
    _window3("parity3", (1, 2, 1, 2)),
)


def dealer_rule(name: str) -> DealerRule:
    for rule in DEALER_RULES:
        if rule.name == name:
            return rule
    known = [rule.name for rule in DEALER_RULES]
    raise GameError(f"unknown dealer rule {name!r}; known rules: {known}")


class GameMeasure(FiniteRule, SequenceMeasure):
    """Outcome distribution induced by a dealer rule and the two dice.

    The states are the dealer's; each state's row, (P(white) as a float
    from the two dice, next state after black, after white), is built
    from the rule's tables.
    """

    def __init__(self, rule: DealerRule, spec: GameSpec = GameSpec()):
        self.rule = rule
        self.spec = spec
        white = {die: float(self.spec.white_probability(die)) for die in (1, 2)}
        super().__init__(
            [(white[die], *after)
             for die, after in zip(rule.die, rule.next_state)],
            f"game({rule.name})",
        )


def dealer_class(spec: GameSpec = GameSpec()) -> WeightedClass:
    """All shipped dealer rules as game measures with index-code weights.

    The prior weight of rule number i is 2^-(2 floor(log2 i) + 1), so
    the exact description complexity of each rule inside this family is
    the class's complexity surrogate.
    """
    measures = [GameMeasure(rule, spec) for rule in DEALER_RULES]
    return WeightedClass.with_index_code_weights(measures)


def rule_mixture(spec: GameSpec = GameSpec()) -> MixtureMeasure:
    """Bayes mixture over the shipped dealer family."""
    return MixtureMeasure(dealer_class(spec), name="dealer-mixture")


# The callers a game seats, by name: each builds a state rule from the
# dealer rule and the spec; the informed and mixture callers are the
# measures themselves.  The dicegame subcommand seats the first five
# unless its config names others.
CALLERS = {
    "threshold-informed":
        lambda rule, spec: ThresholdPredictor(GameMeasure(rule, spec)),
    "informed": GameMeasure,
    "threshold-mixture":
        lambda rule, spec: ThresholdPredictor(rule_mixture(spec)),
    "mixture": lambda rule, spec: rule_mixture(spec),
    "always-white":
        lambda rule, spec: ConstantPredictor(1.0, name="always-white"),
    "always-black":
        lambda rule, spec: ConstantPredictor(0.0, name="always-black"),
    "laplace": lambda rule, spec: LaplaceRulePredictor(),
}


def caller(name, rule: DealerRule, spec: GameSpec = GameSpec()) -> StateRule:
    """The caller named name, for a game against rule.

    Names are compared with ==, so a config entry that is not a string
    is reported as unknown rather than failing as unhashable.
    """
    for known, build in CALLERS.items():
        if name == known:
            return build(rule, spec)
    raise GameError(f"unknown game predictor {name!r}; known: {list(CALLERS)}")


def profit(n: int, errors, spec: GameSpec = GameSpec()):
    """Cents won after n rounds with the given (possibly expected) errors.

    Affine and strictly decreasing in the error count; exact when given
    int or Fraction errors.
    """
    if n < 0:
        raise GameError(f"round count must be nonnegative, got {n}")
    if not 0 <= errors <= n:
        raise GameError(f"errors must lie in [0, {n}], got {errors}")
    return (n - errors) * spec.payout_cents - n * spec.stake_cents


def turnaround_coefficient(spec: GameSpec, per_round_error):
    """Rounds per nat of prior penalty before profit must appear.

    Exact arithmetic when the error rate is a Fraction; the defaults
    with an error rate of 1/3 give exactly 330.
    """
    threshold = spec.winning_threshold
    if not per_round_error < threshold:
        raise GameError(
            f"game not winnable: per-round error {per_round_error} is not "
            f"below 1 - stake/payout = {threshold}"
        )
    if per_round_error < 0:
        raise GameError(f"per-round error must be nonnegative, got {per_round_error}")
    return 2 * (threshold + per_round_error) / (threshold - per_round_error) ** 2


def turnaround_bound(
    complexity_bits: float,
    spec: GameSpec = GameSpec(),
    per_round_error=Fraction(1, 3),
) -> float:
    """Rounds after which mean profit of the mixture caller must be positive.

    The bound is conservative; empirically the crossing happens much
    earlier for every shipped rule.
    """
    if complexity_bits < 0:
        raise GameError(f"complexity must be nonnegative, got {complexity_bits}")
    coefficient = turnaround_coefficient(spec, per_round_error)
    return float(coefficient) * math.log(2.0) * complexity_bits


@dataclass(frozen=True)
class ProfitTrace:
    """Round-by-round ledger of one simulated game."""

    outcomes: tuple
    cumulative_profit: tuple
    cumulative_errors: tuple

    @property
    def rounds(self) -> int:
        return len(self.outcomes)

    def write_csv(self, path) -> None:
        numerics.write_csv(
            path, ["round", "cumulative_profit_cents", "cumulative_errors"],
            zip(range(1, self.rounds + 1), self.cumulative_profit,
                self.cumulative_errors),
        )


def play(
    spec: GameSpec,
    rule: DealerRule,
    predictor: StateRule,
    n: int,
    seed,
    mode: str = "sampled",
) -> ProfitTrace:
    """Simulate n rounds of the game with one predictor.

    Each round draws the outcome first and the prediction second from a
    single per-game stream, so traces are reproducible from the seed
    alone.  In sampled mode a probabilistic caller bets a coin flip
    with its own probability; in expected mode the ledger accrues the
    exact conditional expectation of profit and errors instead.
    """
    if n < 1:
        raise GameError(f"round count must be >= 1, got {n}")
    if mode not in GAME_MODES:
        raise GameError(f"mode must be 'sampled' or 'expected', got {mode!r}")
    rng = np.random.default_rng(seed)
    env = GameMeasure(rule, spec)
    env_state = env.start()
    caller_state = predictor.start()
    outcomes = []
    profits = []
    errors = []
    running_profit = running_errors = 0
    for _ in range(n):
        env_split = env.split(env_state)
        outcome = 1 if rng.random() < env_split[0] else 0
        caller_split = predictor.split(caller_state)
        call_white = caller_split[0]
        if mode == "sampled":
            call = 1 if rng.random() < call_white else 0
            p_correct = int(call == outcome)
        else:
            p_correct = call_white if outcome == 1 else 1.0 - call_white
        running_errors += 1 - p_correct
        running_profit += p_correct * spec.payout_cents - spec.stake_cents
        outcomes.append(outcome)
        profits.append(running_profit)
        errors.append(running_errors)
        env_state = env_split[outcome + 1]
        caller_state = caller_split[outcome + 1]
    return ProfitTrace(
        outcomes=tuple(outcomes),
        cumulative_profit=tuple(profits),
        cumulative_errors=tuple(errors),
    )


def mean_profit_trace(traces) -> np.ndarray:
    """Mean cumulative profit per round across games, in cents."""
    traces = list(traces)
    if not traces:
        raise GameError("need at least one trace")
    rounds = {t.rounds for t in traces}
    if len(rounds) != 1:
        raise GameError(f"traces disagree on length: {sorted(rounds)}")
    return np.mean([t.cumulative_profit for t in traces], axis=0)


def first_profitable_round(values) -> int | None:
    """First 1-based round with positive cumulative profit, if any."""
    for i, v in enumerate(values):
        if v > 0:
            return i + 1
    return None


@dataclass(frozen=True)
class TurnaroundResult:
    """Empirical mixture-caller turnaround against the analytic bound."""

    rule: str
    games: int
    rounds: int
    seed: int
    mode: str
    complexity_bits: float
    bound_rounds: float
    crossing_round: int | None
    mean_final_profit_cents: float

    @property
    def within_bound(self) -> bool:
        return self.crossing_round is not None and (
            self.crossing_round <= self.bound_rounds
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "within_bound": self.within_bound}


def run_turnaround_experiment(
    rule: DealerRule,
    spec: GameSpec = GameSpec(),
    rounds: int = 400,
    games: int = 100,
    seed: int = 0,
    mode: str = "sampled",
) -> TurnaroundResult:
    """Average the threshold-mixture caller over seeded games and find
    the crossing.

    The rule's exact complexity inside the dealer family prices the
    analytic bound, before any game is played, so an unwinnable spec
    fails at once.  Game g uses the derived seed (seed, g), so results
    do not depend on scheduling or on how many games run.
    """
    bits = dealer_class(spec).complexity_surrogate(f"game({rule.name})")
    informed_error = max(
        min(spec.die1_white, 1 - spec.die1_white),
        min(spec.die2_white, 1 - spec.die2_white),
    )
    bound = turnaround_bound(bits, spec, informed_error)
    threshold_mixture = caller("threshold-mixture", rule, spec)
    traces = [
        play(spec, rule, threshold_mixture, rounds, seed=(seed, g), mode=mode)
        for g in range(games)
    ]
    mean_trace = mean_profit_trace(traces)
    return TurnaroundResult(
        rule=rule.name,
        games=games,
        rounds=rounds,
        seed=seed,
        mode=mode,
        complexity_bits=bits,
        bound_rounds=bound,
        crossing_round=first_profitable_round(mean_trace),
        mean_final_profit_cents=float(mean_trace[-1]),
    )
