"""Every measure and predictor is a state-transition rule.

Stepping start()/step() along a string must reproduce the direct
conditionals: p1(state) equals conditional(s, 1) for a measure and
probability_of_one(s) for a predictor, exactly for the closed-form
families and to rel 1e-12 where the direct route is a ratio of prefix
probabilities (the mixture).  A context of probability zero raises the
same error on both routes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqpred.dicegame import DEALER_RULES, GameMeasure
from seqpred.measures import (
    BernoulliMeasure,
    BinaryString,
    MarkovMeasure,
    MeasureCursor,
    NullEventError,
    deterministic,
)
from seqpred.predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    PredictorCursor,
    ThresholdPredictor,
)
from seqpred.semimeasure import (
    RegisterMachine,
    SemimeasureError,
    approximate_mass,
    as_measure,
)
from seqpred.universal import MixtureMeasure, WeightedClass

MAX_LENGTH = 10
RATIO_REL = 1e-12


def markov(order):
    return MarkovMeasure.random(order, np.random.default_rng(order))


def dying_mixture():
    # The deterministic component dies on the first bit off its target.
    return MixtureMeasure(WeightedClass.with_index_code_weights([
        BernoulliMeasure(0.3), deterministic("alternating"), markov(2),
    ]))


def register_table():
    return as_measure(
        approximate_mass(RegisterMachine(), cap=12, fuel=48, depth=5)
    )


# (id, factory, rel, longest string it can condition on)
MEASURES = [
    ("bernoulli", lambda: BernoulliMeasure(0.3), 0.0, MAX_LENGTH),
    *[
        (f"markov{order}", lambda order=order: markov(order), 0.0, MAX_LENGTH)
        for order in range(1, MarkovMeasure.MAX_ORDER + 1)
    ],
    ("deterministic-alternating", lambda: deterministic("alternating"), 0.0,
     MAX_LENGTH),
    ("deterministic-ones", lambda: deterministic("ones"), 0.0, MAX_LENGTH),
    *[
        (f"game-{rule.name}", lambda rule=rule: GameMeasure(rule), 0.0,
         MAX_LENGTH)
        for rule in DEALER_RULES
    ],
    ("mixture-with-dying-component", dying_mixture, RATIO_REL, MAX_LENGTH),
    ("mixture-of-deterministic", lambda: MixtureMeasure(
        WeightedClass.uniform([deterministic("zeros"), deterministic("ones")])
    ), RATIO_REL, MAX_LENGTH),
    ("table", register_table, 0.0, 4),
]

PREDICTORS = [
    ("constant", lambda: ConstantPredictor(0.25), 0.0),
    ("laplace", LaplaceRulePredictor, 0.0),
    ("threshold-laplace", lambda: ThresholdPredictor(LaplaceRulePredictor()),
     0.0),
    ("measure-markov3", lambda: MeasurePredictor(markov(3)), 0.0),
    ("measure-game", lambda: MeasurePredictor(GameMeasure(DEALER_RULES[6])),
     0.0),
    ("threshold-measure-mixture",
     lambda: ThresholdPredictor(MeasurePredictor(dying_mixture())), 0.0),
    ("measure-mixture", lambda: MeasurePredictor(dying_mixture()),
     RATIO_REL),
]

strings = st.lists(st.integers(0, 1), max_size=MAX_LENGTH)
NULL_ERRORS = (NullEventError, SemimeasureError)


def outcome(fn):
    """The value of fn(), or the type of the null-context error it raised."""
    try:
        return fn()
    except NULL_ERRORS as exc:
        return type(exc)


def assert_same(direct, stepped, rel):
    if isinstance(direct, type) or isinstance(stepped, type):
        assert stepped is direct
    elif rel == 0.0:
        assert stepped == direct
    else:
        assert stepped == pytest.approx(direct, rel=rel)


@pytest.mark.parametrize(
    "factory, rel, longest",
    [case[1:] for case in MEASURES],
    ids=[case[0] for case in MEASURES],
)
@settings(max_examples=40, deadline=None)
@given(bits=strings)
def test_measure_state_rule_matches_conditionals(factory, rel, longest, bits):
    measure = factory()
    bits = bits[:longest]
    state = measure.start()
    cursor = measure.cursor()
    for k in range(len(bits) + 1):
        context = BinaryString(tuple(bits[:k]))
        direct = outcome(lambda: measure.conditional(context, 1))
        stepped = outcome(lambda: measure.p1(state))
        assert_same(direct, stepped, rel)
        if not isinstance(stepped, type):
            assert cursor.conditional(1) == stepped
            assert cursor.conditional(0) == 1.0 - stepped
        if k < len(bits):
            state = measure.step(state, bits[k])
            cursor = cursor.advanced(bits[k])


@pytest.mark.parametrize(
    "factory, rel",
    [case[1:] for case in PREDICTORS],
    ids=[case[0] for case in PREDICTORS],
)
@settings(max_examples=40, deadline=None)
@given(bits=strings)
def test_predictor_state_rule_matches_probability_of_one(factory, rel, bits):
    predictor = factory()
    state = predictor.start()
    cursor = predictor.cursor()
    for k in range(len(bits) + 1):
        context = BinaryString(tuple(bits[:k]))
        stepped = predictor.p1(state)
        assert_same(predictor.probability_of_one(context), stepped, rel)
        assert cursor.probability_of_one() == stepped
        if k < len(bits):
            state = predictor.step(state, bits[k])
            cursor = cursor.advanced(bits[k])


def test_off_target_deterministic_state_is_dead():
    measure = deterministic("alternating")
    state = measure.step(measure.step(measure.start(), 0), 0)
    assert state is None
    with pytest.raises(NullEventError):
        measure.p1(state)
    assert measure.step(state, 1) is None


def test_mixture_keeps_a_dead_component_at_minus_infinity():
    xi = dying_mixture()
    state = xi.step(xi.step(xi.start(), 1), 1)
    (_, bernoulli_mass), (dead, dead_mass), _ = state
    assert dead is None and dead_mass == -math.inf
    assert math.isfinite(bernoulli_mass)
    assert xi.p1(state) == pytest.approx(
        xi.conditional(BinaryString((1, 1)), 1), rel=RATIO_REL
    )


def test_generic_cursors_are_the_only_cursor_classes():
    assert MeasureCursor.__subclasses__() == []
    assert PredictorCursor.__subclasses__() == []
