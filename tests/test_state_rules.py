"""Every measure and predictor is a state-transition rule.

Stepping start()/step() along a string must reproduce conditionals that
are computed without the rule.  For a measure that prices rho(s) on its
own (Bernoulli, deterministic, mixture, table) the oracle is the Bayes
ratio rho(s1) / rho(s), to rel 1e-12; Markov and game measures price
rho(s) by chaining the rule itself, so their oracle is a lookup written
here (the table entry for the last bits, the die the dealer's table picks).
Predictors are checked against closed forms written here.  A context of
probability zero raises on the rule and has no oracle value.

split(state), the expansion a tree walk reads, must equal p1 and both
steps, or raise what p1 raises, and the folded prefix rule must price
rho(s) as the chain of the rule's conditionals does.

A rule defines start() and split() alone: p1, step and the context
route, conditional(context, bit), are derived once, on StateRule, for
measures and predictors alike, the mixture included, so stepping past
a null event raises as p1 there does; log_prefix_probability is
derived once, on SequenceMeasure, as the fold of a prefix rule that
only the families pricing rho(s) on their own override; the design
tests at the end keep it that way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqpred.dicegame import DEALER_RULES, GameMeasure, GameSpec
from seqpred import predictors
from seqpred.measures import (
    BernoulliMeasure,
    BinaryString,
    FiniteRule,
    MarkovMeasure,
    MeasureCursor,
    MeasureError,
    NULL_EVENT_MESSAGE,
    NullEventError,
    SequenceMeasure,
    StateRule,
    _patterns,
    chain_probability,
    deterministic,
)
from seqpred.numerics import TIE_PREDICTION
from seqpred.predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    Predictor,
    PredictorCursor,
    ThresholdPredictor,
)
from seqpred.semimeasure import (
    RegisterMachine,
    SemimeasureError,
    TableMeasure,
    approximate_mass,
)
from seqpred.universal import MixtureMeasure, WeightedClass

MAX_LENGTH = 10
RATIO_REL = 1e-12
NULL = "null context"


def markov_table(order):
    rng = np.random.default_rng(order)
    return {
        format(i, f"0{width}b") if width else "": float(rng.uniform(0.1, 0.9))
        for width in range(order + 1)
        for i in range(2**width)
    }


def markov(order):
    return MarkovMeasure(order, markov_table(order))


def dying_mixture():
    # The deterministic component dies on the first bit off its target.
    return MixtureMeasure(WeightedClass.with_index_code_weights([
        BernoulliMeasure(0.3), deterministic("alternating"), markov(2),
    ]))


def register_table():
    return TableMeasure(
        approximate_mass(RegisterMachine(), cap=12, fuel=48, depth=5)
    )


def ratio_oracle(measure):
    """rho(1 | s) as rho(s1) / rho(s) from the measure's own pricing."""
    def p1(bits):
        context = BinaryString(tuple(bits))
        lp = measure.log_prefix_probability(context)
        if lp == -math.inf:
            return NULL
        lp1 = measure.log_prefix_probability(context.extended(1))
        return math.exp(lp1 - lp)
    return p1


def markov_oracle(order):
    table = markov_table(order)
    return lambda bits: table["".join(map(str, bits[-order:]))]


def game_oracle(rule):
    spec = GameSpec()
    return lambda bits: float(
        spec.white_probability(rule.die_sequence(bits)[-1])
    )


def laplace(bits):
    return (sum(bits) + 1.0) / (len(bits) + 2.0)


def threshold(p):
    if p == NULL:
        return NULL
    return 1.0 if p > 0.5 else 0.0 if p < 0.5 else float(TIE_PREDICTION)


def measure_case(name, factory, oracle_of, rel, longest=MAX_LENGTH):
    return (name, factory, oracle_of, rel, longest)


# (id, factory, oracle of the built measure, rel, longest string it can
# condition on)
MEASURES = [
    measure_case("bernoulli", lambda: BernoulliMeasure(0.3), ratio_oracle,
                 RATIO_REL),
    *[
        measure_case(f"markov{order}", lambda order=order: markov(order),
                     lambda m: markov_oracle(m.order), 0.0)
        for order in range(1, MarkovMeasure.MAX_ORDER + 1)
    ],
    measure_case("deterministic-alternating",
                 lambda: deterministic("alternating"), ratio_oracle, 0.0),
    measure_case("deterministic-ones", lambda: deterministic("ones"),
                 ratio_oracle, 0.0),
    *[
        measure_case(f"game-{rule.name}", lambda rule=rule: GameMeasure(rule),
                     lambda m: game_oracle(m.rule), 0.0)
        for rule in DEALER_RULES
    ],
    measure_case("mixture-with-dying-component", dying_mixture, ratio_oracle,
                 RATIO_REL),
    measure_case("mixture-of-deterministic", lambda: MixtureMeasure(
        WeightedClass.uniform([deterministic("zeros"), deterministic("ones")])
    ), ratio_oracle, RATIO_REL),
    measure_case("table", register_table, ratio_oracle, RATIO_REL, longest=4),
]

# (id, factory, oracle: bits -> P(next = 1), rel)
PREDICTORS = [
    ("constant", lambda: ConstantPredictor(0.25), lambda bits: 0.25, 0.0),
    ("laplace", LaplaceRulePredictor, laplace, 0.0),
    ("threshold-laplace", lambda: ThresholdPredictor(LaplaceRulePredictor()),
     lambda bits: threshold(laplace(bits)), 0.0),
    ("measure-markov3", lambda: MeasurePredictor(markov(3)),
     markov_oracle(3), 0.0),
    ("measure-game", lambda: MeasurePredictor(GameMeasure(DEALER_RULES[6])),
     game_oracle(DEALER_RULES[6]), 0.0),
    ("threshold-measure-mixture",
     lambda: ThresholdPredictor(MeasurePredictor(dying_mixture())),
     lambda bits: threshold(ratio_oracle(dying_mixture())(bits)), 0.0),
    ("measure-mixture", lambda: MeasurePredictor(dying_mixture()),
     ratio_oracle(dying_mixture()), RATIO_REL),
]

strings = st.lists(st.integers(0, 1), max_size=MAX_LENGTH)
NULL_ERRORS = (NullEventError, SemimeasureError)


def outcome(fn):
    """The value of fn(), or NULL if it raised a null-context error."""
    try:
        return fn()
    except NULL_ERRORS:
        return NULL


def assert_matches(oracle, value, rel):
    if rel == 0.0 or NULL in (oracle, value):
        assert value == oracle
    else:
        assert value == pytest.approx(oracle, rel=rel)


@pytest.mark.parametrize(
    "factory, oracle_of, rel, longest",
    [case[1:] for case in MEASURES],
    ids=[case[0] for case in MEASURES],
)
@settings(max_examples=40, deadline=None)
@given(bits=strings)
def test_measure_state_rule_matches_oracle(factory, oracle_of, rel, longest,
                                           bits):
    measure = factory()
    oracle = oracle_of(measure)
    bits = bits[:longest]
    state = measure.start()
    cursor = measure.cursor()
    for k in range(len(bits) + 1):
        context = BinaryString(tuple(bits[:k]))
        expected = outcome(lambda: oracle(bits[:k]))
        stepped = outcome(lambda: measure.p1(state))
        assert_matches(expected, stepped, rel)
        assert outcome(lambda: measure.conditional(context, 1)) == stepped
        if stepped != NULL:
            assert measure.conditional(context, 0) == 1.0 - stepped
            assert cursor.conditional(1) == stepped
            assert cursor.conditional(0) == 1.0 - stepped
        if k < len(bits):
            state = outcome(lambda: measure.step(state, bits[k]))
            if state is NULL:
                # A step raises exactly where p1 does: past a null event.
                assert stepped == NULL
                break
            cursor = cursor.advanced(bits[k])


@pytest.mark.parametrize(
    "factory, oracle, rel",
    [case[1:] for case in PREDICTORS],
    ids=[case[0] for case in PREDICTORS],
)
@settings(max_examples=40, deadline=None)
@given(bits=strings)
def test_predictor_state_rule_matches_closed_form(factory, oracle, rel, bits):
    predictor = factory()
    state = predictor.start()
    cursor = predictor.cursor()
    for k in range(len(bits) + 1):
        stepped = predictor.p1(state)
        assert_matches(oracle(bits[:k]), stepped, rel)
        context = BinaryString(tuple(bits[:k]))
        assert predictor.conditional(context, 1) == stepped
        assert predictor.conditional(context, 0) == 1.0 - stepped
        assert cursor.probability_of_one() == stepped
        if k < len(bits):
            state = predictor.step(state, bits[k])
            cursor = cursor.advanced(bits[k])


def program_mixture():
    # "program:4" outputs one bit, so its p1 raises from the second bit.
    return MixtureMeasure(WeightedClass.uniform([
        BernoulliMeasure(0.6), deterministic("program:4"),
    ]))


# (id, factory) of every rule the exact walk may split: the measure and
# predictor cases above, plus a generator that runs out of output.
SPLIT_RULES = [(case[0], case[1]) for case in MEASURES] + [
    (case[0], case[1]) for case in PREDICTORS
] + [
    ("deterministic-program", lambda: deterministic("program:4")),
    ("mixture-with-program", program_mixture),
]


@pytest.mark.parametrize(
    "factory", [case[1] for case in SPLIT_RULES],
    ids=[case[0] for case in SPLIT_RULES],
)
@settings(max_examples=40, deadline=None)
@given(bits=strings)
def test_split_is_p1_and_both_steps(factory, bits):
    rule = factory()
    state = rule.start()
    for k in range(len(bits) + 1):
        try:
            expected = (rule.p1(state), rule.step(state, 0),
                        rule.step(state, 1))
        except (MeasureError, SemimeasureError) as exc:
            with pytest.raises(type(exc)) as raised:
                rule.split(state)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        assert rule.split(state) == expected
        if k < len(bits):
            state = rule.step(state, bits[k])


@pytest.mark.parametrize(
    "factory, longest",
    [(case[1], case[4]) for case in MEASURES],
    ids=[case[0] for case in MEASURES],
)
@settings(max_examples=40, deadline=None)
@given(bits=strings)
def test_folded_prefix_rule_prices_the_chain(factory, longest, bits):
    measure = factory()
    s = BinaryString(tuple(bits[:longest]))
    assert measure.prefix_probability(s) == pytest.approx(
        chain_probability(measure, s), rel=RATIO_REL
    )


def test_off_target_deterministic_state_is_dead():
    measure = deterministic("alternating")
    state = measure.step(measure.step(measure.start(), 0), 0)
    assert state is None
    with pytest.raises(NullEventError):
        measure.p1(state)
    with pytest.raises(NullEventError):
        measure.conditional(BinaryString((0, 0)), 1)
    for bit in (0, 1):
        with pytest.raises(NullEventError) as raised:
            measure.step(state, bit)
        assert str(raised.value) == NULL_EVENT_MESSAGE


def test_mixture_keeps_a_dead_component_at_minus_infinity():
    xi = dying_mixture()
    parts, masses = xi.step(xi.step(xi.start(), 1), 1)
    assert parts[1] is None and masses[1] == -math.inf
    assert math.isfinite(masses[0]) and math.isfinite(masses[2])
    assert xi.p1((parts, masses)) == pytest.approx(
        ratio_oracle(xi)([1, 1]), rel=RATIO_REL
    )


@pytest.mark.parametrize("factory", [
    lambda: deterministic("alternating"),
    lambda: MixtureMeasure(WeightedClass.uniform(
        [deterministic("ones"), deterministic("alternating")]
    )),
], ids=["deterministic", "mixture"])
def test_conditional_past_a_null_event_raises_null_event_error(factory):
    # 0, 0 is null under both rules; every longer context, and the bit
    # after it, raises the same error that reading p1 at it raises.
    rule = factory()
    null = (0, 0)
    assert rule.conditional(BinaryString(null[:1]), 0) == 0.0
    for tail in ((), (0,), (1,), (1, 0, 1)):
        context = BinaryString(null + tail)
        for bit in (0, 1):
            with pytest.raises(NullEventError) as raised:
                rule.conditional(context, bit)
            assert str(raised.value) == NULL_EVENT_MESSAGE


def test_generic_cursors_are_the_only_cursor_classes():
    assert MeasureCursor.__subclasses__() == []
    assert PredictorCursor.__subclasses__() == []


def family(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(family(sub))
    return found


def defining(base, attr):
    return sorted(cls.__name__ for cls in family(base) if attr in vars(cls))


def test_context_routes_are_defined_only_in_the_base_classes():
    assert defining(StateRule, "conditional") == []
    assert not hasattr(Predictor, "probability_of_one")
    assert "conditional" in vars(StateRule)


def test_log_prefix_probability_is_defined_only_on_sequence_measure():
    assert defining(SequenceMeasure, "log_prefix_probability") == []
    assert "log_prefix_probability" in vars(SequenceMeasure)


def test_only_independent_pricing_defines_a_prefix_rule():
    found = {
        name
        for attr in ("prefix_start", "prefix_split", "log_prefix")
        for name in defining(SequenceMeasure, attr)
    }
    assert sorted(found) == [
        "BernoulliMeasure", "MixtureMeasure", "TableMeasure",
    ]


def test_only_state_rule_defines_p1_and_step():
    # Every rule, the mixture included, reads both off its split, so no
    # class can inherit a step that disagrees with its split.  Rules the
    # tests define (counting subclasses) are left out.
    def package_defining(attr):
        return sorted(
            cls.__name__ for cls in family(StateRule)
            if attr in vars(cls) and cls.__module__.startswith("seqpred.")
        )

    assert package_defining("p1") == []
    assert package_defining("step") == []
    assert {"p1", "step"} <= vars(StateRule).keys()
    assert StateRule.__abstractmethods__ == {"start", "split"}


@pytest.mark.parametrize("base", [SequenceMeasure, Predictor])
@pytest.mark.parametrize("missing", ["start", "split"])
def test_a_rule_without_start_or_split_cannot_be_built(base, missing):
    methods = {
        "start": lambda self: None,
        "split": lambda self, state: (0.5, None, None),
    }
    type("Complete", (base,), methods)()
    del methods[missing]
    incomplete = type(f"Without_{missing}", (base,), methods)
    with pytest.raises(TypeError):
        incomplete()


def test_finite_state_families_are_their_tables():
    # Each family's transition is FiniteRule's row lookup alone, and the
    # absent-rho stand-in is a one-row table too.
    for cls in (BernoulliMeasure, MarkovMeasure, GameMeasure,
                ConstantPredictor):
        assert issubclass(cls, FiniteRule)
        assert not {"start", "split"} & vars(cls).keys(), cls.__name__
    assert not hasattr(predictors, "_NoPredictor")
    assert type(predictors._NO_PREDICTOR) is FiniteRule
    assert predictors._NO_PREDICTOR.rows == ((None, 0, 0),)
    assert BernoulliMeasure(0.3).rows == ((0.3, 0, 0),)
    assert ConstantPredictor(1.0).rows == ((1.0, 0, 0),)
    rule = DEALER_RULES[4]
    assert GameMeasure(rule).rows == tuple(
        (float(GameSpec().white_probability(die)), *after)
        for die, after in zip(rule.die, rule.next_state)
    )


@pytest.mark.parametrize("order", range(1, MarkovMeasure.MAX_ORDER + 1))
@settings(max_examples=20, deadline=None)
@given(bits=strings)
def test_markov_state_indexes_its_window(order, bits):
    measure = markov(order)
    state = measure.state_after(bits)
    window = "".join(map(str, bits[-order:]))
    assert _patterns(order)[state] == window
    assert measure.rows[state][0] == markov_table(order)[window]
