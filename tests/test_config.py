"""Config paths that build a run: weights and dice spelled every way
the format allows, and the horizon ladder's order."""

from fractions import Fraction

import pytest

from seqpred import config as cfg

TWO_BERNOULLI = [
    {"type": "bernoulli", "theta": 0.3},
    {"type": "bernoulli", "theta": 0.7},
]


def test_uniform_weights_split_the_prior_evenly():
    weighted = cfg.build_class(
        {"components": TWO_BERNOULLI, "weights": "uniform"}
    )
    assert [w for _m, w in weighted.components] == [0.5, 0.5]
    assert weighted.names() == ("bernoulli(0.3)", "bernoulli(0.7)")


@pytest.mark.parametrize("value, expected", [
    ("1/4", Fraction(1, 4)),
    (0.25, Fraction(1, 4)),
    (1 / 3, Fraction(1, 3)),
])
def test_die_probability_spellings(value, expected):
    # A float is read as the nearest fraction with denominator at most
    # 10**9, so 1/3 as a double is exactly one third again.
    spec = cfg.build_game_spec({"die1_white": value})
    assert spec.die1_white == expected
    assert spec.die2_white == Fraction(2, 3)


@pytest.mark.parametrize("horizons, message", [
    ([2, 4, 4], "horizons must not repeat, got 4 twice"),
    ([4, 6, 4], "horizons must increase, got [4, 6, 4]"),
])
def test_horizons_that_do_not_increase_are_refused(horizons, message):
    with pytest.raises(cfg.ConfigError) as raised:
        cfg.resolve_horizons({"horizons": horizons})
    assert str(raised.value) == message
