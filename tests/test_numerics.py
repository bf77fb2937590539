import math

import pytest
from hypothesis import given, strategies as st

from seqpred import numerics


def kl_reference(y, z):
    """Textbook two-term form, safe away from the endpoints."""
    return y * math.log(y / z) + (1.0 - y) * math.log((1.0 - y) / (1.0 - z))


class TestKlBernoulli:
    def test_matches_reference_form(self):
        for y, z in [(0.3, 0.7), (0.9, 0.1), (0.5, 0.25), (0.01, 0.99)]:
            assert numerics.kl_bernoulli(y, z) == pytest.approx(
                kl_reference(y, z), rel=1e-13
            )

    def test_zero_on_diagonal_exactly(self):
        for p in (0.1, 0.5, 0.25, 0.999):
            assert numerics.kl_bernoulli(p, p) == 0.0

    def test_endpoint_conventions(self):
        assert numerics.kl_bernoulli(0.0, 0.25) == pytest.approx(-math.log(0.75))
        assert numerics.kl_bernoulli(1.0, 0.25) == pytest.approx(-math.log(0.25))
        assert numerics.kl_bernoulli(1.0, 1.0) == 0.0
        assert numerics.kl_bernoulli(0.0, 0.0) == 0.0

    def test_mismatched_support_is_infinite(self):
        assert numerics.kl_bernoulli(0.5, 0.0) == math.inf
        assert numerics.kl_bernoulli(0.5, 1.0) == math.inf
        assert numerics.kl_bernoulli(1.0, 0.0) == math.inf

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            numerics.kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            numerics.kl_bernoulli(0.5, 1.5)

    @given(
        st.floats(min_value=1e-9, max_value=1 - 1e-9),
        st.floats(min_value=1e-9, max_value=1 - 1e-9),
    )
    def test_nonnegative(self, y, z):
        assert numerics.kl_bernoulli(y, z) >= 0.0

    def test_near_diagonal_stability(self):
        # The naive two-log form loses most digits here; the log1p form
        # must stay close to the series value delta^2 / (2 z (1 - z)).
        z = 0.5
        delta = 1e-8
        got = numerics.kl_bernoulli(z + delta, z)
        assert got == pytest.approx(delta**2 / (2 * z * (1 - z)), rel=1e-6)


def test_threshold_step_sign_cases():
    assert numerics.threshold_step(0.2) == 1
    assert numerics.threshold_step(-0.2) == 0
    assert numerics.threshold_step(0.0) == numerics.TIE_PREDICTION


def test_tie_prediction_is_zero():
    assert numerics.TIE_PREDICTION == 0


def test_logsumexp_matches_direct():
    vals = [-1.5, -2.0, -30.0]
    direct = math.log(sum(math.exp(v) for v in vals))
    assert numerics.logsumexp(vals) == pytest.approx(direct, rel=1e-14)
    assert numerics.logsumexp([-math.inf, -math.inf]) == -math.inf


def test_fmt17_round_trips():
    for x in (1 / 3, 0.1, 2.0**-52, 1e300, -0.0):
        assert float(numerics.fmt17(x)) == x
