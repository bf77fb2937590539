import math

import pytest

from seqpred.measures import EMPTY, BernoulliMeasure, BinaryString, NullEventError
from seqpred.universal import (
    ClassError,
    MixtureMeasure,
    WeightedClass,
    default_weights,
    index_code_length,
)


def two_bernoulli():
    return WeightedClass.with_index_code_weights(
        [BernoulliMeasure(0.3), BernoulliMeasure(0.7)]
    )


def test_index_code_lengths():
    # 2 floor(log2 i) + 1 bits for index i
    assert [index_code_length(i) for i in range(1, 9)] == [1, 3, 3, 5, 5, 5, 5, 7]
    with pytest.raises(ClassError):
        index_code_length(0)


def test_default_weights_kraft():
    for count in (1, 2, 5, 8, 16):
        weights = default_weights(count)
        assert math.fsum(weights) <= 1.0
        assert weights[0] == 0.5
        assert all(w > 0 for w in weights)


class TestWeightedClass:
    def test_weight_lookup_and_sum(self):
        wc = two_bernoulli()
        assert wc.weight_of("bernoulli(0.3)") == 0.5
        assert wc.weight_of("bernoulli(0.7)") == 0.125
        assert wc.weight_sum == 0.625

    def test_duplicate_names_rejected(self):
        with pytest.raises(ClassError, match="unique"):
            WeightedClass.uniform([BernoulliMeasure(0.3), BernoulliMeasure(0.3)])

    def test_super_kraft_rejected(self):
        with pytest.raises(ClassError, match="above 1"):
            WeightedClass([(BernoulliMeasure(0.3), 0.7), (BernoulliMeasure(0.7), 0.7)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ClassError, match="positive"):
            WeightedClass([(BernoulliMeasure(0.3), 0.0)])

    def test_complexity_surrogate(self):
        wc = two_bernoulli()
        # -log2 of the normalized weight
        assert wc.complexity_surrogate("bernoulli(0.3)") == pytest.approx(
            math.log2(0.625 / 0.5)
        )
        assert wc.entropy_budget_nats("bernoulli(0.7)") == pytest.approx(
            math.log(0.625 / 0.125)
        )

    def test_unknown_member(self):
        with pytest.raises(ClassError, match="no component named"):
            two_bernoulli().weight_of("bernoulli(0.5)")


class TestMixture:
    def test_prefix_probability_is_weighted_average(self):
        wc = two_bernoulli()
        xi = MixtureMeasure(wc)
        s = BinaryString.parse("110")
        expected = (
            0.5 * (0.3**2 * 0.7) + 0.125 * (0.7**2 * 0.3)
        ) / 0.625
        assert xi.prefix_probability(s) == pytest.approx(expected, rel=1e-12)
        assert xi.prefix_probability(EMPTY) == pytest.approx(1.0, rel=1e-12)

    def test_dominates_components(self):
        wc = two_bernoulli()
        xi = MixtureMeasure(wc)
        s = BinaryString.parse("0101101")
        for measure, weight in wc.components:
            floor = (weight / wc.weight_sum) * measure.prefix_probability(s)
            assert xi.prefix_probability(s) >= floor * (1 - 1e-12)

    def test_marginalization(self):
        xi = MixtureMeasure(two_bernoulli())
        for text in ("", "0", "01", "110", "0101"):
            s = BinaryString.parse(text)
            split = xi.prefix_probability(s.extended(0)) + xi.prefix_probability(
                s.extended(1)
            )
            assert split == pytest.approx(xi.prefix_probability(s), abs=1e-12)

    def test_singleton_mixture_equals_component(self):
        m = BernoulliMeasure(0.3)
        xi = MixtureMeasure(WeightedClass([(m, 0.5)]))
        s = BinaryString.parse("01101")
        assert xi.prefix_probability(s) == pytest.approx(
            m.prefix_probability(s), rel=1e-12
        )

    def test_cursor_matches_direct(self):
        # The oracle is the Bayes ratio of the mixture's prefix
        # probabilities, which it prices as a weighted sum, not by the
        # state rule the cursor steps.
        xi = MixtureMeasure(two_bernoulli())
        s = BinaryString.parse("10011")
        cur = xi.cursor()
        for k, bit in enumerate(s):
            ratio = xi.prefix_probability(s.prefix(k + 1)) / (
                xi.prefix_probability(s.prefix(k))
            )
            assert cur.conditional(bit) == pytest.approx(ratio, rel=1e-12)
            assert xi.conditional(s.prefix(k), bit) == cur.conditional(bit)
            cur = cur.advanced(bit)

    def test_mixture_with_dead_component_stays_normalized(self):
        from seqpred.measures import deterministic

        wc = WeightedClass.with_index_code_weights(
            [BernoulliMeasure(0.5), deterministic("ones")]
        )
        xi = MixtureMeasure(wc)
        # After a 0 the all-ones component is ruled out.
        s = BinaryString.parse("0")
        split = xi.prefix_probability(s.extended(0)) + xi.prefix_probability(
            s.extended(1)
        )
        assert split == pytest.approx(xi.prefix_probability(s), rel=1e-12)
        cur = xi.cursor().advanced(0)
        assert cur.conditional(1) == pytest.approx(0.5, rel=1e-12)


class TestPosterior:
    def test_bayes_update_closed_form(self):
        wc = two_bernoulli()
        post = dict(MixtureMeasure(wc).posterior(BinaryString.parse("1")))
        # w_i theta_i renormalized
        num = {"bernoulli(0.3)": 0.5 * 0.3, "bernoulli(0.7)": 0.125 * 0.7}
        total = sum(num.values())
        for name, value in num.items():
            assert post[name] == pytest.approx(value / total, rel=1e-12)

    def test_posterior_starts_at_prior(self):
        wc = two_bernoulli()
        post = dict(MixtureMeasure(wc).posterior(EMPTY))
        assert post["bernoulli(0.3)"] == pytest.approx(0.5 / 0.625)

    def test_posterior_on_null_context(self):
        from seqpred.measures import deterministic

        wc = WeightedClass([(deterministic("ones"), 0.5)])
        with pytest.raises(NullEventError):
            MixtureMeasure(wc).posterior(BinaryString.parse("0"))

    def test_posterior_concentrates(self):
        wc = two_bernoulli()
        heavy_ones = BinaryString((1,) * 40)
        post = dict(MixtureMeasure(wc).posterior(heavy_ones))
        assert post["bernoulli(0.7)"] > 0.999
