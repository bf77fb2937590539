import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqpred.measures import (
    EMPTY,
    BernoulliMeasure,
    BinaryString,
    MarkovMeasure,
    MeasureError,
    NullEventError,
    chain_probability,
    deterministic,
)
from seqpred.universal import MixtureMeasure, WeightedClass

bits_strategy = st.lists(st.integers(0, 1), max_size=10).map(
    lambda bs: BinaryString(tuple(bs))
)


class TestBinaryString:
    def test_parse_and_str(self):
        s = BinaryString.parse("0110")
        assert str(s) == "0110"
        assert len(s) == 4
        assert s[1] == 1
        assert s.count(1) == 2

    def test_extended_and_prefix(self):
        s = BinaryString.parse("01")
        assert str(s.extended(1)) == "011"
        assert s.prefix(1) == BinaryString.parse("0")
        assert BinaryString.empty() == EMPTY

    def test_rejects_non_bits(self):
        with pytest.raises(MeasureError):
            BinaryString((0, 2))
        with pytest.raises(MeasureError):
            BinaryString.parse("01x")


class TestBernoulli:
    def test_prefix_probability_closed_form(self):
        m = BernoulliMeasure(0.3)
        s = BinaryString.parse("101")
        # theta^ones (1-theta)^zeros
        assert m.prefix_probability(s) == pytest.approx(0.3**2 * 0.7, rel=1e-14)
        assert m.prefix_probability(EMPTY) == 1.0

    def test_conditional_is_memoryless(self):
        m = BernoulliMeasure(0.3)
        assert m.conditional(EMPTY, 1) == pytest.approx(0.3)
        assert m.conditional(BinaryString.parse("0011"), 1) == pytest.approx(0.3)

    def test_rejects_endpoint_theta(self):
        with pytest.raises(MeasureError, match="deterministic"):
            BernoulliMeasure(0.0)
        with pytest.raises(MeasureError, match="deterministic"):
            BernoulliMeasure(1.0)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        bits_strategy,
    )
    def test_marginalization(self, theta, s):
        m = BernoulliMeasure(theta)
        p = m.prefix_probability(s)
        split = m.prefix_probability(s.extended(0)) + m.prefix_probability(
            s.extended(1)
        )
        assert split == pytest.approx(p, abs=1e-12)


def random_markov(order, seed):
    return MarkovMeasure.random(order, np.random.default_rng(seed))


class TestMarkov:
    def test_hand_table(self):
        m = MarkovMeasure(1, {"": 0.5, "0": 0.8, "1": 0.25})
        assert m.conditional(EMPTY, 1) == 0.5
        assert m.conditional(BinaryString.parse("10"), 1) == 0.8
        assert m.conditional(BinaryString.parse("01"), 1) == 0.25
        # chain: p(01) = 0.5 * 0.8
        assert m.prefix_probability(BinaryString.parse("01")) == pytest.approx(0.4)

    def test_missing_pattern_rejected(self):
        with pytest.raises(MeasureError, match="missing"):
            MarkovMeasure(1, {"": 0.5, "0": 0.8})

    def test_order_bounds(self):
        with pytest.raises(MeasureError):
            MarkovMeasure(0, {"": 0.5})
        with pytest.raises(MeasureError):
            MarkovMeasure(5, {})

    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(0, 10**6), bits_strategy)
    def test_marginalization(self, order, seed, s):
        m = random_markov(order, seed)
        p = m.prefix_probability(s)
        split = m.prefix_probability(s.extended(0)) + m.prefix_probability(
            s.extended(1)
        )
        assert split == pytest.approx(p, abs=1e-12)

    def test_chain_probability_agrees(self):
        # chain_probability replays the state rule; the Markov measure
        # prices rho(s) with the same chain, so the oracle is the mixture
        # of it and a Bernoulli, whose prefix probability is a weighted
        # sum of the components' own prices.
        xi = MixtureMeasure(WeightedClass.with_index_code_weights(
            [random_markov(2, 42), BernoulliMeasure(0.3)]
        ))
        s = BinaryString.parse("1101001")
        assert chain_probability(xi, s) == pytest.approx(
            xi.prefix_probability(s), rel=1e-12
        )
        table = {"": 0.5, "0": 0.8, "1": 0.25}
        m = MarkovMeasure(1, table)
        # P(1101001) = P(1) P(1|1) P(0|1) P(1|0) P(0|1) P(0|0) P(1|0)
        expected = 0.5 * 0.25 * 0.75 * 0.8 * 0.75 * 0.2 * 0.8
        assert chain_probability(m, s) == pytest.approx(expected, rel=1e-12)


class TestDeterministic:
    def test_alternating(self):
        m = deterministic("alternating")
        assert m.prefix_probability(BinaryString.parse("0101")) == 1.0
        assert m.prefix_probability(BinaryString.parse("11")) == 0.0
        assert m.conditional(BinaryString.parse("01"), 0) == 1.0

    def test_ones_behaves_like_a_point_mass(self):
        # The Bernoulli constructor refuses theta = 1; the point mass on
        # the all-ones path is spelled as a deterministic measure.
        m = deterministic("ones")
        assert m.prefix_probability(BinaryString((1,) * 16)) == 1.0
        assert m.prefix_probability(BinaryString((1,) * 15 + (0,))) == 0.0

    def test_chain_stops_at_the_first_impossible_bit(self):
        m = deterministic("zeros")
        assert chain_probability(m, BinaryString.parse("0010")) == 0.0
        assert chain_probability(m, BinaryString.parse("000")) == 1.0

    def test_null_event_conditioning(self):
        m = deterministic("zeros")
        with pytest.raises(NullEventError, match="conditioning on null event"):
            m.conditional(BinaryString.parse("1"), 0)

    def test_program_generator(self):
        # OUT1 OUT0 REP REP HALT, as hex; emits 10 then doubles twice.
        m = deterministic("program:47F0")
        assert m.prefix_probability(BinaryString.parse("10101010")) == 1.0
        assert m.prefix_probability(BinaryString.parse("10101011")) == 0.0

    def test_program_exhaustion_raises(self):
        m = deterministic("program:47F0")
        with pytest.raises(MeasureError, match="out of range"):
            m.prefix_probability(BinaryString.parse("101010101"))

    def test_unknown_generator(self):
        with pytest.raises(MeasureError, match="unknown generator"):
            deterministic("fibonacci")


class TestCursor:
    def test_cursor_tracks_direct_conditionals(self):
        # The oracle looks each conditional up in the table by the last
        # two bits, outside the state rule.
        table = {
            "": 0.5, "0": 0.8, "1": 0.25,
            "00": 0.3, "01": 0.6, "10": 0.45, "11": 0.9,
        }
        m = MarkovMeasure(2, table)
        s = BinaryString.parse("110100")
        cur = m.cursor()
        for k, bit in enumerate(s):
            p1 = table[str(s.prefix(k))[-2:]]
            assert cur.conditional(1) == p1
            assert cur.conditional(0) == 1.0 - p1
            assert m.conditional(s.prefix(k), bit) == cur.conditional(bit)
            cur = cur.advanced(bit)
