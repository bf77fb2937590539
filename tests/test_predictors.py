import collections
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from seqpred import config as cfg
from seqpred.dicegame import GameMeasure, dealer_rule
from seqpred.measures import (
    EMPTY,
    BernoulliMeasure,
    BinaryString,
    MarkovMeasure,
    deterministic,
)
from seqpred.numerics import kl_bernoulli, write_json
from seqpred.predictors import (
    _STEP_FIELDS,
    EXACT_HORIZON_CAP,
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    PredictionError,
    ThresholdPredictor,
    deterministic_wrap,
    exact_expectations,
    exact_ladder,
    monte_carlo_expectations,
    monte_carlo_ladder,
    step_terms,
)
from seqpred.semimeasure import (
    EchoMachine,
    RegisterMachine,
    TableMeasure,
    approximate_mass,
)
from seqpred.universal import MixtureMeasure, WeightedClass


def ratio(measure, ctx):
    """P(next = 1 | ctx) as the ratio of the measure's prefix probabilities."""
    lp = measure.log_prefix_probability(ctx)
    return math.exp(measure.log_prefix_probability(ctx.extended(1)) - lp)


def brute_force_expectations(mu, xi, n, laplace=False):
    """Oracle: enumerate all 2^n paths with plain conditionals.

    Every quantity is recomputed from its defining formula, with no
    shared code with the implementation under test beyond the measures'
    prefix probabilities: y and z are their Bayes ratios, not the state
    rule the engine steps, and the Laplace rule's r is written out.
    """
    step = {
        name: [0.0] * n
        for name in (
            "informed", "mixture", "general", "distance", "quadratic",
            "entropy", "threshold_informed", "threshold_mixture",
        )
    }
    for path in itertools.product((0, 1), repeat=n):
        weight = 1.0
        ctx = EMPTY
        for k, bit in enumerate(path):
            y = ratio(mu, ctx)
            z = ratio(xi, ctx)
            step["informed"][k] += weight * 2 * y * (1 - y)
            step["mixture"][k] += weight * (y * (1 - z) + z * (1 - y))
            if laplace:
                r = (ctx.count(1) + 1) / (len(ctx) + 2)
                step["general"][k] += weight * (y * (1 - r) + r * (1 - y))
            step["distance"][k] += weight * abs(y - z)
            step["quadratic"][k] += weight * (y - z) ** 2
            step["entropy"][k] += weight * kl_bernoulli(y, z)
            step["threshold_informed"][k] += weight * min(y, 1 - y)
            guess = 1 if z > 0.5 else 0
            step["threshold_mixture"][k] += weight * abs(y - guess)
            weight *= y if bit == 1 else 1 - y
            if weight == 0.0:
                break
            ctx = ctx.extended(bit)
    # Each path contributes its weight once per step; dividing by the
    # number of descendants collapses the overcounting.
    for name, values in step.items():
        step[name] = [v / 2 ** (n - k) for k, v in enumerate(values)]
    return step


def telescoped_components():
    return [
        BernoulliMeasure(0.3),
        MarkovMeasure.random(2, np.random.default_rng(7)),
        GameMeasure(dealer_rule("feedback-oppose")),
        TableMeasure(approximate_mass(EchoMachine(), cap=8, fuel=16, depth=8)),
        deterministic("alternating"),  # dies on the first bit off it
    ]


def assert_telescoped_is_the_per_string_route(mu, components, n):
    # The engine prices each leaf with the prefix states it carried
    # down the walk; pricing every mu-positive leaf from its string
    # must give the same terms, so the same fsum, exactly.
    xi = MixtureMeasure(WeightedClass.with_index_code_weights(components))
    report = exact_expectations(mu, xi, n)
    terms = []
    for bits in itertools.product((0, 1), repeat=n):
        leaf = BinaryString(bits)
        lm = mu.log_prefix_probability(leaf)
        if lm > -math.inf:
            lx = xi.log_prefix_probability(leaf)
            terms.append(math.exp(lm) * (lm - lx))
    assert report.telescoped_entropy == math.fsum(terms)


class CountingMixture(MixtureMeasure):
    """A mixture that counts the transitions a walk makes on it: p1 and
    step are read off split, so counting split counts every rule read."""

    def __init__(self, weighted_class):
        super().__init__(weighted_class)
        self.calls = collections.Counter()

    def split(self, state):
        self.calls["split"] += 1
        return super().split(state)


class CountingTable(TableMeasure):
    """A table measure that counts the contexts it is split at; each
    split normalizes the table once."""

    def __init__(self, table):
        super().__init__(table)
        self.split_at = collections.Counter()

    def split(self, state):
        self.split_at[state] += 1
        return super().split(state)


def two_bernoulli_setup():
    mu = BernoulliMeasure(0.3)
    wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.7)])
    return mu, MixtureMeasure(wc)


def named_terms(y, z, r=None):
    return dict(zip(_STEP_FIELDS, step_terms(y, z, r)))


class TestStepQuantities:
    def test_closed_forms(self):
        q = named_terms(2 / 3, 0.5)
        assert q["informed"] == pytest.approx(4 / 9)
        assert q["mixture"] == pytest.approx(0.5)
        assert q["distance"] == pytest.approx(1 / 6)
        assert q["quadratic"] == pytest.approx(1 / 36)
        assert q["entropy"] == pytest.approx(kl_bernoulli(2 / 3, 0.5))
        assert q["threshold_informed"] == pytest.approx(1 / 3)
        # z = 1/2 is a tie and the tie call is 0, so the step error is y
        assert q["threshold_mixture"] == pytest.approx(2 / 3)

    def test_general_error_requires_rho(self):
        assert named_terms(0.3, 0.4)["general"] is None
        assert named_terms(0.3, 0.4, 0.25)["general"] == pytest.approx(
            0.3 * 0.75 + 0.25 * 0.7
        )


class TestPredictors:
    def test_laplace_rule_values(self):
        p = LaplaceRulePredictor()
        assert p.conditional(EMPTY, 1) == pytest.approx(0.5)
        assert p.conditional(BinaryString.parse("1"), 1) == pytest.approx(2 / 3)
        assert p.conditional(BinaryString.parse("10"), 1) == pytest.approx(0.5)
        assert p.conditional(BinaryString.parse("111"), 1) == pytest.approx(4 / 5)

    def test_laplace_cursor_matches(self):
        p = LaplaceRulePredictor()
        s = BinaryString.parse("11010")
        cur = p.cursor()
        for k, bit in enumerate(s):
            assert cur.probability_of_one() == pytest.approx(
                p.conditional(s.prefix(k), 1)
            )
            cur = cur.advanced(bit)

    def test_constant_predictor(self):
        p = ConstantPredictor(0.25)
        assert p.conditional(BinaryString.parse("111"), 1) == 0.25
        cur = p.cursor().advanced(1).advanced(0)
        assert cur.probability_of_one() == 0.25

    def test_threshold_predictor_binary_output(self):
        t = ThresholdPredictor(BernoulliMeasure(0.7))
        assert t.conditional(EMPTY, 1) == 1.0
        low = ThresholdPredictor(BernoulliMeasure(0.3))
        assert low.conditional(EMPTY, 1) == 0.0

    def test_threshold_tie_uses_named_constant(self):
        t = ThresholdPredictor(ConstantPredictor(0.5))
        assert t.conditional(EMPTY, 1) == 0.0

    def test_threshold_wraps_any_state_rule(self):
        # A measure and a wrapped measure threshold alike, under the
        # measure's name.
        bare = ThresholdPredictor(BernoulliMeasure(0.7))
        wrapped = ThresholdPredictor(MeasurePredictor(BernoulliMeasure(0.7)))
        assert bare.name == wrapped.name == "threshold(bernoulli(0.7))"
        assert bare.split(0) == wrapped.split(0) == (1.0, 0, 0)
        assert deterministic_wrap is ThresholdPredictor
        for thing in (0.7, "bernoulli", BinaryString.parse("1")):
            with pytest.raises(PredictionError, match="cannot wrap"):
                ThresholdPredictor(thing)


class TestExactExpectations:
    def test_against_brute_force(self):
        mu, xi = two_bernoulli_setup()
        n = 6
        report = exact_expectations(mu, xi, n, rho=LaplaceRulePredictor())
        oracle = brute_force_expectations(mu, xi, n, laplace=True)
        for name in (
            "informed", "mixture", "general", "distance", "quadratic",
            "entropy", "threshold_informed", "threshold_mixture",
        ):
            got = report.steps(name)
            for k in range(n):
                assert got[k] == pytest.approx(oracle[name][k], abs=1e-12), name

    def test_markov_environment_against_brute_force(self):
        mu = MarkovMeasure(1, {"": 0.5, "0": 0.8, "1": 0.25})
        wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.5)])
        xi = MixtureMeasure(wc)
        report = exact_expectations(mu, xi, 5)
        oracle = brute_force_expectations(mu, xi, 5)
        for name in ("informed", "mixture", "entropy", "threshold_mixture"):
            for k in range(5):
                assert report.steps(name)[k] == pytest.approx(
                    oracle[name][k], abs=1e-12
                )

    def test_singleton_class_gaps_vanish(self):
        mu = BernoulliMeasure(0.3)
        xi = MixtureMeasure(WeightedClass([(mu, 0.5)]))
        report = exact_expectations(mu, xi, 8)
        assert report.total("distance") == pytest.approx(0.0, abs=1e-14)
        assert report.total("entropy") == pytest.approx(0.0, abs=1e-14)
        assert report.total("mixture") == pytest.approx(
            report.total("informed"), rel=1e-12
        )

    def test_per_step_bernoulli_closed_form(self):
        # For a memoryless environment the informed step error is flat.
        mu, xi = two_bernoulli_setup()
        report = exact_expectations(mu, xi, 10)
        for value in report.steps("informed"):
            assert value == pytest.approx(2 * 0.3 * 0.7, rel=1e-12)

    def test_telescoped_entropy_recorded(self):
        mu, xi = two_bernoulli_setup()
        report = exact_expectations(mu, xi, 8)
        assert report.telescoped_entropy == pytest.approx(
            report.total("entropy"), abs=1e-9
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("mu_index", [0, 1], ids=["bernoulli", "markov"])
    def test_telescoped_entropy_equals_the_per_string_route(self, mu_index, n):
        components = telescoped_components()
        assert_telescoped_is_the_per_string_route(components[mu_index],
                                                  components, n)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mu_index", [0, 5],
                             ids=["bernoulli", "register-table"])
    def test_telescoped_entropy_prices_a_register_table(self, mu_index, n):
        # Unlike the echo table's, the register table's conditionals
        # are not all 1/2.  Its mass runs out below length 6, hence the
        # short horizons.  Its bit-0 price, normalize(s, 0) rather than
        # 1 - p1, is pinned in test_semimeasure.py.
        components = telescoped_components() + [TableMeasure(
            approximate_mass(RegisterMachine(), cap=16, fuel=64, depth=8)
        )]
        assert_telescoped_is_the_per_string_route(components[mu_index],
                                                  components, n)

    def test_the_walk_expands_each_node_once_and_never_steps(self):
        # Every node above the leaves splits once, and a leaf is never
        # split: under a full-support mu that is the 2^n - 1 nodes of
        # depth below n.  Any p1 or step read would add a split.
        n = 6
        xi = CountingMixture(WeightedClass.with_index_code_weights(
            telescoped_components()
        ))
        exact_expectations(BernoulliMeasure(0.3), xi, n)
        assert xi.calls == {"split": 2 ** n - 1}

    def test_thresholded_mixture_splits_in_one_pass(self):
        # The threshold wrapper forwards split, so a walk over a
        # thresholded mixture reads one mixture split per node.
        xi = CountingMixture(WeightedClass.with_index_code_weights(
            telescoped_components()
        ))
        rho = ThresholdPredictor(xi)
        state = xi.step(xi.start(), 1)
        xi.calls.clear()
        p1, zero, one = rho.split(state)
        assert xi.calls == {"split": 1}
        expected = MixtureMeasure.split(xi, state)
        assert (zero, one) == expected[1:]
        assert p1 == (1.0 if expected[0] > 0.5 else 0.0)

    def test_horizon_validation(self):
        mu, xi = two_bernoulli_setup()
        with pytest.raises(PredictionError, match="horizon must be >= 1"):
            exact_expectations(mu, xi, 0)
        with pytest.raises(PredictionError, match="exceeds the exact enumeration cap"):
            exact_expectations(mu, xi, EXACT_HORIZON_CAP + 1)

    def test_deterministic_environment_prunes_to_one_path(self):
        mu = deterministic("alternating")
        wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.5)])
        xi = MixtureMeasure(wc)
        report = exact_expectations(mu, xi, 12)
        assert report.total("informed") == 0.0
        # The mixture learns the pattern, so its error mass is finite
        # and bounded by the entropy budget.
        assert report.total("mixture") <= report.total("entropy") + 1e-12

    def test_truncated_consistency(self):
        # A step's expectation does not depend on the horizon.
        mu, xi = two_bernoulli_setup()
        full = exact_expectations(mu, xi, 10)
        short = exact_expectations(mu, xi, 4)
        assert short.horizon == 4
        for name in ("informed", "mixture", "entropy"):
            assert full.steps(name)[:4] == short.steps(name)

    def test_report_serialization(self, tmp_path):
        mu, xi = two_bernoulli_setup()
        report = exact_expectations(mu, xi, 5, rho=LaplaceRulePredictor())
        j = tmp_path / "report.json"
        c = tmp_path / "report.csv"
        write_json(j, report.to_dict())
        report.write_csv(c)
        payload = json.loads(j.read_text())
        assert payload["schema"] == "expectation-report/1"
        assert payload["totals"]["informed"] == report.total("informed")
        lines = c.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("step,informed,mixture,general")


class TestMonteCarlo:
    def test_agrees_with_exact_within_four_se(self):
        mu, xi = two_bernoulli_setup()
        rho = LaplaceRulePredictor()
        n = 6
        exact = exact_expectations(mu, xi, n, rho=rho)
        mc = monte_carlo_expectations(mu, xi, n, samples=20000, seed=11, rho=rho)
        for name in (
            "mixture", "general", "distance", "quadratic", "entropy",
            "threshold_mixture",
        ):
            se = mc.std_errors[name]
            assert abs(mc.total(name) - exact.total(name)) <= 4 * se + 1e-12

    def test_zero_variance_quantities_are_exact(self):
        # informed error depends only on y, which is the same on every
        # Bernoulli path, so sampling introduces no noise at all.
        mu, xi = two_bernoulli_setup()
        mc = monte_carlo_expectations(mu, xi, 4, samples=100, seed=3)
        assert mc.std_errors["informed"] == pytest.approx(0.0, abs=1e-15)
        assert mc.total("informed") == pytest.approx(4 * 2 * 0.3 * 0.7, rel=1e-12)

    # Expected totals over 200 steps for the Bernoulli(0.2) source and an
    # index-code mixture of Bernoulli 0.2, 0.5 and 0.8 (weights 1/2, 1/8,
    # 1/8) with the Laplace rule as general predictor.  The mixture
    # conditional depends only on (step, ones), so these are exact sums
    # over that lattice of binomial path masses, not a tree enumeration.
    LATTICE_N200 = {
        "informed": 64.00000000000023,
        "mixture": 64.70513575815195,
        "general": 65.75788218610006,
        "distance": 1.1752262635862012,
        "quadratic": 0.17520411617583168,
        "entropy": 0.4054621710811718,
        "threshold_informed": 40.00000000000014,
        "threshold_mixture": 40.17578919756295,
        "threshold_gap": 0.17578919756280822,
    }

    def test_long_horizon_agrees_with_lattice_totals(self):
        # Far beyond 63 steps, where a path no longer fits in 64 bits.
        components = [BernoulliMeasure(t) for t in (0.2, 0.5, 0.8)]
        xi = MixtureMeasure(WeightedClass.with_index_code_weights(components))
        mc = monte_carlo_expectations(
            components[0], xi, 200, samples=300, seed=1,
            rho=LaplaceRulePredictor(),
        )
        assert mc.horizon == 200
        assert mc.std_errors.keys() == self.LATTICE_N200.keys()
        for name, exact in self.LATTICE_N200.items():
            se = mc.std_errors[name]
            assert abs(mc.total(name) - exact) <= 4 * se + 1e-12, name

    def test_splits_each_distinct_sampled_prefix_once(self):
        # mu is also a component of xi, so each sampled prefix is split
        # once for mu and once for xi, and xi itself once: no rule is
        # read through p1 and then step.  2,000 samples reach all 255
        # contexts shorter than 8 bits.
        n = 8
        mu = CountingTable(
            approximate_mass(EchoMachine(), cap=10, fuel=64, depth=9)
        )
        xi = CountingMixture(
            WeightedClass.uniform([mu, BernoulliMeasure(0.3)])
        )
        monte_carlo_expectations(mu, xi, n, samples=2000, seed=1)
        contexts = [
            BinaryString(bits)
            for k in range(n) for bits in itertools.product((0, 1), repeat=k)
        ]
        assert mu.split_at == {context: 2 for context in contexts}
        assert xi.calls == {"split": len(contexts)}

    def test_reproducible(self):
        mu, xi = two_bernoulli_setup()
        a = monte_carlo_expectations(mu, xi, 5, samples=500, seed=21)
        b = monte_carlo_expectations(mu, xi, 5, samples=500, seed=21)
        assert a.steps("mixture") == b.steps("mixture")
        c = monte_carlo_expectations(mu, xi, 5, samples=500, seed=22)
        assert a.steps("mixture") != c.steps("mixture")

    def test_validation(self):
        mu, xi = two_bernoulli_setup()
        with pytest.raises(PredictionError):
            monte_carlo_expectations(mu, xi, 5, samples=1, seed=1)
        with pytest.raises(PredictionError, match="seed"):
            monte_carlo_expectations(mu, xi, 5, samples=100, seed=None)


class TestReportLayout:
    ALL = (
        "informed", "mixture", "general", "distance", "quadratic", "entropy",
        "threshold_informed", "threshold_mixture", "threshold_gap",
    )
    RUNS = {
        "exact": lambda mu, xi, rho: exact_expectations(mu, xi, 6, rho=rho),
        "monte-carlo": lambda mu, xi, rho: monte_carlo_expectations(
            mu, xi, 6, samples=300, seed=5, rho=rho,
        ),
    }

    @pytest.mark.parametrize("mode", RUNS)
    def test_rho_adds_only_the_general_entry(self, mode):
        mu, xi = two_bernoulli_setup()
        without = self.RUNS[mode](mu, xi, None)
        with_rho = self.RUNS[mode](mu, xi, LaplaceRulePredictor())
        assert tuple(with_rho.per_step) == self.ALL
        rest = dict(with_rho.per_step)
        del rest["general"]
        assert without.per_step == rest
        assert tuple(without.per_step) == tuple(rest)
        assert without.steps("general") is None
        assert without.total("general") is None
        if mode == "monte-carlo":
            assert tuple(with_rho.std_errors) == self.ALL
            assert without.std_errors.keys() == rest.keys()


class CountingBernoulli(BernoulliMeasure):
    """A Bernoulli measure that counts the splits a walk makes on it."""

    def __init__(self, theta):
        super().__init__(theta)
        self.splits = 0

    def split(self, state):
        self.splits += 1
        return super().split(state)


class TestHorizonLadder:
    """A shorter horizon's per-step columns are the first entries of a
    longer run's, bit for bit, so one walk can serve a whole ladder."""

    CONFIGS = Path(__file__).resolve().parents[1] / "configs"

    def experiment(self, name):
        config = cfg.load_config(self.CONFIGS / name)
        _weighted, xi, mu = cfg.mixture_from_config(config)
        return config, mu, xi, cfg.build_predictor(config["rho"])

    def assert_prefix(self, short, long):
        assert short.per_step.keys() == long.per_step.keys()
        for name, column in short.per_step.items():
            assert list(map(float.hex, column)) == list(
                map(float.hex, long.per_step[name][:short.horizon])
            ), name

    @pytest.mark.parametrize("name", ["two_bernoulli.json", "markov_mix.json"])
    def test_exact_columns_are_prefixes(self, name):
        _config, mu, xi, rho = self.experiment(name)
        self.assert_prefix(
            exact_expectations(mu, xi, 6, rho=rho),
            exact_expectations(mu, xi, 12, rho=rho),
        )

    def test_monte_carlo_columns_are_prefixes(self):
        config, mu, xi, rho = self.experiment("monte_carlo.json")

        def run(n):
            return monte_carlo_expectations(
                mu, xi, n, samples=config["samples"], seed=config["seed"],
                rho=rho,
            )

        self.assert_prefix(run(6), run(10))

    def test_monte_carlo_ladder_rungs_equal_separate_walks(self):
        config, mu, xi, rho = self.experiment("monte_carlo.json")
        samples, seed = config["samples"], config["seed"]
        rungs = monte_carlo_ladder(
            mu, xi, [3, 6, 10], samples=samples, seed=seed, rho=rho,
        )
        assert [report.horizon for report in rungs] == [3, 6, 10]
        for report in rungs:
            alone = monte_carlo_expectations(
                mu, xi, report.horizon, samples=samples, seed=seed, rho=rho,
            )
            assert repr(report.to_dict()) == repr(alone.to_dict())

    def test_monte_carlo_ladder_walks_once_to_the_top_rung(self):
        # One walk splits mu at most once per distinct sampled prefix per
        # step; a walk per rung would split sum(h) = 820 levels' prefixes.
        samples, top = 50, 40
        mu = CountingBernoulli(0.3)
        xi = MixtureMeasure(WeightedClass.uniform(
            [BernoulliMeasure(0.3), BernoulliMeasure(0.7)]
        ))
        rungs = monte_carlo_ladder(
            mu, xi, range(1, top + 1), samples=samples, seed=3,
        )
        assert [report.horizon for report in rungs] == list(range(1, top + 1))
        assert mu.splits <= samples * top

    @pytest.mark.parametrize("case", [
        "two_bernoulli", "markov_mix", "dying_member_no_rho", "table_member",
    ])
    def test_exact_ladder_rungs_equal_separate_walks(self, case):
        if case in ("two_bernoulli", "markov_mix"):
            config, mu, xi, rho = self.experiment(f"{case}.json")
            horizons = cfg.resolve_horizons(config)
        elif case == "dying_member_no_rho":
            # The alternating member dies on the first bit off its
            # pattern, and there is no general predictor.
            mu, rho, horizons = BernoulliMeasure(0.3), None, [2, 5, 9]
            xi = MixtureMeasure(WeightedClass.with_index_code_weights(
                [mu, deterministic("alternating")]
            ))
        else:
            components = telescoped_components()
            mu, rho, horizons = components[3], LaplaceRulePredictor(), [3, 8]
            xi = MixtureMeasure(
                WeightedClass.with_index_code_weights(components)
            )
        rungs = exact_ladder(mu, xi, horizons, rho=rho)
        assert [report.horizon for report in rungs] == horizons
        for report in rungs:
            alone = exact_expectations(mu, xi, report.horizon, rho=rho)
            assert repr(report.to_dict()) == repr(alone.to_dict())

    def test_exact_ladder_walks_once_to_the_top_rung(self):
        # mu has full support, so one walk splits it at each of the
        # 2^12 - 1 nodes above depth 12; a walk per rung would add the
        # 15 + 255 nodes of the rungs below.
        mu = CountingBernoulli(0.3)
        xi = MixtureMeasure(WeightedClass.uniform(
            [BernoulliMeasure(0.3), BernoulliMeasure(0.7)]
        ))
        rungs = exact_ladder(mu, xi, [4, 8, 12])
        assert [report.horizon for report in rungs] == [4, 8, 12]
        assert mu.splits == 2 ** 12 - 1

    @pytest.mark.parametrize("ladder", [
        exact_ladder,
        lambda mu, xi, horizons: monte_carlo_ladder(
            mu, xi, horizons, samples=10, seed=1),
    ], ids=["exact", "monte-carlo"])
    @pytest.mark.parametrize("horizons, message", [
        ([], "need at least one horizon"),
        ([0, 4], "horizon must be >= 1, got 0"),
        ([4, 4], "horizons must increase, got \\[4, 4\\]"),
        ([8, 4], "horizons must increase, got \\[8, 4\\]"),
    ])
    def test_ladders_need_increasing_horizons(self, ladder, horizons,
                                              message):
        mu, xi = two_bernoulli_setup()
        with pytest.raises(PredictionError, match=f"^{message}$"):
            ladder(mu, xi, horizons)
