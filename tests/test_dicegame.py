import csv
import json
import math
from fractions import Fraction

import pytest

import seqpred.cli as cli
import seqpred.dicegame as dicegame
from seqpred.measures import BinaryString
from seqpred.predictors import (
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    ThresholdPredictor,
    exact_expectations,
)
from seqpred.dicegame import (
    CALLERS,
    DEALER_RULES,
    GAME_MODES,
    GameError,
    GameMeasure,
    GameSpec,
    caller,
    dealer_class,
    dealer_rule,
    first_profitable_round,
    mean_profit_trace,
    play,
    profit,
    rule_mixture,
    run_turnaround_experiment,
    turnaround_bound,
    turnaround_coefficient,
)
from seqpred.universal import MixtureMeasure


class TestGameSpec:
    def test_defaults(self):
        spec = GameSpec()
        assert spec.stake_cents == 300
        assert spec.payout_cents == 500
        assert spec.white_probability(1) == Fraction(1, 3)
        assert spec.white_probability(2) == Fraction(2, 3)
        assert spec.winning_threshold == Fraction(2, 5)

    def test_zero_stake_is_legal(self):
        assert GameSpec(stake_cents=0).winning_threshold == 1

    def test_rejections(self):
        with pytest.raises(GameError, match="payout > stake"):
            GameSpec(stake_cents=500, payout_cents=500)
        with pytest.raises(GameError, match="payout > stake"):
            GameSpec(stake_cents=-1)
        with pytest.raises(GameError, match="integer cents"):
            GameSpec(stake_cents=3.0)
        with pytest.raises(GameError, match="integer cents"):
            GameSpec(stake_cents=True)
        with pytest.raises(GameError, match="integer cents"):
            GameSpec(stake_cents=0, payout_cents=True)
        with pytest.raises(GameError, match="not in"):
            GameSpec(die1_white=Fraction(0))
        with pytest.raises(GameError, match="die must be"):
            GameSpec().white_probability(3)


class TestProfit:
    def test_small_cases(self):
        assert profit(3, 1) == 100
        assert profit(9, 3) == 300
        assert profit(1, 0) == 200
        assert profit(1, 1) == -300

    def test_break_even_at_threshold_rate(self):
        # Exactly 2/5 errors per round earns nothing.
        for n in (5, 10, 400):
            assert profit(n, Fraction(2 * n, 5)) == 0

    def test_informed_rates(self):
        # One error in three rounds gains a dollar; two in three loses
        # four thirds of one.
        assert profit(3, 1) == 100
        assert profit(3, Fraction(2)) == pytest.approx(-400, abs=0)
        assert profit(30, Fraction(2 * 30, 3)) == -4000

    def test_affine_strictly_decreasing(self):
        values = [profit(10, e) for e in range(11)]
        diffs = {b - a for a, b in zip(values, values[1:])}
        assert diffs == {-500}

    def test_validation(self):
        with pytest.raises(GameError, match="errors"):
            profit(3, 4)
        with pytest.raises(GameError, match="errors"):
            profit(3, -1)
        with pytest.raises(GameError, match="round count"):
            profit(-1, 0)


class TestTurnaroundArithmetic:
    def test_default_coefficient_is_exact(self):
        assert turnaround_coefficient(GameSpec(), Fraction(1, 3)) == 330

    def test_zero_stake_coefficient(self):
        assert turnaround_coefficient(
            GameSpec(stake_cents=0), Fraction(1, 3)
        ) == 6

    def test_unwinnable_game(self):
        with pytest.raises(GameError, match="not below"):
            turnaround_coefficient(GameSpec(), Fraction(2, 5))
        with pytest.raises(GameError, match="nonnegative"):
            turnaround_coefficient(GameSpec(), Fraction(-1, 10))

    def test_bound_scales_with_complexity(self):
        spec = GameSpec()
        one_bit = turnaround_bound(1.0, spec)
        assert one_bit == pytest.approx(330 * math.log(2.0), rel=1e-15)
        assert turnaround_bound(3.0, spec) == pytest.approx(3 * one_bit)
        assert turnaround_bound(0.0, spec) == 0.0
        with pytest.raises(GameError, match="complexity"):
            turnaround_bound(-0.5, spec)


class TestDealerRules:
    def test_catalog(self):
        assert [r.name for r in DEALER_RULES] == [
            "constant-die1", "constant-die2", "alternate-12", "alternate-21",
            "feedback-repeat", "feedback-oppose", "majority3", "parity3",
        ]
        with pytest.raises(GameError, match="unknown dealer rule"):
            dealer_rule("martingale")

    def test_die_sequences_by_hand(self):
        # die_sequence returns the die for every played round plus the
        # one the dealer would roll next.
        assert dealer_rule("constant-die2").die_sequence((1, 0)) == [2, 2, 2]
        assert dealer_rule("alternate-12").die_sequence((1, 0, 1, 0)) == [
            1, 2, 1, 2, 1,
        ]
        assert dealer_rule("alternate-21").die_sequence((1, 0, 1)) == [
            2, 1, 2, 1,
        ]
        # feedback-repeat: after white switch to the white-heavy die
        assert dealer_rule("feedback-repeat").die_sequence((1, 0, 1, 1)) == [
            1, 2, 1, 2, 2,
        ]
        assert dealer_rule("feedback-oppose").die_sequence((1, 0, 1, 1)) == [
            2, 1, 2, 1, 1,
        ]
        # majority3: die2 once two of the last three outcomes were white
        assert dealer_rule("majority3").die_sequence((1, 1, 0, 1, 0, 0)) == [
            1, 1, 2, 2, 2, 1, 1,
        ]
        # parity3: die2 when the last three outcomes xor to one
        assert dealer_rule("parity3").die_sequence((1, 1, 0, 1)) == [
            1, 2, 1, 1, 1,
        ]


class TestGameMeasure:
    def test_constant_rule_is_bernoulli(self):
        gm = GameMeasure(dealer_rule("constant-die1"), GameSpec())
        assert gm.name == "game(constant-die1)"
        assert gm.conditional(BinaryString.empty(), 0) == pytest.approx(2 / 3)
        assert gm.conditional(BinaryString.parse("0110"), 1) == pytest.approx(
            1 / 3
        )

    def test_feedback_rule_one_bit_lookback(self):
        spec = GameSpec()
        gm = GameMeasure(dealer_rule("feedback-repeat"), spec)
        for text in ("", "0", "1", "010", "0111", "10"):
            ctx = BinaryString.parse(text)
            die = 2 if (len(ctx) and ctx[-1] == 1) else 1
            expected = float(spec.white_probability(die))
            assert gm.conditional(ctx, 1) == pytest.approx(expected)

    def test_marginalization(self):
        gm = GameMeasure(dealer_rule("majority3"), GameSpec())
        for text in ("", "1", "101", "0011"):
            s = BinaryString.parse(text)
            total = sum(gm.prefix_probability(s.extended(b)) for b in (0, 1))
            assert total == pytest.approx(gm.prefix_probability(s))

    def test_cursor_agrees_with_direct(self):
        # parity3 rolls die 2 when an odd number of the last three
        # outcomes (black before round one) were white.
        gm = GameMeasure(dealer_rule("parity3"), GameSpec())
        cursor = gm.cursor()
        ctx = BinaryString.empty()
        for bit in (1, 1, 0, 1, 0):
            die = 2 if sum(ctx.bits[-3:]) % 2 else 1
            expected = 2 / 3 if die == 2 else 1 / 3
            assert cursor.conditional(1) == pytest.approx(expected, rel=1e-15)
            assert gm.conditional(ctx, 1) == cursor.conditional(1)
            cursor = cursor.advanced(bit)
            ctx = ctx.extended(bit)


class TestDealerClass:
    def test_index_code_weights(self):
        wc = dealer_class(GameSpec())
        weights = [wc.weight_of(f"game({r.name})") for r in DEALER_RULES]
        assert weights == [
            0.5, 0.125, 0.125, 0.03125, 0.03125, 0.03125, 0.03125, 0.0078125,
        ]
        assert sum(weights) == 113 / 128

    def test_complexity_bits(self):
        wc = dealer_class(GameSpec())
        total = Fraction(113, 128)
        for rule, weight in zip(
            DEALER_RULES,
            (Fraction(1, 2), Fraction(1, 8), Fraction(1, 8), Fraction(1, 32),
             Fraction(1, 32), Fraction(1, 32), Fraction(1, 32),
             Fraction(1, 128)),
        ):
            bits = wc.complexity_surrogate(f"game({rule.name})")
            assert bits == pytest.approx(math.log2(total / weight), rel=1e-12)


class TestInformedDominance:
    # The thresholded informed caller minimizes the expected error count
    # against every competitor; strictly so whenever the competitor bets
    # interior probabilities, because the dice never make a round a
    # fair coin.

    @pytest.mark.parametrize("rule_name", ["feedback-repeat", "majority3"])
    def test_strict_against_interior_callers(self, rule_name):
        spec = GameSpec()
        mu = GameMeasure(dealer_rule(rule_name), spec)
        xi = rule_mixture(spec)
        rivals = [LaplaceRulePredictor(), mu, xi]
        for rho in rivals:
            report = exact_expectations(mu, xi, 8, rho=rho)
            best = report.total("threshold_informed")
            assert best == pytest.approx(8 / 3, rel=1e-12)
            assert best < report.total("general") - 1e-9
            assert best <= report.total("threshold_mixture") + 1e-12

    def test_always_white_loses_exactly(self):
        # Against the black-heavy die the constant white call errs two
        # rounds in three, a loss of 400/3 cents per round.
        spec = GameSpec()
        mu = GameMeasure(dealer_rule("constant-die1"), spec)
        report = exact_expectations(
            mu, rule_mixture(spec), 9, rho=ConstantPredictor(1.0)
        )
        assert report.total("general") == pytest.approx(6.0, rel=1e-12)
        assert profit(9, Fraction(6)) == -1200


class TestPlay:
    def test_reproducible(self):
        spec = GameSpec()
        rule = dealer_rule("feedback-repeat")
        caller = LaplaceRulePredictor()
        a = play(spec, rule, caller, 50, seed=(4, 0))
        b = play(spec, rule, caller, 50, seed=(4, 0))
        c = play(spec, rule, caller, 50, seed=(4, 1))
        assert a == b
        assert a.outcomes != c.outcomes

    def test_sampled_ledger_is_integer_and_consistent(self):
        spec = GameSpec()
        trace = play(
            spec, dealer_rule("alternate-12"), LaplaceRulePredictor(), 30,
            seed=9,
        )
        assert trace.rounds == 30
        wins = trace.rounds - trace.cumulative_errors[-1]
        assert trace.cumulative_profit[-1] == wins * 500 - 30 * 300
        assert all(isinstance(e, int) for e in trace.cumulative_errors)

    def test_expected_mode_tracks_call_probabilities(self):
        spec = GameSpec()
        trace = play(
            spec, dealer_rule("constant-die2"), ConstantPredictor(0.25), 20,
            seed=2, mode="expected",
        )
        whites = sum(trace.outcomes)
        expected_errors = whites * 0.75 + (20 - whites) * 0.25
        assert trace.cumulative_errors[-1] == pytest.approx(expected_errors)

    @pytest.mark.parametrize("mode", GAME_MODES)
    def test_ledger_identity_holds_every_round(self, mode):
        # Errors and profit are one ledger: after n rounds the profit is
        # (n - errors) * payout - n * stake, expected values included.
        spec = GameSpec(stake_cents=200, payout_cents=450)
        trace = play(
            spec, dealer_rule("majority3"), LaplaceRulePredictor(), 40,
            seed=4, mode=mode,
        )
        for n, (cents, errors) in enumerate(
            zip(trace.cumulative_profit, trace.cumulative_errors), start=1,
        ):
            assert cents == pytest.approx(profit(n, errors, spec), abs=1e-6)

    def test_informed_caller_profit_band(self):
        # 100 games of 400 rounds; the per-round mean sits within a few
        # cents of the exact 100/3.
        spec = GameSpec()
        rule = dealer_rule("constant-die1")
        caller = ThresholdPredictor(GameMeasure(rule, spec))
        traces = [
            play(spec, rule, caller, 400, seed=(5, g)) for g in range(100)
        ]
        per_round = mean_profit_trace(traces)[-1] / 400
        assert per_round == pytest.approx(100 / 3, abs=6.0)

    def test_validation(self):
        spec = GameSpec()
        with pytest.raises(GameError, match="round count"):
            play(spec, dealer_rule("parity3"), LaplaceRulePredictor(), 0, 1)
        with pytest.raises(GameError, match="mode"):
            play(
                spec, dealer_rule("parity3"), LaplaceRulePredictor(), 5, 1,
                mode="antithetic",
            )


class TestCallers:
    def test_roster(self):
        assert list(CALLERS) == [
            "threshold-informed", "informed", "threshold-mixture", "mixture",
            "always-white", "always-black", "laplace",
        ]
        rule = dealer_rule("constant-die2")
        for name in CALLERS:
            predictor = caller(name, rule)
            assert 0.0 <= predictor.p1(predictor.start()) <= 1.0

    def test_informed_and_mixture_callers_are_the_measures(self):
        # Seated bare, a measure plays exactly as it did behind the
        # MeasurePredictor forwarder.
        spec = GameSpec(stake_cents=200)
        rule = dealer_rule("majority3")
        seated = {name: caller(name, rule, spec) for name in CALLERS}
        assert type(seated["informed"]) is GameMeasure
        assert seated["informed"].rule == rule
        assert seated["informed"].spec == spec
        assert type(seated["mixture"]) is MixtureMeasure
        for name in ("informed", "mixture"):
            threshold = seated[f"threshold-{name}"]
            assert type(threshold) is ThresholdPredictor
            assert type(threshold.base) is type(seated[name])
            for bare, wrapped in (
                (seated[name], MeasurePredictor(seated[name])),
                (threshold, ThresholdPredictor(MeasurePredictor(seated[name]))),
            ):
                assert play(spec, rule, bare, 60, seed=4) == play(
                    spec, rule, wrapped, 60, seed=4
                )

    def test_unknown_name_lists_the_known(self):
        with pytest.raises(GameError) as raised:
            caller("psychic", dealer_rule("parity3"), GameSpec())
        assert str(raised.value) == (
            f"unknown game predictor 'psychic'; known: {list(CALLERS)}"
        )
        with pytest.raises(GameError, match="unknown game predictor"):
            caller(["informed"], dealer_rule("parity3"))

    def test_cli_default_roster(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"game": {"rule": "alternate-12", "rounds": 5, "games": 2}}
        ))
        out = tmp_path / "out"
        assert cli.main(
            ["dicegame", "--config", str(config), "--out", str(out)]
        ) == 0
        summary = json.loads((out / "dicegame-summary.json").read_text())
        names = [p["name"] for p in summary["predictors"]]
        assert names == list(CALLERS)[:5]


class TestTraceHelpers:
    def test_mean_profit_trace(self):
        spec = GameSpec()
        rule = dealer_rule("constant-die2")
        caller = ConstantPredictor(1.0)
        traces = [play(spec, rule, caller, 10, seed=(1, g)) for g in range(4)]
        mean = mean_profit_trace(traces)
        assert len(mean) == 10
        assert mean[0] == pytest.approx(
            sum(t.cumulative_profit[0] for t in traces) / 4
        )
        short = play(spec, rule, caller, 5, seed=0)
        with pytest.raises(GameError, match="disagree"):
            mean_profit_trace(traces + [short])
        with pytest.raises(GameError, match="at least one"):
            mean_profit_trace([])

    def test_first_profitable_round(self):
        assert first_profitable_round([-5, 0, 3, -2]) == 3
        assert first_profitable_round([-5, -1, 0]) is None
        assert first_profitable_round([]) is None

    def test_csv_layout(self, tmp_path):
        trace = play(
            GameSpec(), dealer_rule("parity3"), LaplaceRulePredictor(), 6,
            seed=8,
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "round", "cumulative_profit_cents", "cumulative_errors",
        ]
        assert len(rows) == 7
        assert int(rows[3][0]) == 3
        assert int(rows[6][1]) == trace.cumulative_profit[-1]


class TestTurnaroundExperiment:
    def test_unwinnable_game_fails_before_any_play(self, monkeypatch):
        def no_play(*args, **kwargs):
            raise AssertionError("played a game of an unwinnable spec")

        monkeypatch.setattr(dicegame, "play", no_play)
        with pytest.raises(GameError, match="not winnable"):
            run_turnaround_experiment(
                dealer_rule("constant-die1"),
                GameSpec(die1_white=Fraction(1, 2)),
            )

    @pytest.mark.parametrize("rule_name", ["feedback-repeat", "constant-die2"])
    def test_crossing_within_bound(self, rule_name):
        result = run_turnaround_experiment(
            dealer_rule(rule_name), rounds=300, games=60, seed=3,
        )
        assert result.crossing_round is not None
        assert result.within_bound
        assert result.mean_final_profit_cents > 0

    def test_report_dictionary(self):
        result = run_turnaround_experiment(
            dealer_rule("constant-die1"), rounds=80, games=20, seed=1,
        )
        payload = result.to_dict()
        assert payload["rule"] == "constant-die1"
        assert payload["games"] == 20
        assert payload["bound_rounds"] == pytest.approx(
            turnaround_bound(result.complexity_bits)
        )
        assert payload["within_bound"] == result.within_bound
        assert sorted(payload) == [
            "bound_rounds", "complexity_bits", "crossing_round", "games",
            "mean_final_profit_cents", "mode", "rounds", "rule", "seed",
            "within_bound",
        ]
        assert payload["mean_final_profit_cents"] == (
            result.mean_final_profit_cents
        )
