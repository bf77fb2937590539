import dataclasses
import json
import math

import numpy as np
import pytest

from seqpred.bounds import (
    BoundsInputError,
    check_probabilistic_bounds,
    check_threshold_bounds,
    convergence_trend,
)
from seqpred.measures import BernoulliMeasure, MarkovMeasure, deterministic
from seqpred.numerics import write_json
from seqpred.predictors import (
    LaplaceRulePredictor,
    exact_expectations,
    monte_carlo_expectations,
)
from seqpred.universal import MixtureMeasure, WeightedClass


def standard_run(n=8, rho=True):
    mu = BernoulliMeasure(0.3)
    wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.7)])
    xi = MixtureMeasure(wc)
    report = exact_expectations(
        mu, xi, n, rho=LaplaceRulePredictor() if rho else None
    )
    return wc, report


def relation(report, name):
    match = [r for r in report.relations if r.name == name]
    assert match, f"{name} missing from {[r.name for r in report.relations]}"
    return match[0]


class TestProbabilisticRelations:
    def test_all_pass_on_two_bernoulli(self):
        wc, report = standard_run()
        cap = wc.entropy_budget_nats("bernoulli(0.3)")
        result = check_probabilistic_bounds(report, entropy_cap=cap)
        assert result.passed
        assert result.failures == ()

    def test_margin_arithmetic_from_totals(self):
        wc, report = standard_run()
        result = check_probabilistic_bounds(report)
        e_inf = report.total("informed")
        e_mix = report.total("mixture")
        h = report.total("entropy")
        gap = relation(result, "gap_within_total_variation")
        assert gap.left == pytest.approx(abs(e_mix - e_inf), rel=1e-12)
        assert gap.right == pytest.approx(report.total("distance"), rel=1e-12)
        tv = relation(result, "total_variation_within_entropy_term")
        assert tv.right == pytest.approx(h + math.sqrt(2 * e_inf * h), rel=1e-12)
        quad = relation(result, "quadratic_within_half_entropy")
        assert quad.right == pytest.approx(h / 2, rel=1e-12)

    def test_entropy_gap_relations_need_large_informed_total(self):
        # A deterministic environment has zero informed error, so the
        # conditional pair of relations must be skipped, not failed.
        mu = deterministic("alternating")
        wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.5)])
        report = exact_expectations(mu, MixtureMeasure(wc), 8)
        result = check_probabilistic_bounds(report)
        skipped = relation(result, "mixture_above_informed_entropy_gap")
        assert skipped.verdict == "skipped"
        assert "2 * entropy" in skipped.note
        # Not applicable, yet computed: the sides keep their values
        # (with E_inf = 0 the lower side is H itself).
        assert skipped.left == report.total("entropy") > 0.0
        assert skipped.right == report.total("mixture")
        assert result.passed

    def test_general_relations_present_with_rho(self):
        _, report = standard_run()
        result = check_probabilistic_bounds(report)
        names = {r.name for r in result.relations}
        assert "informed_within_twice_general" in names
        assert "informed_within_twice_general_stepwise" in names
        assert "mixture_within_twice_general_entropy_term" in names

    def test_general_relations_skipped_without_rho(self):
        _, report = standard_run(rho=False)
        result = check_probabilistic_bounds(report)
        skipped = relation(result, "informed_within_twice_general")
        assert skipped.verdict == "skipped"
        assert result.passed

    @pytest.mark.parametrize(
        "check", [check_probabilistic_bounds, check_threshold_bounds],
    )
    def test_unavailable_relations_are_zero_rows(self, check):
        # Without a general predictor or an entropy cap, the three general
        # relations and the budget pair are skipped rows with zero sides.
        _, report = standard_run(rho=False)
        result = check(report)
        notes = {
            "no general predictor in the report": 3,
            "no prior weight for the informed measure; budget skipped": 2,
        }
        zero_rows = [r for r in result.relations if r.note in notes]
        assert len(zero_rows) == sum(notes.values())
        for r in zero_rows:
            assert (r.left, r.right, r.margin) == (0.0, 0.0, 0.0)
            assert (r.strict, r.applicable, r.verdict) == (
                False, False, "skipped",
            )
        assert result.passed

    def test_budget_relations(self):
        wc, report = standard_run()
        cap = wc.entropy_budget_nats("bernoulli(0.3)")
        result = check_probabilistic_bounds(report, entropy_cap=cap)
        budget = relation(result, "entropy_within_budget")
        assert budget.right == pytest.approx(cap, rel=1e-12)
        assert budget.verdict == "pass"
        halved = relation(result, "quadratic_within_half_budget")
        assert halved.right == pytest.approx(cap / 2, rel=1e-12)

    def test_budget_violation_detected(self):
        _, report = standard_run()
        tiny_cap = report.total("entropy") / 2
        result = check_probabilistic_bounds(report, entropy_cap=tiny_cap)
        assert not result.passed
        assert "entropy_within_budget" in result.failures

    def test_singleton_class_zero_entropy_passes(self):
        mu = BernoulliMeasure(0.3)
        xi = MixtureMeasure(WeightedClass([(mu, 0.5)]))
        report = exact_expectations(mu, xi, 6)
        result = check_probabilistic_bounds(report, entropy_cap=0.0)
        assert result.passed

    def test_fabricated_violation_fails(self):
        _, report = standard_run()
        # Inflate the mixture step errors beyond anything the entropy
        # terms allow; the checker has to flag it.
        bad = dataclasses.replace(
            report,
            per_step=dict(report.per_step, mixture=tuple(
                v + 1.0 for v in report.steps("mixture")
            )),
        )
        result = check_probabilistic_bounds(bad)
        assert not result.passed
        assert "gap_within_total_variation" in result.failures

    def test_monte_carlo_report_rejected(self):
        mu = BernoulliMeasure(0.3)
        wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.7)])
        mc = monte_carlo_expectations(mu, MixtureMeasure(wc), 5, samples=100, seed=1)
        with pytest.raises(BoundsInputError, match="exact"):
            check_probabilistic_bounds(mc)


class TestThresholdRelations:
    def test_all_pass_on_two_bernoulli(self):
        wc, report = standard_run()
        cap = wc.entropy_budget_nats("bernoulli(0.3)")
        result = check_threshold_bounds(report, entropy_cap=cap)
        assert result.passed

    def test_gap_terms(self):
        _, report = standard_run()
        result = check_threshold_bounds(report)
        gap = relation(result, "threshold_gap_nonnegative")
        assert gap.left == 0.0
        assert gap.right == pytest.approx(
            report.total("threshold_mixture") - report.total("threshold_informed"),
            rel=1e-9,
        )
        envelope = relation(result, "threshold_gap_within_entropy_term")
        h = report.total("entropy")
        t_inf = report.total("threshold_informed")
        assert envelope.right == pytest.approx(
            h + math.sqrt(4 * t_inf * h + h * h), rel=1e-12
        )

    def test_step_sum_equality_detects_perturbation(self):
        _, report = standard_run()
        bad = dataclasses.replace(
            report,
            per_step=dict(report.per_step, threshold_gap=tuple(
                v + 1e-6 for v in report.steps("threshold_gap")
            )),
        )
        result = check_threshold_bounds(bad)
        assert "threshold_gap_matches_step_sum" in result.failures

    def test_report_round_trip(self, tmp_path):
        wc, report = standard_run()
        result = check_threshold_bounds(report)
        path = tmp_path / "bounds.json"
        write_json(path, result.to_dict())
        payload = json.loads(path.read_text())
        assert payload["schema"] == "bound-report/1"
        assert payload["passed"] is True
        assert {r["name"] for r in payload["relations"]} == {
            r.name for r in result.relations
        }

    def test_format_table_mentions_every_relation(self):
        _, report = standard_run()
        result = check_threshold_bounds(report)
        table = result.format_table()
        for rel in result.relations:
            assert rel.name in table


class TestStrictness:
    def test_strict_relations_require_positive_margin_with_entropy(self):
        _, report = standard_run()
        result = check_probabilistic_bounds(report)
        strict_names = [r.name for r in result.relations if r.strict]
        assert strict_names
        for r in result.relations:
            if r.strict and r.verdict == "pass":
                assert r.margin > 0.0

    def test_zero_entropy_tolerates_zero_margin(self):
        mu = BernoulliMeasure(0.5)
        xi = MixtureMeasure(WeightedClass([(mu, 1.0)]))
        report = exact_expectations(mu, xi, 4)
        result = check_probabilistic_bounds(report)
        tv = relation(result, "total_variation_within_entropy_term")
        assert tv.verdict == "pass"
        assert tv.margin == pytest.approx(0.0, abs=1e-12)


class TestTrend:
    def sweep(self, horizons=(4, 6, 8, 10, 12)):
        mu = BernoulliMeasure(0.3)
        wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.7)])
        xi = MixtureMeasure(wc)
        return [exact_expectations(mu, xi, n) for n in horizons]

    def test_envelopes_hold(self):
        trend = convergence_trend(self.sweep())
        assert trend.passed
        for row in trend.rows:
            assert row.ratio_excess <= row.ratio_envelope + 1e-12
            assert row.threshold_ratio_excess <= row.threshold_ratio_envelope + 1e-12

    def test_horizons_must_increase(self):
        reports = self.sweep((4, 6))
        with pytest.raises(BoundsInputError, match="horizons must increase"):
            convergence_trend(list(reversed(reports)))

    def test_monotone_informed_totals_required(self):
        reports = self.sweep((4, 8))
        swapped = [reports[0], dataclasses.replace(
            reports[1],
            per_step=dict(reports[1].per_step, informed=(0.0,) * 8),
        )]
        with pytest.raises(BoundsInputError, match="not monotone"):
            convergence_trend(swapped)

    def test_zero_informed_fallback(self):
        mu = deterministic("alternating")
        wc = WeightedClass.with_index_code_weights([mu, BernoulliMeasure(0.5)])
        xi = MixtureMeasure(wc)
        reports = [exact_expectations(mu, xi, n) for n in (4, 8)]
        trend = convergence_trend(reports)
        assert trend.passed
        for row in trend.rows:
            assert "zero informed total" in row.note

    def test_trend_serialization(self, tmp_path):
        trend = convergence_trend(self.sweep((4, 8, 12)))
        path = tmp_path / "trend.json"
        write_json(path, trend.to_dict())
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert len(payload["rows"]) == 3


class TestTieConstant:
    # A symmetric class puts the mixture's first conditional at exactly
    # one half, so the tie rule decides the first deterministic call.
    # Flipping it changes the error ledger yet every relation still
    # holds; nothing downstream is allowed to depend on the choice.

    def tied_report(self, n=6):
        # 0.4/0.6 lands the root conditional on 0.5 with no rounding
        # residue; 0.3/0.7 misses it by one ulp in log space.
        mu = BernoulliMeasure(0.4)
        wc = WeightedClass.uniform([mu, BernoulliMeasure(0.6)])
        return exact_expectations(mu, MixtureMeasure(wc), n)

    def test_relations_hold_for_either_tie(self, monkeypatch):
        from seqpred import numerics

        totals = {}
        for tie in (0, 1):
            monkeypatch.setattr(numerics, "TIE_PREDICTION", tie)
            report = self.tied_report()
            assert check_threshold_bounds(report).passed
            assert check_probabilistic_bounds(report).passed
            totals[tie] = report.total("threshold_mixture")
        # the flip is real: the first call goes the other way on the
        # tied context, trading 0.4 against 0.6 of a step error
        assert totals[0] != totals[1]

    def test_first_step_error_tracks_the_tie(self, monkeypatch):
        from seqpred import numerics

        for tie, expected in ((0, 0.4), (1, 0.6)):
            monkeypatch.setattr(numerics, "TIE_PREDICTION", tie)
            report = self.tied_report(n=1)
            assert report.steps("threshold_mixture")[0] == pytest.approx(expected)
