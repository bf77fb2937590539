import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqpred.cli as cli
from seqpred import config as cfg
from seqpred import inequality_lab
from seqpred.dicegame import GameSpec
from seqpred.inequality_lab import GridSpec, MarginReport, ScanRow
from seqpred.measures import BernoulliMeasure


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    """Write payload as JSON, or verbatim when it is already JSON text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def two_bernoulli_config(**overrides):
    payload = {
        "class": {
            "components": [
                {"type": "bernoulli", "theta": 0.3},
                {"type": "bernoulli", "theta": 0.7},
            ],
            "weights": "index-code",
        },
        "true_measure": "bernoulli(0.3)",
        "rho": {"type": "laplace"},
        "horizons": [4, 6],
        "mode": "exact",
    }
    payload.update(overrides)
    return payload


def run(argv):
    return cli.main(argv)


def assert_same_files(first, second, names):
    """Both runs wrote exactly names, byte for byte alike."""
    for out in (first, second):
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


class TestVerifyBounds:
    def test_two_bernoulli_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, two_bernoulli_config())
        code = run([
            "verify-bounds", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "verify-bounds.json").read_text())
        assert payload["schema"] == "verify-bounds/1"
        assert payload["passed"] is True
        assert payload["true_measure"] == "bernoulli(0.3)"
        assert payload["horizons"] == [4, 6]
        assert len(payload["checks"]) == 2
        assert payload["entropy_budget_nats"] > 0
        out = capsys.readouterr().out
        assert "verify-bounds: pass" in out

    def test_singleton_class(self, tmp_path):
        config = write_config(tmp_path, two_bernoulli_config(**{
            "class": {
                "components": [{"type": "bernoulli", "theta": 0.5}],
                "weights": [1.0],
            },
            "true_measure": "bernoulli(0.5)",
        }))
        code = run([
            "verify-bounds", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 0

    def test_monte_carlo_mode_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, two_bernoulli_config(
            mode="monte-carlo", samples=100, seed=1,
        ))
        code = run([
            "verify-bounds", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 2
        assert "exact mode" in capsys.readouterr().err

    def test_horizon_beyond_cap_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, two_bernoulli_config(horizons=[40]))
        code = run([
            "verify-bounds", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        code = run([
            "verify-bounds", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        config = write_config(tmp_path, two_bernoulli_config(horizons=[5]))
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run([
                "verify-bounds", "--config", config, "--out", str(out),
            ]) == 0
        assert (
            (first / "verify-bounds.json").read_bytes()
            == (second / "verify-bounds.json").read_bytes()
        )


class TestInequalities:
    def small_grid_config(self, explore=None):
        section = {
            "grid": {
                "y_count": 120, "z_count": 120,
                "refine_per_side": 8, "param_samples": 4,
            },
        }
        if explore is not None:
            section["explore"] = explore
        return {"inequalities": section}

    def test_scan_passes_and_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path, self.small_grid_config(
            explore={"distance": [[1.0, 0.5]]},
        ))
        code = run([
            "inequalities", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 0
        for name in ("distance", "lower", "threshold", "kl_quadratic"):
            assert (tmp_path / f"margins-{name}.csv").exists()
        assert (tmp_path / "margins-distance-explore.csv").exists()
        out = capsys.readouterr().out
        assert "informational" in out

    def test_reruns_byte_identical(self, tmp_path):
        config = write_config(tmp_path, self.small_grid_config())
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run([
                "inequalities", "--config", config, "--out", str(out),
            ]) == 0
        for name in ("distance", "lower", "threshold", "kl_quadratic"):
            csv_name = f"margins-{name}.csv"
            assert (
                (first / csv_name).read_bytes()
                == (second / csv_name).read_bytes()
            )

    def test_threads_flag_does_not_change_output(self, tmp_path):
        config = write_config(tmp_path, self.small_grid_config())
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        assert run([
            "inequalities", "--config", config, "--out", str(serial),
        ]) == 0
        assert run([
            "inequalities", "--config", config, "--out", str(threaded),
            "--threads", "4",
        ]) == 0
        assert (
            (serial / "margins-lower.csv").read_bytes()
            == (threaded / "margins-lower.csv").read_bytes()
        )

    def test_bad_grid_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "inequalities": {"grid": {"epsilon": 0.0}},
        })
        code = run([
            "inequalities", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def assert_config_error(self, tmp_path, capsys, section):
        config = write_config(tmp_path, {"inequalities": section})
        code = run([
            "inequalities", "--config", config, "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", [
        {"y_count": "20"},
        {"y_count": 20.5},
        {"epsilon": "0.01"},
        {"epsilon": True},
        {"param_seed": "x"},
        {"param_seed": -1},
        {"refine_per_side": 2.5},
        {"param_samples": True},
    ])
    def test_mistyped_grid_field_is_config_error(self, tmp_path, capsys,
                                                 field):
        section = self.small_grid_config()["inequalities"]
        section["grid"].update(field)
        self.assert_config_error(tmp_path, capsys, section)

    @pytest.mark.parametrize("explore", [
        {"distance": [[1.0]]},
        {"distance": [["a", 1.0]]},
        {"distance": [[1.0, 2.0, 3.0]]},
        {"distance": [[1.0, False]]},
        {"distance": 5},
        [["distance", [1.0, 1.2]]],
    ])
    def test_malformed_explore_is_config_error(self, tmp_path, capsys,
                                               explore):
        self.assert_config_error(
            tmp_path, capsys, self.small_grid_config(explore)["inequalities"],
        )

    @pytest.mark.parametrize("extra", [
        {"mode": "bogus"},
        {"mode": "strict"},
        {"explorer": {"distance": [[1.0, 1.2]]}},
    ])
    def test_unknown_section_key_is_config_error(self, tmp_path, capsys,
                                                 extra):
        section = self.small_grid_config()["inequalities"]
        section.update(extra)
        self.assert_config_error(tmp_path, capsys, section)
        assert list(tmp_path.glob("margins-*.csv")) == []

    def test_unknown_explore_name_fails_before_any_scan(
        self, tmp_path, capsys, monkeypatch,
    ):
        def no_scan(spec):
            raise AssertionError("a scan ran before the names were checked")

        monkeypatch.setattr(inequality_lab, "_Mesh", no_scan)
        self.assert_config_error(tmp_path, capsys, self.small_grid_config(
            {"distance": [[1.0, 1.2]], "pinsker": [[1.0, 1.0]]},
        )["inequalities"])

    def test_failing_scan_sets_exit_one(self, tmp_path, monkeypatch):
        # Every shipped inequality holds, so a genuine strict failure
        # cannot be produced from a config; fake one to pin the exit
        # code contract.
        failing = MarginReport(
            inequality="distance", mode="strict", y_count=2, z_count=2,
            epsilon=1e-6,
            rows=(ScanRow(
                a=1.0, b=1.5, admissible=True, min_margin=-0.25,
                argmin_y=0.5, argmin_z=0.9, violations=3,
            ),),
        )
        monkeypatch.setattr(
            cli, "run_all_scans", lambda *a, **k: ([failing], []),
        )
        config = write_config(tmp_path, self.small_grid_config())
        code = run([
            "inequalities", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 1


class TestDicegame:
    def game_config(self, **overrides):
        section = {
            "rule": "constant-die2",
            "rounds": 150,
            "games": 10,
            "seed": 11,
            "predictors": ["threshold-informed", "always-white"],
        }
        section.update(overrides)
        return {"game": section}

    def test_summary_and_traces(self, tmp_path):
        config = write_config(tmp_path, self.game_config())
        code = run(["dicegame", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "dicegame-summary.json").read_text())
        assert payload["schema"] == "dicegame-summary/1"
        assert payload["rule"] == "constant-die2"
        assert payload["turnaround"]["within_bound"] is True
        by_name = {p["name"]: p for p in payload["predictors"]}
        assert set(by_name) == {"threshold-informed", "always-white"}
        # constant-die2 shows white two thirds of the time, so both the
        # informed threshold caller and the constant white caller make
        # money; sampling noise at this size stays well under the mean.
        assert by_name["threshold-informed"][
            "mean_profit_per_round_cents"
        ] == pytest.approx(100 / 3, abs=25)
        for name in by_name:
            assert (tmp_path / f"trace-{name}.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, self.game_config())
        run([
            "dicegame", "--config", config, "--out", str(tmp_path / "a"),
            "--seed", "99",
        ])
        payload = json.loads(
            (tmp_path / "a" / "dicegame-summary.json").read_text()
        )
        assert payload["seed"] == 99

    def test_reruns_byte_identical(self, tmp_path):
        config = write_config(tmp_path, self.game_config(games=5, rounds=30))
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run([
                "dicegame", "--config", config, "--out", str(out),
            ]) == 0
        for name in ("dicegame-summary.json", "trace-always-white.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unknown_predictor(self, tmp_path, capsys):
        config = write_config(
            tmp_path, self.game_config(predictors=["psychic"]),
        )
        code = run(["dicegame", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown game predictor" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"rounds": "40"},
        {"rounds": 40.5},
        {"rounds": 0},
        {"rounds": True},
        {"games": 0},
        {"games": "3"},
        {"seed": "x"},
        {"seed": -1},
        {"seed": 1.5},
        {"predictors": 5},
        {"bogus_key": 1},
        {"predictors": ["laplace", "laplace"]},
    ])
    def test_malformed_game_section_is_config_error(self, tmp_path, capsys,
                                                    field):
        config = write_config(tmp_path, self.game_config(**field))
        code = run(["dicegame", "--config", config, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err
        assert next(iter(field)) in err


class TestSimulate:
    def test_exact_reports(self, tmp_path):
        config = write_config(tmp_path, two_bernoulli_config(horizons=[4]))
        code = run(["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(
            (tmp_path / "expectations-exact-n4.json").read_text()
        )
        assert report["schema"] == "expectation-report/1"
        assert (tmp_path / "expectations-exact-n4.csv").exists()

    def test_monte_carlo_reports(self, tmp_path):
        config = write_config(tmp_path, two_bernoulli_config(
            mode="monte-carlo", samples=500, seed=3, horizons=[6],
        ))
        code = run(["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(
            (tmp_path / "expectations-monte-carlo-n6.json").read_text()
        )
        assert report["mode"] == "monte-carlo"
        assert report["samples"] == 500

    def test_measure_rho_is_the_measure(self, tmp_path):
        measure = {
            "type": "measure", "measure": {"type": "bernoulli", "theta": 0.6},
        }
        assert type(cfg.build_predictor(measure)) is BernoulliMeasure
        for rho, name in (
            (measure, "bernoulli(0.6)"),
            ({"type": "threshold", "base": measure},
             "threshold(bernoulli(0.6))"),
        ):
            config = write_config(
                tmp_path, two_bernoulli_config(horizons=[4], rho=rho),
            )
            assert run(
                ["simulate", "--config", config, "--out", str(tmp_path)]
            ) == 0
            report = json.loads(
                (tmp_path / "expectations-exact-n4.json").read_text()
            )
            assert report["rho"] == name
            assert "general" in report["totals"]

    def test_monte_carlo_reruns_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path, monte_carlo_config(horizons=[3, 6]))
        printed = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(["simulate", "--config", config, "--out", str(out)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert_same_files(tmp_path / "a", tmp_path / "b", [
            f"expectations-monte-carlo-n{h}.{ext}"
            for h in (3, 6) for ext in ("json", "csv")
        ])

    def test_missing_seed_for_monte_carlo(self, tmp_path, capsys):
        config = write_config(tmp_path, two_bernoulli_config(
            mode="monte-carlo", samples=500, horizons=[6],
        ))
        code = run(["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_in_exact_mode_is_a_config_error(self, tmp_path, capsys):
        # Exact mode draws no samples, so a seed it would ignore is refused.
        config = str(CONFIGS / "two_bernoulli.json")
        out = tmp_path / "out"
        code = run([
            "simulate", "--config", config, "--out", str(out), "--seed", "5",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "config error" in captured.err and "--seed" in captured.err
        assert not out.exists()


def monte_carlo_config(**overrides):
    fields = {"mode": "monte-carlo", "samples": 500, "seed": 3,
              "horizons": [4]}
    return two_bernoulli_config(**{**fields, **overrides})


def with_component(spec):
    payload = two_bernoulli_config()
    payload["class"]["components"][1] = spec
    return payload


MARKOV = {"type": "markov", "order": 1, "table": {"": 0.5, "0": 0.8, "1": 0.2}}
GAME = {"game": {"rule": "constant-die2", "rounds": 10, "games": 2}}


def with_class_weights(weights):
    payload = two_bernoulli_config()
    payload["class"]["weights"] = weights
    return payload


# "program:4" outputs a single bit, so both engines fail at the second
# step, after the first horizon's work is done.
SHORT_PROGRAM = dict(
    with_component({"type": "deterministic", "generator": "program:4"}),
    horizons=[1, 6],
)
# A Bernoulli(0.5) truth leaves a class holding only "ones" at zero
# mass on its first 0.
ONES_ONLY = two_bernoulli_config(**{
    "class": {"components": [{"type": "deterministic", "generator": "ones"}]},
    "true_measure": {"type": "bernoulli", "theta": 0.5},
})


def inequalities_text(explore):
    """A small inequalities config as JSON text, explore spelled verbatim."""
    return (
        '{"inequalities": {"grid": {"y_count": 40, "z_count": 40, '
        '"param_samples": 2}, "explore": ' + explore + "}}"
    )


class TestMalformedFields:
    """Fields that ended in a traceback, were ignored, or were checked
    only after some output, before checking, and configs that an engine
    rejects only part-way through its work.

    Each must exit 2 with a config error before anything is printed or
    any artifact is written.
    """

    CASES = {
        "dicegame-seed-flag-negative": ("dicegame", GAME, ["--seed", "-1"]),
        "simulate-seed-flag-negative":
            ("simulate", monte_carlo_config(), ["--seed", "-1"]),
        "samples-string": ("simulate", monte_carlo_config(samples="x"), []),
        "samples-float": ("simulate", monte_carlo_config(samples=2.5), []),
        "samples-one": ("simulate", monte_carlo_config(samples=1), []),
        "seed-string": ("simulate", monte_carlo_config(seed="7"), []),
        "seed-negative": ("simulate", monte_carlo_config(seed=-3), []),
        "seed-bool": ("simulate", monte_carlo_config(seed=True), []),
        "cap-float": ("approximate-m", {"semimeasure": {"cap": 2.5}}, []),
        "depth-string": ("approximate-m", {"semimeasure": {"depth": "6"}}, []),
        "fuel-zero": ("approximate-m", {"semimeasure": {"fuel": 0}}, []),
        "semimeasure-unknown-key":
            ("approximate-m", {"semimeasure": {"bogus": 1}}, []),
        "semimeasure-not-object": ("approximate-m", {"semimeasure": [1]}, []),
        "theta-string": ("simulate", with_component(
            {"type": "bernoulli", "theta": "0.3"}), []),
        "constant-p-string": ("simulate", two_bernoulli_config(
            rho={"type": "constant", "p": "0.5"}), []),
        "markov-order-string":
            ("simulate", with_component(dict(MARKOV, order="1")), []),
        "markov-table-list":
            ("simulate", with_component(dict(MARKOV, table=[1])), []),
        "markov-table-value-string":
            ("simulate", with_component(dict(MARKOV, table={"": "0.5"})), []),
        "generator-int": ("simulate", with_component(
            {"type": "deterministic", "generator": 5}), []),
        "generator-fuel-string": ("simulate", with_component(
            {"type": "deterministic", "generator": "ones", "fuel": "9"}), []),
        "weights-strings": ("simulate", with_class_weights(["a", "b"]), []),
        "horizons-start-string": ("simulate", two_bernoulli_config(
            horizons={"start": "4", "stop": 6}), []),
        "horizons-step-string": ("simulate", two_bernoulli_config(
            horizons={"start": 4, "stop": 6, "step": "x"}), []),
        "horizons-unknown-key": ("simulate", two_bernoulli_config(
            horizons={"start": 4, "stop": 6, "stride": 2}), []),
        "horizon-bool":
            ("verify-bounds", two_bernoulli_config(horizons=[4, True]), []),
        "game-fraction-zero-denominator": ("dicegame", {"game": dict(
            GAME["game"], spec={"die1_white": "1/0"})}, []),
        "game-fraction-infinite": ("dicegame", {"game": dict(
            GAME["game"], spec={"die2_white": float("inf")})}, []),
        "game-mode-unknown": ("dicegame", {"game": dict(
            GAME["game"], mode="bogus")}, []),
        "game-stake-bool": ("dicegame", {"game": dict(
            GAME["game"], spec={"stake_cents": True})}, []),
        "game-payout-bool": ("dicegame", {"game": dict(
            GAME["game"], spec={"stake_cents": 0, "payout_cents": True})}, []),
        "bernoulli-unknown-key": ("simulate", with_component(
            {"type": "bernoulli", "theta": 0.7, "thta": 0.9}), []),
        "markov-unknown-key":
            ("simulate", with_component(dict(MARKOV, orderr=2)), []),
        "deterministic-name": ("simulate", with_component(
            {"type": "deterministic", "generator": "ones", "name": "x"}), []),
        "game-measure-unknown-key": ("simulate", with_component(
            {"type": "game", "rule": "constant-die1", "rounds": 3}), []),
        "true-measure-unknown-key": ("verify-bounds", two_bernoulli_config(
            true_measure={"type": "bernoulli", "theta": 0.3, "p": 1}), []),
        "class-unknown-key": ("simulate", two_bernoulli_config(**{"class": {
            "components": [{"type": "bernoulli", "theta": 0.3}],
            "wieghts": 1,
        }}), []),
        "top-level-unknown-key":
            ("simulate", two_bernoulli_config(sample=100), []),
        "top-level-section-unknown":
            ("verify-bounds", two_bernoulli_config(game={}), []),
        "verify-horizons-repeated":
            ("verify-bounds", two_bernoulli_config(horizons=[2, 2]), []),
        "simulate-horizons-repeated":
            ("simulate", two_bernoulli_config(horizons=[4, 4]), []),
        "simulate-monte-carlo-horizons-repeated":
            ("simulate", monte_carlo_config(horizons=[4, 6, 4]), []),
        "simulate-monte-carlo-horizons-decreasing":
            ("simulate", monte_carlo_config(horizons=[8, 4]), []),
        "simulate-exact-horizon-beyond-cap":
            ("simulate", two_bernoulli_config(horizons=[4, 20]), []),
        "verify-short-program": ("verify-bounds", SHORT_PROGRAM, []),
        "simulate-exact-short-program": ("simulate", SHORT_PROGRAM, []),
        "simulate-monte-carlo-short-program": ("simulate", dict(
            SHORT_PROGRAM, mode="monte-carlo", samples=300, seed=1), []),
        "verify-null-event": ("verify-bounds", ONES_ONLY, []),
        "dicegame-unknown-predictor-after-known": ("dicegame", {"game": dict(
            GAME["game"], predictors=["informed", "bogus"])}, []),
        "measure-name-list": ("simulate", with_component(
            {"type": "bernoulli", "theta": 0.7, "name": ["a"]}), []),
        "true-measure-name-int": ("verify-bounds", two_bernoulli_config(
            true_measure={"type": "bernoulli", "theta": 0.3, "name": 5}), []),
        "rho-unknown-key": ("simulate", two_bernoulli_config(
            rho={"type": "laplace", "bogus": 1}), []),
        "rho-base-unknown-key": ("verify-bounds", two_bernoulli_config(
            rho={"type": "threshold", "base": {"type": "constant", "p": 0.5,
                                               "q": 1}}), []),
        "exact-samples-string": ("verify-bounds", two_bernoulli_config(
            samples="many", seed=[1]), []),
        "exact-seed-list":
            ("simulate", two_bernoulli_config(seed=[1]), []),
        "inequalities-unknown-explore-name": ("inequalities", {"inequalities": {
            "grid": {"y_count": 40, "z_count": 40, "param_samples": 2},
            "explore": {"pinsker": [[1.0, 1.0]]},
        }}, []),
        "explore-pair-infinite": ("inequalities", inequalities_text(
            '{"distance": [[1.0, Infinity]]}'), []),
        "explore-pair-nan": ("inequalities", inequalities_text(
            '{"lower": [[NaN, 1.05]]}'), []),
        "explore-pair-overflow": ("inequalities", inequalities_text(
            '{"threshold": [[1e400, 2.0]]}'), []),
    }

    # (command, payload, text the config error line must hold): paths
    # told apart by their message.
    MESSAGES = {
        "not-json": ("simulate", "{not json", "is not valid JSON"),
        "root-not-object": ("simulate", "[1, 2]",
                            "config root must be a JSON object"),
        "weights-wrong-length": ("simulate", with_class_weights([0.5]),
                                 "class.weights has 1 entries for 2 "
                                 "components"),
        "constant-p-above-one": ("simulate", two_bernoulli_config(
            rho={"type": "constant", "p": 1.5}),
            "rho: probability outside [0, 1]: 1.5"),
        "markov-bad-key": ("simulate", with_component(dict(MARKOV, table={
            "": 0.5, "0": 0.8, "1": 0.2, "2": 0.5})),
            "class.components[1]: bad Markov table key '2'"),
        "markov-value-outside": ("simulate", with_component(dict(
            MARKOV, table={"": 0.5, "0": 1.0, "1": 0.2})),
            "class.components[1]: transition probabilities must lie "
            "strictly inside (0, 1), got '0': 1.0"),
        "game-spec-not-object": ("dicegame", {"game": dict(
            GAME["game"], spec=[300, 500])}, "game.spec must be an object"),
        "game-payout-not-above-stake": ("dicegame", {"game": dict(
            GAME["game"], spec={"stake_cents": 500, "payout_cents": 500})},
            "game.spec: need payout > stake >= 0, got stake 500 and "
            "payout 500"),
        "simulate-horizons-decreasing": ("simulate", two_bernoulli_config(
            horizons=[8, 4]), "horizons must increase, got [8, 4]"),
        "verify-markov-mix-horizons-decreasing": ("verify-bounds", dict(
            json.loads((CONFIGS / "markov_mix.json").read_text()),
            horizons=[14, 4]), "horizons must increase, got [14, 4]"),
        "grid-unknown-key": ("inequalities", {"inequalities": {"grid": {
            "y_count": 40, "z_count": 40, "bogus": 1}}},
            "config error: unknown inequalities.grid keys: ['bogus']"),
        # A spec that borrows a member's name once got that member's
        # entropy budget, and the bound checks failed against it.
        "verify-true-measure-named-like-member": ("verify-bounds",
            two_bernoulli_config(horizons=[8], true_measure={
                "type": "bernoulli", "theta": 0.9, "name": "bernoulli(0.3)"}),
            "config error: true_measure spec is named 'bernoulli(0.3)' like "
            'a class member; select the member by its name, "true_measure": '
            '"bernoulli(0.3)"'),
        "simulate-true-measure-copies-member": ("simulate",
            two_bernoulli_config(true_measure={
                "type": "bernoulli", "theta": 0.7}),
            "true_measure spec is named 'bernoulli(0.7)' like a class member"),
    }

    @pytest.mark.parametrize(
        "command, payload, flags, message",
        [(*case, None) for case in CASES.values()]
        + [(command, payload, [], message)
           for command, payload, message in MESSAGES.values()],
        ids=[*CASES, *MESSAGES],
    )
    def test_is_config_error(self, tmp_path, capsys, command, payload, flags,
                             message):
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        code = run([command, "--config", config, "--out", str(out), *flags])
        printed = capsys.readouterr()
        assert code == 2
        assert "config error" in printed.err
        assert "Traceback" not in printed.err
        assert printed.out == ""
        assert not out.exists()
        if message is not None:
            assert message in printed.err

    def test_nested_measure_error_names_its_path(self, tmp_path, capsys):
        config = write_config(tmp_path, two_bernoulli_config(rho={
            "type": "measure",
            "measure": {"type": "bernoulli", "theta": "x"},
        }))
        code = run(["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "rho.measure.theta must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
    def test_repeated_horizon_names_horizons(self, tmp_path, capsys, command):
        # simulate once ran such a horizon twice, the second run's
        # artifacts overwriting the first's.
        config = write_config(tmp_path, two_bernoulli_config(horizons=[4, 4]))
        code = run([command, "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert (
            "config error: horizons must not repeat, got 4 twice"
            in capsys.readouterr().err
        )

    def test_horizon_range_resolves_in_linear_time(self):
        # Repeats were once found by scanning a list, which took hours
        # on a range of a million horizons.
        stop = 10 ** 6
        assert cfg.resolve_horizons(
            {"horizons": {"start": 1, "stop": stop}}
        ) == list(range(1, stop + 1))
        with pytest.raises(
            cfg.ConfigError, match="^horizons must not repeat, got 4 twice$",
        ):
            cfg.resolve_horizons({"horizons": [4, 4]})

    def test_non_finite_explore_pair_names_its_path(self, tmp_path, capsys):
        config = write_config(
            tmp_path, inequalities_text('{"distance": [[1.0, Infinity]]}'),
        )
        code = run(["inequalities", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert (
            "inequalities.explore.distance entries must be [A, B] pairs of "
            "finite numbers, got [1.0, inf]"
        ) in capsys.readouterr().err


class TestSpecFields:
    """Every GridSpec and GameSpec field refuses a bool and a string by
    its path, as its dataclass type says."""

    SECTIONS = {
        "inequalities": ("inequalities.grid", GridSpec,
                         lambda spec: {"inequalities": {"grid": spec}}),
        "dicegame": ("game.spec", GameSpec,
                     lambda spec: {"game": dict(GAME["game"], spec=spec)}),
    }

    @pytest.mark.parametrize("value", [True, "x"])
    @pytest.mark.parametrize("command, field", [
        (command, field.name)
        for command, (_where, cls, _wrap) in SECTIONS.items()
        for field in dataclasses.fields(cls)
    ])
    def test_mistyped_value_names_its_field(self, tmp_path, capsys, command,
                                            field, value):
        where, _cls, wrap = self.SECTIONS[command]
        config = write_config(tmp_path, wrap({field: value}))
        out = tmp_path / "out"
        code = run([command, "--config", config, "--out", str(out)])
        printed = capsys.readouterr()
        assert code == 2
        assert printed.err.startswith(f"config error: {where}.{field}")
        assert printed.out == ""
        assert not out.exists()


class TestUsageErrors:
    """Usage mistakes exit 2 through argparse before any work runs."""

    COMMANDS = [
        "verify-bounds", "inequalities", "dicegame", "simulate", "approximate-m",
    ]

    def usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        printed = capsys.readouterr()
        assert exc.value.code == 2
        assert "Traceback" not in printed.err
        assert printed.out == ""
        return printed.err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_naming_a_file(self, tmp_path, capsys, command):
        config = write_config(tmp_path, {})
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for out in (taken, taken / "sub"):
            err = self.usage_error(
                capsys, [command, "--config", config, "--out", str(out)],
            )
            assert f"{taken} is not a directory" in err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("command, flags", [
        ("verify-bounds", ["--seed", "5", "--threads", "3"]),
        ("verify-bounds", ["--seed", "5"]),
        ("inequalities", ["--seed", "5"]),
        ("dicegame", ["--threads", "2"]),
        ("simulate", ["--threads", "2"]),
        ("approximate-m", ["--seed", "5"]),
        ("approximate-m", ["--threads", "2"]),
    ])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command,
                                            flags):
        config = write_config(tmp_path, two_bernoulli_config())
        out = tmp_path / "out"
        err = self.usage_error(
            capsys, [command, "--config", config, "--out", str(out), *flags],
        )
        assert "unrecognized arguments" in err
        assert not out.exists()


    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_thread_count_below_one(self, tmp_path, capsys, count):
        config = write_config(tmp_path, {})
        out = tmp_path / "out"
        err = self.usage_error(capsys, [
            "inequalities", "--config", config, "--out", str(out),
            "--threads", count,
        ])
        assert "--threads" in err
        assert not out.exists()


class TestApproximateM:
    def test_writes_table_and_conditionals(self, tmp_path):
        config = write_config(tmp_path, {
            "semimeasure": {
                "machine": "register", "cap": 9, "fuel": 32, "depth": 4,
            },
        })
        code = run([
            "approximate-m", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 0
        table = json.loads(
            (tmp_path / "semimeasure-table.json").read_text()
        )
        assert table["schema"] == "semimeasure-table/1"
        assert table["machine"] == "register"
        lines = (
            (tmp_path / "semimeasure-conditionals.csv")
            .read_text().strip().splitlines()
        )
        assert lines[0] == "context,p0,p1"
        assert len(lines) > 1
        for line in lines[1:]:
            _ctx, p0, p1 = line.split(",")
            assert float(p0) + float(p1) == pytest.approx(1.0)

    def test_reruns_byte_identical(self, tmp_path, capsys):
        config = write_config(tmp_path, {"semimeasure": {
            "machine": "register", "cap": 9, "fuel": 32, "depth": 4,
        }})
        printed = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run([
                "approximate-m", "--config", config, "--out", str(out),
            ]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert_same_files(tmp_path / "a", tmp_path / "b", [
            "semimeasure-table.json", "semimeasure-conditionals.csv",
        ])

    @pytest.mark.parametrize("machine, cap, fuel, depth", [
        ("echo", 6, 3, 3),
        ("echo", 8, 64, 9),
        ("register", 9, 32, 4),
        ("register", 10, 8, 6),
    ])
    def test_conditionals_cover_every_context_with_mass(
            self, tmp_path, machine, cap, fuel, depth):
        config = write_config(tmp_path, {"semimeasure": {
            "machine": machine, "cap": cap, "fuel": fuel, "depth": depth,
        }})
        out = tmp_path / "out"
        assert run([
            "approximate-m", "--config", config, "--out", str(out),
        ]) == 0
        units = json.loads(
            (out / "semimeasure-table.json").read_text()
        )["units"]
        expected = []
        for length in range(depth):
            for i in range(2**length):
                context = format(i, f"0{length}b") if length else ""
                zero = units.get(context + "0", 0)
                one = units.get(context + "1", 0)
                if zero + one:
                    p0 = zero / (zero + one)
                    expected.append([context, p0, 1.0 - p0])
        with open(out / "semimeasure-conditionals.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["context", "p0", "p1"]
        assert [[c, float(p0), float(p1)] for c, p0, p1 in rows[1:]] == (
            expected
        )

    def test_unknown_machine(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "semimeasure": {"machine": "turing"},
        })
        code = run([
            "approximate-m", "--config", config, "--out", str(tmp_path),
        ])
        assert code == 2
        assert "unknown machine" in capsys.readouterr().err


class TestShippedConfigs:
    # The files under configs/ are the documented entry points; they
    # must at least load and name real components.

    def test_all_shipped_configs_parse(self):
        import pathlib

        from seqpred import config as cfg

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(root.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            cfg.load_config(path)

    def test_shipped_experiment_configs_build(self):
        from seqpred import config as cfg

        root = Path(__file__).resolve().parents[1] / "configs"
        built = 0
        for path in sorted(root.glob("*.json")):
            config = cfg.load_config(path)
            if "class" in config:
                cfg.resolve_mode(config)
                cfg.mixture_from_config(config)
                cfg.resolve_horizons(config)
                built += 1
        assert built >= 3

    def test_two_bernoulli_shipped_config_verifies(self, tmp_path):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        code = run([
            "verify-bounds",
            "--config", str(root / "two_bernoulli.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0


class TestArtifactFormat:
    """Every artifact of every subcommand has one format per kind: JSON
    with indent 2, sorted keys and one trailing newline, and CSV exactly
    as csv's default writer writes its own rows back."""

    # (subcommand, shipped config, JSON files, CSV files it writes)
    RUNS = [
        ("verify-bounds", "two_bernoulli", 1, 0),
        ("verify-bounds", "markov_mix", 1, 0),
        ("simulate", "two_bernoulli", 6, 6),
        ("simulate", "markov_mix", 3, 3),
        ("simulate", "monte_carlo", 1, 1),
        ("inequalities", "inequalities", 0, 7),
        ("dicegame", "dicegame", 1, 5),
        ("approximate-m", "semimeasure", 1, 1),
    ]
    # Each run's output directory, so the JSON and CSV checks share it.
    outputs = {}

    def output(self, tmp_path_factory, command, name):
        key = (command, name)
        if key not in self.outputs:
            config = CONFIGS / f"{name}.json"
            out = tmp_path_factory.mktemp("artifacts") / "out"
            flags = ["--threads", "2"] if command == "inequalities" else []
            code = run([command, "--config", str(config), "--out", str(out),
                        *flags])
            assert code == 0
            self.outputs[key] = out
        return self.outputs[key]

    @pytest.mark.parametrize("command, name, count", [r[:3] for r in RUNS])
    def test_json_artifacts_are_canonical(self, tmp_path_factory, command,
                                          name, count):
        out = self.output(tmp_path_factory, command, name)
        written = sorted(out.glob("*.json"))
        assert len(written) == count
        for path in written:
            text = path.read_text()
            canonical = json.dumps(json.loads(text), indent=2, sort_keys=True)
            assert text == canonical + "\n", path.name

    @pytest.mark.parametrize(
        "command, name, count", [(c, n, k) for c, n, _, k in RUNS],
    )
    def test_csv_artifacts_are_canonical(self, tmp_path_factory, command,
                                         name, count):
        out = self.output(tmp_path_factory, command, name)
        written = sorted(out.glob("*.csv"))
        assert len(written) == count
        for path in written:
            with open(path, newline="") as fh:
                text = fh.read()
            canonical = io.StringIO()
            csv.writer(canonical).writerows(csv.reader(io.StringIO(text)))
            assert text == canonical.getvalue(), path.name


class TestClosedStdout:
    def test_verify_bounds_into_a_closed_pipe(self, tmp_path):
        # The reader takes one line and closes the pipe, as `| head -1`
        # does; printing starts once every horizon has been computed.
        config = write_config(
            tmp_path, two_bernoulli_config(horizons=list(range(1, 14))),
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqpred", "verify-bounds",
             "--config", config, "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
        proc.stderr.close()
        assert first == b"probabilistic relations at horizon 1\n"
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
        assert code == 1
