import json

import pytest

import seqpred.cli as cli
from seqpred import inequality_lab
from seqpred.inequality_lab import MarginReport, ScanRow


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
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

    def test_missing_seed_for_monte_carlo(self, tmp_path, capsys):
        config = write_config(tmp_path, two_bernoulli_config(
            mode="monte-carlo", samples=500, horizons=[6],
        ))
        code = run(["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err


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

    def test_two_bernoulli_shipped_config_verifies(self, tmp_path):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        code = run([
            "verify-bounds",
            "--config", str(root / "two_bernoulli.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
