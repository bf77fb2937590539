"""Command-line front end for experiments.

Five subcommands share one config format: verify-bounds runs the exact
error accounting and checks every bound relation; inequalities scans
the pointwise inequalities on dense grids; dicegame plays the betting
game and prints the analytic turnaround bound next to the empirical
crossing; simulate emits expectation reports (exact or Monte Carlo);
approximate-m enumerates machine programs into a semimeasure table.

Exit codes: 0 on success, 1 when a checked bound or admissible-region
scan fails, 2 for configuration or usage errors.  Outputs are
deterministic functions of the config and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfg
from .bounds import (
    check_probabilistic_bounds,
    check_threshold_bounds,
    convergence_trend,
)
from .dicegame import (
    GameMeasure,
    dealer_rule,
    first_profitable_round,
    mean_profit_trace,
    play,
    rule_mixture,
    run_turnaround_experiment,
)
from .inequality_lab import GridError, run_all_scans
from .measures import BinaryString, MeasureError
from .numerics import fmt17
from .predictors import (
    EXACT_HORIZON_CAP,
    ConstantPredictor,
    LaplaceRulePredictor,
    MeasurePredictor,
    deterministic_wrap,
    exact_expectations,
    monte_carlo_expectations,
)
from .semimeasure import (
    EchoMachine,
    RegisterMachine,
    SemimeasureError,
    approximate_mass,
    normalize,
)

CONFIG_ERRORS = (cfg.ConfigError, MeasureError, GridError, SemimeasureError)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_verify_bounds(args) -> int:
    config = cfg.load_config(args.config)
    mode, _samples, _seed = cfg.resolve_mode(config)
    if mode != "exact":
        raise cfg.ConfigError(
            "verify-bounds requires exact mode; bound checks do not accept "
            "Monte Carlo estimates"
        )
    weighted, xi, mu = cfg.mixture_from_config(config)
    rho = cfg.build_predictor(config["rho"]) if "rho" in config else None
    horizons = cfg.resolve_horizons(config)
    for h in horizons:
        if h > EXACT_HORIZON_CAP:
            raise cfg.ConfigError(
                f"horizon {h} exceeds the exact enumeration cap "
                f"{EXACT_HORIZON_CAP}"
            )
    member_names = [m.name for m, _ in weighted.components]
    cap = (
        weighted.entropy_budget_nats(mu.name)
        if mu.name in member_names
        else None
    )

    out = _out_dir(args)
    reports = []
    checks = []
    all_passed = True
    for h in horizons:
        report = exact_expectations(mu, xi, h, rho=rho)
        reports.append(report)
        probabilistic = check_probabilistic_bounds(report, entropy_cap=cap)
        threshold = check_threshold_bounds(report, entropy_cap=cap)
        checks.append((h, probabilistic, threshold))
        all_passed = all_passed and probabilistic.passed and threshold.passed
        print(probabilistic.format_table())
        print(threshold.format_table())
    trend = convergence_trend(reports)
    all_passed = all_passed and trend.passed
    _write_json(out / "verify-bounds.json", {
        "schema": "verify-bounds/1",
        "true_measure": mu.name,
        "mixture": xi.name,
        "entropy_budget_nats": cap,
        "horizons": horizons,
        "checks": [
            {
                "horizon": h,
                "probabilistic": p.to_dict(),
                "threshold": t.to_dict(),
            }
            for h, p, t in checks
        ],
        "trend": trend.to_dict(),
        "passed": all_passed,
    })
    print(f"trend: {'pass' if trend.passed else 'FAIL'}")
    print(f"verify-bounds: {'pass' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def cmd_inequalities(args) -> int:
    config = cfg.load_config(args.config)
    section = config.get("inequalities", {})
    if not isinstance(section, dict):
        raise cfg.ConfigError("inequalities section must be an object")
    grid = cfg.build_grid_spec(section.get("grid", {}))
    explore_pairs = cfg.build_explore_pairs(section.get("explore", {}))
    out = _out_dir(args)
    strict, explored = run_all_scans(
        grid, explore_pairs=explore_pairs, threads=args.threads,
    )
    all_passed = True
    for report in strict:
        report.write_csv(out / f"margins-{report.inequality}.csv")
        all_passed = all_passed and report.passed
        print(
            f"{report.inequality}: min margin {fmt17(report.min_margin)} "
            f"({'pass' if report.passed else 'FAIL'})"
        )
    for report in explored:
        report.write_csv(out / f"margins-{report.inequality}-explore.csv")
        worst = min(report.rows, key=lambda r: r.min_margin)
        print(
            f"{report.inequality} (explore): min margin "
            f"{fmt17(worst.min_margin)} with {worst.violations} violating "
            "cells (informational)"
        )
    return 0 if all_passed else 1


_GAME_PREDICTORS = (
    "threshold-informed",
    "informed",
    "threshold-mixture",
    "mixture",
    "always-white",
    "always-black",
    "laplace",
)


def _game_predictor(name: str, rule, spec):
    if name == "informed":
        return MeasurePredictor(GameMeasure(rule, spec), name="informed")
    if name == "threshold-informed":
        return deterministic_wrap(
            MeasurePredictor(GameMeasure(rule, spec), name="informed")
        )
    if name == "mixture":
        return MeasurePredictor(rule_mixture(spec), name="mixture")
    if name == "threshold-mixture":
        return deterministic_wrap(
            MeasurePredictor(rule_mixture(spec), name="mixture")
        )
    if name == "always-white":
        return ConstantPredictor(1.0, name="always-white")
    if name == "always-black":
        return ConstantPredictor(0.0, name="always-black")
    if name == "laplace":
        return LaplaceRulePredictor()
    raise cfg.ConfigError(
        f"unknown game predictor {name!r}; known: {list(_GAME_PREDICTORS)}"
    )


def cmd_dicegame(args) -> int:
    config = cfg.load_config(args.config)
    section = config.get("game", {})
    if not isinstance(section, dict):
        raise cfg.ConfigError("game section must be an object")
    spec = cfg.build_game_spec(section.get("spec", {}))
    rule = dealer_rule(section.get("rule", "constant-die1"))
    rounds = section.get("rounds", 400)
    games = section.get("games", 100)
    mode = section.get("mode", "sampled")
    seed = args.seed if args.seed is not None else section.get("seed", 0)
    names = section.get("predictors", list(_GAME_PREDICTORS[:5]))

    out = _out_dir(args)
    turnaround = run_turnaround_experiment(
        rule, spec, rounds=rounds, games=games, seed=seed, mode=mode,
    )
    summary = {
        "schema": "dicegame-summary/1",
        "rule": rule.name,
        "stake_cents": spec.stake_cents,
        "payout_cents": spec.payout_cents,
        "rounds": rounds,
        "games": games,
        "seed": seed,
        "mode": mode,
        "turnaround": turnaround.to_dict(),
        "predictors": [],
    }
    print(
        f"rule {rule.name}: complexity {turnaround.complexity_bits:.3f} bits, "
        f"turnaround bound {turnaround.bound_rounds:.1f} rounds, "
        f"empirical crossing "
        f"{turnaround.crossing_round if turnaround.crossing_round else 'none'}"
    )
    for i, name in enumerate(names):
        predictor = _game_predictor(name, rule, spec)
        traces = [
            play(spec, rule, predictor, rounds, seed=(seed, i, g), mode=mode)
            for g in range(games)
        ]
        mean_trace = mean_profit_trace(traces)
        per_round = float(mean_trace[-1]) / rounds
        traces[0].write_csv(out / f"trace-{name}.csv")
        summary["predictors"].append({
            "name": name,
            "mean_profit_per_round_cents": per_round,
            "crossing_round": first_profitable_round(mean_trace),
        })
        print(f"{name}: mean profit/round {per_round:.2f} cents")
    _write_json(out / "dicegame-summary.json", summary)
    return 0


def cmd_simulate(args) -> int:
    config = cfg.load_config(args.config)
    mode, samples, seed = cfg.resolve_mode(config)
    if args.seed is not None:
        seed = args.seed
    _weighted, xi, mu = cfg.mixture_from_config(config)
    rho = cfg.build_predictor(config["rho"]) if "rho" in config else None
    horizons = cfg.resolve_horizons(config)
    out = _out_dir(args)
    for h in horizons:
        if mode == "exact":
            report = exact_expectations(mu, xi, h, rho=rho)
        else:
            report = monte_carlo_expectations(
                mu, xi, h, samples=samples, seed=seed, rho=rho,
            )
        stem = f"expectations-{mode}-n{h}"
        report.write_json(out / f"{stem}.json")
        report.write_csv(out / f"{stem}.csv")
        print(
            f"n={h} ({mode}): informed {fmt17(report.informed_total)}, "
            f"mixture {fmt17(report.mixture_total)}, "
            f"entropy {fmt17(report.entropy_total)}"
        )
    return 0


def cmd_approximate_m(args) -> int:
    config = cfg.load_config(args.config)
    section = config.get("semimeasure", {})
    if not isinstance(section, dict):
        raise cfg.ConfigError("semimeasure section must be an object")
    machine_name = section.get("machine", "echo")
    if machine_name == "echo":
        machine = EchoMachine()
    elif machine_name == "register":
        machine = RegisterMachine()
    else:
        raise cfg.ConfigError(
            f"unknown machine {machine_name!r}; known: echo, register"
        )
    cap = section.get("cap", 12)
    fuel = section.get("fuel", 64)
    depth = section.get("depth", 6)
    table = approximate_mass(machine, cap=cap, fuel=fuel, depth=depth)
    out = _out_dir(args)
    with open(out / "semimeasure-table.json", "w") as fh:
        fh.write(table.to_json())
    rows = []
    for length in range(depth):
        for i in range(2**length):
            bits = format(i, f"0{length}b") if length else ""
            s = BinaryString.parse(bits)
            try:
                p0 = normalize(table, s, 0)
            except SemimeasureError:
                continue
            rows.append((bits, p0, 1.0 - p0))
    with open(out / "semimeasure-conditionals.csv", "w", newline="") as fh:
        fh.write("context,p0,p1\n")
        for bits, p0, p1 in rows:
            fh.write(f"{bits},{fmt17(p0)},{fmt17(p1)}\n")
    empty = BinaryString.empty()
    print(
        f"{machine_name} machine, cap {cap}, fuel {fuel}, depth {depth}: "
        f"mass(empty) = {fmt17(table.mass(empty))}, "
        f"{len(table.units)} strings priced"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument("--out", default=".", help="directory for artifacts")
    common.add_argument(
        "--seed", type=int, default=None,
        help="override the config seed where one applies",
    )
    common.add_argument(
        "--threads", type=int, default=1,
        help="worker threads for grid scans",
    )
    parser = argparse.ArgumentParser(
        prog="seqpred",
        description="sequence prediction experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "verify-bounds", parents=[common],
        help="exact error accounting and bound relations",
    ).set_defaults(func=cmd_verify_bounds)
    sub.add_parser(
        "inequalities", parents=[common],
        help="dense grid scans of the pointwise inequalities",
    ).set_defaults(func=cmd_inequalities)
    sub.add_parser(
        "dicegame", parents=[common],
        help="betting game simulation and turnaround analysis",
    ).set_defaults(func=cmd_dicegame)
    sub.add_parser(
        "simulate", parents=[common],
        help="expectation reports, exact or Monte Carlo",
    ).set_defaults(func=cmd_simulate)
    sub.add_parser(
        "approximate-m", parents=[common],
        help="program enumeration into a semimeasure table",
    ).set_defaults(func=cmd_approximate_m)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
