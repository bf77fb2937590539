"""Command-line front end for experiments.

Five subcommands share one config format: verify-bounds runs the exact
error accounting and checks every bound relation; inequalities scans
the pointwise inequalities on dense grids; dicegame plays the betting
game and prints the analytic turnaround bound next to the empirical
crossing; simulate emits expectation reports (exact or Monte Carlo);
approximate-m enumerates machine programs into a semimeasure table.

Exit codes: 0 on success, 1 when a checked bound or admissible-region
scan fails or stdout is closed before the run ends (``| head``), 2 for
configuration or usage errors.  Each subcommand reads its config,
computes, then writes: nothing is printed and ``--out`` is not made
until all of its work is done, so a config error leaves no output.
Outputs are deterministic functions of the config and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import config as cfg
from .bounds import (
    check_probabilistic_bounds,
    check_threshold_bounds,
    convergence_trend,
)
from .dicegame import (
    CALLERS,
    GAME_MODES,
    caller,
    dealer_rule,
    first_profitable_round,
    mean_profit_trace,
    play,
    run_turnaround_experiment,
)
from .inequality_lab import GridError, run_all_scans
from .measures import BinaryString, MeasureError
from .numerics import fmt17, write_csv, write_json
from .predictors import exact_ladder, monte_carlo_ladder
from .semimeasure import (
    MACHINES,
    SemimeasureError,
    approximate_mass,
    normalize,
)

CONFIG_ERRORS = (cfg.ConfigError, MeasureError, GridError, SemimeasureError)


def _out_path(text: str) -> Path:
    """--out: a directory, or a path under one that can become one."""
    out = Path(text)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise argparse.ArgumentTypeError(f"{path} is not a directory")
            break
    return out


def _thread_count(text: str) -> int:
    """--threads: a worker count, an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return int(text)


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def cmd_verify_bounds(args, config: dict) -> int:
    mode, _samples, _seed = cfg.resolve_mode(config)
    if mode != "exact":
        raise cfg.ConfigError(
            "verify-bounds requires exact mode; bound checks do not accept "
            "Monte Carlo estimates"
        )
    weighted, xi, mu = cfg.mixture_from_config(config)
    rho = cfg.build_predictor(config["rho"]) if "rho" in config else None
    horizons = cfg.resolve_horizons(config)
    cap = (
        weighted.entropy_budget_nats(mu.name)
        if mu in weighted.measures()
        else None
    )
    reports = exact_ladder(mu, xi, horizons, rho=rho)
    checks = [
        (r.horizon, check_probabilistic_bounds(r, entropy_cap=cap),
         check_threshold_bounds(r, entropy_cap=cap))
        for r in reports
    ]
    trend = convergence_trend(reports)
    all_passed = trend.passed and all(
        p.passed and t.passed for _h, p, t in checks
    )

    out = _out_dir(args)
    for _h, probabilistic, threshold in checks:
        print(probabilistic.format_table())
        print(threshold.format_table())
    write_json(out / "verify-bounds.json", {
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


def cmd_inequalities(args, config: dict) -> int:
    section = cfg.read_section(config, "inequalities", ("grid", "explore"))
    grid = cfg.build_grid_spec(section.get("grid", {}))
    explore_pairs = cfg.build_explore_pairs(section.get("explore", {}))
    strict, explored = run_all_scans(
        grid, explore_pairs=explore_pairs, threads=args.threads,
    )
    out = _out_dir(args)
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


def cmd_dicegame(args, config: dict) -> int:
    section = cfg.read_section(config, "game", (
        "spec", "rule", "rounds", "games", "seed", "mode", "predictors",
    ))
    spec = cfg.build_game_spec(section.get("spec", {}))
    rule = dealer_rule(section.get("rule", "constant-die1"))
    rounds = cfg.int_field(section, "rounds", 400, 1, "game")
    games = cfg.int_field(section, "games", 100, 1, "game")
    mode = section.get("mode", "sampled")
    if mode not in GAME_MODES:
        raise cfg.ConfigError(
            f"game.mode must be one of {list(GAME_MODES)}, got {mode!r}"
        )
    seed = (
        args.seed if args.seed is not None
        else cfg.int_field(section, "seed", 0, 0, "game")
    )
    names = section.get("predictors", list(CALLERS)[:5])
    if not isinstance(names, list):
        raise cfg.ConfigError("game.predictors must be a list of names")
    predictors = [caller(name, rule, spec) for name in names]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise cfg.ConfigError(
                f"game.predictors names {name!r} more than once"
            )
    turnaround = run_turnaround_experiment(
        rule, spec, rounds=rounds, games=games, seed=seed, mode=mode,
    )
    first_traces = []
    results = []
    for i, (name, predictor) in enumerate(zip(names, predictors)):
        traces = [
            play(spec, rule, predictor, rounds, seed=(seed, i, g), mode=mode)
            for g in range(games)
        ]
        mean_trace = mean_profit_trace(traces)
        first_traces.append(traces[0])
        results.append({
            "name": name,
            "mean_profit_per_round_cents": float(mean_trace[-1]) / rounds,
            "crossing_round": first_profitable_round(mean_trace),
        })

    out = _out_dir(args)
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
        "predictors": results,
    }
    print(
        f"rule {rule.name}: complexity {turnaround.complexity_bits:.3f} bits, "
        f"turnaround bound {turnaround.bound_rounds:.1f} rounds, "
        f"empirical crossing "
        f"{turnaround.crossing_round if turnaround.crossing_round else 'none'}"
    )
    for result, trace in zip(results, first_traces):
        trace.write_csv(out / f"trace-{result['name']}.csv")
        print(
            f"{result['name']}: mean profit/round "
            f"{result['mean_profit_per_round_cents']:.2f} cents"
        )
    write_json(out / "dicegame-summary.json", summary)
    return 0


def cmd_simulate(args, config: dict) -> int:
    mode, samples, seed = cfg.resolve_mode(config)
    if args.seed is not None:
        if mode == "exact":
            raise cfg.ConfigError(
                "--seed applies to monte-carlo mode only; exact mode draws "
                "no samples"
            )
        seed = args.seed
    _weighted, xi, mu = cfg.mixture_from_config(config)
    rho = cfg.build_predictor(config["rho"]) if "rho" in config else None
    horizons = cfg.resolve_horizons(config)
    if mode == "exact":
        reports = exact_ladder(mu, xi, horizons, rho=rho)
    else:
        reports = monte_carlo_ladder(
            mu, xi, horizons, samples=samples, seed=seed, rho=rho,
        )

    out = _out_dir(args)
    for report in reports:
        h = report.horizon
        stem = f"expectations-{mode}-n{h}"
        write_json(out / f"{stem}.json", report.to_dict())
        report.write_csv(out / f"{stem}.csv")
        print(
            f"n={h} ({mode}): informed {fmt17(report.total('informed'))}, "
            f"mixture {fmt17(report.total('mixture'))}, "
            f"entropy {fmt17(report.total('entropy'))}"
        )
    return 0


def cmd_approximate_m(args, config: dict) -> int:
    section = cfg.read_section(
        config, "semimeasure", ("machine", "cap", "fuel", "depth"),
    )
    machine_name = section.get("machine", "echo")
    # Compared, not hashed: a config may name a list here.
    if machine_name not in list(MACHINES):
        raise cfg.ConfigError(
            f"unknown machine {machine_name!r}; known: {', '.join(MACHINES)}"
        )
    machine = MACHINES[machine_name]()
    cap = cfg.int_field(section, "cap", 12, 1, "semimeasure")
    fuel = cfg.int_field(section, "fuel", 64, 1, "semimeasure")
    depth = cfg.int_field(section, "depth", 6, 1, "semimeasure")
    table = approximate_mass(machine, cap=cap, fuel=fuel, depth=depth)
    # A context has continuation mass exactly when it is the parent of a
    # priced string.
    contexts = sorted(
        {bits[:-1] for bits in table.units if bits},
        key=lambda bits: (len(bits), bits),
    )
    rows = []
    for bits in contexts:
        p0 = normalize(table, BinaryString(bits), 0)
        rows.append(("".join(map(str, bits)), p0, 1.0 - p0))

    out = _out_dir(args)
    write_json(out / "semimeasure-table.json", table.to_dict())
    write_csv(
        out / "semimeasure-conditionals.csv", ["context", "p0", "p1"], rows,
    )
    print(
        f"{machine_name} machine, cap {cap}, fuel {fuel}, depth {depth}: "
        f"mass(empty) = {fmt17(table.mass(BinaryString.empty()))}, "
        f"{len(table.units)} strings priced"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument(
        "--out", type=_out_path, default=".", help="directory for artifacts",
    )
    parser = argparse.ArgumentParser(
        prog="seqpred",
        description="sequence prediction experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, summary in (
        ("verify-bounds", cmd_verify_bounds,
         "exact error accounting and bound relations"),
        ("inequalities", cmd_inequalities,
         "dense grid scans of the pointwise inequalities"),
        ("dicegame", cmd_dicegame,
         "betting game simulation and turnaround analysis"),
        ("simulate", cmd_simulate, "expectation reports, exact or Monte Carlo"),
        ("approximate-m", cmd_approximate_m,
         "program enumeration into a semimeasure table"),
    ):
        commands[name] = sub.add_parser(name, parents=[common], help=summary)
        commands[name].set_defaults(func=func)
    for name in ("dicegame", "simulate"):
        commands[name].add_argument(
            "--seed", type=int, default=None, help="override the config seed",
        )
    commands["inequalities"].add_argument(
        "--threads", type=_thread_count, default=1,
        help="worker threads for grid scans",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise cfg.ConfigError(f"--seed must be >= 0, got {seed}")
        code = args.func(args, cfg.load_config(args.config))
        sys.stdout.flush()
        return code
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so the
        # interpreter's flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
