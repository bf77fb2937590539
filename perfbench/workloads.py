"""Workload items: built from generated configs, run, checked, digested.

A workload is built once from its generated inputs through
`seqpred.config` and the public constructors (that build is set-up
time), then runs the same jobs on every pass.  A job is one call chain
into seqpred, the same public entry points as the matching CLI
subcommand, and yields one or more items; each item's output is checked
against the package's acceptance contract and digested, outside the
timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import time
from dataclasses import dataclass

from seqpred import (
    bounds,
    config,
    dicegame,
    inequality_lab,
    predictors,
    semimeasure,
)
from seqpred.measures import BernoulliMeasure, BinaryString

import reference

# monte_carlo_expectations packs each path into an int64 code with a
# sentinel bit, which overflows from horizon 63 on and raises KeyError.
# Such items are kept and counted as failed; that error is their
# documented outcome, so it does not make the run incorrect.
MC_OVERFLOW_HORIZON = 63
STANDARD_ERRORS = 4.0


@dataclass(frozen=True)
class Job:
    """One call chain into seqpred; run() maps item names to outputs."""

    name: str
    run: object
    items: tuple
    expected_error: type | None = None


@dataclass(frozen=True)
class Outcome:
    item: str
    digest: str
    problems: tuple
    error: str | None = None
    expected: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass(frozen=True)
class PassResult:
    wall_s: float
    cpu_s: float
    outcomes: tuple

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def unexpected(self) -> tuple:
        return tuple(o for o in self.outcomes if o.failed and not o.expected)

    def digests(self) -> dict:
        return {o.item: o.digest for o in self.outcomes}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _judge(workload, item, outputs) -> Outcome:
    """Check and digest one output; an output the checks cannot read fails."""
    output = outputs[item]
    try:
        problems = tuple(workload.check(item, output, outputs))
        return Outcome(
            item=item,
            digest=digest(workload.payload(item, output)),
            problems=problems,
        )
    except Exception as exc:  # a malformed output is a failed item
        return Outcome(
            item=item, digest="",
            problems=(f"check raised {type(exc).__name__}: {exc}",),
        )


def run_pass(workload) -> PassResult:
    """Run every job once, timing only the calls into seqpred.

    A job that raises marks each of its items failed with the exception
    type; nothing is skipped, so failed / attempted is the failure share.
    """
    outputs = {}
    errors = {}
    cpu_start = _cpu_s()
    start = time.perf_counter()
    for job in workload.jobs:
        try:
            outputs.update(job.run())
        except Exception as exc:  # counted per item below, never dropped
            errors.update(dict.fromkeys(job.items, exc))
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu_start

    outcomes = []
    for job in workload.jobs:
        for item in job.items:
            if item in errors:
                exc = errors[item]
                kind = type(exc).__name__
                outcomes.append(Outcome(
                    item=item,
                    digest=digest({"error": kind}),
                    problems=(f"raised {kind}: {exc}",),
                    error=kind,
                    expected=(
                        job.expected_error is not None
                        and isinstance(exc, job.expected_error)
                    ),
                ))
            elif item not in outputs:
                outcomes.append(Outcome(
                    item=item, digest="", problems=("no output",),
                ))
            else:
                outcomes.append(_judge(workload, item, outputs))
    return PassResult(wall_s=wall, cpu_s=cpu, outcomes=tuple(outcomes))


class Workload:
    """Jobs built at set-up, plus per-item checks and digest payloads."""

    jobs: list

    def prepare_references(self) -> None:
        """Untimed reference values the checks compare against."""

    def check(self, item, output, outputs) -> list:
        raise NotImplementedError

    def payload(self, item, output):
        raise NotImplementedError


class ExactTree(Workload):
    """verify-bounds on random classes: exact walk, relations, trend."""

    def __init__(self, inputs, threads):
        self.jobs = []
        for index, cfg in enumerate(inputs["configs"]):
            config.resolve_mode(cfg)
            weighted, xi, mu = config.mixture_from_config(cfg)
            rho = config.build_predictor(cfg["rho"]) if "rho" in cfg else None
            horizons = config.resolve_horizons(cfg)
            cap = weighted.entropy_budget_nats(mu.name)
            item = f"tree{index}-k{len(weighted)}-n{horizons[-1]}"
            run = functools.partial(
                self._verify, item, mu, xi, rho, horizons, cap,
            )
            self.jobs.append(Job(item, run, (item,)))

    @staticmethod
    def _verify(item, mu, xi, rho, horizons, cap):
        reports = [
            predictors.exact_expectations(mu, xi, h, rho=rho) for h in horizons
        ]
        checks = [
            (
                report.horizon,
                bounds.check_probabilistic_bounds(report, entropy_cap=cap),
                bounds.check_threshold_bounds(report, entropy_cap=cap),
            )
            for report in reports
        ]
        trend = bounds.convergence_trend(reports)
        return {item: {"reports": reports, "checks": checks, "trend": trend}}

    def check(self, item, output, outputs):
        problems = []
        for horizon, probabilistic, threshold in output["checks"]:
            for report in (probabilistic, threshold):
                if not report.passed:
                    problems.append(
                        f"n={horizon} {report.kind}: {report.failures}"
                    )
        if not output["trend"].passed:
            problems.append("convergence trend failed")
        return problems

    def payload(self, item, output):
        return {
            "reports": [r.to_dict() for r in output["reports"]],
            "checks": [
                {"horizon": h, "probabilistic": p.to_dict(),
                 "threshold": t.to_dict()}
                for h, p, t in output["checks"]
            ],
            "trend": output["trend"].to_dict(),
        }


def _game_caller(name, rule, spec):
    """The dicegame subcommand's caller roster, from public constructors."""
    if name == "informed":
        return predictors.MeasurePredictor(
            dicegame.GameMeasure(rule, spec), name="informed"
        )
    if name == "threshold-informed":
        return predictors.deterministic_wrap(
            predictors.MeasurePredictor(
                dicegame.GameMeasure(rule, spec), name="informed"
            )
        )
    if name == "mixture":
        return predictors.MeasurePredictor(
            dicegame.rule_mixture(spec), name="mixture"
        )
    if name == "threshold-mixture":
        return predictors.deterministic_wrap(
            predictors.MeasurePredictor(
                dicegame.rule_mixture(spec), name="mixture"
            )
        )
    if name == "always-white":
        return predictors.ConstantPredictor(1.0, name="always-white")
    if name == "always-black":
        return predictors.ConstantPredictor(0.0, name="always-black")
    if name == "laplace":
        return predictors.LaplaceRulePredictor()
    raise config.ConfigError(f"unknown game predictor {name!r}")


class SampledPaths(Workload):
    """Dice-game turnaround plus roster per rule, and Monte Carlo reports."""

    def __init__(self, inputs, threads):
        game = inputs["game"]
        self.spec = config.build_game_spec(game["spec"])
        self.rounds = game["rounds"]
        self.games = game["games"]
        self.roster_games = game["roster_games"]
        self.seed = game["seed"]
        self.mode = game["mode"]
        self.jobs = []
        for name in game["rules"]:
            rule = dicegame.dealer_rule(name)
            roster = [
                (caller, _game_caller(caller, rule, self.spec))
                for caller in game["predictors"]
            ]
            item = f"rule-{name}"
            run = functools.partial(self._play_rule, item, rule, roster)
            self.jobs.append(Job(item, run, (item,)))
        self.monte_carlo = {}
        for index, cfg in enumerate(inputs["monte_carlo"]):
            _mode, samples, seed = config.resolve_mode(cfg)
            weighted, xi, mu = config.mixture_from_config(cfg)
            rho = config.build_predictor(cfg["rho"]) if "rho" in cfg else None
            (n,) = config.resolve_horizons(cfg)
            item = f"mc{index}-n{n}"
            self.monte_carlo[item] = (weighted, mu, xi, rho, n, samples)
            run = functools.partial(
                self._monte_carlo, item, mu, xi, n, samples, seed, rho,
            )
            expected = KeyError if n >= MC_OVERFLOW_HORIZON else None
            self.jobs.append(Job(item, run, (item,), expected))
        self.references = {}

    def prepare_references(self):
        """Exact totals for every Monte Carlo item, outside any timing."""
        for item, (weighted, mu, xi, rho, n, _samples) in (
            self.monte_carlo.items()
        ):
            members = weighted.measures()
            if all(isinstance(m, BernoulliMeasure) for m in members):
                self.references[item] = reference.bernoulli_class_totals(
                    [w for _m, w in weighted.components],
                    [m.theta for m in members],
                    mu.theta,
                    n,
                    laplace=rho is not None,
                )
            else:
                report = predictors.exact_expectations(mu, xi, n, rho=rho)
                self.references[item] = report.to_dict()["totals"]

    def _play_rule(self, item, rule, roster):
        turnaround = dicegame.run_turnaround_experiment(
            rule, self.spec, rounds=self.rounds, games=self.games,
            seed=self.seed, mode=self.mode,
        )
        callers = []
        for i, (name, predictor) in enumerate(roster):
            traces = [
                dicegame.play(
                    self.spec, rule, predictor, self.rounds,
                    seed=(self.seed, i, g), mode=self.mode,
                )
                for g in range(self.roster_games)
            ]
            mean_trace = dicegame.mean_profit_trace(traces)
            callers.append({
                "name": name,
                "traces": traces,
                "mean_final_profit_cents": float(mean_trace[-1]),
                "crossing_round": dicegame.first_profitable_round(mean_trace),
            })
        return {item: {"turnaround": turnaround, "callers": callers}}

    @staticmethod
    def _monte_carlo(item, mu, xi, n, samples, seed, rho):
        return {item: predictors.monte_carlo_expectations(
            mu, xi, n, samples=samples, seed=seed, rho=rho,
        )}

    def check(self, item, output, outputs):
        if item in self.monte_carlo:
            return self._check_monte_carlo(item, output)
        problems = []
        turnaround = output["turnaround"]
        if turnaround.crossing_round is None:
            problems.append(f"no profitable round within {self.rounds}")
        elif not turnaround.crossing_round <= turnaround.bound_rounds:
            problems.append(
                f"crossed at {turnaround.crossing_round}, "
                f"bound {turnaround.bound_rounds}"
            )
        for caller in output["callers"]:
            for trace in caller["traces"]:
                problems.extend(self._check_ledger(caller["name"], trace))
        return problems

    def _check_ledger(self, name, trace):
        """Sampled ledgers must satisfy profit = (n - errors) pay - n stake."""
        if trace.rounds != self.rounds:
            return [f"{name}: {trace.rounds} rounds, wanted {self.rounds}"]
        previous = 0
        for n, (cents, errors) in enumerate(
            zip(trace.cumulative_profit, trace.cumulative_errors), start=1
        ):
            if errors - previous not in (0, 1) or cents != (
                (n - errors) * self.spec.payout_cents
                - n * self.spec.stake_cents
            ):
                return [f"{name}: ledger inconsistent at round {n}"]
            previous = errors
        return []

    def _check_monte_carlo(self, item, report):
        *_, n, samples = self.monte_carlo[item]
        if report.horizon != n or report.samples != samples:
            return [f"report covers n={report.horizon}, {report.samples} samples"]
        exact = self.references[item]
        problems = []
        for quantity, error in sorted(report.std_errors.items()):
            difference = abs(report.total(quantity) - exact[quantity])
            allowance = STANDARD_ERRORS * error + 1e-12
            if not difference <= allowance:
                problems.append(
                    f"{quantity}: off by {difference}, allowed {allowance}"
                )
        return problems

    def payload(self, item, output):
        if item in self.monte_carlo:
            return output.to_dict()
        return {
            "turnaround": output["turnaround"].to_dict(),
            "callers": [
                {
                    "name": caller["name"],
                    "mean_final_profit_cents":
                        caller["mean_final_profit_cents"],
                    "crossing_round": caller["crossing_round"],
                    "traces": [
                        [t.outcomes, t.cumulative_profit, t.cumulative_errors]
                        for t in caller["traces"]
                    ],
                }
                for caller in output["callers"]
            ],
        }


class GridScan(Workload):
    """The inequalities subcommand: four strict scans plus explore pairs."""

    STRICT = ("distance", "lower", "threshold", "kl_quadratic")

    def __init__(self, inputs, threads):
        section = inputs["inequalities"]
        self.grid = config.build_grid_spec(section["grid"])
        self.explore = {
            name: [tuple(pair) for pair in pairs]
            for name, pairs in section["explore"].items()
        }
        self.threads = threads
        items = self.STRICT + tuple(
            f"{name}-explore" for name, pairs in self.explore.items() if pairs
        )
        self.jobs = [Job("run_all_scans", self._scan, items)]

    def _scan(self):
        strict, explored = inequality_lab.run_all_scans(
            self.grid, explore_pairs=self.explore, threads=self.threads,
        )
        outputs = {report.inequality: report for report in strict}
        outputs.update(
            {f"{report.inequality}-explore": report for report in explored}
        )
        return outputs

    def check(self, item, report, outputs):
        problems = []
        if item.endswith("-explore"):
            pairs = self.explore[report.inequality]
            if len(report.rows) != len(pairs):
                problems.append(f"{len(report.rows)} rows for {len(pairs)} pairs")
            for row in report.rows:
                if (row.violations > 0) != (row.min_margin <= 0.0):
                    problems.append(
                        f"(A, B) = ({row.a}, {row.b}): {row.violations} "
                        f"violations but min margin {row.min_margin}"
                    )
            return problems
        if not report.passed:
            problems.append("strict scan failed")
        if item == "kl_quadratic":
            if report.diagonal_max_abs != 0.0:
                problems.append(f"diagonal max |margin| {report.diagonal_max_abs}")
        elif len(report.rows) != self.grid.param_samples:
            problems.append(f"{len(report.rows)} rows scanned")
        for row in report.rows:
            if not (row.admissible and row.violations == 0
                    and row.min_margin > 0.0):
                problems.append(
                    f"(A, B) = ({row.a}, {row.b}): margin {row.min_margin}, "
                    f"{row.violations} violations"
                )
        return problems

    def payload(self, item, report):
        return report.to_dict()


class ProgramEnum(Workload):
    """approximate-m: enumeration tables and their normalized conditionals."""

    def __init__(self, inputs, threads):
        self.tables = {}
        self.jobs = []
        for cfg in inputs["tables"]:
            section = cfg["semimeasure"]
            name = section["machine"]
            if name == "echo":
                machine = semimeasure.EchoMachine()
            elif name == "register":
                machine = semimeasure.RegisterMachine()
            else:
                raise config.ConfigError(f"unknown machine {name!r}")
            item = f"{name}-cap{section['cap']}"
            self.tables[item] = section
            run = functools.partial(
                self._enumerate, item, machine,
                section["cap"], section["fuel"], section["depth"],
            )
            self.jobs.append(Job(item, run, (item,)))

    @staticmethod
    def _enumerate(item, machine, cap, fuel, depth):
        table = semimeasure.approximate_mass(
            machine, cap=cap, fuel=fuel, depth=depth,
        )
        rows = []
        for length in range(depth):
            for i in range(2**length):
                bits = format(i, f"0{length}b") if length else ""
                try:
                    p0 = semimeasure.normalize(
                        table, BinaryString.parse(bits), 0
                    )
                except semimeasure.SemimeasureError:
                    continue
                rows.append((bits, p0, 1.0 - p0))
        return {item: (table, rows)}

    def check(self, item, output, outputs):
        table, rows = output
        units = table.units
        problems = []
        if units.get((), 0) > 1 << table.cap:
            problems.append(f"mass(empty) = {table.mass(BinaryString.empty())}")
        for bits, count in units.items():
            children = units.get(bits + (0,), 0) + units.get(bits + (1,), 0)
            if children > count:
                problems.append(f"children of {bits} outweigh it")
                break
        smaller = self._previous_cap(item, table, outputs)
        if smaller is not None:
            shift = table.cap - smaller.cap
            if any(
                count << shift > units.get(bits, 0)
                for bits, count in smaller.units.items()
            ):
                problems.append(f"a mass shrank from cap {smaller.cap}")
        if table.machine_name == "echo":
            if len(units) != 2 ** (table.depth + 1) - 1 or any(
                count != 1 << (table.cap - len(bits))
                for bits, count in units.items()
            ):
                problems.append("echo masses are not 2^-length")
            if any(p0 != 0.5 for _bits, p0, _p1 in rows):
                problems.append("echo conditionals are not uniform")
        return problems

    def _previous_cap(self, item, table, outputs):
        """The table one cap bit smaller on the same machine, if it ran."""
        section = self.tables[item]
        for other, other_section in self.tables.items():
            if (
                other in outputs
                and other_section["machine"] == section["machine"]
                and other_section["fuel"] == section["fuel"]
                and other_section["depth"] == section["depth"]
                and other_section["cap"] == section["cap"] - 1
            ):
                return outputs[other][0]
        return None

    def payload(self, item, output):
        table, rows = output
        return {"table": table.to_json(), "conditionals": rows}


WORKLOADS = {
    "exact-tree": ExactTree,
    "sampled-paths": SampledPaths,
    "grid-scan": GridScan,
    "program-enum": ProgramEnum,
}


def build(name: str, inputs: dict, threads: int):
    """Set-up: every measure, class and spec the workload's jobs use."""
    return WORKLOADS[name](inputs, threads)
