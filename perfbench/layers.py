"""seqpred's public API mapped to layer names, and the per-module metrics.

`install` wraps, with a Tracer, every public function and every public
method of the classes each module exports that one of the metrics
below reads.  Measure families (Bernoulli, Markov, deterministic, game)
all implement the interface `measures` defines, so their cursors and
prefix pricing report under `measures.*`; the mixture's own cursor and
pricing report under `universal.*`.
"""

from __future__ import annotations

from seqpred import (
    bounds,
    config,
    dicegame,
    inequality_lab,
    measures,
    numerics,
    predictors,
    semimeasure,
    universal,
)

EXACT = "predictors.exact_expectations"
MONTE_CARLO = "predictors.monte_carlo_expectations"
SCANS = tuple(
    f"inequality_lab.check_{name}_bound"
    for name in ("distance", "lower", "threshold", "kl_quadratic")
)

_TIMED = {"calls": ("count", "lower"), "busy_s": ("s", "lower"),
          "self_s": ("s", "lower")}

# (boundary, fields) in report order, then the work counters and ratios.
BOUNDARIES = (
    (EXACT, ("calls", "busy_s", "self_s")),
    (MONTE_CARLO, ("calls", "busy_s", "self_s")),
    ("predictors.cursor", ("calls", "busy_s")),
    ("measures.conditional", ("calls", "busy_s")),
    ("measures.advanced", ("calls", "busy_s")),
    ("measures.log_prefix_probability", ("calls", "busy_s")),
    ("universal.conditional", ("calls", "busy_s", "self_s")),
    ("universal.advanced", ("calls", "busy_s", "self_s")),
    ("universal.log_prefix_probability", ("calls", "busy_s")),
    ("numerics.logsumexp", ("calls", "busy_s")),
    ("numerics.kl_bernoulli", ("calls", "busy_s")),
    ("bounds", ("calls", "busy_s")),
    ("dicegame.run_turnaround_experiment", ("calls", "busy_s", "self_s")),
    ("dicegame.play", ("calls", "busy_s", "self_s")),
    ("dicegame.white_probability", ("calls", "busy_s")),
) + tuple((scan, ("busy_s",)) for scan in SCANS) + (
    ("inequality_lab.kl_mesh", ("calls", "busy_s")),
    ("semimeasure.approximate_mass", ("calls", "busy_s", "self_s")),
    ("semimeasure.run", ("calls", "busy_s")),
    ("semimeasure.normalize", ("calls", "busy_s")),
    ("config", ("busy_s",)),
)

DERIVED = (
    ("predictors.exact.contexts", "count", "lower"),
    ("predictors.exact.us_per_context", "us", "lower"),
    ("predictors.mc.path_steps", "count", "higher"),
    ("predictors.mc.contexts_advanced", "count", "lower"),
    ("predictors.mc.unique_ratio", "ratio", "lower"),
    ("predictors.mc.failed", "count", "lower"),
    ("bounds.relations_checked", "count", "higher"),
    ("bounds.relations_failed", "count", "lower"),
    ("dicegame.rounds_played", "count", "higher"),
    ("dicegame.us_per_round", "us", "lower"),
    ("dicegame.crossing_margin_min", "rounds", "higher"),
    ("inequality_lab.cells_scanned", "count", "higher"),
    ("inequality_lab.ns_per_cell", "ns", "lower"),
    ("inequality_lab.mesh_bytes_computed", "bytes", "lower"),
    ("semimeasure.program_bits_replayed", "count", "lower"),
    ("semimeasure.strings_priced", "count", "higher"),
    ("semimeasure.priced_per_run", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

PER_LAYER = tuple(
    (f"{boundary}.{field}",) + _TIMED[field]
    for boundary, fields in BOUNDARIES
    for field in fields
) + DERIVED

# Everything but times and the overhead is a count of work or a ratio of
# counts: those must repeat exactly for a seed.
EXACT_COUNTS = tuple(
    name for name, unit, _better in PER_LAYER
    if unit not in ("s", "us", "ns") and name != "trace.overhead"
)


def _family(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_family(sub))
    return found


def install(tracer) -> None:
    """Wrap the boundaries every per-module metric is read from."""
    patch = tracer.patch_function
    patch(predictors, "exact_expectations", EXACT)

    advanced_edge = (MONTE_CARLO, "measures.advanced")

    def mc_before(args, kwargs):
        return tracer.edges[advanced_edge]

    def mc_after(report, args, kwargs, before):
        tracer.count("predictors.mc.path_steps", report.samples * report.horizon)
        tracer.count(
            "predictors.mc.contexts_advanced",
            tracer.edges[advanced_edge] - before,
        )

    patch(predictors, "monte_carlo_expectations", MONTE_CARLO,
          before=mc_before, after=mc_after)
    for cls in _family(predictors.PredictorCursor):
        for attr in ("probability_of_one", "advanced"):
            if attr in vars(cls):
                tracer.patch_method(cls, attr, "predictors.cursor")

    for cls in _family(measures.SequenceMeasure) + _family(
        measures.MeasureCursor
    ):
        layer = "universal" if cls.__module__ == universal.__name__ else "measures"
        for attr in ("conditional", "advanced", "log_prefix_probability"):
            method = vars(cls).get(attr)
            if method is not None and not getattr(
                method, "__isabstractmethod__", False
            ):
                tracer.patch_method(cls, attr, f"{layer}.{attr}")

    patch(numerics, "logsumexp", "numerics.logsumexp")
    patch(numerics, "kl_bernoulli", "numerics.kl_bernoulli")

    def relations_after(report, args, kwargs, _token):
        applicable = [r for r in report.relations if r.applicable]
        tracer.count("bounds.relations_checked", len(applicable))
        tracer.count(
            "bounds.relations_failed",
            sum(r.verdict == "fail" for r in applicable),
        )

    def trend_after(report, args, kwargs, _token):
        tracer.count("bounds.relations_checked", len(report.rows))
        tracer.count(
            "bounds.relations_failed", sum(not r.passed for r in report.rows)
        )

    patch(bounds, "check_probabilistic_bounds", "bounds", after=relations_after)
    patch(bounds, "check_threshold_bounds", "bounds", after=relations_after)
    patch(bounds, "convergence_trend", "bounds", after=trend_after)

    def turnaround_after(result, args, kwargs, _token):
        # A rule that never crosses counts as crossing one round late.
        crossing = result.crossing_round or result.rounds + 1
        tracer.observe_min(
            "dicegame.crossing_margin_min", result.bound_rounds - crossing
        )

    def play_after(trace, args, kwargs, _token):
        tracer.count("dicegame.rounds_played", trace.rounds)

    patch(dicegame, "run_turnaround_experiment",
          "dicegame.run_turnaround_experiment", after=turnaround_after)
    patch(dicegame, "play", "dicegame.play", after=play_after)
    tracer.patch_method(
        dicegame.GameSpec, "white_probability", "dicegame.white_probability"
    )

    def scan_after(report, args, kwargs, _token):
        cells = len(report.rows) * report.y_count * report.z_count
        tracer.count("inequality_lab.cells_scanned", cells)
        tracer.count("inequality_lab.mesh_bytes_computed", 8 * cells)

    def mesh_after(mesh, args, kwargs, _token):
        tracer.count("inequality_lab.mesh_bytes_computed", mesh.nbytes)

    for scan in SCANS:
        patch(inequality_lab, scan.split(".")[1], scan, after=scan_after)
    patch(inequality_lab, "kl_mesh", "inequality_lab.kl_mesh", after=mesh_after)

    def mass_after(table, args, kwargs, _token):
        tracer.count("semimeasure.strings_priced", len(table.units))

    def run_after(result, args, kwargs, _token):
        tracer.count("semimeasure.program_bits_replayed", len(args[1]))

    patch(semimeasure, "approximate_mass", "semimeasure.approximate_mass",
          after=mass_after)
    patch(semimeasure, "normalize", "semimeasure.normalize")
    for cls in _family(semimeasure.MonotoneMachine):
        if "run" in vars(cls):
            tracer.patch_method(cls, "run", "semimeasure.run", after=run_after)

    for attr, value in sorted(vars(config).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == config.__name__
        ):
            patch(config, attr, "config")


def _ratio(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else 0.0


def metrics(tracer, overhead: float) -> dict:
    """Every PER_LAYER metric, by name, as {"value", "unit"}."""
    values = {}
    for boundary, fields in BOUNDARIES:
        stat = tracer.stat(boundary)
        for field in fields:
            values[f"{boundary}.{field}"] = {
                "calls": stat.calls, "busy_s": stat.busy,
                "self_s": stat.self_time,
            }[field]
    counters = tracer.counters
    contexts = tracer.edges[(EXACT, "measures.conditional")]
    path_steps = counters["predictors.mc.path_steps"]
    rounds = counters["dicegame.rounds_played"]
    cells = counters["inequality_lab.cells_scanned"]
    runs = tracer.stat("semimeasure.run").calls
    scan_busy = sum(tracer.stat(scan).busy for scan in SCANS)
    values.update({
        "predictors.exact.contexts": contexts,
        "predictors.exact.us_per_context":
            _ratio(tracer.stat(EXACT).busy, contexts, 1e6),
        "predictors.mc.path_steps": path_steps,
        "predictors.mc.contexts_advanced":
            counters["predictors.mc.contexts_advanced"],
        "predictors.mc.unique_ratio":
            _ratio(counters["predictors.mc.contexts_advanced"], path_steps),
        "predictors.mc.failed": tracer.stat(MONTE_CARLO).errors,
        "bounds.relations_checked": counters["bounds.relations_checked"],
        "bounds.relations_failed": counters["bounds.relations_failed"],
        "dicegame.rounds_played": rounds,
        "dicegame.us_per_round":
            _ratio(tracer.stat("dicegame.play").busy, rounds, 1e6),
        "dicegame.crossing_margin_min":
            tracer.minima.get("dicegame.crossing_margin_min", 0.0),
        "inequality_lab.cells_scanned": cells,
        "inequality_lab.ns_per_cell": _ratio(scan_busy, cells, 1e9),
        "inequality_lab.mesh_bytes_computed":
            counters["inequality_lab.mesh_bytes_computed"],
        "semimeasure.program_bits_replayed":
            counters["semimeasure.program_bits_replayed"],
        "semimeasure.strings_priced": counters["semimeasure.strings_priced"],
        "semimeasure.priced_per_run":
            _ratio(counters["semimeasure.strings_priced"], runs),
        "trace.overhead": overhead,
    })
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in PER_LAYER
    }
