"""Checks of the cumulative error relations between the predictors.

Every relation compares totals from an exact expectation report.  With
E_inf, E_mix, E_gen the informed / mixture / general expected total
errors, D1 and D2 the summed absolute and quadratic conditional
distances, and H the summed relative entropy:

  probabilistic scheme
    |E_mix - E_inf| <= D1 < H + sqrt(2 E_inf H)
    D2 <= H / 2
    E_mix > D2 + E_inf / 2
    E_mix > E_inf + H - sqrt(2 E_inf H) > H        (when E_inf > 2 H)
    E_inf <= 2 E_gen                               (also stepwise)
    E_mix < 2 E_gen + H + sqrt(4 E_gen H)

  thresholded scheme (T_inf, T_mix the threshold totals)
    0 <= T_mix - T_inf = summed |step gap| < H + sqrt(4 T_inf H + H^2)
    T_inf <= E_gen                                 (also stepwise)
    T_mix < E_gen + H + sqrt(4 E_gen H + H^2)

  both schemes, given the cap ln((sum w) / w_informed)
    H <= cap,  D2 <= cap / 2

Each relation is one row of _PROBABILISTIC or _THRESHOLD, in the order
listed, and one evaluator reads both tables.  Strict inequalities are
checked strictly whenever H > 0; in degenerate H = 0 runs they hold with
equality and are accepted to the tolerance.  Without a general predictor
or a cap, the rows that need it are skipped.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import NamedTuple

from .predictors import ExpectationReport, PredictionError

TOLERANCE = 1e-9
BUDGET_TOLERANCE = 1e-12
_STRICT_ENTROPY_FLOOR = 1e-12


class BoundsInputError(PredictionError):
    """Report unsuitable for bound checking."""


@dataclass(frozen=True)
class Relation:
    """One checked inequality: pass iff margin >= -tolerance (strict
    relations additionally demand a positive margin when H > 0)."""

    name: str
    left: float
    right: float
    margin: float
    strict: bool
    applicable: bool
    verdict: str
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    """Verdicts for one family of relations at one horizon."""

    kind: str
    horizon: int
    entropy: float
    entropy_cap: float | None
    relations: tuple[Relation, ...]

    @property
    def passed(self) -> bool:
        return all(r.verdict != "fail" for r in self.relations)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations if r.verdict == "fail")

    def to_dict(self) -> dict:
        return {**asdict(self), "schema": "bound-report/1",
                "passed": self.passed}

    def format_table(self) -> str:
        width = max(len(r.name) for r in self.relations)
        lines = [f"{self.kind} relations at horizon {self.horizon}"]
        for r in self.relations:
            lines.append(
                f"  {r.name:<{width}}  {r.verdict:<7}"
                f" left={r.left:.6g} right={r.right:.6g} margin={r.margin:.3g}"
                + (f"  ({r.note})" if r.note else "")
            )
        return "\n".join(lines)


class _Row(NamedTuple):
    """One relation left <= right (left < right if strict) over the totals
    t.  A row needing an absent input ("e_gen" or "cap") is a zero row
    skipped with that input's note; a row with an applicability test
    carries its note only when the test fails and the row is skipped."""

    name: str
    left: Callable
    right: Callable
    strict: bool = False
    needs: str | None = None
    applicable: Callable | None = None
    note: str = ""
    tolerance: float = TOLERANCE


_ABSENT = {
    "e_gen": "no general predictor in the report",
    "cap": "no prior weight for the informed measure; budget skipped",
}


def _zero(t):
    return 0.0


def _worst_step(t, name, scale):
    """The largest step excess of name's errors over scale * general's."""
    return -min(scale * g - x
                for x, g in zip(t.steps[name], t.steps["general"]))


def _gap_lower(t):
    return t.e_inf + t.h - math.sqrt(2.0 * t.e_inf * t.h)


def _gap_applies(t):
    return t.e_inf > 2.0 * t.h


_GAP_NOTE = "requires informed total > 2 * entropy"

_BUDGET = (
    _Row("entropy_within_budget", lambda t: t.h, lambda t: t.cap,
         needs="cap", tolerance=BUDGET_TOLERANCE),
    _Row("quadratic_within_half_budget", lambda t: t.d2,
         lambda t: t.cap / 2.0, needs="cap", tolerance=BUDGET_TOLERANCE),
)

_PROBABILISTIC = (
    _Row("gap_within_total_variation",
         lambda t: abs(t.e_mix - t.e_inf), lambda t: t.d1),
    _Row("total_variation_within_entropy_term",
         lambda t: t.d1, lambda t: t.h + math.sqrt(2.0 * t.e_inf * t.h),
         strict=True),
    _Row("quadratic_within_half_entropy", lambda t: t.d2, lambda t: t.h / 2.0),
    _Row("mixture_above_quadratic_plus_half_informed",
         lambda t: t.d2 + t.e_inf / 2.0, lambda t: t.e_mix, strict=True),
    _Row("mixture_above_informed_entropy_gap", _gap_lower, lambda t: t.e_mix,
         strict=True, applicable=_gap_applies, note=_GAP_NOTE),
    _Row("informed_entropy_gap_above_entropy", lambda t: t.h, _gap_lower,
         strict=True, applicable=_gap_applies, note=_GAP_NOTE),
    _Row("informed_within_twice_general",
         lambda t: t.e_inf, lambda t: 2.0 * t.e_gen, needs="e_gen"),
    _Row("informed_within_twice_general_stepwise",
         lambda t: _worst_step(t, "informed", 2.0), _zero, needs="e_gen",
         note="worst step"),
    _Row("mixture_within_twice_general_entropy_term", lambda t: t.e_mix,
         lambda t: 2.0 * t.e_gen + t.h + math.sqrt(4.0 * t.e_gen * t.h),
         strict=True, needs="e_gen"),
) + _BUDGET

_THRESHOLD = (
    _Row("threshold_gap_nonnegative", _zero, lambda t: t.t_mix - t.t_inf),
    _Row("threshold_gap_matches_step_sum",
         lambda t: abs(t.t_mix - t.t_inf - t.t_gap), _zero,
         note="telescoped absolute step differences"),
    _Row("threshold_gap_within_entropy_term", lambda t: t.t_mix - t.t_inf,
         lambda t: t.h + math.sqrt(4.0 * t.t_inf * t.h + t.h * t.h),
         strict=True),
    _Row("threshold_informed_within_general",
         lambda t: t.t_inf, lambda t: t.e_gen, needs="e_gen"),
    _Row("threshold_informed_within_general_stepwise",
         lambda t: _worst_step(t, "threshold_informed", 1.0), _zero,
         needs="e_gen", note="worst step"),
    _Row("threshold_mixture_within_general_entropy_term", lambda t: t.t_mix,
         lambda t: t.e_gen + t.h + math.sqrt(4.0 * t.e_gen * t.h + t.h * t.h),
         strict=True, needs="e_gen"),
) + _BUDGET


def _require_exact(report: ExpectationReport) -> None:
    if report.mode != "exact":
        raise BoundsInputError("bounds require exact expectations")


def _evaluate(kind, rows, report, entropy_cap) -> BoundReport:
    _require_exact(report)
    total = report.total
    t = SimpleNamespace(
        e_inf=total("informed"), e_mix=total("mixture"),
        e_gen=total("general"), d1=total("distance"), d2=total("quadratic"),
        h=total("entropy"), t_inf=total("threshold_informed"),
        t_mix=total("threshold_mixture"), t_gap=total("threshold_gap"),
        cap=entropy_cap, steps=report.per_step,
    )
    relations = []
    for row in rows:
        if row.needs is not None and getattr(t, row.needs) is None:
            relations.append(Relation(
                name=row.name, left=0.0, right=0.0, margin=0.0, strict=False,
                applicable=False, verdict="skipped", note=_ABSENT[row.needs],
            ))
            continue
        left, right = row.left(t), row.right(t)
        margin = right - left
        applicable = row.applicable is None or row.applicable(t)
        if not applicable:
            verdict = "skipped"
        elif row.strict and t.h > _STRICT_ENTROPY_FLOOR:
            verdict = "pass" if margin > 0.0 else "fail"
        else:
            verdict = "pass" if margin >= -row.tolerance else "fail"
        relations.append(Relation(
            name=row.name, left=left, right=right, margin=margin,
            strict=row.strict, applicable=applicable, verdict=verdict,
            note=row.note if row.applicable is None or not applicable else "",
        ))
    return BoundReport(kind=kind, horizon=report.horizon, entropy=t.h,
                       entropy_cap=entropy_cap, relations=tuple(relations))


def check_probabilistic_bounds(
    report: ExpectationReport,
    entropy_cap: float | None = None,
) -> BoundReport:
    """Verify the probabilistic-scheme relations on an exact report."""
    return _evaluate("probabilistic", _PROBABILISTIC, report, entropy_cap)


def check_threshold_bounds(
    report: ExpectationReport,
    entropy_cap: float | None = None,
) -> BoundReport:
    """Verify the thresholded-scheme relations on an exact report."""
    return _evaluate("threshold", _THRESHOLD, report, entropy_cap)


@dataclass(frozen=True)
class TrendRow:
    """Scaled excess-error ratios against their entropy envelopes at one n."""

    horizon: int
    entropy: float
    ratio_excess: float | None
    ratio_envelope: float | None
    threshold_ratio_excess: float | None
    threshold_ratio_envelope: float | None
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class TrendReport:
    rows: tuple[TrendRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_dict(self) -> dict:
        return {**asdict(self), "schema": "trend-report/1",
                "passed": self.passed}


# (informed total, mixture total, envelope(informed, H), the multiple of H
# the mixture total is checked against when the informed total is zero,
# the note saying so)
_TREND = (
    ("informed", "mixture",
     lambda e, h: math.sqrt(2.0 * h) + h / math.sqrt(e), 1.0,
     "zero informed total; checked mixture <= entropy"),
    ("threshold_informed", "threshold_mixture",
     lambda t, h: (h + math.sqrt(4.0 * t * h + h * h)) / math.sqrt(t), 2.0,
     "zero threshold informed total; checked within twice entropy"),
)


def convergence_trend(reports) -> TrendReport:
    """Envelope check for the excess-error ratios over a horizon sweep.

    For each report, (E_mix/E_inf - 1) * sqrt(E_inf) must stay below
    sqrt(2 H) + H / sqrt(E_inf), and the threshold analogue below
    (H + sqrt(4 T_inf H + H^2)) / sqrt(T_inf).  Degenerate runs with a
    zero informed total fall back to the absolute finite-error checks
    E_mix <= H and T_mix <= 2 H.
    """
    reports = list(reports)
    if not reports:
        raise BoundsInputError("need at least one report for a trend")
    for report in reports:
        _require_exact(report)
    horizons = [r.horizon for r in reports]
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise BoundsInputError(f"horizons must increase, got {horizons}")
    informed = [r.total("informed") for r in reports]
    if any(b < a - TOLERANCE for a, b in zip(informed, informed[1:])):
        raise BoundsInputError(
            f"informed totals are not monotone over the sweep: {informed}"
        )
    rows = []
    for report in reports:
        h = report.total("entropy")
        ratios, notes, passed = [], [], True
        for inf_name, mix_name, envelope, fallback, note in _TREND:
            inf, mix = report.total(inf_name), report.total(mix_name)
            if inf > 0.0:
                excess = (mix / inf - 1.0) * math.sqrt(inf)
                bound = envelope(inf, h)
                ratios += [excess, bound]
                passed = passed and excess <= bound + TOLERANCE
            else:
                ratios += [None, None]
                passed = passed and mix <= fallback * h + TOLERANCE
                notes.append(note)
        rows.append(TrendRow(report.horizon, h, *ratios, passed=passed,
                             note="; ".join(notes)))
    return TrendReport(rows=tuple(rows))
