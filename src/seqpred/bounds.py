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

Strict inequalities are checked strictly whenever H > 0; in degenerate
H = 0 runs they hold with equality and are accepted to the tolerance.
The entropy budget H <= ln((sum w) / w_informed) is tested whenever the
caller supplies the cap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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


def _relation(name, left, right, *, strict, entropy, applicable=True,
              tolerance=TOLERANCE, note=""):
    margin = right - left
    if not applicable:
        verdict = "skipped"
    elif strict and entropy > _STRICT_ENTROPY_FLOOR:
        verdict = "pass" if margin > 0.0 else "fail"
    else:
        verdict = "pass" if margin >= -tolerance else "fail"
    return Relation(
        name=name, left=left, right=right, margin=margin, strict=strict,
        applicable=applicable, verdict=verdict, note=note,
    )


def _skipped_if(note, relations):
    """The relations as computed, or, given a note saying why they cannot
    be checked, each as a skipped row with zero sides and margin."""
    if note is None:
        return relations
    return [
        Relation(name=r.name, left=0.0, right=0.0, margin=0.0, strict=False,
                 applicable=False, verdict="skipped", note=note)
        for r in relations
    ]


def _require_exact(report: ExpectationReport) -> None:
    if report.mode != "exact":
        raise BoundsInputError("bounds require exact expectations")


def _general_source(report):
    """(total, steps, skip note) for the general predictor; without one in
    the report, zero placeholders and the note that skips its relations."""
    if report.steps("general") is None:
        return (0.0, (0.0,) * report.horizon,
                "no general predictor in the report")
    return report.total("general"), report.steps("general"), None


def _budget_relations(entropy, entropy_cap, quadratic):
    note = None
    if entropy_cap is None:
        entropy_cap = 0.0
        note = "no prior weight for the informed measure; budget skipped"
    return _skipped_if(note, [
        _relation("entropy_within_budget", entropy, entropy_cap,
                  strict=False, entropy=entropy, tolerance=BUDGET_TOLERANCE),
        _relation("quadratic_within_half_budget", quadratic, entropy_cap / 2.0,
                  strict=False, entropy=entropy, tolerance=BUDGET_TOLERANCE),
    ])


def check_probabilistic_bounds(
    report: ExpectationReport,
    entropy_cap: float | None = None,
) -> BoundReport:
    """Verify the probabilistic-scheme relations on an exact report."""
    _require_exact(report)
    e_inf = report.total("informed")
    e_mix = report.total("mixture")
    d1 = report.total("distance")
    d2 = report.total("quadratic")
    h = report.total("entropy")
    e_gen, step_gen, no_general = _general_source(report)

    rels = [
        _relation("gap_within_total_variation",
                  abs(e_mix - e_inf), d1, strict=False, entropy=h),
        _relation("total_variation_within_entropy_term",
                  d1, h + math.sqrt(2.0 * e_inf * h), strict=True, entropy=h),
        _relation("quadratic_within_half_entropy",
                  d2, h / 2.0, strict=False, entropy=h),
        _relation("mixture_above_quadratic_plus_half_informed",
                  d2 + e_inf / 2.0, e_mix, strict=True, entropy=h),
    ]
    gap_applicable = e_inf > 2.0 * h
    gap_note = "" if gap_applicable else "requires informed total > 2 * entropy"
    lower = e_inf + h - math.sqrt(2.0 * e_inf * h)
    rels.append(_relation("mixture_above_informed_entropy_gap",
                          lower, e_mix, strict=True, entropy=h,
                          applicable=gap_applicable, note=gap_note))
    rels.append(_relation("informed_entropy_gap_above_entropy",
                          h, lower, strict=True, entropy=h,
                          applicable=gap_applicable, note=gap_note))
    step_margin = min(
        2.0 * g - i for i, g in zip(report.steps("informed"), step_gen)
    )
    rels.extend(_skipped_if(no_general, [
        _relation("informed_within_twice_general",
                  e_inf, 2.0 * e_gen, strict=False, entropy=h),
        _relation("informed_within_twice_general_stepwise",
                  -step_margin, 0.0, strict=False, entropy=h,
                  note="worst step"),
        _relation("mixture_within_twice_general_entropy_term",
                  e_mix, 2.0 * e_gen + h + math.sqrt(4.0 * e_gen * h),
                  strict=True, entropy=h),
    ]))
    rels.extend(_budget_relations(h, entropy_cap, d2))
    return BoundReport(
        kind="probabilistic",
        horizon=report.horizon,
        entropy=h,
        entropy_cap=entropy_cap,
        relations=tuple(rels),
    )


def check_threshold_bounds(
    report: ExpectationReport,
    entropy_cap: float | None = None,
) -> BoundReport:
    """Verify the thresholded-scheme relations on an exact report."""
    _require_exact(report)
    t_inf = report.total("threshold_informed")
    t_mix = report.total("threshold_mixture")
    h = report.total("entropy")
    gap = t_mix - t_inf
    e_gen, step_gen, no_general = _general_source(report)

    rels = [
        _relation("threshold_gap_nonnegative",
                  0.0, gap, strict=False, entropy=h),
        _relation("threshold_gap_matches_step_sum",
                  abs(gap - report.total("threshold_gap")), 0.0,
                  strict=False, entropy=h,
                  note="telescoped absolute step differences"),
        _relation("threshold_gap_within_entropy_term",
                  gap, h + math.sqrt(4.0 * t_inf * h + h * h),
                  strict=True, entropy=h),
    ]
    step_margin = min(
        g - t for t, g in zip(report.steps("threshold_informed"), step_gen)
    )
    rels.extend(_skipped_if(no_general, [
        _relation("threshold_informed_within_general",
                  t_inf, e_gen, strict=False, entropy=h),
        _relation("threshold_informed_within_general_stepwise",
                  -step_margin, 0.0, strict=False, entropy=h,
                  note="worst step"),
        _relation("threshold_mixture_within_general_entropy_term",
                  t_mix, e_gen + h + math.sqrt(4.0 * e_gen * h + h * h),
                  strict=True, entropy=h),
    ]))
    rels.extend(_budget_relations(h, entropy_cap, report.total("quadratic")))
    return BoundReport(
        kind="threshold",
        horizon=report.horizon,
        entropy=h,
        entropy_cap=entropy_cap,
        relations=tuple(rels),
    )


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
        e_inf = report.total("informed")
        e_mix = report.total("mixture")
        t_inf = report.total("threshold_informed")
        t_mix = report.total("threshold_mixture")
        h = report.total("entropy")
        notes = []
        if e_inf > 0.0:
            excess = (e_mix / e_inf - 1.0) * math.sqrt(e_inf)
            envelope = math.sqrt(2.0 * h) + h / math.sqrt(e_inf)
            ok = excess <= envelope + TOLERANCE
        else:
            excess = envelope = None
            ok = e_mix <= h + TOLERANCE
            notes.append("zero informed total; checked mixture <= entropy")
        if t_inf > 0.0:
            t_excess = (t_mix / t_inf - 1.0) * math.sqrt(t_inf)
            t_envelope = (
                h + math.sqrt(4.0 * t_inf * h + h * h)
            ) / math.sqrt(t_inf)
            t_ok = t_excess <= t_envelope + TOLERANCE
        else:
            t_excess = t_envelope = None
            t_ok = t_mix <= 2.0 * h + TOLERANCE
            notes.append(
                "zero threshold informed total; checked within twice entropy"
            )
        rows.append(TrendRow(
            horizon=report.horizon,
            entropy=h,
            ratio_excess=excess,
            ratio_envelope=envelope,
            threshold_ratio_excess=t_excess,
            threshold_ratio_envelope=t_envelope,
            passed=ok and t_ok,
            note="; ".join(notes),
        ))
    return TrendReport(rows=tuple(rows))
