"""Shared numeric helpers: stable log sums, binary KL, threshold step,
and the artifact formats (CSV and JSON files)."""

from __future__ import annotations

import csv
import json
import math

# Prediction emitted by a thresholding predictor when the conditional
# probability sits exactly on 1/2.  A single named constant so that
# tie-independence claims can be checked by flipping it in tests.
TIE_PREDICTION = 0

NEG_INF = float("-inf")


def logsumexp(values):
    """log(sum(exp(v))) over a small iterable, guarded against -inf."""
    vals = list(values)
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum([math.exp(v - m) for v in vals]))


def kl_bernoulli(y: float, z: float) -> float:
    """KL divergence y*ln(y/z) + (1-y)*ln((1-y)/(1-z)) between coin biases.

    Conventions: 0*ln(0/z) = 0; a positive mass against a zero mass gives
    inf.  Written with log1p of the difference so the two terms, which
    nearly cancel for y close to z, are each computed to full precision.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y outside [0, 1]: {y}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z outside [0, 1]: {z}")
    delta = y - z
    if y == 0.0:
        return math.inf if z == 1.0 else -math.log1p(-z)
    if y == 1.0:
        return math.inf if z == 0.0 else -math.log(z)
    if z == 0.0 or z == 1.0:
        return math.inf
    return y * math.log1p(delta / z) + (1.0 - y) * math.log1p(-delta / (1.0 - z))


def threshold_step(x: float) -> int:
    """1 for x > 0, 0 for x < 0, TIE_PREDICTION at exactly 0."""
    if x > 0.0:
        return 1
    if x < 0.0:
        return 0
    return TIE_PREDICTION


def fmt17(x) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write a header row and `rows` to `path` as artifact CSV: csv's
    default dialect (CRLF line ends), floats through fmt17, None as an
    empty cell and bools as 0/1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(value) for value in row] for row in rows)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return fmt17(value)


def json_text(payload) -> str:
    """An artifact's JSON text: indent 2, sorted keys, one trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    """Write `payload` to `path` as artifact JSON (the json_text format)."""
    with open(path, "w") as fh:
        fh.write(json_text(payload))
