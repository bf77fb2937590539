"""Dense grid verification of the step-level inequalities.

Each scan evaluates one two-parameter inequality margin over a (y, z)
mesh strictly inside the unit square and reports the minimum and where
it occurs.  The four margins, all required to be positive (the KL lower
bound allows equality exactly on the diagonal):

    distance      2A y(1-y) + B KL(y||z) - |y - z|
    lower         (A-1) 2y(1-y) + (B-1) KL(y||z) + y(1-z) + z(1-y)
    threshold     (A+1) min(y, 1-y) + (B+1) KL(y||z) - |y - step(z - 1/2)|
    kl_quadratic  KL(y||z) - 2 (y-z)^2

Admissible parameter regions: distance needs A > 0 and B >= 1/(2A) + 1;
lower needs 2AB >= 1 and B > 1; threshold needs A > 0 and
B >= A/4 + 1/A.  Scans are evidence at a stated resolution, used as
regression tests rather than proofs.

The scan kernel makes one pass over the mesh in cache-sized row blocks.
The grid, KL(y||z) and the y-only terms are built once per run; the
side term of each block is computed once and shared by every (A, B)
pair, whose margin is evaluated in place into one buffer per worker.
Each pair carries its running minimum, flat argmin and count of cells
<= 0 across blocks.  Worker threads split the mesh rows, not the pairs,
and their partials merge in row order by np.argmin's rule (the first
NaN wins, otherwise ties go to the first cell), so every report is the
one a full-mesh evaluation gives, bit for bit, at any thread count.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import fmt17

INEQUALITIES = ("distance", "lower", "threshold", "kl_quadratic")


class GridError(ValueError):
    """Invalid grid construction or parameter sampling."""


class AdmissibilityError(GridError):
    """(A, B) outside the inequality's admissible region in strict mode."""


@dataclass(frozen=True)
class GridSpec:
    """Mesh geometry and (A, B) sampling controls for the scans.

    The z axis gets extra geometrically spaced points toward both
    offset boundaries, where the KL term blows up and protects the
    inequalities; the binding region is interior.
    """

    y_count: int = 2000
    z_count: int = 2000
    epsilon: float = 1e-6
    refine_per_side: int = 32
    param_samples: int = 100
    param_seed: int = 20260814

    def __post_init__(self):
        if self.y_count < 2 or self.z_count < 2:
            raise GridError("grids need at least 2 points per axis")
        if not 1e-6 <= self.epsilon < 0.5:
            raise GridError(
                f"boundary offset must lie in [1e-6, 0.5), got {self.epsilon}"
            )
        if self.refine_per_side < 0:
            raise GridError("refinement count must be nonnegative")
        if self.param_samples < 1:
            raise GridError("need at least one (A, B) sample")
        if self.param_seed < 0:
            raise GridError("parameter seed must be nonnegative")

    def y_values(self) -> np.ndarray:
        return np.linspace(self.epsilon, 1.0 - self.epsilon, self.y_count)

    def z_values(self) -> np.ndarray:
        base = np.linspace(self.epsilon, 1.0 - self.epsilon, self.z_count)
        if self.refine_per_side == 0:
            return base
        low = np.geomspace(self.epsilon, 1e-2, self.refine_per_side)
        pieces = np.concatenate([base, low, 1.0 - low])
        return np.unique(pieces)


def kl_mesh(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """KL(y||z) on the outer grid, exact zero on the diagonal.

    Both logs are taken of 1 plus a difference from z, so the two terms
    cancel benignly when y is close to z.
    """
    yc = y[:, None]
    zr = z[None, :]
    delta = yc - zr
    return yc * np.log1p(delta / zr) + (1.0 - yc) * np.log1p(-delta / (1.0 - zr))


def required_b_distance(a: float) -> float:
    return 1.0 / (2.0 * a) + 1.0


def required_b_threshold(a: float) -> float:
    return a / 4.0 + 1.0 / a


def admissible_distance(a: float, b: float) -> bool:
    return a > 0.0 and b >= required_b_distance(a) - 1e-12


def admissible_lower(a: float, b: float) -> bool:
    return b > 1.0 and 2.0 * a * b >= 1.0 - 1e-12


def admissible_threshold(a: float, b: float) -> bool:
    return a > 0.0 and b >= required_b_threshold(a) - 1e-12


def lower_bound_edge_quadratic(z: float, a: float, b: float) -> float:
    """Reduced quadratic controlling the lower-bound scan margin.

    After minimizing the margin over y at fixed z, positivity reduces to
    this quadratic in z; its two edge values agree and equal
    (2ab - 1)(b - 1), which is exactly where the admissible region comes
    from.
    """
    return 2.0 * a * (z - b) * (1.0 - z - b) - (b - 1.0) * (2.0 * z - 1.0) ** 2


def distance_margin(y, z, a, b):
    """Scalar margin of the distance inequality at one point."""
    return (
        2.0 * a * y * (1.0 - y)
        + b * numerics.kl_bernoulli(y, z)
        - abs(y - z)
    )


def lower_margin(y, z, a, b):
    """Scalar margin of the lower-bound inequality at one point."""
    return (
        (a - 1.0) * 2.0 * y * (1.0 - y)
        + (b - 1.0) * numerics.kl_bernoulli(y, z)
        + y * (1.0 - z)
        + z * (1.0 - y)
    )


def threshold_margin(y, z, a, b):
    """Scalar margin of the threshold inequality at one point."""
    return (
        (a + 1.0) * min(y, 1.0 - y)
        + (b + 1.0) * numerics.kl_bernoulli(y, z)
        - abs(y - numerics.threshold_step(z - 0.5))
    )


def kl_quadratic_margin(y, z):
    """Scalar margin of the KL quadratic lower bound at one point."""
    return numerics.kl_bernoulli(y, z) - 2.0 * (y - z) ** 2


@dataclass(frozen=True)
class ScanRow:
    """Minimum margin of one (A, B) sample over the whole mesh."""

    a: float | None
    b: float | None
    admissible: bool
    min_margin: float
    argmin_y: float
    argmin_z: float
    violations: int

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "admissible": self.admissible,
            "min_margin": self.min_margin,
            "argmin_y": self.argmin_y,
            "argmin_z": self.argmin_z,
            "violations": self.violations,
        }


@dataclass(frozen=True)
class MarginReport:
    """Scan outcome for one inequality over all sampled parameters."""

    inequality: str
    mode: str
    y_count: int
    z_count: int
    epsilon: float
    rows: tuple[ScanRow, ...]
    diagonal_max_abs: float | None = None

    @property
    def passed(self) -> bool:
        """Admissible samples must come out strictly positive everywhere."""
        return all(
            row.min_margin > 0.0 for row in self.rows if row.admissible
        )

    @property
    def min_margin(self) -> float:
        return min(row.min_margin for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema": "margin-report/1",
            "inequality": self.inequality,
            "mode": self.mode,
            "grid": {
                "y_count": self.y_count,
                "z_count": self.z_count,
                "epsilon": self.epsilon,
            },
            "passed": self.passed,
            "diagonal_max_abs": self.diagonal_max_abs,
            "rows": [row.to_dict() for row in self.rows],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "a", "b", "admissible", "min_margin", "argmin_y", "argmin_z",
                "violations", "y_count", "z_count", "epsilon",
            ])
            for row in self.rows:
                writer.writerow([
                    "" if row.a is None else fmt17(row.a),
                    "" if row.b is None else fmt17(row.b),
                    int(row.admissible),
                    fmt17(row.min_margin),
                    fmt17(row.argmin_y),
                    fmt17(row.argmin_z),
                    row.violations,
                    self.y_count,
                    self.z_count,
                    fmt17(self.epsilon),
                ])

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def sample_distance_params(count: int, seed: int):
    """Half on the exact boundary B = 1/(2A) + 1, half strictly inside."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(8.0))))
        b = required_b_distance(a)
        if i % 2:
            b *= float(rng.uniform(1.02, 2.5))
        pairs.append((a, b))
    return pairs


def sample_lower_params(count: int, seed: int):
    """Half on the exact boundary 2AB = 1 (with B > 1), half inside."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        b = float(np.exp(rng.uniform(np.log(1.02), np.log(8.0))))
        a = 1.0 / (2.0 * b)
        if i % 2:
            a *= float(rng.uniform(1.05, 6.0))
        pairs.append((a, b))
    return pairs


def sample_threshold_params(count: int, seed: int):
    """Half on the exact boundary B = A/4 + 1/A, half strictly inside."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(8.0))))
        b = required_b_threshold(a)
        if i % 2:
            b *= float(rng.uniform(1.02, 2.5))
        pairs.append((a, b))
    return pairs


# Mesh rows per block.  A 32-row block of the ~2000-column mesh is about
# 530 KB, so a block's KL slice, side term and margin buffer stay in a
# core's L2 cache while every (A, B) pair is evaluated over it.  Smaller
# blocks scale worse over threads: each numpy call hands over the GIL.
_BLOCK_ROWS = 32


class _Mesh:
    """The (y, z) grid, KL(y||z) and the y-only column terms of a run.

    Built once and shared by every scan.  Side terms that depend on both
    y and z are computed per row block instead of stored.
    """

    def __init__(self, spec: GridSpec):
        self.y = spec.y_values()
        self.z = spec.z_values()
        self.kl = np.empty((len(self.y), len(self.z)))
        for start in range(0, len(self.y), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            self.kl[start:stop] = kl_mesh(self.y[start:stop], self.z)
        self.informed = (2.0 * self.y * (1.0 - self.y))[:, None]
        self.half = np.minimum(self.y, 1.0 - self.y)[:, None]


def _merge_minima(partials):
    """Combine (min, flat index) partials listed in row order.

    Follows np.argmin on the concatenated mesh: the first NaN wins,
    otherwise the smallest value, with ties going to the earliest cell.
    """
    best_value, best_flat = partials[0]
    for value, flat in partials[1:]:
        if math.isnan(best_value):
            break
        if value < best_value or math.isnan(value):
            best_value, best_flat = value, flat
    return best_value, best_flat


def _scan_rows(mesh, count, margins, threads):
    """(min, argmin y, argmin z, cells <= 0) of count margins over the mesh.

    margins(start, stop, out) yields the count margin blocks of rows
    start:stop in order, typically evaluated into the buffer out.  Each
    worker thread scans a contiguous range of blocks for every margin,
    and the partials merge in row order.
    """
    n_y, n_z = mesh.kl.shape
    starts = list(range(0, n_y, _BLOCK_ROWS))

    def scan(block_starts):
        out = np.empty((_BLOCK_ROWS, n_z))
        partials = [[] for _ in range(count)]
        violations = [0] * count
        for start in block_starts:
            stop = min(start + _BLOCK_ROWS, n_y)
            blocks = margins(start, stop, out[: stop - start])
            for k, block in enumerate(blocks):
                flat = int(np.argmin(block))
                value = block.item(flat)
                partials[k].append((value, start * n_z + flat))
                if not value > 0.0:
                    violations[k] += int(np.count_nonzero(block <= 0.0))
        return partials, violations

    per_worker = -(-len(starts) // max(1, threads))
    ranges = [
        starts[i:i + per_worker] for i in range(0, len(starts), per_worker)
    ]
    if len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(pool.map(scan, ranges))
    else:
        results = [scan(ranges[0])]
    merged = []
    for k in range(count):
        value, flat = _merge_minima(
            [p for partials, _ in results for p in partials[k]]
        )
        row_i, col_i = divmod(flat, n_z)
        merged.append((
            value, float(mesh.y[row_i]), float(mesh.z[col_i]),
            sum(counts[k] for _, counts in results),
        ))
    return merged


def _pair_report(inequality, spec, pairs, mode, threads, mesh, admissible,
                 terms, side, combine) -> MarginReport:
    """Scan (A' column + B' KL) combine side for every (A, B) pair.

    terms(mesh, a, b) gives the pair's (A' column, B'); side(mesh, y)
    is the term of a row block that depends on y and z, computed once
    per block and shared by all pairs.  The terms associate as in the
    plain full-mesh expression, so every cell is bitwise the same.
    """
    if mode not in ("strict", "explore"):
        raise GridError(f"mode must be 'strict' or 'explore', got {mode!r}")
    flags = [admissible(a, b) for a, b in pairs]
    if mode == "strict":
        bad = [p for p, ok in zip(pairs, flags) if not ok]
        if bad:
            raise AdmissibilityError(
                f"parameters outside the admissible region: {bad}; "
                "rerun in explore mode to scan them anyway"
            )
    mesh = mesh or _Mesh(spec)
    pair_terms = [terms(mesh, a, b) for a, b in pairs]

    def margins(start, stop, out):
        kl = mesh.kl[start:stop]
        side_block = side(mesh, mesh.y[start:stop, None])
        for column, b_kl in pair_terms:
            np.multiply(kl, b_kl, out=out)
            np.add(column[start:stop], out, out=out)
            combine(out, side_block, out=out)
            yield out

    results = _scan_rows(mesh, len(pairs), margins, threads)
    rows = tuple(
        ScanRow(a, b, ok, *result)
        for (a, b), ok, result in zip(pairs, flags, results)
    )
    return MarginReport(
        inequality=inequality, mode=mode, y_count=len(mesh.y),
        z_count=len(mesh.z), epsilon=spec.epsilon, rows=rows,
    )


def check_distance_bound(
    spec: GridSpec, pairs=None, mode: str = "strict", threads: int = 1,
    *, _mesh: _Mesh | None = None,
) -> MarginReport:
    """Scan 2A y(1-y) + B KL - |y-z| > 0 over the mesh."""
    if pairs is None:
        pairs = sample_distance_params(spec.param_samples, spec.param_seed)
    return _pair_report(
        "distance", spec, pairs, mode, threads, _mesh, admissible_distance,
        terms=lambda mesh, a, b: (a * mesh.informed, b),
        side=lambda mesh, y: np.abs(y - mesh.z),
        combine=np.subtract,
    )


def check_lower_bound(
    spec: GridSpec, pairs=None, mode: str = "strict", threads: int = 1,
    *, _mesh: _Mesh | None = None,
) -> MarginReport:
    """Scan (A-1) 2y(1-y) + (B-1) KL + y(1-z) + z(1-y) > 0 over the mesh."""
    if pairs is None:
        pairs = sample_lower_params(spec.param_samples, spec.param_seed)
    return _pair_report(
        "lower", spec, pairs, mode, threads, _mesh, admissible_lower,
        terms=lambda mesh, a, b: ((a - 1.0) * mesh.informed, b - 1.0),
        side=lambda mesh, y: y * (1.0 - mesh.z) + mesh.z * (1.0 - y),
        combine=np.add,
    )


def check_threshold_bound(
    spec: GridSpec, pairs=None, mode: str = "strict", threads: int = 1,
    *, _mesh: _Mesh | None = None,
) -> MarginReport:
    """Scan (A+1) min(y,1-y) + (B+1) KL - |y - step(z-1/2)| > 0."""
    if pairs is None:
        pairs = sample_threshold_params(spec.param_samples, spec.param_seed)
    calls_one = np.greater if numerics.TIE_PREDICTION == 0 else np.greater_equal
    return _pair_report(
        "threshold", spec, pairs, mode, threads, _mesh, admissible_threshold,
        terms=lambda mesh, a, b: ((a + 1.0) * mesh.half, b + 1.0),
        side=lambda mesh, y: np.abs(y - calls_one(mesh.z, 0.5).astype(float)),
        combine=np.subtract,
    )


def check_kl_quadratic_bound(
    spec: GridSpec, threads: int = 1, *, _mesh: _Mesh | None = None,
) -> MarginReport:
    """Scan KL(y||z) >= 2 (y-z)^2; equality allowed only on the diagonal.

    The headline minimum is taken off the diagonal, where positivity is
    strict; exact diagonal hits are verified to sit at zero separately.
    """
    mesh = _mesh or _Mesh(spec)
    diagonal = []

    def margins(start, stop, out):
        y = mesh.y[start:stop, None]
        np.subtract(mesh.kl[start:stop], 2.0 * (y - mesh.z) ** 2, out=out)
        on_diagonal = y == mesh.z
        if on_diagonal.any():
            diagonal.append(out[on_diagonal])
            out[on_diagonal] = np.inf
        yield out

    (result,) = _scan_rows(mesh, 1, margins, threads)
    return MarginReport(
        inequality="kl_quadratic", mode="strict", y_count=len(mesh.y),
        z_count=len(mesh.z), epsilon=spec.epsilon,
        rows=(ScanRow(None, None, True, *result),),
        diagonal_max_abs=(
            float(np.max(np.abs(np.concatenate(diagonal))))
            if diagonal else None
        ),
    )


_CHECKS = {
    "distance": check_distance_bound,
    "lower": check_lower_bound,
    "threshold": check_threshold_bound,
}


def run_all_scans(spec: GridSpec, explore_pairs=None, threads: int = 1):
    """All four scans; optional explore pairs are scanned without gating.

    Every scan shares one mesh.  Returns (strict_reports,
    explore_reports); only strict reports count toward the pass verdict.
    """
    explore_pairs = explore_pairs or {}
    for name in explore_pairs:
        if name not in _CHECKS:
            raise GridError(
                f"unknown inequality {name!r}; expected one of "
                f"{sorted(_CHECKS)}"
            )
    mesh = _Mesh(spec)
    strict = [
        check_distance_bound(spec, threads=threads, _mesh=mesh),
        check_lower_bound(spec, threads=threads, _mesh=mesh),
        check_threshold_bound(spec, threads=threads, _mesh=mesh),
        check_kl_quadratic_bound(spec, threads=threads, _mesh=mesh),
    ]
    explored = [
        _CHECKS[name](
            spec, pairs=pairs, mode="explore", threads=threads, _mesh=mesh,
        )
        for name, pairs in explore_pairs.items()
        if pairs
    ]
    return strict, explored
