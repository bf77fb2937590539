"""Exact reference totals for Monte Carlo items over Bernoulli classes.

When the true measure and every component are Bernoulli, the mixture's
conditional after k bits depends only on how many of them were ones, so
the expected per-step quantities are sums over the (k, ones) lattice:
O(n^2 K) work at any horizon, where tree enumeration stops at 16.  The
formulas are written out here, independently of `seqpred.predictors`,
so a Monte Carlo estimate is checked against a separate route.
"""

from __future__ import annotations

import math


def _logsumexp(values):
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def _kl(y: float, z: float) -> float:
    return y * math.log(y / z) + (1.0 - y) * math.log((1.0 - y) / (1.0 - z))


def bernoulli_class_totals(
    weights, thetas, mu_theta: float, n: int, laplace: bool,
) -> dict[str, float]:
    """Expected totals over n steps, keyed like ExpectationReport totals.

    weights and thetas describe the class components; mu_theta is the
    true measure's bias; laplace adds the general-predictor total for the
    add-one rule (ones + 1) / (k + 2).  Ties of the mixture at exactly
    1/2 threshold to 0.
    """
    log_w = [math.log(w) for w in weights]
    log_t = [math.log(t) for t in thetas]
    log_c = [math.log1p(-t) for t in thetas]
    y = mu_theta
    log_y, log_not_y = math.log(y), math.log1p(-y)
    names = [
        "informed", "mixture", "distance", "quadratic", "entropy",
        "threshold_informed", "threshold_mixture", "threshold_gap",
    ]
    if laplace:
        names.append("general")
    terms = {name: [] for name in names}
    informed = 2.0 * y * (1.0 - y)
    threshold_informed = min(y, 1.0 - y)
    for k in range(n):
        for ones in range(k + 1):
            log_path = (
                math.lgamma(k + 1) - math.lgamma(ones + 1)
                - math.lgamma(k - ones + 1)
                + ones * log_y + (k - ones) * log_not_y
            )
            weight = math.exp(log_path)
            post = [
                lw + ones * lt + (k - ones) * lc
                for lw, lt, lc in zip(log_w, log_t, log_c)
            ]
            den = _logsumexp(post)
            z = math.fsum(
                math.exp(p - den) * t for p, t in zip(post, thetas)
            )
            step = 1.0 if z > 0.5 else 0.0
            threshold_mixture = abs(y - step)
            values = {
                "informed": informed,
                "mixture": y * (1.0 - z) + (1.0 - y) * z,
                "distance": abs(y - z),
                "quadratic": (y - z) ** 2,
                "entropy": _kl(y, z),
                "threshold_informed": threshold_informed,
                "threshold_mixture": threshold_mixture,
                "threshold_gap": abs(threshold_mixture - threshold_informed),
            }
            if laplace:
                r = (ones + 1.0) / (k + 2.0)
                values["general"] = y * (1.0 - r) + (1.0 - y) * r
            for name in names:
                terms[name].append(weight * values[name])
    return {name: math.fsum(parts) for name, parts in terms.items()}
