"""Weighted classes of measures and their Bayesian mixture.

The mixture assigns xi(s) = sum_i w_i nu_i(s) / sum_i w_i, so xi(empty) = 1
and every component is majorized: w_i * nu_i(s) <= (sum w) * xi(s).  The
negative log of a component's normalized prior weight acts as its
description-length surrogate in bits.

The mixture is a state rule over its components' states like every
family: split, its one transition, reads one split per live component,
and p1 and step are read off it.
"""

from __future__ import annotations

import math

from .measures import (
    BinaryString,
    MeasureError,
    NullEventError,
    NULL_EVENT_MESSAGE,
    SequenceMeasure,
)
from .numerics import logsumexp

KRAFT_TOLERANCE = 1e-12
# The split of a dead component: no mass goes to either child.
_DEAD = (0.0, None, None)


class ClassError(MeasureError):
    """Invalid weighted-class construction."""


def index_code_length(i: int) -> int:
    """Bits needed to name index i >= 1 in a self-delimiting index code."""
    if i < 1:
        raise ClassError(f"index must be >= 1, got {i}")
    return 2 * i.bit_length() - 1


def default_weights(count: int) -> tuple[float, ...]:
    """Prior weights 2**-len(code(i)) for i = 1..count; sums below 1."""
    return tuple(2.0 ** -index_code_length(i) for i in range(1, count + 1))


class WeightedClass:
    """Finite ordered collection of measures with positive prior weights."""

    def __init__(self, components):
        comps = tuple((m, float(w)) for m, w in components)
        if not comps:
            raise ClassError("a weighted class needs at least one component")
        names = [m.name for m, _ in comps]
        if len(set(names)) != len(names):
            raise ClassError(f"component names must be unique, got {names}")
        for m, w in comps:
            if not w > 0.0:
                raise ClassError(f"weight for {m.name!r} must be positive, got {w}")
        total = math.fsum(w for _, w in comps)
        if total > 1.0 + KRAFT_TOLERANCE:
            raise ClassError(
                f"weights sum to {total}, above 1; not a Kraft-style prior"
            )
        self.components = comps
        self.weight_sum = total

    @classmethod
    def with_index_code_weights(cls, measures) -> "WeightedClass":
        measures = list(measures)
        return cls(zip(measures, default_weights(len(measures))))

    @classmethod
    def uniform(cls, measures) -> "WeightedClass":
        measures = list(measures)
        if not measures:
            raise ClassError("a weighted class needs at least one component")
        w = 1.0 / len(measures)
        return cls((m, w) for m in measures)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def measures(self):
        return tuple(m for m, _ in self.components)

    def names(self):
        return tuple(m.name for m, _ in self.components)

    def weight_of(self, name: str) -> float:
        for m, w in self.components:
            if m.name == name:
                return w
        raise ClassError(f"no component named {name!r}")

    def complexity_surrogate(self, name: str) -> float:
        """-log2 of the normalized prior weight of the named component."""
        return -math.log2(self.weight_of(name) / self.weight_sum)

    def entropy_budget_nats(self, name: str) -> float:
        """ln((sum w) / w_name); caps the cumulative relative entropy."""
        return math.log(self.weight_sum / self.weight_of(name))


class MixtureMeasure(SequenceMeasure):
    """Prior-weighted average of the class components, normalized at the root."""

    def __init__(self, weighted_class: WeightedClass, name: str = "mixture"):
        self.weighted_class = weighted_class
        self.name = name
        self._log_weights = tuple(
            math.log(w) for _, w in weighted_class.components
        )
        self._log_weight_sum = math.log(weighted_class.weight_sum)
        self._measures = weighted_class.measures()

    # The price state is the tuple of the components' own price states,
    # so xi(s) is priced from each nu_i(s), never from the posterior
    # state below.  A dead component's price stays -inf.

    def prefix_start(self):
        return tuple(m.prefix_start() for m in self._measures)

    def prefix_split(self, pstate):
        return tuple(zip(*[
            m.prefix_split(part) for m, part in zip(self._measures, pstate)
        ]))

    def log_prefix(self, pstate) -> float:
        terms = [
            lw + m.log_prefix(part)
            for m, part, lw in zip(self._measures, pstate, self._log_weights)
        ]
        return logsumexp(terms) - self._log_weight_sum

    # The state is two tuples, the components' states and their
    # weighted log masses w_i nu_i(context) in log space.  A component
    # that died on the path (a deterministic measure off its target)
    # keeps mass -inf and is never split again: it splits as _DEAD, into
    # two dead children.  split is the mixture's one transition; it
    # reads every live component's split once, and the bit-1 child's
    # masses are p1's numerator terms.

    def start(self):
        return (tuple(m.start() for m in self._measures), self._log_weights)

    def split(self, state):
        parts, terms = state
        den = logsumexp(terms)
        if den == -math.inf:
            raise NullEventError(NULL_EVENT_MESSAGE)
        zero_parts, zero_terms, one_parts, one_terms = [], [], [], []
        for m, part, term in zip(self._measures, parts, terms):
            p, zero, one = m.split(part) if term > -math.inf else _DEAD
            zero_parts.append(zero)
            zero_terms.append(
                term + math.log(1.0 - p) if p < 1.0 else -math.inf
            )
            one_parts.append(one)
            one_terms.append(term + math.log(p) if p > 0.0 else -math.inf)
        p1 = math.exp(logsumexp(one_terms) - den)
        return (
            p1,
            (tuple(zero_parts), tuple(zero_terms)),
            (tuple(one_parts), tuple(one_terms)),
        )

    def posterior(self, context: BinaryString):
        """Posterior component weights given the observed context."""
        terms = [
            lw + m.log_prefix_probability(context)
            for (m, _), lw in zip(self.weighted_class.components, self._log_weights)
        ]
        total = logsumexp(terms)
        if total == -math.inf:
            raise NullEventError(NULL_EVENT_MESSAGE)
        names = self.weighted_class.names()
        return [(name, math.exp(t - total)) for name, t in zip(names, terms)]

