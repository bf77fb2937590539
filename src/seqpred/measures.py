"""Binary strings and probability measures over infinite bit sequences.

A measure is a state-transition rule: start() is the state at the empty
context and split(state) its one transition, (p1, state after 0, state
after 1) with p1 = rho(1 | context), so conditioning is the rule
replayed along the context.  p1(state) and step(state, bit) are read
off split for every family, the mixture included, so both raise where
split does: past a null event, NullEventError.  A finite-state rule is
its table: FiniteRule's states are integers and split reads their rows,
which Bernoulli and Markov measures fill in.  Prefix probabilities
rho(s), with rho(empty) = 1 and rho(s0) + rho(s1) = rho(s), chain the same
conditionals in log space so long horizons do not underflow.  Families
with a closed form for rho(s) price it on their own, and the Bayes ratio
rho(b | s) = rho(sb) / rho(s) over it is the cross-check on the rule.

Pricing is a prefix rule of its own: prefix_start() is the price state
of the empty string, prefix_split(pstate) the pair of price states one
bit longer (after 0, after 1) and log_prefix(pstate) reads ln rho off
it.  log_prefix_probability(s) folds that rule along s, and a walk over
the context tree carries the price states down its branches, so every
prefix costs one split of its parent.  By default the rule chains the
state rule's conditionals, one split per state; the families with a
closed form override the prefix rule alone.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

NULL_EVENT_MESSAGE = "conditioning on null event"
# The default prefix rule's (state, log total) once a bit has
# probability zero: no state, -inf.
DEAD_STATE = (None, -math.inf)


class MeasureError(ValueError):
    """Invalid measure parameters or an operation outside the contract."""


class NullEventError(MeasureError):
    """Raised when conditioning on a context of probability zero."""


@dataclass(frozen=True)
class BinaryString:
    """Immutable finite string over the alphabet {0, 1}."""

    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise MeasureError(f"bits must be 0 or 1, got {self.bits!r}")

    @classmethod
    def parse(cls, text: str) -> "BinaryString":
        if any(ch not in "01" for ch in text):
            raise MeasureError(f"cannot parse {text!r} as a binary string")
        return cls(tuple(int(ch) for ch in text))

    @classmethod
    def empty(cls) -> "BinaryString":
        return cls(())

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def extended(self, bit: int) -> "BinaryString":
        if bit not in (0, 1):
            raise MeasureError(f"bit must be 0 or 1, got {bit!r}")
        return BinaryString(self.bits + (bit,))

    def prefix(self, length: int) -> "BinaryString":
        if not 0 <= length <= len(self.bits):
            raise MeasureError(f"prefix length {length} out of range")
        return BinaryString(self.bits[:length])

    def count(self, bit: int) -> int:
        return self.bits.count(bit)


EMPTY = BinaryString.empty()


class StateRule(ABC):
    """The interface of measures and predictors: a rule read bit by bit.

    start() is the state at the empty context and split(state) its
    transition, (P(next bit = 1), state after 0, state after 1); p1,
    step and the context route, conditional(context, bit), are derived
    here for measures and predictors alike, so either sits wherever a
    predictor is read.
    """

    name: str = "rule"

    @abstractmethod
    def start(self):
        ...

    @abstractmethod
    def split(self, state):
        """(p1, state after 0, state after 1): one state's expansion."""

    def p1(self, state) -> float:
        return self.split(state)[0]

    def step(self, state, bit: int):
        return self.split(state)[bit + 1]

    def state_after(self, bits):
        """The state after reading bits in order."""
        state = self.start()
        for bit in bits:
            state = self.step(state, bit)
        return state

    def conditional(self, context: BinaryString, bit: int) -> float:
        """P(bit | context), by replaying the state rule."""
        p1 = self.p1(self.state_after(context))
        return p1 if bit == 1 else 1.0 - p1


class SequenceMeasure(StateRule):
    """A probability measure on one-way infinite binary sequences.

    Families define the state rule; the default prefix rule chains its
    conditionals, and log_prefix_probability folds the prefix rule.
    """

    name: str = "measure"

    # The default price state pairs the rule state with the running sum
    # of log conditionals, and is DEAD_STATE once a bit has
    # probability zero.

    def prefix_start(self):
        return (self.start(), 0.0)

    def prefix_split(self, pstate):
        state, total = pstate
        if total == -math.inf:
            return (pstate, pstate)
        p1, zero, one = self.split(state)
        p0 = 1.0 - p1
        return (
            (zero, total + math.log(p0)) if p0 > 0.0 else DEAD_STATE,
            (one, total + math.log(p1)) if p1 > 0.0 else DEAD_STATE,
        )

    def log_prefix(self, pstate) -> float:
        return pstate[1]

    def log_prefix_probability(self, s: BinaryString) -> float:
        """ln rho(s), by folding the prefix rule; -inf encodes zero."""
        pstate = self.prefix_start()
        for bit in s:
            pstate = self.prefix_split(pstate)[bit]
        return self.log_prefix(pstate)

    def prefix_probability(self, s: BinaryString) -> float:
        return math.exp(self.log_prefix_probability(s))

    def cursor(self) -> "MeasureCursor":
        """Stateful reader positioned at the empty context."""
        return MeasureCursor(self, self.start())


class MeasureCursor:
    """Incremental view of a measure along a growing context.

    Cursors are immutable; advanced() returns a new cursor, so branching
    enumerations can share a parent cursor between both children.
    """

    __slots__ = ("measure", "state")

    def __init__(self, measure, state):
        self.measure = measure
        self.state = state

    def conditional(self, bit: int) -> float:
        p1 = self.measure.p1(self.state)
        return p1 if bit == 1 else 1.0 - p1

    def advanced(self, bit: int) -> "MeasureCursor":
        return MeasureCursor(self.measure, self.measure.step(self.state, bit))


def chain_probability(measure: SequenceMeasure, s: BinaryString) -> float:
    """The chain of state-rule conditionals along s, bypassing any prefix
    rule a family prices rho(s) with; must match prefix_probability."""
    total = 0.0
    state = measure.start()
    for bit in s:
        p1 = measure.p1(state)
        try:
            total += math.log(p1 if bit == 1 else 1.0 - p1)
        except ValueError:  # log(0.0): this bit has probability zero
            return 0.0
        state = measure.step(state, bit)
    return math.exp(total)


class FiniteRule(StateRule):
    """A finite-state rule held as its table: states 0 .. len(rows) - 1,
    start 0, and rows[state] its split (p1, state after 0, after 1)."""

    def __init__(self, rows, name):
        self.rows = tuple(rows)
        self.name = name

    def start(self):
        return 0

    def split(self, state):
        return self.rows[state]


class BernoulliMeasure(FiniteRule, SequenceMeasure):
    """I.i.d. coin flips with P(bit = 1) = theta, theta strictly inside (0, 1)."""

    def __init__(self, theta: float, name: str | None = None):
        if not 0.0 < theta < 1.0:
            raise MeasureError(
                f"theta must lie strictly inside (0, 1), got {theta}; "
                "use a deterministic measure for point masses"
            )
        self.theta = float(theta)
        name = name if name is not None else f"bernoulli({self.theta:g})"
        super().__init__(((self.theta, 0, 0),), name)
        self._log_theta = math.log(self.theta)
        self._log_comp = math.log1p(-self.theta)

    # The price state is (length, ones).

    def prefix_start(self):
        return (0, 0)

    def prefix_split(self, pstate):
        length, ones = pstate
        return ((length + 1, ones), (length + 1, ones + 1))

    def log_prefix(self, pstate) -> float:
        length, ones = pstate
        return ones * self._log_theta + (length - ones) * self._log_comp


class MarkovMeasure(FiniteRule, SequenceMeasure):
    """Finite-order Markov chain on bits, order at most 4.

    The table maps every bit pattern of length <= order to P(next bit = 1)
    given that the last min(position, order) bits spell the pattern.  The
    short patterns (including the empty one) cover the start of the
    sequence before a full window is available.
    """

    MAX_ORDER = 4

    def __init__(self, order: int, table, name: str | None = None):
        if not 1 <= order <= self.MAX_ORDER:
            raise MeasureError(
                f"order must be between 1 and {self.MAX_ORDER}, got {order}"
            )
        self.order = order
        normalized: dict[str, float] = {}
        for key, value in dict(table).items():
            if any(ch not in "01" for ch in key) or len(key) > order:
                raise MeasureError(f"bad Markov table key {key!r}")
            if not 0.0 < value < 1.0:
                raise MeasureError(
                    f"transition probabilities must lie strictly inside (0, 1), "
                    f"got {key!r}: {value}"
                )
            normalized[key] = float(value)
        patterns = _patterns(order)
        missing = [key for key in patterns if key not in normalized]
        if missing:
            raise MeasureError(f"Markov table is missing patterns: {missing}")
        # State i is the window of the last min(position, order) bits
        # that patterns[i] spells.
        index = {key: i for i, key in enumerate(patterns)}
        super().__init__(
            [(normalized[key], index[(key + "0")[-order:]],
              index[(key + "1")[-order:]]) for key in patterns],
            name if name is not None else f"markov{order}",
        )

    @classmethod
    def random(cls, order: int, rng, low: float = 0.1, high: float = 0.9,
               name: str | None = None) -> "MarkovMeasure":
        table = {key: float(rng.uniform(low, high)) for key in _patterns(order)}
        return cls(order, table, name=name)


def _patterns(order: int) -> list[str]:
    """Every bit pattern of length <= order, shortest first, each length
    in counting order: the keys of a Markov table."""
    return [
        format(i, f"0{width}b") if width else ""
        for width in range(order + 1)
        for i in range(2**width)
    ]


class DeterministicMeasure(SequenceMeasure):
    """Point mass on the single sequence produced by a generator function."""

    def __init__(self, generator, name: str):
        self.generator = generator
        self.name = name

    def target_bit(self, index: int) -> int:
        bit = self.generator(index)
        if bit not in (0, 1):
            raise MeasureError(
                f"generator {self.name!r} returned {bit!r} at index {index}"
            )
        return bit

    # The state is the position on the target, or None once off it.

    def start(self):
        return 0

    def split(self, state):
        if state is None:
            raise NullEventError(NULL_EVENT_MESSAGE)
        if self.target_bit(state) == 1:
            return (1.0, None, state + 1)
        return (0.0, state + 1, None)


def named_generator(name: str, fuel: int = 100_000):
    """Resolve a generator spec: "alternating", "ones", "zeros", "program:<hex>".

    The program form runs the register machine on the hex-encoded program
    and serves its output bits; reading past the produced output raises.
    """
    if name == "alternating":
        return lambda i: i % 2
    if name == "ones":
        return lambda i: 1
    if name == "zeros":
        return lambda i: 0
    if name.startswith("program:"):
        from .semimeasure import RegisterMachine, program_bits_from_hex

        program = program_bits_from_hex(name[len("program:"):])
        output, _status = RegisterMachine().run(program, fuel)

        def bit_at(index: int, _out=output):
            if index >= len(_out):
                raise MeasureError(
                    f"{name!r} produced only {len(_out)} bits; "
                    f"index {index} is out of range"
                )
            return _out[index]

        return bit_at
    raise MeasureError(f"unknown generator {name!r}")


def deterministic(name: str, fuel: int = 100_000) -> DeterministicMeasure:
    """Deterministic measure from a named generator."""
    return DeterministicMeasure(named_generator(name, fuel=fuel), name)
