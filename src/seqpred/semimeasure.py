"""Program-enumeration approximation of an algorithmic prior.

A monotone machine turns program bits into output bits; it is a state
rule (start, feed, output) read one program bit at a time.  Enumerating
all programs up to a length cap and crediting 2^-l(p) to each output
prefix the program reaches first yields a semimeasure table: a lower
bound on the ideal prior that only grows as the cap or the fuel budget
grows.  The enumeration walks program lengths in order and merges the
programs that reach the same machine state, so its work follows the
number of distinct states rather than the 2^cap programs.  Normalizing
sibling masses turns the table into a proper sequence measure.

This module is demonstrative.  The bound-verification code uses
explicit weighted mixtures, which have exact weights; the table here
shows the enumeration route on machines small enough to inspect.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .measures import EMPTY, BinaryString, SequenceMeasure
from .numerics import json_text

HALTED = "halted"
RUNNING = "running"
NEEDS_INPUT = "needs-more-input"

NO_CONTINUATION_MESSAGE = "no continuation mass"


class SemimeasureError(ValueError):
    """Table construction or normalization failure."""


class MonotoneMachine(ABC):
    """Deterministic machine whose output grows with its program.

    A machine is a state rule read one program bit at a time.
    start(fuel) gives the state before any bit and feed(state, bit) the
    state after one more, each as (state, status) with status one of
    HALTED, RUNNING (fuel exhausted) or NEEDS_INPUT (all program bits
    consumed, more wanted); output(state) is the bits emitted so far.
    feed is only called in a NEEDS_INPUT state, and states are hashable
    values: two programs in equal states have equal futures.  Two
    invariants matter: extending the program only extends the output,
    and raising fuel only extends the output.
    """

    name = "machine"

    @abstractmethod
    def start(self, fuel: int):
        ...

    @abstractmethod
    def feed(self, state, bit: int):
        ...

    @abstractmethod
    def output(self, state) -> tuple[int, ...]:
        ...

    def run(self, program, fuel):
        """(output, status) after feeding program until a bit is refused."""
        state, status = self.start(fuel)
        for bit in program:
            if status != NEEDS_INPUT:
                break
            state, status = self.feed(state, bit)
        return self.output(state), status


class EchoMachine(MonotoneMachine):
    """Copies program bits to the output, one per fuel step.

    The analytic ground truth: the only minimal program for s is s
    itself, so every mass is exactly 2^-l(s) and normalization gives
    the uniform measure.  The state is (output, remaining fuel).
    """

    name = "echo"

    def start(self, fuel):
        return ((), fuel), NEEDS_INPUT

    def feed(self, state, bit):
        out, remaining = state
        if remaining <= 0:
            return state, RUNNING
        return (out + (bit,), remaining - 1), NEEDS_INPUT

    def output(self, state):
        return state[0]


class RegisterMachine(MonotoneMachine):
    """Two-register machine with a 3-bit instruction code.

    Instructions are read most significant bit first:

        000 HALT  stop
        001 OUT0  emit 0
        010 OUT1  emit 1
        011 OUTA  emit the low bit of a, then shift a right
        100 INC   a += 1
        101 SWP   swap a and b
        110 ADD   a += b
        111 REP   re-emit everything emitted so far

    Every instruction costs one fuel step except REP, which costs one
    plus the number of bits it copies and only executes if the full
    cost is affordable; an unaffordable REP consumes the remaining fuel
    and emits nothing.  That atomicity keeps the output monotone in the
    fuel budget.  The state is (a, b, output, remaining fuel, pending
    instruction bits); an instruction runs when its third bit arrives.
    """

    name = "register"

    def start(self, fuel):
        return (0, 0, (), fuel, ()), NEEDS_INPUT if fuel > 0 else RUNNING

    def feed(self, state, bit):
        a, b, out, remaining, pending = state
        pending += (bit,)
        if len(pending) < 3:
            return (a, b, out, remaining, pending), NEEDS_INPUT
        opcode = pending[0] << 2 | pending[1] << 1 | pending[2]
        if opcode == 0:
            return (a, b, out, remaining, ()), HALTED
        if opcode == 7:
            cost = 1 + len(out)
            if cost > remaining:
                return (a, b, out, 0, ()), RUNNING
            remaining -= cost
            out += out
        else:
            remaining -= 1
            if opcode == 1:
                out += (0,)
            elif opcode == 2:
                out += (1,)
            elif opcode == 3:
                out += (a & 1,)
                a >>= 1
            elif opcode == 4:
                a += 1
            elif opcode == 5:
                a, b = b, a
            else:
                a += b
        status = NEEDS_INPUT if remaining > 0 else RUNNING
        return (a, b, out, remaining, ()), status

    def output(self, state):
        return state[2]


# The machines approximate-m runs, by name.
MACHINES = {cls.name: cls for cls in (EchoMachine, RegisterMachine)}


def program_bits_from_hex(text: str) -> tuple[int, ...]:
    """Hex digits to program bits, most significant bit first."""
    text = text.strip()
    if not text:
        return ()
    try:
        value = int(text, 16)
    except ValueError:
        raise SemimeasureError(f"not a hex program: {text!r}") from None
    width = 4 * len(text)
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True)
class SemimeasureTable:
    """Accumulated program mass per output string, in exact units.

    Masses are stored as integer multiples of 2^-cap, so merging and
    comparison across runs are exact.  mass(s0) + mass(s1) <= mass(s)
    holds by construction, with slack wherever programs halt or run out
    of fuel.
    """

    machine_name: str
    cap: int
    fuel: int
    depth: int
    units: dict

    def mass_units(self, s: BinaryString) -> int:
        return self.units.get(s.bits, 0)

    def mass(self, s: BinaryString) -> float:
        return math.ldexp(self.mass_units(s), -self.cap)

    def to_dict(self) -> dict:
        return {
            "schema": "semimeasure-table/1",
            "machine": self.machine_name,
            "cap": self.cap,
            "fuel": self.fuel,
            "depth": self.depth,
            "units": {
                "".join(map(str, bits)): count
                for bits, count in self.units.items()
            },
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def approximate_mass(
    machine: MonotoneMachine, cap: int, fuel: int, depth: int,
) -> SemimeasureTable:
    """Enumerate programs up to cap bits and credit output prefixes.

    A program p is credited 2^-l(p) toward output prefix s exactly when
    its output starts with s and the one-bit-shorter program had not
    yet produced l(s) bits, so each s collects its minimal programs
    only.  Programs still running at the fuel limit keep the bits they
    emitted; whatever they would emit later is simply missing, which
    keeps every mass a lower bound on the unbounded-fuel value.

    The walk feeds one program bit per level, from length 0 to cap, and
    never replays a program from its first bit.  Programs of one length
    that reach the same (state, status, parent output length) share
    every future credit, so they merge into one node that carries their
    count, and a node of length l credits count * 2^(cap - l).  A
    halted or fuel-starved program is not extended (its extensions
    produce the same output and are never minimal), and neither is one
    whose output already covers the table depth.  The work grows with
    the number of distinct machine states, not with 2^cap.
    """
    if cap < 1:
        raise SemimeasureError(f"cap must be >= 1, got {cap}")
    if fuel < 1:
        raise SemimeasureError(f"fuel must be >= 1, got {fuel}")
    if depth < 1:
        raise SemimeasureError(f"depth must be >= 1, got {depth}")

    units: dict[tuple, int] = {}
    level = {(*machine.start(fuel), -1): 1}
    for length in range(cap + 1):
        following: dict[tuple, int] = {}
        for (state, status, parent_len), count in level.items():
            output = machine.output(state)
            credit = count << (cap - length)
            for m in range(parent_len + 1, min(len(output), depth) + 1):
                key = output[:m]
                units[key] = units.get(key, 0) + credit
            if status == NEEDS_INPUT and length < cap and len(output) < depth:
                for bit in (0, 1):
                    child = (*machine.feed(state, bit), len(output))
                    following[child] = following.get(child, 0) + count
        level = following
    return SemimeasureTable(
        machine_name=machine.name, cap=cap, fuel=fuel, depth=depth, units=units,
    )


def normalize(table: SemimeasureTable, s: BinaryString, bit: int) -> float:
    """mass(s.bit) over the two sibling masses."""
    if bit not in (0, 1):
        raise SemimeasureError(f"bit must be 0 or 1, got {bit!r}")
    zero = table.mass_units(s.extended(0))
    one = table.mass_units(s.extended(1))
    if zero + one == 0:
        raise SemimeasureError(NO_CONTINUATION_MESSAGE)
    return (one if bit else zero) / (zero + one)


class TableMeasure(SequenceMeasure):
    """Proper measure induced by chaining normalized table masses.

    The empty string gets probability one and each extension multiplies
    in a normalized sibling ratio, so marginalization holds exactly by
    construction wherever the table has continuation mass.
    """

    def __init__(self, table: SemimeasureTable, name: str | None = None):
        if name is None:
            name = f"table({table.machine_name}, cap={table.cap})"
        self.name = name
        self.table = table

    # The price state is (context, ln of its chained normalized masses),
    # read as the default rule reads its (state, total); the total is
    # -inf once a bit has no mass, and the context keeps growing so the
    # depth is still checked.

    def prefix_start(self):
        return (EMPTY, 0.0)

    def prefix_split(self, pstate):
        context, total = pstate
        if len(context) >= self.table.depth:
            raise SemimeasureError(
                f"table depth {self.table.depth} cannot price a length "
                f"{len(context) + 1} string"
            )
        return tuple(
            (context.extended(bit), self._priced(context, bit, total))
            for bit in (0, 1)
        )

    def _priced(self, context, bit: int, total: float) -> float:
        if total == -math.inf:
            return total
        p = normalize(self.table, context, bit)
        return -math.inf if p == 0.0 else total + math.log(p)

    # The state is the context itself: the table has no smaller summary.

    def start(self):
        return EMPTY

    def split(self, state):
        return (
            normalize(self.table, state, 1),
            state.extended(0),
            state.extended(1),
        )

