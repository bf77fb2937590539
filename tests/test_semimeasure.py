import itertools
import math
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from seqpred.measures import BinaryString
from seqpred.semimeasure import (
    HALTED,
    NEEDS_INPUT,
    NO_CONTINUATION_MESSAGE,
    RUNNING,
    EchoMachine,
    MonotoneMachine,
    RegisterMachine,
    SemimeasureError,
    SemimeasureTable,
    TableMeasure,
    approximate_mass,
    normalize,
    program_bits_from_hex,
)

EMPTY = BinaryString.empty()


def brute_force_units(machine, cap, fuel, depth):
    """Literal minimal-program crediting over every program up to cap.

    Independent of the enumeration order and pruning in
    approximate_mass: run the machine on all 2^0 + ... + 2^cap
    programs, and credit a prefix to a program exactly when the
    one-bit-shorter program had not yet emitted that many bits.
    """
    units = {}
    for length in range(cap + 1):
        for bits in itertools.product((0, 1), repeat=length):
            out, _ = machine.run(bits, fuel)
            if length == 0:
                parent_len = -1
            else:
                parent_out, _ = machine.run(bits[:-1], fuel)
                parent_len = len(parent_out)
            for m in range(parent_len + 1, min(len(out), depth) + 1):
                key = tuple(out[:m])
                units[key] = units.get(key, 0) + (1 << (cap - length))
    return units



# Oracles: the whole-program interpreters and the replay enumerator the
# machines' state rules and the merged walk replaced, kept verbatim.


def oracle_echo_run(program, fuel):
    program = tuple(program)
    if fuel < len(program):
        return program[:fuel], RUNNING
    return program, NEEDS_INPUT


def oracle_register_run(program, fuel):
    program = tuple(program)
    a = 0
    b = 0
    out = []
    pos = 0
    remaining = fuel
    while True:
        if remaining <= 0:
            return tuple(out), RUNNING
        if pos + 3 > len(program):
            return tuple(out), NEEDS_INPUT
        opcode = program[pos] << 2 | program[pos + 1] << 1 | program[pos + 2]
        pos += 3
        if opcode == 0:
            return tuple(out), HALTED
        if opcode == 7:
            cost = 1 + len(out)
            if cost > remaining:
                return tuple(out), RUNNING
            remaining -= cost
            out.extend(out)
            continue
        remaining -= 1
        if opcode == 1:
            out.append(0)
        elif opcode == 2:
            out.append(1)
        elif opcode == 3:
            out.append(a & 1)
            a >>= 1
        elif opcode == 4:
            a += 1
        elif opcode == 5:
            a, b = b, a
        elif opcode == 6:
            a += b


ORACLE_RUNS = {"echo": oracle_echo_run, "register": oracle_register_run}


def replay_table(machine, cap, fuel, depth):
    """Breadth-first replay of every program from its first bit."""
    run = ORACLE_RUNS[machine.name]
    units = {}
    queue = deque([((), -1)])
    while queue:
        program, parent_len = queue.popleft()
        output, status = run(program, fuel)
        credit = 1 << (cap - len(program))
        top = min(len(output), depth)
        for m in range(parent_len + 1, top + 1):
            key = tuple(output[:m])
            units[key] = units.get(key, 0) + credit
        if status == NEEDS_INPUT and len(program) < cap and len(output) < depth:
            queue.append((program + (0,), len(output)))
            queue.append((program + (1,), len(output)))
    return SemimeasureTable(
        machine_name=machine.name, cap=cap, fuel=fuel, depth=depth, units=units,
    )

class TestProgramParsing:
    def test_hex_round_trip(self):
        assert program_bits_from_hex("47F0") == (
            0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0,
        )

    def test_empty_and_junk(self):
        assert program_bits_from_hex("") == ()
        assert program_bits_from_hex(" a ") == (1, 0, 1, 0)
        with pytest.raises(SemimeasureError, match="not a hex program"):
            program_bits_from_hex("0x?")


class TestRegisterMachine:
    def setup_method(self):
        self.machine = RegisterMachine()

    def test_empty_program_wants_input(self):
        assert self.machine.run((), 8) == ((), NEEDS_INPUT)

    def test_halt_stops_immediately(self):
        assert self.machine.run((0, 0, 0, 1, 1, 1), 8) == ((), HALTED)

    def test_partial_opcode_wants_input(self):
        assert self.machine.run((0, 1), 8) == ((), NEEDS_INPUT)

    def test_repeat_doubles_output(self):
        out, status = self.machine.run(program_bits_from_hex("47F0"), 32)
        assert "".join(map(str, out)) == "10101010"
        assert status == HALTED

    def test_register_arithmetic_reaches_output(self):
        # INC INC OUTA OUTA HALT: a counts to 2, then its bits come out
        # low bit first.
        program = (1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0)
        out, status = self.machine.run(program, 32)
        assert out == (0, 1)
        assert status == HALTED

    def test_swap_and_add(self):
        # INC SWP INC ADD OUTA leaves a = 2 and emits its low bit.
        program = (1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1)
        out, status = self.machine.run(program, 32)
        assert out == (0,)
        assert status == NEEDS_INPUT

    def test_unaffordable_repeat_emits_nothing(self):
        # OUT1 REP needs 1 + (1 + 1) fuel; at 2 the copy never starts.
        program = (0, 1, 0, 1, 1, 1)
        assert self.machine.run(program, 2) == ((1,), RUNNING)
        assert self.machine.run(program, 3) == ((1, 1), RUNNING)
        assert self.machine.run(program, 4) == ((1, 1), NEEDS_INPUT)

    def test_output_monotone_in_fuel(self):
        program = program_bits_from_hex("47F0")
        previous = ()
        for fuel in range(1, 16):
            out, _ = self.machine.run(program, fuel)
            assert out[: len(previous)] == previous
            previous = out

    def test_output_monotone_in_program(self):
        fuel = 12
        for length in range(7):
            for bits in itertools.product((0, 1), repeat=length):
                out, status = self.machine.run(bits, fuel)
                if status != NEEDS_INPUT:
                    continue
                for bit in (0, 1):
                    longer, _ = self.machine.run(bits + (bit,), fuel)
                    assert longer[: len(out)] == out


class TestEchoMachine:
    def test_copies_program(self):
        machine = EchoMachine()
        assert machine.run((1, 0, 1), 8) == ((1, 0, 1), NEEDS_INPUT)
        assert machine.run((1, 0, 1), 2) == ((1, 0), RUNNING)


class TestApproximateMass:
    def test_echo_cap_two_by_hand(self):
        # Programs: eps credits eps; 0 and 1 credit themselves; the four
        # two-bit programs credit their own second bit.  In units of
        # 2^-2 that is 4 at the root, 2 per child, 1 per grandchild.
        table = approximate_mass(EchoMachine(), cap=2, fuel=8, depth=4)
        assert table.units == {
            (): 4,
            (0,): 2, (1,): 2,
            (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1,
        }
        assert table.mass(EMPTY) == 1.0
        assert table.mass(BinaryString.parse("0")) == 0.5
        assert normalize(table, EMPTY, 0) == 0.5

    def test_echo_is_uniform(self):
        table = approximate_mass(EchoMachine(), cap=8, fuel=16, depth=5)
        for n in range(6):
            s = BinaryString((1,) * n)
            assert table.mass(s) == pytest.approx(2.0 ** -n, abs=1e-12)

    def test_matches_brute_force_register(self):
        machine = RegisterMachine()
        got = approximate_mass(machine, cap=8, fuel=16, depth=4)
        assert got.units == brute_force_units(machine, 8, 16, 4)

    def test_matches_brute_force_starved_fuel(self):
        machine = RegisterMachine()
        got = approximate_mass(machine, cap=9, fuel=6, depth=5)
        assert got.units == brute_force_units(machine, 9, 6, 5)

    def test_matches_brute_force_echo(self):
        machine = EchoMachine()
        got = approximate_mass(machine, cap=6, fuel=3, depth=6)
        assert got.units == brute_force_units(machine, 6, 3, 6)

    def test_semimeasure_defect(self):
        table = approximate_mass(RegisterMachine(), cap=12, fuel=48, depth=6)
        assert table.mass(EMPTY) <= 1.0
        for bits in table.units:
            parent = table.units[bits]
            children = (
                table.units.get(bits + (0,), 0)
                + table.units.get(bits + (1,), 0)
            )
            assert children <= parent

    def test_mass_grows_with_cap(self):
        small = approximate_mass(RegisterMachine(), cap=10, fuel=48, depth=6)
        large = approximate_mass(RegisterMachine(), cap=12, fuel=48, depth=6)
        for bits, count in small.units.items():
            assert math.ldexp(count, -10) <= math.ldexp(
                large.units.get(bits, 0), -12
            ) + 1e-15

    def test_mass_grows_with_fuel(self):
        starved = approximate_mass(RegisterMachine(), cap=10, fuel=8, depth=6)
        fed = approximate_mass(RegisterMachine(), cap=10, fuel=48, depth=6)
        for bits, count in starved.units.items():
            assert count <= fed.units.get(bits, 0)

    def test_deterministic(self):
        a = approximate_mass(RegisterMachine(), cap=10, fuel=24, depth=5)
        b = approximate_mass(RegisterMachine(), cap=10, fuel=24, depth=5)
        assert a.units == b.units

    def test_parameter_validation(self):
        machine = EchoMachine()
        with pytest.raises(SemimeasureError, match="cap"):
            approximate_mass(machine, cap=0, fuel=8, depth=4)
        with pytest.raises(SemimeasureError, match="fuel"):
            approximate_mass(machine, cap=4, fuel=0, depth=4)
        with pytest.raises(SemimeasureError, match="depth"):
            approximate_mass(machine, cap=4, fuel=8, depth=0)



MACHINES = (EchoMachine(), RegisterMachine())


class TestMachineStateRule:
    """run(program, fuel) is the base class's loop over feed."""

    @settings(max_examples=400, deadline=None)
    @given(
        machine=st.sampled_from(MACHINES),
        program=st.lists(st.integers(0, 1), max_size=40).map(tuple),
        fuel=st.integers(0, 70),
    )
    # Fuel 0; fuel spent on the last instruction (OUT1 OUT0 at fuel 2,
    # more bits pending); an unaffordable REP (OUT1 OUT1 REP at fuel 4);
    # echo with less fuel than program.
    @example(machine=MACHINES[0], program=(), fuel=0)
    @example(machine=MACHINES[0], program=(1, 0), fuel=0)
    @example(machine=MACHINES[1], program=(), fuel=0)
    @example(machine=MACHINES[1], program=(0, 1, 0), fuel=0)
    @example(machine=MACHINES[1], program=(0, 1, 0, 0, 0, 1, 1, 0), fuel=2)
    @example(machine=MACHINES[1], program=(0, 1, 0, 0, 1, 0, 1, 1, 1), fuel=4)
    @example(machine=MACHINES[0], program=(1, 1, 0, 1, 0), fuel=3)
    def test_run_matches_oracle(self, machine, program, fuel):
        oracle = ORACLE_RUNS[machine.name]
        assert machine.run(program, fuel) == oracle(program, fuel)

    def test_fuel_spent_on_the_last_instruction(self):
        # OUT1 OUT0 at fuel 2: both run, and the machine is out of fuel
        # before it reads another bit.
        machine = RegisterMachine()
        state, status = machine.start(2)
        for bit in (0, 1, 0, 0, 0, 1):
            assert status == NEEDS_INPUT
            state, status = machine.feed(state, bit)
        assert (machine.output(state), status) == ((1, 0), RUNNING)
        assert machine.run((0, 1, 0, 0, 0, 1, 1, 0), 2) == ((1, 0), RUNNING)

    def test_machines_define_only_the_state_rule(self):
        for cls in (EchoMachine, RegisterMachine):
            assert {"start", "feed", "output"} <= set(vars(cls))
            assert "run" not in vars(cls)

    def test_missing_rule_cannot_be_built(self):
        class NoFeed(MonotoneMachine):
            def start(self, fuel):
                return (), NEEDS_INPUT

            def output(self, state):
                return state

        with pytest.raises(TypeError):
            NoFeed()


class TestMergedWalk:
    """approximate_mass against the replay of every program."""

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("fuel", [6, 64])
    @pytest.mark.parametrize("depth", [4, 8])
    def test_matches_replay_at_every_cap(self, machine, fuel, depth):
        for cap in range(1, 17):
            got = approximate_mass(machine, cap=cap, fuel=fuel, depth=depth)
            want = replay_table(machine, cap, fuel, depth)
            assert got == want, cap
            assert got.to_json() == want.to_json()

    def test_never_runs_a_program(self, monkeypatch):
        def refuse(self, program, fuel):
            raise AssertionError("approximate_mass replayed a program")

        monkeypatch.setattr(MonotoneMachine, "run", refuse)
        for machine in MACHINES:
            approximate_mass(machine, cap=12, fuel=24, depth=6)

    def test_large_cap_stays_bounded(self):
        # Cap 30 would be 2^31 replays; merged states need a few
        # tens of thousands of feeds.
        class Counting(RegisterMachine):
            feeds = 0

            def feed(self, state, bit):
                Counting.feeds += 1
                return super().feed(state, bit)

        large = approximate_mass(Counting(), cap=30, fuel=64, depth=6)
        assert Counting.feeds < 1 << 17
        small = approximate_mass(RegisterMachine(), cap=24, fuel=64, depth=6)
        for bits, count in small.units.items():
            assert count << 6 <= large.units.get(bits, 0)

class TestNormalize:
    def synthetic(self):
        return SemimeasureTable(
            machine_name="synthetic", cap=4, fuel=8, depth=2,
            units={(): 16, (0,): 6, (1,): 2, (0, 0): 3, (0, 1): 1},
        )

    def test_sibling_ratio(self):
        table = self.synthetic()
        assert normalize(table, EMPTY, 0) == pytest.approx(0.75)
        assert normalize(table, EMPTY, 1) == pytest.approx(0.25)
        assert normalize(table, BinaryString.parse("0"), 1) == pytest.approx(
            0.25
        )

    def test_no_continuation_mass(self):
        table = self.synthetic()
        with pytest.raises(SemimeasureError, match=NO_CONTINUATION_MESSAGE):
            normalize(table, BinaryString.parse("1"), 0)

    def test_bit_validation(self):
        with pytest.raises(SemimeasureError, match="bit"):
            normalize(self.synthetic(), EMPTY, 2)


class TestTableMeasure:
    def test_marginalization_where_mass_exists(self):
        table = approximate_mass(RegisterMachine(), cap=12, fuel=48, depth=5)
        measure = TableMeasure(table)
        for text in ("", "1", "11", "10"):
            s = BinaryString.parse(text)
            total = sum(
                measure.prefix_probability(s.extended(bit)) for bit in (0, 1)
            )
            assert total == pytest.approx(measure.prefix_probability(s))

    def test_each_bit_is_priced_by_its_own_normalized_mass(self):
        # ln rho(s) chains normalize(prefix, bit) for both bits; 1 - p1
        # for bit 0 differs from it in the last place on some of this
        # table's conditionals, which an echo table (all 1/2) hides.
        table = approximate_mass(RegisterMachine(), cap=16, fuel=64, depth=8)
        measure = TableMeasure(table)
        for length in range(7):
            for bits in itertools.product((0, 1), repeat=length):
                s = BinaryString(bits)
                try:
                    expected = 0.0
                    for k, bit in enumerate(bits):
                        p = normalize(table, s.prefix(k), bit)
                        if p == 0.0:
                            expected = -math.inf
                            break
                        expected += math.log(p)
                except SemimeasureError:
                    with pytest.raises(SemimeasureError,
                                       match=NO_CONTINUATION_MESSAGE):
                        measure.log_prefix_probability(s)
                    continue
                assert measure.log_prefix_probability(s) == expected

    def test_depth_guard(self):
        table = approximate_mass(EchoMachine(), cap=4, fuel=8, depth=3)
        measure = TableMeasure(table)
        with pytest.raises(SemimeasureError, match="depth"):
            measure.log_prefix_probability(BinaryString.parse("0101"))

    def test_name_defaults_to_machine(self):
        table = approximate_mass(EchoMachine(), cap=4, fuel=8, depth=3)
        assert TableMeasure(table).name == "table(echo, cap=4)"
        assert TableMeasure(table, "m_hat").name == "m_hat"
