"""The core against the independent oracle, on random branchy programs.

Hypothesis draws a program that mixes every opcode, including the
branches, random port 1 injections and a cycle budget that may end
between a fetch and its execute. The simulator and `oracle.run_machine`
must agree on the architectural state, the I/O log with its cycle
numbers, the per-module enabled-cycle counts and the controller state
of every cycle. The derandomised search keeps tier-1 runs repeatable.
Hand-written cases then pin the edges of block translation: code that
wraps from 0xFF to 0x00, a block closed by a branch to itself, each
conditional branch taken and not taken to itself, budgets and
injections that land inside a block, and injections that leave the
translated blocks as they are.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcusim.control import GATED_MODULES
from mcusim.isa import Op, RomImage
from mcusim.machine import Injection, Machine, _translate

import oracle
from test_machine import encode_tuple

MNEMONICS = [op.name for op in Op]
IO = ["PORT0", "PORT1", "B7S", "UARTS"]
# Stays below 256 UART sends, so the transmit FIFO cannot overflow.
MAX_BUDGET = 400


@st.composite
def cases(draw):
    """(program, budget, injections), drawn from one seeded Random so
    that every opcode, budget and injection cycle can come up. I/O
    opcodes are drawn more often, to keep the UART and port 1 busy."""
    rng = draw(st.randoms(use_true_random=False))
    length = rng.randint(1, 24)
    program = []
    for _ in range(length):
        mnemonic = rng.choice(IO if rng.random() < 0.2 else MNEMONICS)
        # Immediates near the program keep control flow inside it.
        imm = rng.randrange(length + 4) if rng.random() < 0.8 \
            else rng.randrange(256)
        program.append((mnemonic, rng.randrange(8), rng.randrange(8), imm))
    if rng.random() < 0.5:
        program.append(("BI", 0, 0, len(program)))  # park at the end
    budget = rng.randint(1, MAX_BUDGET)
    injections = [(rng.randrange(budget + 1), rng.randrange(256))
                  for _ in range(rng.randint(0, 4))]
    return program, budget, injections


def arch_state(m):
    return (list(m.regs), m.pc, m.flags.z, m.flags.l, bytes(m.ram),
            m.cycles, m.halted, list(m.io_events), list(m.records))


def check_against_oracle(program, budget, injections=(), reset=False,
                         halt=True):
    """Run `program` on the simulator, in one `run` and tick by tick,
    and compare both with the oracle. Returns the machine."""
    expected = oracle.run_machine(program, budget, injections, reset=reset,
                                  halt_on_self_loop=halt)

    m = Machine(RomImage([encode_tuple(*t) for t in program]))
    if reset:
        m.reset()
    result = m.run(budget, halt_on_self_loop=halt, injections=[
        Injection(cycle, "port1", value) for cycle, value in injections])

    assert m.regs == expected.regs
    assert (m.flags.z, m.flags.l) == (expected.z, expected.l)
    assert m.pc == expected.pc
    assert all(m.ram[a] == expected.ram.get(a, 0) for a in range(256))
    assert m.cycles == result.cycles == expected.cycles
    assert m.halted == expected.halted
    assert result.halted == (expected.halted and halt)
    assert m.peripherals.ports.port0_latch == expected.port0
    assert m.peripherals.sevenseg.last_digit == expected.sevenseg_digit
    assert (list(m.peripherals.uart.tx_queue)
            == expected.uart_sent[expected.emitted:])
    assert [(e.cycle, e.device, e.direction, e.value)
            for e in m.io_events] == expected.events

    activity = m.activity()
    assert activity.total_cycles == expected.cycles
    assert activity.duties() == {
        module: expected.enabled[module] / expected.cycles
        for module in GATED_MODULES}

    assert [r.fsm_state for r in m.records] == expected.states

    # tick() drives the same core one cycle at a time.
    ticked = Machine(m.rom)
    if reset:
        ticked.reset()
    levels = sorted(injections, key=lambda inj: inj[0])
    while ticked.cycles < budget and not (halt and ticked.halted):
        for cycle, value in levels:
            if cycle == ticked.cycles:
                ticked.inject_port1(value)
        ticked.tick()
    assert arch_state(ticked) == arch_state(m)
    return m


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), reset=st.booleans(), halt=st.booleans())
def test_core_matches_the_oracle(case, reset, halt):
    check_against_oracle(*case, reset=reset, halt=halt)


def nops_except(placed):
    """A full 256-instruction program of NOPs with `placed` {address:
    instruction} on top, for code the oracle must find past address 0."""
    return [placed.get(addr, ("NOP", 0, 0, 0)) for addr in range(256)]


def test_straight_line_code_wraps_from_0xff_to_0x00():
    # The block from 0xFC runs 0xFC..0xFF and 0x00, where BI closes it.
    program = nops_except({
        0x00: ("BI", 0, 0, 0xFC),
        0xFC: ("INC", 1, 0, 0),
        0xFD: ("ADD", 2, 1, 0),
        0xFE: ("ROL", 2, 0, 0),
        0xFF: ("SUB", 3, 2, 0),
    })
    for budget in (11, 12, 13, 301, 302):
        check_against_oracle(program, budget)


def test_branch_to_itself_closing_a_block_halts_on_that_cycle():
    program = [("LOADI", 1, 0, 3), ("INC", 2, 0, 0), ("INC", 2, 0, 0),
               ("BCH", 1, 0, 0)]
    for halt in (True, False):
        m = check_against_oracle(program, 100, halt=halt)
        assert m.halted
    m = check_against_oracle(program, 100)
    assert (m.cycles, m.pc, m.regs[2]) == (8, 3, 2)


# Flag set-ups: ZERO R0 sets z, DEC R0 on a zero R0 sets l, NOP leaves
# both clear.
SET_FLAGS = {"z": ("ZERO", 0, 0, 0), "l": ("DEC", 0, 0, 0),
             "none": ("NOP", 0, 0, 0)}


@pytest.mark.parametrize("mnemonic, taken, not_taken", [
    ("BEQ", "z", "none"), ("BNEQ", "none", "z"), ("BGT", "none", "z"),
    ("BLT", "l", "none"), ("BLTE", "z", "none"), ("BGTI", "none", "z"),
])
def test_conditional_branch_taken_to_itself_halts(mnemonic, taken,
                                                  not_taken):
    # The branch at address 2 targets address 2, through R1 or its
    # immediate. Branches write no flags, so taken once it is taken
    # forever.
    def program(flags):
        return [SET_FLAGS[flags], ("LOADI", 1, 0, 2), (mnemonic, 1, 0, 2)]

    m = check_against_oracle(program(taken), 1000)
    assert (m.halted, m.halt_reason, m.cycles, m.pc) == (
        True, "self-loop", 6, 2)
    # Without the halt it spins to the budget.
    m = check_against_oracle(program(taken), 1000, halt=False)
    assert (m.cycles, m.pc) == (1000, 2)
    # Not taken, it falls through into the NOPs and runs on.
    m = check_against_oracle(program(not_taken), 1000)
    assert (m.halted, m.halt_reason, m.cycles) == (False, None, 1000)


# A nine-instruction block closed by PORT1, then PORT0 and a branch back.
PORT1_LOOP = [("LOADI", 1, 0, 0x11), ("ADD", 2, 1, 0), ("SHL", 2, 0, 0),
              ("XOR", 3, 2, 0), ("DEC", 4, 0, 0), ("INC", 5, 0, 0),
              ("OR", 6, 3, 0), ("SUB", 6, 1, 0), ("PORT1", 7, 0, 0),
              ("PORT0", 7, 0, 0), ("BI", 0, 0, 1)]


def test_budgets_and_injections_inside_a_block():
    # The budgets and the injections, every third cycle, land inside the
    # blocks of the first three passes.
    for budget in range(1, 61):
        check_against_oracle(PORT1_LOOP, budget)
    for cycle in range(0, 60, 3):
        check_against_oracle(PORT1_LOOP, 70, [(cycle, cycle + 1),
                                              (cycle + 1, 0xA5)])


def test_injections_translate_no_extra_blocks():
    # PORT1 reads the injected level at its execute cycle, so an
    # injection neither splits a block nor makes a later fetch translate
    # one from a pc inside it.
    rom = RomImage([encode_tuple(*t) for t in PORT1_LOOP])

    def translated(cycles):
        _translate.cache_clear()
        m = Machine(rom)
        m.run(300, injections=[Injection(c, "port1", c & 0xFF)
                               for c in cycles])
        return [pc for pc, block in enumerate(m._code.blocks) if block]

    assert translated(range(0, 300, 3)) == translated([]) == [0, 1, 9, 10]
