"""The core against the independent oracle, on random branchy programs.

Hypothesis draws a program that mixes every opcode, including the
branches, random port 1 injections and a cycle budget that may end
between a fetch and its execute. The simulator and `oracle.run_machine`
must agree on the architectural state, the I/O log with its cycle
numbers, the per-module enabled-cycle counts and the controller state
of every cycle. The derandomised search keeps tier-1 runs repeatable.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcusim.control import GATED_MODULES, FsmState, next_state
from mcusim.isa import Op, RomImage
from mcusim.machine import Injection, Machine

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


def follows_next_state(states):
    """Each state is `next_state` of the one before, passing through
    the combinational DECODE state without a cycle of its own."""
    for before, after in zip(states, states[1:]):
        state = next_state(FsmState(before), Op.NOP)
        if state is FsmState.DECODE:
            state = next_state(state, Op.NOP)
        if state.value != after:
            return False
    return True


def arch_state(m):
    return (list(m.regs), m.pc, m.flags.z, m.flags.l, bytes(m.ram),
            m.cycles, m.halted, list(m.io_events), list(m.records))


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), reset=st.booleans(), halt=st.booleans())
def test_core_matches_the_oracle(case, reset, halt):
    program, budget, injections = case
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

    states = [r.fsm_state for r in m.records]
    assert states == expected.states
    assert follows_next_state(states)

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
