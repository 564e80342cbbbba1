"""The core against the independent oracle, on random branchy programs.

Hypothesis draws a program that mixes every opcode, including the
branches, random port 1 injections, a cycle budget that may end
between a fetch and its execute, host reset, force-idle and interrupt
calls between runs, and the gating policy. The simulator and
`oracle.RefMachine` must agree on the architectural state, the I/O log
with its cycle numbers, the per-module enabled-cycle counts, the
controller state of every cycle, and every byte the trace and I/O log
writers write. The same run cut into several `run` calls must write
those same bytes and fold to the same activity. The derandomised
search keeps tier-1 runs repeatable.
Hand-written cases then pin the edges of block translation: code that
wraps from 0xFF to 0x00, a block closed by a branch to itself, each
conditional branch taken and not taken to itself, budgets and
injections that land inside a block, a budget that runs a long block's
fitting prefix, injections that leave the translated blocks as they
are, and a UART byte draining across idle and reset, ending inside a
block, or leaving between or with the port events of one block, in the
fetch of a UARTS or in an illegal fetch, and a full transmit FIFO met
by a UARTS first, in the middle or last in a block. Others pin `step()`
after any budget to an execute half, the UART across a long idle spell,
and the block-length cap.
"""

import os
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcusim import cli
from mcusim.control import GATED_MODULES, GatingPolicy
from mcusim.isa import IllegalOpcodeError, Op, RomImage, decode
from mcusim import machine as machine_module
from mcusim.machine import Injection, Machine, _translate
from mcusim.peripherals import TxOverflowError

import oracle
from test_machine import encode_tuple, io_events

MNEMONICS = [op.name for op in Op]
IO = ["PORT0", "PORT1", "B7S", "UARTS"]
# Stays below 256 UART sends, so the transmit FIFO cannot overflow.
MAX_BUDGET = 400
HOST_LINES = ("force_idle", "interrupt", "reset")


@st.composite
def cases(draw):
    """(program, budget, injections, host, gated, cuts), drawn from one
    seeded Random so that every opcode, budget and injection cycle can
    come up. I/O opcodes are drawn more often, to keep the UART and
    port 1 busy. `host` lists (cycle, line) host calls made between
    runs and `cuts` the cycles a split run stops at; they and the policy
    are drawn last, so the draws before them are what they were."""
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
    host, cuts = [], []
    if budget > 1:
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            at = rng.randrange(1, budget)
            host.append((at, rng.choice(HOST_LINES)))
            if host[-1][1] == "force_idle" and rng.random() < 0.75:
                host.append((min(at + rng.randrange(8), budget - 1),
                             "interrupt"))
        host.sort()
        cuts = sorted(rng.sample(range(1, budget),
                                 min(budget - 1, rng.randint(1, 6))))
    gated = rng.random() < 0.5
    return program, budget, injections, host, gated, cuts


def arch_state(m):
    return (list(m.regs), m.pc, m.flags.z, m.flags.l, bytes(m.ram),
            m.cycles, m.halted, io_events(m), list(m.records))


def drive(m, budget, injections=(), host=(), halt=True):
    """Run `m`, the simulator or the oracle, to `budget`, stopping at
    each (cycle, line) of `host` to call that host line, if not None.
    Each run gets the (cycle, value) injections due from its planned
    start on. Returns the last run's result, the (cycle, line) calls as
    made, and the injections that took effect."""
    wrap = isinstance(m, Machine)
    result, made, applied = None, [], []
    start = 0
    for stop, line in [*host, (budget, None)]:
        due = [inj for inj in injections if inj[0] >= start]
        result = m.run(stop, halt_on_self_loop=halt, injections=[
            Injection(cycle, "port1", value) for cycle, value in due]
            if wrap else due)
        applied += [inj for inj in due if inj[0] < m.cycles]
        if line is not None:
            made.append((m.cycles, line))
            getattr(m, line)()
        start = stop
    return result, made, applied


def machine_for(program, gated=True):
    return Machine(RomImage([encode_tuple(*t) for t in program]),
                   policy=GatingPolicy() if gated else GatingPolicy.ungated())


def check_against_oracle(program, budget, injections=(), reset=False,
                         halt=True, host=(), gated=True):
    """Run `program` on the simulator, in `run` calls stopping at each
    host call and tick by tick, and compare both with the oracle.
    Returns the machine."""
    expected = oracle.RefMachine(program, gated)
    m = machine_for(program, gated)
    if reset:
        expected.reset()
        m.reset()
    drive(expected, budget, injections, host, halt)
    result, made, applied = drive(m, budget, injections, host, halt)
    assert m.cycles == result.cycles
    assert result.halted == (expected.halted and halt)
    assert_like_oracle(m, expected)

    # tick() drives the same core one cycle at a time.
    ticked = Machine(m.rom, policy=m.policy)
    if reset:
        ticked.reset()
    levels = sorted(applied, key=lambda inj: inj[0])
    while ticked.cycles < m.cycles:
        for cycle, line in made:
            if cycle == ticked.cycles:
                getattr(ticked, line)()
        for cycle, value in levels:
            if cycle == ticked.cycles:
                ticked.inject_port1(value)
        ticked.tick()
    assert arch_state(ticked) == arch_state(m)
    return m


def assert_like_oracle(m, expected):
    """The simulator `m` and the oracle agree on the architectural and
    controller state, the I/O log, the activity and every byte the
    trace and I/O log writers write."""
    assert m.regs == expected.regs
    assert (m.flags.z, m.flags.l) == (expected.z, expected.l)
    assert m.pc == expected.pc
    assert m.fsm.value == expected.state
    assert all(m.ram[a] == expected.ram.get(a, 0) for a in range(256))
    assert m.cycles == expected.cycles
    assert m.halted == expected.halted
    assert m.peripherals.ports.port0_latch == expected.port0
    assert m.peripherals.sevenseg.last_digit == expected.sevenseg_digit
    assert (list(m.peripherals.uart.tx_queue)
            == expected.uart_sent[expected.emitted:])
    assert m.peripherals.ports.port1_input == expected.port1_input
    assert io_events(m) == expected.events

    activity = m.activity()
    assert activity.total_cycles == expected.cycles
    assert activity.duties() == {
        module: expected.enabled[module] / expected.cycles
        for module in GATED_MODULES}

    assert ([r.fsm_state for r in m.records]
            == [state for _, state, _, _ in expected.rows])
    assert outputs(m)[0] == oracle_outputs(expected)


def outputs(m):
    """The trace CSV and I/O log bytes `mcusim run` writes for `m`, and
    its activity."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, io_log = (os.path.join(tmp, name)
                         for name in ("trace.csv", "io.csv"))
        cli._write_trace(trace, m)
        cli._write_io_log(io_log, m.io_log)
        with open(trace, "rb") as fh, open(io_log, "rb") as gh:
            written = fh.read(), gh.read()
    activity = m.activity()
    return written, activity.total_cycles, activity.duties()


def oracle_outputs(expected):
    """The trace CSV and I/O log bytes the oracle renders for its run."""
    return (oracle.trace_csv(expected.rows).encode(),
            oracle.io_log_csv(expected.events).encode())


def check_split_run(program, budget, injections, cuts, gated=True):
    """One run to `budget` and the same run stopped at each cycle of
    `cuts`, where a block that does not fit runs its fitting prefix,
    must give the same outputs, and those of the one run must be the
    oracle's bytes."""
    whole, split = machine_for(program, gated), machine_for(program, gated)
    expected = oracle.RefMachine(program, gated)
    drive(expected, budget, injections, halt=False)
    drive(whole, budget, injections, halt=False)
    drive(split, budget, injections, [(cut, None) for cut in cuts],
          halt=False)
    assert split.cycles == whole.cycles == budget
    written = outputs(whole)
    assert outputs(split) == written
    assert written[0] == oracle_outputs(expected)


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), reset=st.booleans(), halt=st.booleans())
def test_core_matches_the_oracle(case, reset, halt):
    program, budget, injections, host, gated, cuts = case
    check_against_oracle(program, budget, injections, reset=reset,
                         halt=halt, host=host, gated=gated)
    check_split_run(program, budget, injections, cuts, gated)


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


# Straight-line code with PORT1 and PORT0 in it, then a branch back: one
# block from 0, then one from 1, each closed by the branch.
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


# A byte for the UART, then INCs among NOPs from address 2 to the BI at
# 200: straight code that the 32-instruction cap splits into 64-cycle
# blocks from 0x00, 0x20, 0x40 and on, one of which every budget below
# cuts.
LONG_BLOCK = nops_except({0: ("LOADI", 1, 0, 0x41), 1: ("UARTS", 1, 0, 0),
                          **{a: ("INC", 2, 0, 0) for a in range(2, 200, 7)},
                          200: ("BI", 0, 0, 0)})


@pytest.mark.parametrize("budget", [101, 102, 250, 251])
def test_a_budget_inside_a_block_runs_its_fitting_prefix(budget,
                                                         monkeypatch):
    # The run to `budget` translates the whole blocks before it and the
    # prefix that fits of the block it cuts. An odd budget leaves a lone
    # fetch, whose execute half, run next, translates one instruction. A
    # second machine on the ROM reuses all of them.
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr("mcusim.machine.compile", counting, raising=False)
    _translate.cache_clear()
    for _ in range(2):
        m = machine_for(LONG_BLOCK)
        m.run(budget)
        m.run(budget + 1)
    lone = [f"<ROM block at {budget // 2:#04x}>"] if budget % 2 else []
    assert compiled == [f"<ROM block at {pc:#04x}>"
                        for pc in range(0, budget // 2, 32)] + lone
    check_split_run(LONG_BLOCK, 1000, (),
                    [budget, budget + 1, budget + 4, budget + 400])


def test_stepping_translates_only_what_it_runs(monkeypatch):
    # A lone fetch runs no instruction, so stepping by tick() asks for a
    # translation only at an execute half, and each request compiles.
    calls, compiled = [], []
    compile_block = machine_module._compile_block

    def counting_calls(*args):
        calls.append(args[2])
        return compile_block(*args)

    def counting_compiles(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(machine_module, "_compile_block", counting_calls)
    monkeypatch.setattr(machine_module, "compile", counting_compiles,
                        raising=False)
    _translate.cache_clear()
    m = machine_for(PORT1_LOOP)
    for _ in range(60):
        m.tick()
    assert len(calls) == len(compiled) == len(set(calls)) > 1


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

    assert translated(range(0, 300, 3)) == translated([]) == [0, 1]


# Two bytes for the UART, then a 13-instruction block looping on itself.
UART_LOOP = ([("LOADI", 1, 0, 0x41), ("UARTS", 1, 0, 0), ("UARTS", 1, 0, 0)]
             + [("INC", 2, 0, 0)] * 12 + [("BI", 0, 0, 3)])


@pytest.mark.parametrize("gated", [True, False])
def test_uart_drain_across_idle_interrupt_and_reset(gated):
    # A queued byte leaves after ten clocked cycles: the first, queued at
    # cycle 3, leaves in cycle 13, or in 17 when gated, since the gated
    # idle cycles 6-9 freeze the drain. The resets at cycles 20 and 37
    # each drop the bytes still queued. After the first, the program
    # queues two bytes again, at cycles 25 and 27; only ungated does the
    # first of them leave before the second reset, as the second idle
    # spell, cycles 31-34, freezes the gated drain. That spell starts
    # between the fetch at pc 4 and its execute, so the core fetches
    # pc 4 again on waking.
    host = [(6, "force_idle"), (9, "interrupt"), (20, "reset"),
            (31, "force_idle"), (34, "interrupt"), (37, "reset")]
    m = check_against_oracle(UART_LOOP, 120, host=host, gated=gated,
                             halt=False)
    sent = [e.cycle for e in io_events(m) if e.device == "uart"]
    assert sent == ([17, 52, 62] if gated else [13, 35, 52, 62])
    rows = m.records
    assert [r.fsm_state for r in rows[6:11]] == ["idle"] * 4 + ["fetch"]
    assert [r.fsm_state for r in rows[20:23]] == ["reset1", "reset2",
                                                  "fetch"]
    assert [(r.fsm_state, r.pc) for r in rows[30:37]] == (
        [("fetch", 4)] + [("idle", 4)] * 4 + [("fetch", 4), ("execute", 4)])
    check_split_run(UART_LOOP, 120, (), [5, 7, 17, 21, 33], gated)


@pytest.mark.parametrize("gated", [True, False])
def test_uart_drain_ending_inside_a_block(gated):
    # The second byte, queued at cycle 5, leaves in cycle 23, so the
    # busy prefix of the 26-cycle block run from cycle 6 ends after 18
    # of its cycles.
    m = check_against_oracle(UART_LOOP, 200, gated=gated, halt=False)
    busy = [r.cycle for r in m.records if "uart" in r.enables]
    assert busy == (list(range(3, 24)) if gated else list(range(200)))
    check_split_run(UART_LOOP, 200, (), [7, 12, 24, 25, 31], gated)


def port_block(leaves_with_port0):
    """A byte queued in cycle 3, so leaving in 13, then, in the same
    block up to a branch back to pc 2: PORT0 in cycle 5, PORT0 in 11
    or, with `leaves_with_port0`, in 13, and B7S in 15."""
    nop, port0 = ("NOP", 0, 0, 0), ("PORT0", 2, 0, 0)
    middle = ([nop, nop, nop, port0] if leaves_with_port0
              else [nop, nop, port0, nop])
    return ([("LOADI", 1, 0, 0x41), ("UARTS", 1, 0, 0), ("PORT0", 1, 0, 0)]
            + middle + [("B7S", 1, 0, 0), ("BI", 0, 0, 2)])


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("leaves_with_port0", [False, True])
def test_a_byte_leaving_inside_a_block_logs_between_its_events(
        leaves_with_port0, gated):
    # I/O instructions do not end a block, so the byte is queued and
    # leaves inside the block from pc 0. Each I/O instruction logs the
    # bytes that left up to its cycle before its own event; in one
    # cycle the leave comes first.
    program = port_block(leaves_with_port0)
    m = check_against_oracle(program, 18, gated=gated)
    assert m._code.blocks[0][1] == 18  # cycles 0-17
    inside = ([(13, "uart"), (13, "port0")] if leaves_with_port0
              else [(11, "port0"), (13, "uart")])
    assert [(e.cycle, e.device) for e in io_events(m)] == [
        (5, "port0"), *inside, (15, "sevenseg")]
    check_split_run(program, 60, (), [6, 13, 14, 17, 33], gated)


def test_a_byte_leaving_in_an_illegal_fetch_is_logged():
    # The byte queued in cycle 3 would leave in 13, an execute cycle.
    # The machine is parked after the fetch in cycle 4, for one gated
    # idle cycle that holds the drain: the byte then leaves in 14, in
    # the fetch of the illegal word at pc 6, which ends the run (`mcusim
    # run` exits 2). Its I/O log must still hold the byte.
    program = [("LOADI", 1, 0, 0x41), ("UARTS", 1, 0, 0)]
    program += [("NOP", 0, 0, 0)] * 4
    m = Machine(RomImage([encode_tuple(*t) for t in program] + [0xA800]))
    m.run(5)
    m.force_idle()
    m.interrupt()
    with pytest.raises(IllegalOpcodeError):
        m.run(100)
    assert (m.cycles, m.pc) == (15, 6)
    assert [(e.cycle, e.device) for e in io_events(m)] == [(14, "uart")]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "io.csv")
        cli._write_io_log(path, m.io_log)
        with open(path, "rb") as fh:
            assert fh.read().endswith(b"\r\n14,uart,out,0x41\r\n")


@pytest.mark.parametrize("gated", [True, False])
def test_a_byte_leaving_in_the_fetch_of_uarts_is_gone_before_it_sends(gated):
    # One idle cycle, ungated after the execute in cycle 3 or gated
    # after the fetch in cycle 4, puts the first byte's leave in the
    # fetch of the second UARTS. That UARTS then finds the FIFO empty,
    # so the second byte leaves ten cycles after its own send.
    program = ([("LOADI", 1, 0, 0x41), ("UARTS", 1, 0, 0)]
               + [("NOP", 0, 0, 0)] * 4 + [("UARTS", 1, 0, 0)])
    park = 5 if gated else 4
    m = check_against_oracle(program, 40, halt=False, gated=gated,
                             host=[(park, "force_idle"),
                                   (park, "interrupt")])
    assert [e.cycle for e in io_events(m)] == [park + 9, park + 20]


def test_a_block_holds_at_most_32_instructions():
    # 255 INCs and a branch back, straight code that would otherwise be
    # one 256-instruction block. `compile`'s transient heap grows with
    # the source: uncapped, the run's traced-heap peak was about 1.8 MB;
    # capped, it read 259-284 KB on CPython 3.10-3.13.
    _translate.cache_clear()
    m = machine_for([("INC", 1, 0, 0)] * 255 + [("BI", 0, 0, 0)])
    tracemalloc.start()
    try:
        m.run(1000, halt_on_self_loop=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    translated = [block for block in m._code.blocks if block]
    translated += m._code.cuts.values()
    assert max(block[1] for block in translated) == 2 * 32
    assert peak < 384 * 1024
    assert m.regs[1] == 255 + 244  # 500 instructions, the branch one


# Blocks that loop on themselves and send faster than the UART drains,
# with a UARTS first, in the middle, last, or in all three places.
SENDS = {
    "first": [("UARTS", 1, 0, 0), ("INC", 2, 0, 0), ("STORE", 2, 0, 0x10)],
    "middle": [("INC", 2, 0, 0), ("UARTS", 1, 0, 0), ("STORE", 2, 0, 0x10)],
    "last": [("INC", 2, 0, 0), ("STORE", 2, 0, 0x10), ("UARTS", 1, 0, 0)],
    "all three": [("UARTS", 1, 0, 0), ("INC", 2, 0, 0), ("UARTS", 1, 0, 0),
                  ("STORE", 2, 0, 0x10), ("UARTS", 1, 0, 0)],
}


def filled_then(body, short):
    """(program, pc): 42 passes of an eight-send loop and 4 - `short`
    sends more, which leave the FIFO `short` bytes short of full when
    the block at pc, `body` closed by a branch back to pc, first runs."""
    uarts = ("UARTS", 1, 0, 0)
    program = ([("LOADI", 1, 0, 0x41), ("LOADI", 2, 0, 42),
                ("LOADI", 3, 0, 3)] + [uarts] * 8
               + [("DEC", 2, 0, 0), ("BNEQ", 3, 0, 0)] + [uarts] * (4 - short))
    pc = len(program) + 1
    return program + [("BI", 0, 0, pc)] + body + [("BI", 0, 0, pc)], pc


def fifo_level(expected, cycle):
    """How many bytes the oracle's FIFO holds as `cycle` begins."""
    sent = sum(state == "execute" and mnemonic == "UARTS"
               for _, state, mnemonic, _ in expected.rows[:cycle])
    left = sum(at < cycle and device == "uart"
               for at, device, _, _ in expected.events)
    return sent - left


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("short", [0, 1, 2])
@pytest.mark.parametrize("layout", list(SENDS))
def test_a_full_fifo_raises_before_its_block_runs_on(layout, short, gated):
    # A block whose sends could overflow the FIFO runs only up to its
    # first UARTS, or that UARTS alone, so the one that finds the FIFO
    # full raises in its execute cycle with nothing after it run, as
    # the oracle's does.
    program, pc = filled_then(SENDS[layout], short)
    expected = oracle.RefMachine(program, gated)
    with pytest.raises(oracle.FifoFull):
        expected.run(2000, halt_on_self_loop=False)
    m = machine_for(program, gated)
    with pytest.raises(TxOverflowError):
        m.run(2000, halt_on_self_loop=False)
    first_run = next(cycle for cycle, row in enumerate(expected.rows)
                     if row[:2] == (pc, "fetch"))
    assert fifo_level(expected, first_run) == 256 - short
    assert (m.fsm.value, m.records[-1].opcode) == ("execute", "UARTS")
    assert_like_oracle(m, expected)


# Straight-line code whose execute halves a budget may split from their
# fetches, the branchy PORT1 loop, and code that keeps the UART busy.
STEP_PROGRAMS = [[("LOADI", 1, 0, 5), ("ADD", 2, 1, 0), ("PORT0", 2, 0, 0)],
                 PORT1_LOOP, UART_LOOP]


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("program", STEP_PROGRAMS)
def test_step_after_any_budget_ends_at_an_execute_half(program, gated):
    # run(n) may stop in a reset state, after a fetch or after an
    # execute. Each step() then runs to the end of the execute half of
    # the instruction it returns, and the rows are the oracle's: after
    # run(3), LOADI's execute clocks {regfile}, then ADD's {alu, regfile}.
    for budget in range(1, 13):
        m = machine_for(program, gated)
        m.reset()
        m.run(budget, halt_on_self_loop=False)
        for _ in range(4):
            outcome = m.step()
            last = m.records[-1]
            assert (last.fsm_state, last.pc) == ("execute", outcome.pc_before)
            assert outcome.executed == decode(m.rom[last.pc])
            assert outcome.modules_active == last.enables
        expected = oracle.RefMachine(program, gated)
        expected.reset()
        expected.run(m.cycles, halt_on_self_loop=False)
        assert [(r.pc, r.fsm_state, r.opcode, r.enables)
                for r in m.records] == expected.rows


@pytest.mark.parametrize("gated", [True, False])
def test_long_idle_spell_holds_or_drains_the_uart(gated):
    # Parked with two bytes queued for a million idle cycles: gated idle
    # holds the drain, so each byte's leave cycle moves a million later;
    # ungated, both leave at the oracle's cycles.
    program = UART_LOOP[:3]
    m = machine_for(program, gated)
    m.run(6)
    m.force_idle()
    done = list(m.peripherals.uart.tx_done)
    m.run(m.cycles + 1_000_000, halt_on_self_loop=False)
    if gated:
        assert list(m.peripherals.uart.tx_done) == [
            cycle + 1_000_000 for cycle in done]
    else:
        expected = oracle.RefMachine(program, gated)
        expected.run(6)
        expected.force_idle()
        expected.run(100, halt_on_self_loop=False)
        assert expected.emitted == 2
        assert io_events(m) == expected.events


# A byte for the UART, then a 20-cycle block looping on itself.
TWENTY_LOOP = ([("LOADI", 1, 0, 0x41), ("UARTS", 1, 0, 0)]
               + [("INC", 2, 0, 0)] * 9 + [("BI", 0, 0, 2)])


@pytest.mark.parametrize("gated", [True, False])
def test_twenty_cycle_block_writes_its_rows(gated):
    # The trace writer makes a 20-cycle entry one 20-row template and
    # fills it in a `%` with its neighbours', 256 rows or more at a time;
    # the first run of the block holds the UART byte for its first 9
    # cycles.
    m = check_against_oracle(TWENTY_LOOP, 200, gated=gated, halt=False)
    assert 20 in {len(rows) for _, rows in m.class_spans()}
    check_split_run(TWENTY_LOOP, 200, (), [3, 13, 24, 45], gated)


def test_trace_writer_memory_does_not_grow_with_block_runs():
    # 3,000 runs of a 20-cycle block: what the writer keeps allocated
    # after it returns must not grow with them.
    m = machine_for(TWENTY_LOOP)
    m.run(60_000, halt_on_self_loop=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli._write_trace(path, m)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert kept < 64 * 1024


def test_writers_at_their_chunk_edges():
    # Runs whose trace holds a chunk of rows less one, a chunk, a chunk
    # and one, and three chunks and one; and whose I/O log holds no
    # event, one, a chunk less one, a chunk, a chunk and one, and two
    # chunks and one. Both writers must write the oracle's bytes.
    rows, events = cli._TRACE_ROWS, cli._IO_CHUNK
    m = machine_for(PORT1_LOOP)
    m.run(30 * events, halt_on_self_loop=False)
    at = [packed >> 10 for packed in m.io_log]
    runs = [(budget, None) for budget in (rows - 1, rows, rows + 1,
                                          3 * rows + 1)]
    runs += [(at[n - 1] + 1 if n else at[0], n)
             for n in (0, 1, events - 1, events, events + 1, 2 * events + 1)]
    for budget, logged in runs:
        m = check_against_oracle(PORT1_LOOP, budget, halt=False)
        assert m.cycles == budget
        assert logged is None or len(m.io_log) == logged


def writer_peaks(m):
    """The traced-heap peak of the trace writer and of the I/O log
    writer on `m`, once the machine has described its log."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, io_log = (os.path.join(tmp, name)
                         for name in ("trace.csv", "io.csv"))
        cli._write_trace(trace, m)
        peaks = []
        tracemalloc.start()
        try:
            for write in (lambda: cli._write_trace(trace, m),
                          lambda: cli._write_io_log(io_log, m.io_log)):
                tracemalloc.reset_peak()
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("program", [PORT1_LOOP, UART_LOOP])
def test_writers_transient_memory_is_bounded(program):
    # 100k cycles, then twice as many: a row of the second half has one
    # more digit, so a chunk may grow by a few hundred bytes, no more.
    peaks = []
    for budget in (100_000, 200_000):
        m = machine_for(program)
        m.run(budget, halt_on_self_loop=False)
        peaks.append(writer_peaks(m))
    (trace, io_log), (trace2, io_log2) = peaks
    assert trace < 64 * 1024
    assert io_log < 32 * 1024
    assert trace2 < trace + 1024
    assert io_log2 < io_log + 1024
