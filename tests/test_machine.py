"""Execution semantics, cycle accounting, reset/idle, tracing."""

import random
from collections import namedtuple

import pytest

from mcusim.asm import assemble
from mcusim.control import ALL_ENABLED, FsmState, GatingPolicy
from mcusim.isa import (
    FORMATS,
    Format,
    IllegalOpcodeError,
    Instruction,
    Op,
    RomImage,
    encode,
)
from mcusim.machine import (IO_KINDS, CycleRecord, Flags, Injection, Machine,
                            RAM_WORDS)
from mcusim.peripherals import TxOverflowError
from mcusim.reference import benchmark_rom

import oracle


def machine_for(source: str, **kwargs) -> Machine:
    image, _ = assemble(source)
    return Machine(image, **kwargs)


def run_source(source: str, max_cycles=1000, **kwargs) -> Machine:
    m = machine_for(source, **kwargs)
    m.run(max_cycles)
    return m


def test_add_updates_register_and_z():
    m = machine_for("ADD R1, R2\n")
    m.regs[1], m.regs[2] = 3, 4
    m.step()
    assert m.regs[1] == 7
    assert not m.flags.z


def test_sub_equal_operands():
    m = machine_for("SUB R1, R2\n")
    m.regs[1] = m.regs[2] = 5
    m.step()
    assert m.regs[1] == 0
    assert m.flags.z
    assert not m.flags.l


def test_sub_sets_borrow_flag():
    m = machine_for("SUB R1, R2\n")
    m.regs[1], m.regs[2] = 4, 9
    m.step()
    assert m.regs[1] == (4 - 9) & 0xFFFF
    assert m.flags.l
    assert not m.flags.z


def test_ror_bit_wraps_to_top():
    m = machine_for("ROR R1\n")
    m.regs[1] = 0x0001
    m.step()
    assert m.regs[1] == 0x8000
    assert not m.flags.z


def test_rol_and_shifts():
    m = machine_for("ROL R1\nSHL R2\nSHR R3\n")
    m.regs[1] = 0x8001
    m.regs[2] = 0x8000
    m.regs[3] = 0x0001
    m.step()
    assert m.regs[1] == 0x0003
    m.step()
    assert m.regs[2] == 0  # bit shifted off the top
    assert m.flags.z
    m.step()
    assert m.regs[3] == 0
    assert m.flags.z


def test_inc_wraps_and_dec_borrows():
    m = machine_for("INC R0\nDEC R1\nDEC R2\n")
    m.regs[0] = 0xFFFF
    m.regs[1] = 0
    m.regs[2] = 1
    m.step()
    assert m.regs[0] == 0 and m.flags.z
    m.step()
    assert m.regs[1] == 0xFFFF
    assert m.flags.l       # decrementing zero borrows
    assert not m.flags.z
    m.step()
    assert m.regs[2] == 0
    assert m.flags.z
    assert not m.flags.l   # operand was nonzero


def test_zero_clears_and_sets_z():
    m = machine_for("ZERO R5\n")
    m.regs[5] = 0xABCD
    m.flags.z = False
    m.step()
    assert m.regs[5] == 0
    assert m.flags.z


def test_load_store_roundtrip_through_ram():
    m = run_source(
        "LOADI R0, 0xAB\n"
        "STORE R0, 0x10\n"
        "LOAD R3, 0x10\n"
        "done: BI done\n"
    )
    assert m.regs[3] == 0x00AB
    assert m.ram[0x10] == 0x00AB


def test_move_copies_register():
    m = machine_for("MOVE R4, R7\n")
    m.regs[7] = 0x1234
    m.step()
    assert m.regs[4] == 0x1234
    assert m.regs[7] == 0x1234


def test_counting_program():
    m = run_source("LOADI R0, 0\n" + "INC R0\n" * 5 + "done: BI done\n")
    assert m.regs[0] == 5


def test_beq_taken_jumps_to_register_target():
    m = machine_for(".org 10\nBEQ R4\n")
    m.pc = 10
    m.flags.z = True
    m.regs[4] = 0x0030
    outcome = m.step()
    assert m.pc == 0x30
    assert outcome.pc_before == 10


def test_untaken_branch_falls_through():
    m = machine_for("BEQ R4\n")
    m.flags.z = False
    m.regs[4] = 0x30
    m.step()
    assert m.pc == 1


def test_bch_masks_target_to_rom_range():
    m = machine_for("BCH R2\n")
    m.regs[2] = 0x1234
    m.step()
    assert m.pc == 0x34


@pytest.mark.parametrize("op,z,l,taken", [
    (Op.BEQ, True, False, True),
    (Op.BEQ, False, False, False),
    (Op.BNEQ, False, False, True),
    (Op.BNEQ, True, False, False),
    (Op.BGT, False, False, True),
    (Op.BGT, True, False, False),
    (Op.BGT, False, True, False),
    (Op.BLT, False, True, True),
    (Op.BLT, False, False, False),
    (Op.BLTE, False, True, True),
    (Op.BLTE, True, False, True),
    (Op.BLTE, False, False, False),
])
def test_conditional_branch_matrix(op, z, l, taken):
    m = Machine(RomImage([encode(Instruction(op, rd=6))]))
    m.regs[6] = 0x40
    m.flags.z = z
    m.flags.l = l
    m.step()
    assert m.pc == (0x40 if taken else 1)


def test_bgti_uses_immediate_target():
    m = machine_for("BGTI 0x22\n")
    m.flags.z = False
    m.flags.l = False
    m.step()
    assert m.pc == 0x22
    m = machine_for("BGTI 0x22\n")
    m.flags.z = True
    m.step()
    assert m.pc == 1


def test_self_loop_halts_run():
    m = machine_for("loop: BI loop\n")
    result = m.run(1000)
    assert result.halted
    assert result.halt_reason == "self-loop"
    assert m.cycles == 2  # halt resolved at the first branch execution
    assert m.pc == 0


def test_bch_self_loop_also_halts():
    m = machine_for("spin: BCH R0\n")  # R0 = 0 = its own address
    result = m.run(1000)
    assert result.halted


def test_self_loop_halt_can_be_disabled():
    m = machine_for("loop: BI loop\n")
    result = m.run(100, halt_on_self_loop=False)
    assert not result.halted
    assert m.cycles == 100


def test_all_nop_rom_runs_out_the_cycle_budget():
    m = Machine()
    result = m.run(100)
    assert not result.halted
    assert m.cycles == 100
    assert m.pc == 50  # 50 NOPs at 2 cycles each


def test_pc_wraps_mod_256():
    m = Machine()
    m.run(600)
    assert m.pc == 300 % 256


def test_port0_latches_low_byte():
    m = run_source("LOADI R1, 0xAA\nPORT0 R1\ndone: BI done\n")
    assert m.peripherals.ports.port0_latch == 0xAA
    events = [e for e in io_events(m) if e.device == "port0"]
    assert len(events) == 1
    assert events[0].direction == "out"
    assert events[0].value == 0xAA


def test_port1_reads_injected_level():
    m = machine_for("PORT1 R2\nPORT1 R3\ndone: BI done\n")
    m.inject_port1(0x5C)
    m.run(1000)
    assert m.regs[2] == 0x5C
    assert m.regs[3] == 0x5C  # level-sensitive: second read sees it too
    events = [e for e in io_events(m) if e.device == "port1"]
    assert [e.value for e in events] == [0x5C, 0x5C]


def test_b7s_drives_display_from_low_nibble():
    m = run_source("LOADI R1, 0x18\nB7S R1\ndone: BI done\n")
    assert m.peripherals.sevenseg.last_digit == 8
    assert m.peripherals.sevenseg.segments == 0b1111111
    events = [e for e in io_events(m) if e.device == "sevenseg"]
    assert events[0].value == 0b1111111


def test_uarts_sends_low_byte_and_drains():
    # The spin loop keeps the clock running while the byte drains.
    m = machine_for("LOADI R1, 0x41\nUARTS R1\ndone: BI done\n")
    m.run(60, halt_on_self_loop=False)
    events = [e for e in io_events(m) if e.device == "uart"]
    assert [e.value for e in events] == [0x41]


def test_uart_drain_timing_via_busy_hold():
    # Send lands on the execute row at cycle 3; the byte then costs 10
    # cycles, which busy-hold supplies back to back across the spin.
    m = machine_for("LOADI R1, 0x41\nUARTS R1\ndone: BI done\n")
    m.run(40, halt_on_self_loop=False)
    event = next(e for e in io_events(m) if e.device == "uart")
    assert event.cycle == 13
    uart_rows = [r.cycle for r in m.records if "uart" in r.enables]
    assert uart_rows == list(range(3, 14))


def test_halting_mid_drain_leaves_the_byte_queued():
    m = machine_for("LOADI R1, 0x41\nUARTS R1\ndone: BI done\n")
    m.run(1000)  # self-loop halt fires before the drain completes
    assert [e for e in io_events(m) if e.device == "uart"] == []
    assert list(m.peripherals.uart.tx_queue) == [0x41]


def test_uart_overflow_leaves_the_uarts_unretired():
    # DEC runs in the block before the UARTS, so its register and flag
    # writes must survive the overflow. The figures are those of the
    # cycle-at-a-time core this one replaced.
    m = machine_for("LOADI R1, 0x41\nloop: DEC R2\nUARTS R1\nBI loop\n")
    with pytest.raises(TxOverflowError):
        m.run(100_000)
    assert (m.pc, m.fsm, m.cycles) == (2, FsmState.EXECUTE, 3834)
    assert m.regs[:3] == [0, 0x41, 0xFD81]
    assert m.flags == Flags(z=False, l=False)
    assert len(m.io_log) == 382
    assert len(m.peripherals.uart.tx_queue) == 256
    assert m.peripherals.uart.tx_done[0] == 3835
    assert m.records[-1] == CycleRecord(3833, 2, "execute", "UARTS",
                                        frozenset({"regfile", "uart"}))


def test_machines_sharing_a_rom_keep_their_own_gating():
    # Machines on equal ROMs share one translation; each machine's
    # gating policy, ungated or overridden, must stay its own.
    rom = benchmark_rom()

    def ungated():
        return Machine(rom, policy=GatingPolicy.ungated())

    def overridden():
        m = Machine(rom)
        m.policy.set_gate(Op.ADD, "ram", True)
        m.policy.set_gate(Op.LOAD, "alu", True)
        return m

    def observed(m):
        activity = m.activity()
        return activity.total_cycles, activity.duties(), io_events(m)

    interleaved = [ungated(), overridden()]
    for stop in range(37, 500, 37):
        for m in interleaved:
            m.run(stop, halt_on_self_loop=False)
    for m, make in zip(interleaved, (ungated, overridden)):
        fresh = make()
        fresh.run(interleaved[0].cycles, halt_on_self_loop=False)
        assert observed(m) == observed(fresh)
    assert observed(interleaved[0]) != observed(interleaved[1])


def test_a_machine_runs_the_rom_it_was_built_on():
    rom, _ = assemble("LOADI R1, 5\nPORT0 R1\nhalt: BI halt\n")
    m = Machine(rom)
    with pytest.raises(TypeError):
        rom.words[0] = encode(Instruction(Op.LOADI, rd=1, operand8=9))
    m.run(100)
    assert rom[0] == encode(Instruction(Op.LOADI, rd=1, operand8=5))
    assert m.peripherals.ports.port0_latch == 5


def test_illegal_opcode_halts_with_context():
    m = Machine(RomImage([0x0000, 0xA800]))
    with pytest.raises(IllegalOpcodeError) as exc:
        m.run(100)
    assert exc.value.code == 0b10101
    assert m.cycles == 3  # NOP fetch+execute, then the fatal fetch
    assert m.records[-1].fsm_state == "fetch"
    assert m.records[-1].pc == 1


def test_step_onto_an_illegal_word_raises_in_its_fetch():
    m = Machine(RomImage([0xFFFF]))
    m.reset()
    with pytest.raises(IllegalOpcodeError):
        m.step()
    assert (m.cycles, m.pc) == (3, 0)  # two reset cycles, the fatal fetch


def test_reset_preamble_and_state_clearing():
    m = machine_for("LOADI R1, 7\nSTORE R1, 3\ndone: BI done\n")
    m.run(100)
    assert m.regs[1] == 7
    m.reset()
    assert m.pc == 0
    assert m.regs == [0] * 8
    assert m.ram[3] == 7          # RAM survives reset
    assert m.fsm is FsmState.RESET1
    start = len(m.records)
    m.run(m.cycles + 6)
    states = [r.fsm_state for r in m.records[start:]]
    assert states[:3] == ["reset1", "reset2", "fetch"]
    reset_rows = m.records[start:start + 2]
    assert all(r.enables == frozenset() for r in reset_rows)
    assert all(r.pc == 0 and r.opcode == "-" for r in reset_rows)


def test_reset_is_idempotent():
    m = machine_for("LOADI R1, 7\n")
    m.run(10)
    m.reset()
    regs_after_one = list(m.regs)
    pc_after_one = m.pc
    m.reset()
    assert m.regs == regs_after_one
    assert m.pc == pc_after_one
    assert m.fsm is FsmState.RESET1


def test_flags_cleared_on_reset():
    m = machine_for("ZERO R0\n")
    m.step()
    assert m.flags.z
    m.reset()
    assert m.flags == Flags()


def test_idle_parks_until_interrupt():
    m = Machine()
    m.step()
    m.force_idle()
    for _ in range(3):
        outcome = m.step()
        assert outcome.executed is None
    idle_rows = m.records[-3:]
    assert all(r.fsm_state == "idle" for r in idle_rows)
    assert all(r.enables == frozenset() for r in idle_rows)
    m.interrupt()
    m.step()  # consumes the waking idle cycle, then resumes fetching
    assert m.fsm is not FsmState.IDLE
    m.step()
    assert m.records[-1].fsm_state == "execute"


def test_idle_freezes_the_uart_drain_only_when_gated():
    # The UART advances exactly when its enable is high: the gated idle
    # row clocks nothing, the ungated one everything.
    for policy, drained in ((GatingPolicy(), False),
                            (GatingPolicy.ungated(), True)):
        m = machine_for("LOADI R1, 0x41\nUARTS R1\n", policy=policy)
        m.step()
        m.step()
        m.force_idle()
        for _ in range(12):
            m.tick()
        sent = [e.value for e in io_events(m) if e.device == "uart"]
        assert sent == ([0x41] if drained else [])
        assert list(m.peripherals.uart.tx_queue) == ([] if drained
                                                    else [0x41])


def test_trace_rows_alternate_fetch_execute():
    m = Machine()
    m.run(20)
    states = [r.fsm_state for r in m.records]
    assert states == ["fetch", "execute"] * 10
    assert [r.cycle for r in m.records] == list(range(20))
    assert all(r.enables == {"rom"} for r in m.records if
               r.fsm_state == "fetch")
    assert all(r.enables == frozenset() for r in m.records if
               r.fsm_state == "execute")  # NOP clocks nothing


def test_trace_rows_show_instruction_address():
    m = machine_for("LOADI R0, 1\nADD R0, R1\n")
    m.step()
    m.step()
    assert [(r.pc, r.opcode) for r in m.records] == [
        (0, "LOADI"), (0, "LOADI"), (1, "ADD"), (1, "ADD")]


def test_gating_disabled_clocks_everything():
    m = Machine(policy=GatingPolicy.ungated())
    m.run(10)
    assert all(r.enables == ALL_ENABLED for r in m.records)


def test_step_outcome_fields():
    m = machine_for("LOADI R3, 9\n")
    outcome = m.step()
    assert outcome.executed == Instruction(Op.LOADI, rd=3, operand8=9)
    assert (outcome.pc_before, outcome.pc_after) == (0, 1)
    assert outcome.modules_active == {"regfile"}
    assert outcome.io_events == ()


def test_step_outcome_events_are_packed_as_in_the_io_log():
    m = machine_for("LOADI R3, 9\nPORT0 R3\n")
    m.step()
    outcome = m.step()
    # PORT0's execute cycle is cycle 3; port0 is kind 0.
    assert outcome.io_events == (3 << 10 | 0x09,) == tuple(m.io_log)


def test_step_after_reset_runs_both_reset_cycles_first():
    m = machine_for("LOADI R3, 9\n")
    m.reset()
    outcome = m.step()
    assert m.cycles == 4
    assert outcome.executed == Instruction(Op.LOADI, rd=3, operand8=9)
    assert [r.fsm_state for r in m.records] == ["reset1", "reset2",
                                               "fetch", "execute"]


def test_determinism():
    source = (
        "LOADI R1, 0x2A\nUARTS R1\nPORT0 R1\nB7S R1\n"
        "loop: DEC R1\nBNEQ R2\ndone: BI done\n"
    )
    def run_once():
        m = machine_for(source)
        m.regs[2] = 4
        m.run(500)
        return m.records, io_events(m), m.regs, bytes(m.ram)
    assert run_once() == run_once()


def test_ram_size_and_width():
    m = Machine()
    assert len(m.ram) == RAM_WORDS
    assert RAM_WORDS == 1024
    m.ram[1023] = 0xFFFF
    assert m.ram[1023] == 0xFFFF


def test_load_store_reach_the_first_256_ram_words():
    # LOAD/STORE carry an 8-bit address: words 256-1023 are unreachable.
    m = run_source("LOADI R1, 0x5A\nSTORE R1, 0xFF\nLOAD R2, 0xFF\n"
                   "done: BI done\n")
    assert m.ram[255] == 0x5A and m.regs[2] == 0x5A
    assert not any(m.ram[256:])


def test_run_requires_a_cycle_budget():
    with pytest.raises(ValueError):
        Machine().run(0)


def test_injections_apply_at_their_cycle():
    m = machine_for(
        "PORT1 R1\n"     # executes at cycle 1, before the injection
        "NOP\n"
        "PORT1 R2\n"     # executes at cycle 5, after it
        "done: BI done\n"
    )
    m.run(100, injections=[Injection(cycle=4, kind="port1", value=0x77)])
    assert m.regs[1] == 0
    assert m.regs[2] == 0x77
    # Of two injections due at one cycle, the later one wins.
    m = machine_for("PORT1 R1\nNOP\nPORT1 R2\ndone: BI done\n")
    m.run(100, injections=[Injection(4, "port1", 0x66),
                           Injection(4, "port1", 0x77)])
    assert (m.regs[2], m.peripherals.ports.port1_input) == (0x77, 0x77)


def test_port1_level_after_a_run():
    # A run ends with the injections due before the cycle it stops at
    # applied, the rest dropped. The loop reads port 1 at cycles 1, 5, 9..
    m = machine_for("loop: PORT1 R1\nBI loop\n")
    m.run(10, injections=[Injection(9, "port1", 0x22),
                          Injection(10, "port1", 0x11)])
    assert (m.regs[1], m.peripherals.ports.port1_input) == (0x22, 0x22)
    # The dropped one stays dropped in the next run.
    m.run(14)
    assert (m.regs[1], m.peripherals.ports.port1_input) == (0x22, 0x22)
    # One due before a later run starts applies when that run does.
    m.run(18, injections=[Injection(5, "port1", 0x33)])
    assert (m.regs[1], m.peripherals.ports.port1_input) == (0x33, 0x33)
    # A run already at its budget runs no cycle and applies nothing.
    m.run(18, injections=[Injection(3, "port1", 0x44)])
    assert (m.cycles, m.peripherals.ports.port1_input) == (18, 0x33)
    # A self-loop halt at cycle 2 leaves one due at cycle 2 unapplied.
    m = machine_for("done: BI done\n")
    assert m.run(100, injections=[Injection(1, "port1", 0x55),
                                  Injection(2, "port1", 0x44)]).halted
    assert (m.cycles, m.peripherals.ports.port1_input) == (2, 0x55)
    # The illegal word's fetch at cycle 4 is the run's last cycle.
    m = machine_for("PORT1 R1\nNOP\n.word 0xA800\n")
    with pytest.raises(IllegalOpcodeError):
        m.run(100, injections=[Injection(4, "port1", 0x66),
                               Injection(5, "port1", 0x99)])
    assert (m.cycles, m.peripherals.ports.port1_input) == (5, 0x66)


def test_injection_validation():
    with pytest.raises(ValueError):
        Injection(cycle=-1, kind="port1", value=0)
    with pytest.raises(ValueError):
        Injection(cycle=0, kind="midi", value=0)
    with pytest.raises(ValueError, match="unknown injection kind 'uart_rx'"):
        Injection(cycle=0, kind="uart_rx", value=0)
    with pytest.raises(ValueError):
        Injection(cycle=0, kind="port1", value=300)


def random_linear_program(rng, length=50):
    ops = [op for op in Op if op.name not in (
        "BI", "BGTI", "BCH", "BEQ", "BNEQ", "BGT", "BLT", "BLTE")]
    program = []
    for _ in range(length):
        op = rng.choice(ops)
        program.append((op.name, rng.randrange(8), rng.randrange(8),
                        rng.randrange(256)))
    return program


Event = namedtuple("Event", "cycle device direction value")


def io_events(m):
    """`m.io_log`'s events, each decoded through `IO_KINDS`."""
    return [Event(packed >> 10, *IO_KINDS[packed >> 8 & 3], packed & 0xFF)
            for packed in m.io_log]


def encode_tuple(mnemonic, rd, rs, imm):
    op = Op[mnemonic]
    fmt = FORMATS[op]
    kwargs = {}
    if fmt in (Format.REG, Format.REG_REG, Format.REG_IMM):
        kwargs["rd"] = rd
    if fmt is Format.REG_REG:
        kwargs["rs"] = rs
    if fmt in (Format.IMM, Format.REG_IMM):
        kwargs["operand8"] = imm
    return encode(Instruction(op, **kwargs))


def test_random_linear_programs_match_the_reference_interpreter():
    rng = random.Random(0xFEED)
    for _ in range(25):
        program = random_linear_program(rng)
        port1 = rng.randrange(256)
        expected = oracle.run_program(program, port1_input=port1)

        m = Machine(RomImage([encode_tuple(*t) for t in program]))
        m.inject_port1(port1)
        m.run(2 * len(program))

        assert m.regs == expected.regs
        assert m.pc == expected.pc
        assert (m.flags.z, m.flags.l) == (expected.z, expected.l)
        for addr in range(256):
            assert m.ram[addr] == expected.ram.get(addr, 0)
        assert m.peripherals.ports.port0_latch == expected.port0
        assert m.peripherals.sevenseg.last_digit == expected.sevenseg_digit
        sent = [e.value for e in io_events(m) if e.device == "uart"]
        sent += list(m.peripherals.uart.tx_queue)
        assert sent == expected.uart_sent


def test_each_step_touches_at_most_one_register_and_one_ram_word():
    rng = random.Random(0x10CA1)
    for _ in range(40):
        program = random_linear_program(rng)
        m = Machine(RomImage([encode_tuple(*t) for t in program]))
        for _ in range(10):
            regs_before = list(m.regs)
            ram_before = bytes(m.ram)
            m.step()
            reg_diffs = sum(a != b for a, b in zip(regs_before, m.regs))
            ram_diffs = sum(a != b for a, b in zip(ram_before, bytes(m.ram)))
            assert reg_diffs <= 1
            assert ram_diffs <= 2  # one 16-bit word
