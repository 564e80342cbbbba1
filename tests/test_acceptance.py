"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line so `pytest -v -s` doubles as a
release checklist.  Every check also asserts a wall-clock budget; the
budgets are generous on purpose and only guard against pathological
slowdowns.
"""

import random
import time

from mcusim.asm import assemble, disassemble
from mcusim.clocking import CONTROL_WORDS, frequency_of
from mcusim.config import default_config
from mcusim.control import GATED_MODULES, FsmState, GatingPolicy
from mcusim.isa import FORMATS, Format, Instruction, Op, RomImage, decode, encode
from mcusim.machine import Machine
from mcusim.power import estimate, power_per_mhz
from mcusim.reference import run_benchmark

import oracle
from test_control import machine_in, states_after
from test_machine import encode_tuple, io_events, random_linear_program


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_program(rng, length=50):
    """Unconstrained program: any opcode, including branches."""
    program = []
    for addr in range(length):
        op = rng.choice(list(Op))
        imm = rng.randrange(256)
        if op in (Op.BI, Op.BGTI):
            imm = rng.randrange(length + 8)  # keep some flow in-program
        program.append((op.name, rng.randrange(8), rng.randrange(8), imm))
    return program


def _arch_state(m):
    uart = m.peripherals.uart
    seg = m.peripherals.sevenseg
    return (
        tuple(m.regs), m.pc, m.flags.z, m.flags.l, bytes(m.ram),
        m.peripherals.ports.port0_latch, m.peripherals.ports.port1_input,
        seg.segments, seg.last_digit,
        tuple(uart.tx_queue), tuple(c - m.cycles for c in uart.tx_done),
        m.halted, m.halt_reason, m.cycles,
    )


def _module_digests(m):
    """Per-module state hashes; a gated-off module must keep its hash."""
    uart = m.peripherals.uart
    seg = m.peripherals.sevenseg
    ports = m.peripherals.ports
    return {
        "regfile": hash(tuple(m.regs)),
        "alu": 0,  # combinational only, no state to hold
        "ram": hash(bytes(m.ram)),
        "rom": hash(tuple(m.rom.words)),
        "port0": hash(ports.port0_latch),
        "port1": hash(ports.port1_input),
        "uart": hash((tuple(uart.tx_queue),
                      tuple(c - m.cycles for c in uart.tx_done))),
        "sevenseg": hash((seg.segments, seg.last_digit)),
    }


def test_acceptance_1_power_reproduction():
    t0 = time.perf_counter()
    result = run_benchmark()
    trace = result.activity()
    report = estimate(trace, default_config().power_config())
    elapsed = time.perf_counter() - t0

    ungated_ok = abs(report.total_ungated_mw - 273.0) <= 0.01 * 273.0
    gated_ok = abs(report.total_gated_mw - 182.0) <= 0.01 * 182.0
    savings_ok = abs(report.savings_percent - 33.33) <= 0.5
    ok = ungated_ok and gated_ok and savings_ok and elapsed < 5.0
    _verdict(
        "power reproduction",
        ok,
        f"ungated={report.total_ungated_mw:.3f} mW (want 273 +/- 1%), "
        f"gated={report.total_gated_mw:.3f} mW (want 182 +/- 1%), "
        f"savings={report.savings_percent:.2f}% (want 33.33 +/- 0.5), "
        f"{elapsed:.2f}s",
    )


def test_acceptance_2_power_per_mhz_and_linearity():
    t0 = time.perf_counter()
    config = default_config()
    slope = power_per_mhz(config.power_config())
    trace = run_benchmark().activity()

    worst_rel = 0.0
    for word in range(CONTROL_WORDS):
        f_mhz = frequency_of(word) / 1e6
        report = estimate(trace, config.power_config(osc_override=word))
        rel = abs(report.total_ungated_mw - slope * f_mhz) / (slope * f_mhz)
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0

    slope_ok = abs(slope - 3.62) <= 0.01
    linear_ok = worst_rel <= 1e-12
    ok = slope_ok and linear_ok and elapsed < 1.0
    _verdict(
        "power per MHz",
        ok,
        f"slope={slope:.6f} mW/MHz (want 3.62 +/- 0.01), max deviation "
        f"from line over 16 settings={worst_rel:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_3_oscillator_range():
    f0 = frequency_of(0)
    f15 = frequency_of(15)
    freqs = [frequency_of(w) for w in range(CONTROL_WORDS)]
    endpoints_ok = (abs(f0 - 134e6) <= 0.001 * 134e6
                    and abs(f15 - 44e6) <= 0.001 * 44e6)
    monotone_ok = all(a > b for a, b in zip(freqs, freqs[1:]))
    ok = endpoints_ok and monotone_ok
    _verdict(
        "oscillator range",
        ok,
        f"f(0)={f0 / 1e6:.3f} MHz (want 134 +/- 0.1%), "
        f"f(15)={f15 / 1e6:.3f} MHz (want 44 +/- 0.1%), "
        f"strictly decreasing={monotone_ok}",
    )


def test_acceptance_4_isa_and_listing_roundtrip():
    t0 = time.perf_counter()
    checked = 0
    for op in Op:
        fmt = FORMATS[op]
        rds = range(8) if fmt in (Format.REG, Format.REG_REG,
                                  Format.REG_IMM) else (0,)
        rss = range(8) if fmt is Format.REG_REG else (0,)
        imms = range(256) if fmt in (Format.IMM, Format.REG_IMM) else (0,)
        for rd in rds:
            for rs in rss:
                for imm in imms:
                    instr = Instruction(op, rd=rd, rs=rs, operand8=imm)
                    assert decode(encode(instr)) == instr
                    checked += 1

    rng = random.Random(0xACCE)
    for _ in range(100):
        rom = RomImage([rng.randrange(0x10000) for _ in range(256)])
        again, _ = assemble(disassemble(rom))
        assert again.words == rom.words
    elapsed = time.perf_counter() - t0

    ok = elapsed < 10.0
    _verdict(
        "instruction roundtrip",
        ok,
        f"{checked} encode/decode pairs exact, 100 random images survive "
        f"disassemble+assemble, {elapsed:.2f}s",
    )


def test_acceptance_5_gating_is_functionally_transparent():
    t0 = time.perf_counter()
    rng = random.Random(0x600D)
    for trial in range(500):
        program = random_program(rng)
        rom = RomImage([encode_tuple(*t) for t in program])
        port1 = rng.randrange(256)

        finals = []
        for policy in (GatingPolicy(), GatingPolicy.ungated()):
            m = Machine(rom, policy=policy)
            m.inject_port1(port1)
            m.run(300)
            finals.append((_arch_state(m), tuple(io_events(m))))
        assert finals[0] == finals[1], f"diverged on trial {trial}"
    elapsed = time.perf_counter() - t0

    ok = elapsed < 30.0
    _verdict(
        "gating transparency",
        ok,
        f"500 random programs, gated and ungated runs bit-identical "
        f"(state + I/O log), {elapsed:.2f}s",
    )


def test_acceptance_6_matches_reference_interpreter():
    t0 = time.perf_counter()
    rng = random.Random(0x0DDC)
    for _ in range(1000):
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
    elapsed = time.perf_counter() - t0

    ok = elapsed < 30.0
    _verdict(
        "reference interpreter equivalence",
        ok,
        f"1000 random branch-free programs agree on registers, flags, "
        f"memory and I/O, {elapsed:.2f}s",
    )


def test_acceptance_7_gated_modules_hold_state():
    t0 = time.perf_counter()
    rng = random.Random(0x5AFE)
    disabled_seen = {name: 0 for name in GATED_MODULES}
    for _ in range(100):
        program = random_program(rng)
        m = Machine(RomImage([encode_tuple(*t) for t in program]))
        m.inject_port1(rng.randrange(256))
        while not m.halted and m.cycles < 300:
            before = _module_digests(m)
            row = m.tick()
            after = _module_digests(m)
            for name in GATED_MODULES:
                if name not in row.enables:
                    disabled_seen[name] += 1
                    assert before[name] == after[name], (
                        f"{name} changed at cycle {row.cycle} "
                        f"while its clock was off")
    elapsed = time.perf_counter() - t0

    ok = elapsed < 30.0 and all(disabled_seen.values())
    _verdict(
        "gated modules hold state",
        ok,
        f"100 fuzzed programs, per-cycle hashes stable whenever a "
        f"module's enable is 0 (off-cycles checked per module: "
        f"{min(disabled_seen.values())}..{max(disabled_seen.values())}), "
        f"{elapsed:.2f}s",
    )


def test_acceptance_8_control_state_machine():
    # Every property is driven on a real machine, from each state it can
    # be in, with each opcode at the pc.
    states = list(FsmState)
    ops = list(Op)
    seen = set()

    def run_from(state, op, *, irq=False, reset=False, cycles=1):
        m = machine_in(state, op)
        if irq:
            m.interrupt()
        if reset:
            m.reset()
        observed = states_after(m, cycles)
        seen.update(observed)
        return observed

    reset_ok = all(
        run_from(s, op, irq=irq, reset=True) == [FsmState.RESET1]
        for s in states for op in ops for irq in (False, True))

    pulse_ok = all(
        run_from(s, op, reset=True, cycles=4)
        == [FsmState.RESET1, FsmState.RESET2, FsmState.FETCH,
            FsmState.EXECUTE]
        for s in states for op in ops)

    idle_ok = all(
        run_from(FsmState.IDLE, op, cycles=4) == [FsmState.IDLE] * 4
        and run_from(FsmState.IDLE, op, irq=True, cycles=2)
        == [FsmState.IDLE, FsmState.FETCH]
        and run_from(FsmState.IDLE, op, irq=True, reset=True)
        == [FsmState.RESET1]
        for op in ops)

    every_state_ok = seen == set(states)
    ok = reset_ok and pulse_ok and idle_ok and every_state_ok
    _verdict(
        "control state machine",
        ok,
        f"exhaustive over {len(states)} states x {len(ops)} opcodes on "
        f"the machine: reset dominates={reset_ok}, fetch 2 cycles after "
        f"reset pulse={pulse_ok}, idle leaves only on interrupt or "
        f"reset={idle_ok}, every state takes a cycle={every_state_ok}",
    )
