"""Naive reference interpreter used as a test oracle.

Deliberately independent of the package internals: programs are plain
(mnemonic, rd, rs, imm) tuples, state is a handful of dicts, and every
opcode's effect, every clock enable and the cycle accounting are
written out longhand from the specification.

`run_program` runs a branch-free list top to bottom exactly once.
`run_machine` runs a program with branches cycle by cycle: two cycles
per instruction, self-loop halts, the UART draining one byte per ten
clocked cycles, port 1 injections and per-module enabled-cycle counts.
"""

from collections import Counter

MASK = 0xFFFF

# Segment patterns (bit 0 = a .. bit 6 = g) for BCD digits; 10-15 blank.
SEGMENTS = (0b0111111, 0b0000110, 0b1011011, 0b1001111, 0b1100110,
            0b1101101, 0b1111101, 0b0000111, 0b1111111, 0b1101111,
            0, 0, 0, 0, 0, 0)

ALU = {"INC", "DEC", "AND", "OR", "XOR", "NOT", "ADD", "SUB", "SHL", "SHR",
       "ROR", "ROL"}
BRANCHES = {"BI", "BGTI", "BCH", "BEQ", "BNEQ", "BGT", "BLT", "BLTE"}
IO_MODULE = {"PORT0": "port0", "PORT1": "port1", "B7S": "sevenseg",
             "UARTS": "uart"}
UART_CYCLES_PER_BYTE = 10


class RefState:
    def __init__(self, port1_input=0):
        self.regs = [0] * 8
        self.ram = {}
        self.z = False
        self.l = False
        self.pc = 0
        self.port0 = 0
        self.port1_input = port1_input
        self.sevenseg_digit = 0
        self.uart_sent = []     # every byte ever queued, in order


def execute(s, mnemonic, rd, rs, imm):
    """Apply one non-branch instruction to `s`, pc aside. Returns its
    I/O event as (device, direction, value), or None."""
    if mnemonic == "NOP":
        pass
    elif mnemonic == "LOAD":
        s.regs[rd] = s.ram.get(imm, 0)
    elif mnemonic == "STORE":
        s.ram[imm] = s.regs[rd]
    elif mnemonic == "MOVE":
        s.regs[rd] = s.regs[rs]
    elif mnemonic == "LOADI":
        s.regs[rd] = imm
    elif mnemonic == "INC":
        s.regs[rd] = (s.regs[rd] + 1) & MASK
        s.z = s.regs[rd] == 0
    elif mnemonic == "DEC":
        s.l = s.regs[rd] == 0
        s.regs[rd] = (s.regs[rd] - 1) & MASK
        s.z = s.regs[rd] == 0
    elif mnemonic == "AND":
        s.regs[rd] = s.regs[rd] & s.regs[rs]
        s.z = s.regs[rd] == 0
    elif mnemonic == "OR":
        s.regs[rd] = s.regs[rd] | s.regs[rs]
        s.z = s.regs[rd] == 0
    elif mnemonic == "XOR":
        s.regs[rd] = s.regs[rd] ^ s.regs[rs]
        s.z = s.regs[rd] == 0
    elif mnemonic == "NOT":
        s.regs[rd] = ~s.regs[rd] & MASK
        s.z = s.regs[rd] == 0
    elif mnemonic == "ADD":
        s.regs[rd] = (s.regs[rd] + s.regs[rs]) & MASK
        s.z = s.regs[rd] == 0
    elif mnemonic == "SUB":
        s.l = s.regs[rd] < s.regs[rs]
        s.regs[rd] = (s.regs[rd] - s.regs[rs]) & MASK
        s.z = s.regs[rd] == 0
    elif mnemonic == "ZERO":
        s.regs[rd] = 0
        s.z = True
    elif mnemonic == "SHL":
        s.regs[rd] = (s.regs[rd] << 1) & MASK
        s.z = s.regs[rd] == 0
    elif mnemonic == "SHR":
        s.regs[rd] = s.regs[rd] >> 1
        s.z = s.regs[rd] == 0
    elif mnemonic == "ROR":
        v = s.regs[rd]
        s.regs[rd] = (v >> 1) | ((v & 1) << 15)
        s.z = s.regs[rd] == 0
    elif mnemonic == "ROL":
        v = s.regs[rd]
        s.regs[rd] = ((v << 1) & MASK) | (v >> 15)
        s.z = s.regs[rd] == 0
    elif mnemonic == "PORT0":
        s.port0 = s.regs[rd] & 0xFF
        return ("port0", "out", s.port0)
    elif mnemonic == "PORT1":
        s.regs[rd] = s.port1_input
        return ("port1", "in", s.port1_input)
    elif mnemonic == "B7S":
        s.sevenseg_digit = s.regs[rd] & 0xF
        return ("sevenseg", "out", SEGMENTS[s.sevenseg_digit])
    elif mnemonic == "UARTS":
        s.uart_sent.append(s.regs[rd] & 0xFF)
    else:
        raise ValueError(f"oracle cannot run {mnemonic}")
    return None


def run_program(program, port1_input=0):
    """Execute a branch-free instruction list once, top to bottom."""
    s = RefState(port1_input)
    for mnemonic, rd, rs, imm in program:
        execute(s, mnemonic, rd, rs, imm)
        s.pc = (s.pc + 1) & 0xFF
    return s


def branch_target(s, mnemonic, rd, imm):
    """The address a branch jumps to, or None when it falls through."""
    register = s.regs[rd] & 0xFF
    if mnemonic == "BI":
        return imm
    if mnemonic == "BGTI":
        return imm if not s.z and not s.l else None
    if mnemonic == "BCH":
        return register
    if mnemonic == "BEQ":
        return register if s.z else None
    if mnemonic == "BNEQ":
        return register if not s.z else None
    if mnemonic == "BGT":
        return register if not s.z and not s.l else None
    if mnemonic == "BLT":
        return register if s.l else None
    if mnemonic == "BLTE":
        return register if s.l or s.z else None
    raise ValueError(f"{mnemonic} is not a branch")


def execute_enables(mnemonic):
    """Modules the default gating policy clocks in an execute cycle."""
    if mnemonic in ALU:
        return {"regfile", "alu"}
    if mnemonic in ("LOAD", "STORE"):
        return {"regfile", "ram"}
    if mnemonic in ("NOP", "BI", "BGTI"):
        return set()
    if mnemonic in IO_MODULE:
        return {"regfile", IO_MODULE[mnemonic]}
    return {"regfile"}  # MOVE, LOADI, ZERO and the register branches


def run_machine(program, budget, injections=(), reset=False,
                halt_on_self_loop=True):
    """Run `program`, placed from address 0 in an otherwise all-NOP ROM,
    for at most `budget` cycles, the way the simulator clocks it.

    `injections` are (cycle, value) port 1 levels, each applied before
    its cycle; of two at the same cycle the later one wins. With
    `reset`, two reset cycles come first. Returns the final RefState
    with extra fields: cycles, halted, states (one name per cycle),
    events ((cycle, device, direction, value) in order), enabled
    (module -> enabled cycles) and emitted (UART bytes sent out).
    """
    s = RefState()
    rom = dict(enumerate(program))
    s.cycles = 0
    s.halted = False
    s.states = []
    s.events = []
    s.enabled = Counter()
    s.emitted = 0
    uart_clocked = 0

    def clock(state, modules):
        # Queued bytes hold the UART clock on; each clocked cycle moves
        # the head byte one cycle closer to leaving.
        nonlocal uart_clocked
        busy = s.emitted < len(s.uart_sent)
        s.states.append(state)
        s.enabled.update(modules | ({"uart"} if busy else set()))
        if busy:
            uart_clocked += 1
            if uart_clocked == UART_CYCLES_PER_BYTE:
                s.events.append((s.cycles, "uart", "out",
                                 s.uart_sent[s.emitted]))
                s.emitted += 1
                uart_clocked = 0
        s.cycles += 1

    def port1_level(cycle):
        level, since = 0, -1
        for at, value in injections:
            if at <= cycle and at >= since:
                level, since = value, at
        return level

    if reset:
        for state in ("reset1", "reset2"):
            if s.cycles < budget:
                clock(state, set())
    while s.cycles < budget:
        mnemonic, rd, rs, imm = rom.get(s.pc, ("NOP", 0, 0, 0))
        clock("fetch", {"rom"})
        if s.cycles == budget:
            break  # the budget ends between fetch and execute
        now = s.cycles
        s.port1_input = port1_level(now)
        clock("execute", execute_enables(mnemonic))
        here = s.pc
        if mnemonic in BRANCHES:
            target = branch_target(s, mnemonic, rd, imm)
            s.pc = (here + 1) & 0xFF if target is None else target
            if mnemonic in ("BI", "BCH") and target == here:
                s.halted = True
                if halt_on_self_loop:
                    break
        else:
            event = execute(s, mnemonic, rd, rs, imm)
            if event is not None:
                s.events.append((now,) + event)
            s.pc = (here + 1) & 0xFF
    return s
