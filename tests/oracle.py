"""Naive reference interpreter used as a test oracle.

Deliberately independent of the package internals: programs are plain
(mnemonic, rd, rs, imm) tuples, state is a handful of dicts, and every
opcode's effect, every clock enable and the cycle accounting are
written out longhand from the specification.

`run_program` runs a branch-free list top to bottom exactly once.
`RefMachine` runs a program with branches cycle by cycle: two cycles
per instruction, self-loop halts, the UART draining one byte per ten
clocked cycles from a 256-byte FIFO, which a send to it when full
overflows, port 1 injections, per-module enabled-cycle counts,
gated or with every module clocked, and the host's reset, force-idle
and interrupt lines between runs. `trace_csv` and `io_log_csv` render
its cycles and events as the bytes `mcusim run` writes to
`--trace-out` and `--io-log`.
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
FIFO_BYTES = 256


class FifoFull(Exception):
    """A UARTS found the transmit FIFO full. It does not retire: its
    execute cycle has run, and the machine stays in it."""


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
        self.uart_sent = []     # every byte queued, in order, but those
                                # a reset dropped


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


# The gated modules, in the order of the trace's columns.
MODULES = ("regfile", "alu", "ram", "rom", "port0", "port1", "uart",
           "sevenseg")
ALL_MODULES = set(MODULES)


class RefMachine(RefState):
    """`program`, placed from address 0 in an otherwise all-NOP ROM, run
    the way the simulator clocks it, under the default gating policy or,
    with `gated=False`, with every module clocked in every cycle.

    Beyond RefState it keeps: cycles, halted, state (the controller
    state of the next cycle), rows (one (pc, state, mnemonic, modules)
    per cycle run, the mnemonic `-` in reset and idle), events
    ((cycle, device, direction, value) in order), enabled (module ->
    enabled cycles) and emitted (how many of `uart_sent` have left).
    """

    def __init__(self, program, gated=True):
        super().__init__()
        self.rom = dict(enumerate(program))
        self.gated = gated
        self.cycles = 0
        self.halted = False
        self.state = "fetch"
        self.wake = False
        self.rows = []
        self.events = []
        self.enabled = Counter()
        self.emitted = 0
        self.uart_clocked = 0   # clocked cycles the head byte has had

    # -- host lines, between runs

    def reset(self):
        """Clear the architectural state but RAM and the port 1 level;
        drop the bytes still queued; two reset cycles come next."""
        self.regs = [0] * 8
        self.z = self.l = False
        self.pc = 0
        self.port0 = 0
        self.sevenseg_digit = 0
        del self.uart_sent[self.emitted:]
        self.uart_clocked = 0
        self.state = "reset1"
        self.halted = False
        self.wake = False

    def force_idle(self):
        self.state = "idle"

    def interrupt(self):
        """Wakes an idle machine after its next idle cycle; ignored in
        any other state."""
        if self.state == "idle":
            self.wake = True

    # -- clocking

    def clock(self, modules):
        """One cycle in `self.state` that clocks `modules` under the
        default policy. Queued bytes hold the UART clock on, except in
        idle; each cycle that clocks the UART moves the head byte one
        cycle closer to leaving."""
        busy = self.emitted < len(self.uart_sent)
        if not self.gated:
            modules = ALL_MODULES
        elif busy and self.state != "idle":
            modules = modules | {"uart"}
        mnemonic = (self.rom.get(self.pc, ("NOP", 0, 0, 0))[0]
                    if self.state in ("fetch", "execute") else "-")
        self.rows.append((self.pc, self.state, mnemonic, modules))
        self.enabled.update(modules)
        if busy and "uart" in modules:
            self.uart_clocked += 1
            if self.uart_clocked == UART_CYCLES_PER_BYTE:
                self.events.append((self.cycles, "uart", "out",
                                    self.uart_sent[self.emitted]))
                self.emitted += 1
                self.uart_clocked = 0
        self.cycles += 1

    def run(self, stop, injections=(), halt_on_self_loop=True):
        """Run until `cycles` reaches `stop` or, with
        `halt_on_self_loop`, a branch to itself retires; a machine that
        has halted runs one cycle more. `injections` are (cycle, value)
        port 1 levels; PORT1 reads the level of its execute cycle, and
        of two at the same cycle the later wins. The run ends with each
        injection due before its last cycle applied and drops the rest.
        """
        if self.cycles >= stop:
            return
        pending = sorted(injections, key=lambda inj: inj[0])

        def apply_due(cycle):
            while pending and pending[0][0] <= cycle:
                self.port1_input = pending.pop(0)[1]

        if self.halted and halt_on_self_loop:
            stop = self.cycles + 1
        try:
            while self.cycles < stop:
                if self.state == "reset1":
                    self.clock(set())
                    self.state = "reset2"
                elif self.state == "reset2":
                    self.clock(set())
                    self.state = "fetch"
                elif self.state == "idle":
                    self.clock(set())
                    if self.wake:
                        self.state = "fetch"
                    self.wake = False
                elif self.state == "fetch":
                    self.clock({"rom"})
                    self.state = "execute"
                elif self.execute_cycle(apply_due) and halt_on_self_loop:
                    break
        finally:
            apply_due(self.cycles - 1)

    def execute_cycle(self, apply_due):
        """The execute cycle of the instruction at pc. Returns True when
        it is a branch taken to itself; raises FifoFull when it is a
        UARTS that finds the FIFO full once the cycle's leave is done."""
        mnemonic, rd, rs, imm = self.rom.get(self.pc, ("NOP", 0, 0, 0))
        now = self.cycles
        apply_due(now)
        self.clock(execute_enables(mnemonic))
        if (mnemonic == "UARTS"
                and len(self.uart_sent) - self.emitted >= FIFO_BYTES):
            raise FifoFull(f"{FIFO_BYTES} bytes queued")
        self.state = "fetch"
        here = self.pc
        if mnemonic in BRANCHES:
            target = branch_target(self, mnemonic, rd, imm)
            self.pc = (here + 1) & 0xFF if target is None else target
            if target == here:  # branches write no flags: a fixed point
                self.halted = True
                return True
            return False
        event = execute(self, mnemonic, rd, rs, imm)
        if event is not None:
            self.events.append((now,) + event)
        self.pc = (here + 1) & 0xFF
        return False


def trace_csv(rows):
    """The `--trace-out` text of `RefMachine.rows`: a header, then one
    line per cycle, each ended by CRLF."""
    lines = [",".join(("cycle", "pc", "fsm_state", "opcode") + MODULES)]
    for cycle, (pc, state, mnemonic, modules) in enumerate(rows):
        lines.append(",".join([str(cycle), str(pc), state, mnemonic]
                              + ["1" if m in modules else "0"
                                 for m in MODULES]))
    return "".join(line + "\r\n" for line in lines)


def io_log_csv(events):
    """The `--io-log` text of `RefMachine.events`: a header, then one
    line per event with its value in hex, each ended by CRLF."""
    lines = ["cycle,device,direction,value"] + [
        f"{cycle},{device},{direction},0x{value:02X}"
        for cycle, device, direction, value in events]
    return "".join(line + "\r\n" for line in lines)
