"""Architectural state and instruction execution, one clock cycle at a time.

Every instruction costs two cycles: a fetch cycle that clocks the ROM
and an execute cycle that clocks only the modules the instruction
touches. Decode sits between them combinationally and consumes no
cycle of its own. After `reset()` the two reset states each consume a
cycle before the first fetch.

The UART transmitter needs its clock while a byte is draining, so its
enable is held high during those cycles regardless of what the current
instruction is doing (except in idle mode, which stops every module
clock and freezes the drain).

The ROM is read-only once a `Machine` is built, so its words are
decoded once, up front, and the core dispatches on plain integers. Each
cycle leaves one 16-bit cycle-class code in a log: the pc, the
controller state and whether the UART was busy. The opcode is a
function of the pc and the clock enables a function of (state, opcode,
busy, policy), so the code carries everything a trace row holds;
`Machine.describe_class` turns a code back into a row.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from .control import ALL_ENABLED, FsmState, GatingPolicy
from .isa import IllegalOpcodeError, Instruction, Op, RomImage, decode
from .peripherals import Peripherals, TxOverflowError
from .power import ActivityTrace

RAM_WORDS = 1024
PC_MASK = 0xFF
WORD = 0xFFFF

# Controller states as the core numbers them; `_STATES` maps them back.
_RESET1, _RESET2, _FETCH, _EXECUTE, _IDLE = range(5)
_STATES = (FsmState.RESET1, FsmState.RESET2, FsmState.FETCH,
           FsmState.EXECUTE, FsmState.IDLE)

# Cycle-class code: pc | state << 8 | uart_busy << 11.
_STATE_SHIFT = 8
_BUSY = 1 << 11

# Opcode values as plain ints for the dispatch in `Machine._advance`.
(_NOP, _LOAD, _STORE, _MOVE, _LOADI, _BI, _BGTI, _INC, _DEC, _AND, _OR,
 _XOR, _NOT, _ADD, _SUB, _ZERO, _PORT0, _BLT, _BNEQ, _PORT1, _BGT, _BCH,
 _BEQ, _B7S, _BLTE, _SHL, _SHR, _ROR, _ROL, _UARTS) = (int(op) for op in Op)


@dataclass
class Flags:
    """Comparison state feeding the conditional branches.

    z: last ALU-class result was zero.
    l: last SUB/DEC borrowed (minuend below subtrahend, unsigned).
    """

    z: bool = False
    l: bool = False

    def clear(self) -> None:
        self.z = False
        self.l = False


@dataclass(frozen=True)
class IoEvent:
    """One observable I/O action."""

    cycle: int
    device: str     # port0 | port1 | sevenseg | uart
    direction: str  # out | in
    value: int


@dataclass(frozen=True)
class CycleRecord:
    """One trace row: what state the cycle ran in and what was clocked."""

    cycle: int
    pc: int
    fsm_state: str
    opcode: str
    enables: frozenset[str]


@dataclass(frozen=True)
class StepOutcome:
    """Result of advancing by one instruction (or one idle cycle)."""

    executed: Instruction | None
    pc_before: int
    pc_after: int
    modules_active: frozenset[str]
    io_events: tuple[IoEvent, ...]


@dataclass
class RunResult:
    cycles: int
    halted: bool
    halt_reason: str | None = None


@dataclass(frozen=True)
class Injection:
    """A host-driven input applied just before the given cycle ticks."""

    cycle: int
    kind: str  # port1 | uart_rx
    value: int

    def __post_init__(self):
        if self.kind not in ("port1", "uart_rx"):
            raise ValueError(f"unknown injection kind '{self.kind}'")
        if self.cycle < 0:
            raise ValueError("injection cycle must be >= 0")
        if not 0 <= self.value <= 0xFF:
            raise ValueError("injected value must be one byte")


def _predecode(rom: RomImage) -> list[tuple[int, int, int, int] | None]:
    """(opcode, rd, rs, imm) per ROM address; None for an illegal word.
    Fields the opcode's format does not use are zero."""
    entries: dict[int, tuple[int, int, int, int] | None] = {}
    table = []
    for word in rom:
        if word not in entries:
            try:
                instr = decode(word)
            except IllegalOpcodeError:
                entries[word] = None
            else:
                entries[word] = (int(instr.opcode), instr.rd, instr.rs,
                                 instr.operand8)
        table.append(entries[word])
    return table


class Machine:
    """The microcontroller: CPU core, memories, peripherals, clock gates.

    The ROM must not change once the machine is built: it is decoded
    here, once. Every cycle costs about 2 bytes of memory, one code in
    the cycle-class log. `records` builds the per-cycle trace rows from
    that log on every access, at O(cycles) cost; `activity()` folds the
    log into per-module enabled-cycle counts without building them.
    """

    def __init__(self, rom: RomImage | None = None, *,
                 policy: GatingPolicy | None = None, gating: bool = True,
                 uart_divisor: int = 10):
        self.rom = rom if rom is not None else RomImage()
        self.policy = policy if policy is not None else GatingPolicy()
        self.gating = gating
        self.regs = [0] * 8
        self.pc = 0
        self.flags = Flags()
        self.ram = array("H", [0] * RAM_WORDS)
        self.cycles = 0
        self.peripherals = Peripherals()
        self.peripherals.uart.baud_divisor = uart_divisor
        self.io_events: list[IoEvent] = []
        self.halted = False
        self.halt_reason: str | None = None
        self._table = _predecode(self.rom)
        self._state = _FETCH
        self._fetched: tuple[int, int, int, int] | None = None
        self._wake = False
        self._log = array("H")
        self._classes: dict[int, tuple[int, str, str, frozenset[str]]] = {}

    @property
    def fsm(self) -> FsmState:
        """The controller state the next cycle runs in."""
        return _STATES[self._state]

    # -- host controls -------------------------------------------------

    def reset(self) -> None:
        """Pulse the reset line: architectural state clears atomically,
        then the two reset states each take a cycle before fetch."""
        self.pc = 0
        self.regs = [0] * 8
        self.flags.clear()
        self.peripherals.reset()
        self._state = _RESET1
        self.halted = False
        self.halt_reason = None
        self._fetched = None
        self._wake = False

    def force_idle(self) -> None:
        """Host request to park the machine; call between instructions."""
        self._state = _IDLE

    def interrupt(self) -> None:
        """Wake signal; only idle mode observes it."""
        self._wake = True

    def inject_port1(self, value: int) -> None:
        self.peripherals.ports.inject_port1(value)

    def inject_uart_rx(self, value: int) -> None:
        self.peripherals.uart.inject_rx(value)

    # -- the cycle-class log ---------------------------------------------

    @property
    def cycle_classes(self) -> array:
        """One opaque cycle-class code per cycle run; read it through
        `describe_class`. Do not modify it."""
        return self._log

    def describe_class(self, code: int) -> tuple[int, str, str,
                                                 frozenset[str]]:
        """(pc, fsm_state, opcode, enables) of a cycle-class code.

        Memoised per code, so the gating policy is read the first time
        a code is described."""
        row = self._classes.get(code)
        if row is None:
            pc = code & PC_MASK
            state = _STATES[(code >> _STATE_SHIFT) & 7]
            entry = (self._table[pc]
                     if state in (FsmState.FETCH, FsmState.EXECUTE) else None)
            op = Op(entry[0]) if entry is not None else None
            if not self.gating:
                enables = ALL_ENABLED
            else:
                enables = self.policy.enables(state, op or Op.NOP)
                if code & _BUSY and state is not FsmState.IDLE:
                    enables = enables | {"uart"}
            row = (pc, state.value, op.name if op is not None else "-",
                   enables)
            self._classes[code] = row
        return row

    @property
    def records(self) -> list[CycleRecord]:
        """Every cycle's trace row, built anew on each access."""
        describe = self.describe_class
        return [CycleRecord(cycle, *describe(code))
                for cycle, code in enumerate(self._log)]

    def activity(self) -> ActivityTrace:
        """Per-module enabled-cycle counts over every cycle run."""
        trace = ActivityTrace()
        for code, count in Counter(self._log).items():
            trace.add(self.describe_class(code)[3], count)
        return trace

    # -- the core ------------------------------------------------------

    def _advance(self, stop: int, halt_on_self_loop: bool) -> bool:
        """Run cycles until `self.cycles` reaches `stop`, the program
        halts in a self-loop (when `halt_on_self_loop`), or a fault
        raises. Returns True when it stopped on such a halt.

        With `halt_on_self_loop`, a machine that has already halted
        runs one more cycle and stops again.
        """
        cycle = self.cycles
        if cycle >= stop:
            return False
        if self.halted and halt_on_self_loop:
            stop = cycle + 1
        table = self._table
        regs = self.regs
        ram = self.ram
        flags = self.flags
        z, l = flags.z, flags.l
        pc = self.pc
        state = self._state
        entry = self._fetched
        emit = self._log.append
        events = self.io_events
        ports = self.peripherals.ports
        sevenseg = self.peripherals.sevenseg
        uart = self.peripherals.uart
        txq = uart.tx_queue
        # Ungated, every clock runs in idle too, so the UART keeps draining.
        drain_in_idle = not self.gating
        try:
            while cycle < stop:
                code = pc | state << _STATE_SHIFT
                if txq:
                    emit(code | _BUSY)
                    if state != _IDLE or drain_in_idle:
                        for byte in uart.tick(1):
                            events.append(IoEvent(cycle, "uart", "out", byte))
                else:
                    emit(code)
                cycle += 1
                if state == _FETCH:
                    entry = table[pc]
                    if entry is None:
                        raise IllegalOpcodeError(self.rom[pc])
                    state = _EXECUTE
                    continue
                if state != _EXECUTE:
                    if state == _IDLE:
                        if self._wake:
                            state = _FETCH
                        self._wake = False
                    else:
                        state += 1  # reset1 -> reset2 -> fetch
                    continue

                state = _FETCH
                op, rd, rs, imm = entry
                here = pc
                pc = (pc + 1) & PC_MASK
                if op == _ADD:
                    result = (regs[rd] + regs[rs]) & WORD
                    regs[rd] = result
                    z = result == 0
                elif op == _SUB:
                    a, b = regs[rd], regs[rs]
                    l = a < b
                    result = (a - b) & WORD
                    regs[rd] = result
                    z = result == 0
                elif op == _AND:
                    result = regs[rd] & regs[rs]
                    regs[rd] = result
                    z = result == 0
                elif op == _OR:
                    result = regs[rd] | regs[rs]
                    regs[rd] = result
                    z = result == 0
                elif op == _XOR:
                    result = regs[rd] ^ regs[rs]
                    regs[rd] = result
                    z = result == 0
                elif op == _INC:
                    result = (regs[rd] + 1) & WORD
                    regs[rd] = result
                    z = result == 0
                elif op == _DEC:
                    l = regs[rd] == 0  # borrow out of zero
                    result = (regs[rd] - 1) & WORD
                    regs[rd] = result
                    z = result == 0
                elif op == _NOT:
                    result = ~regs[rd] & WORD
                    regs[rd] = result
                    z = result == 0
                elif op == _SHL:
                    result = (regs[rd] << 1) & WORD
                    regs[rd] = result
                    z = result == 0
                elif op == _SHR:
                    result = regs[rd] >> 1
                    regs[rd] = result
                    z = result == 0
                elif op == _ROR:
                    v = regs[rd]
                    result = (v >> 1) | ((v & 1) << 15)
                    regs[rd] = result
                    z = result == 0
                elif op == _ROL:
                    v = regs[rd]
                    result = ((v << 1) & WORD) | (v >> 15)
                    regs[rd] = result
                    z = result == 0
                elif op == _MOVE:
                    regs[rd] = regs[rs]
                elif op == _LOADI:
                    regs[rd] = imm
                elif op == _ZERO:
                    regs[rd] = 0
                    z = True
                elif op == _LOAD:
                    regs[rd] = ram[imm]
                elif op == _STORE:
                    ram[imm] = regs[rd]
                elif op == _NOP:
                    pass
                elif op == _BNEQ:
                    if not z:
                        pc = regs[rd] & PC_MASK
                elif op == _BEQ:
                    if z:
                        pc = regs[rd] & PC_MASK
                elif op == _BGT:
                    if not z and not l:
                        pc = regs[rd] & PC_MASK
                elif op == _BLT:
                    if l:
                        pc = regs[rd] & PC_MASK
                elif op == _BLTE:
                    if l or z:
                        pc = regs[rd] & PC_MASK
                elif op == _BGTI:
                    if not z and not l:
                        pc = imm
                elif op == _BI or op == _BCH:
                    pc = imm if op == _BI else regs[rd] & PC_MASK
                    if pc == here:
                        # Unconditional branch to itself: the spin-forever
                        # idiom.
                        self.halted = True
                        self.halt_reason = "self-loop"
                        if halt_on_self_loop:
                            break
                elif op == _PORT0:
                    value = regs[rd] & 0xFF
                    ports.write_port0(value)
                    events.append(IoEvent(cycle - 1, "port0", "out", value))
                elif op == _PORT1:
                    value = ports.read_port1()
                    regs[rd] = value
                    events.append(IoEvent(cycle - 1, "port1", "in", value))
                elif op == _B7S:
                    sevenseg.show(regs[rd] & 0xF)
                    events.append(IoEvent(cycle - 1, "sevenseg", "out",
                                          sevenseg.segments))
                elif op == _UARTS:
                    try:
                        uart.send(regs[rd] & 0xFF)
                    except TxOverflowError:
                        # The faulting instruction does not retire.
                        pc, state = here, _EXECUTE
                        raise
                else:  # pragma: no cover - the decoder admits no other op
                    raise AssertionError(op)
        finally:
            self.cycles = cycle
            self.pc = pc
            self._state = state
            self._fetched = entry
            flags.z, flags.l = z, l
        return halt_on_self_loop and self.halted

    # -- stepping ------------------------------------------------------

    def tick(self) -> CycleRecord:
        """Advance exactly one clock cycle."""
        self._advance(self.cycles + 1, False)
        cycle = self.cycles - 1
        return CycleRecord(cycle, *self.describe_class(self._log[cycle]))

    def step(self) -> StepOutcome:
        """Advance one instruction (first draining any reset cycles), or
        one cycle when parked in idle."""
        while self._state in (_RESET1, _RESET2):
            self.tick()
        events_before = len(self.io_events)
        pc_before = self.pc
        if self._state == _IDLE:
            row = self.tick()
            return StepOutcome(None, pc_before, self.pc, row.enables,
                               tuple(self.io_events[events_before:]))
        self.tick()                  # fetch
        row = self.tick()            # execute
        op, rd, rs, imm = self._fetched
        return StepOutcome(Instruction(Op(op), rd, rs, imm), pc_before,
                           self.pc, row.enables,
                           tuple(self.io_events[events_before:]))

    def run(self, max_cycles: int, *, halt_on_self_loop: bool = True,
            injections: "list[Injection] | None" = None) -> RunResult:
        """Run until the cycle budget is spent or the program halts.

        `max_cycles` is the absolute cycle count to stop at. Each
        injection applies just before its cycle ticks; one due at or
        after the budget is never applied.
        """
        if max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")
        pending = sorted(injections or [], key=lambda inj: inj.cycle)
        i = 0
        while self.cycles < max_cycles:
            while i < len(pending) and pending[i].cycle <= self.cycles:
                inj = pending[i]
                if inj.kind == "port1":
                    self.inject_port1(inj.value)
                else:
                    self.inject_uart_rx(inj.value)
                i += 1
            stop = max_cycles
            if i < len(pending):
                stop = min(stop, pending[i].cycle)
            if self._advance(stop, halt_on_self_loop):
                return RunResult(self.cycles, True, self.halt_reason)
        return RunResult(self.cycles, False)
