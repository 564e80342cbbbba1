"""Architectural state and cycle-accurate instruction execution.

Every instruction costs two cycles: a fetch cycle that clocks the ROM
and an execute cycle that clocks only the modules the instruction
touches. Decode sits between them combinationally and consumes no
cycle of its own. After `reset()` the two reset states each consume a
cycle before the first fetch.

The UART transmitter needs its clock while a byte is draining, so its
enable is held high in those cycles whatever the instruction does,
except in idle, where the policy's idle row alone decides. Bytes leave
back to back, `BAUD_DIVISOR` clocked cycles apart, so `UARTS` knows the
cycle each byte leaves when it queues it; the core logs and drops a
byte once it runs that cycle, before any other event of the cycle.
Gated, idle stops every module clock and moves each queued byte's leave
cycle one later per idle cycle; ungated, the drain goes on.

A ROM image is an immutable tuple, so the core translates it, block by
block, into Python. The first time the core fetches from a
pc, it turns the straight-line instructions from there, up to and
including the first branch, at most 32 of them, into one function
built with `compile` from `_SEMANTICS`, the one source template per
opcode; the block then runs in one call. I/O instructions, `UARTS`
too, sit inside a block; each first logs the UART bytes that have left
by its execute cycle, then its own event or send, and the core logs
the rest after the block. A block whose sends could overflow the FIFO
runs only up to its first `UARTS`, or that `UARTS` alone, so an
overflow raises before a block has changed anything. A block that
would cross the budget runs as its fitting prefix, translated once per
length. A translation depends on the ROM words alone, so every machine
built on the same ROM shares it.

The core advances by spans, each logged as one entry `cycles << 21 |
state << 18 | held << 8 | pc`: `cycles` cycles from `state` at pc, the
first `held` of them begun with a UART byte queued before the span. A
span is a reset or idle cycle, a fetch with no room for its execute
half, or a block run, which starts at the execute half if its fetch
has run; a block's cycles alternate fetch and execute, pc going up
after each execute, and each `UARTS` execute extends the hold. As the
enables are a function of (state, opcode, busy, policy) and the
opcode of the pc, an entry carries all its trace rows hold;
`Machine._rows` turns it into them, once per entry, and every reader of
the log goes through it. I/O events are logged as packed integers.
Gating is only the policy: running ungated is `GatingPolicy.ungated()`
on this core.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .control import FsmState, GatingPolicy
from .isa import (ROM_WORDS, IllegalOpcodeError, Instruction, Op, RomImage,
                  decode)
from .peripherals import (BAUD_DIVISOR, FIFO_DEPTH, Peripherals,
                          TxOverflowError)
from .power import ActivityTrace

RAM_WORDS = 1024
PC_MASK = 0xFF
# Instructions a block holds at most: `compile`'s transient heap grows
# with the block's source, by about 7 KB per instruction.
BLOCK_CAP = 32

# Controller states as the core numbers them; `_STATES` maps them back
# and `_NEXT` gives the state after each, pc going up after an execute.
_FETCH, _EXECUTE, _RESET1, _RESET2, _IDLE = range(5)
_STATES = (FsmState.FETCH, FsmState.EXECUTE, FsmState.RESET1,
           FsmState.RESET2, FsmState.IDLE)
_NEXT = (_EXECUTE, _FETCH, _RESET2, _FETCH, _IDLE)
# Cycles `step()` runs from each state: through an execute, or one idle.
_STEP_CYCLES = (2, 1, 4, 3, 1)
# A log entry is a span, cycles << 21 | state << 18 | held << 8 | pc:
# `cycles` cycles from `state` at pc, of which the first `held` began
# with a UART byte queued before the span; 0 in idle, whose rows do not
# depend on it.
_CYCLES_SHIFT = 21
_STATE_SHIFT = 18
_HELD_SHIFT = 8
_HELD_MASK = 0x3FF
# A trace row: (pc, fsm_state, opcode, enables).
_Row = tuple[int, str, str, frozenset[str]]

# (device, direction) of each I/O event kind. `Machine.io_log` holds an
# event packed as cycle << 10 | kind << 8 | value.
IO_KINDS = (("port0", "out"), ("port1", "in"), ("sevenseg", "out"),
            ("uart", "out"))
_UART_OUT = 3 << 8


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
    io_events: tuple[int, ...]  # packed as in `Machine.io_log`


@dataclass
class RunResult:
    cycles: int
    halted: bool
    halt_reason: str | None = None


@dataclass(frozen=True)
class Injection:
    """A port 1 level the host drives from the given cycle on."""

    cycle: int
    kind: str  # port1
    value: int

    def __post_init__(self):
        if self.kind != "port1":
            raise ValueError(f"unknown injection kind '{self.kind}'")
        if self.cycle < 0:
            raise ValueError("injection cycle must be >= 0")
        if not 0 <= self.value <= 0xFF:
            raise ValueError("injected value must be one byte")


# What each opcode does, as one line of Python over a block's locals:
# r0-r7 are the registers, z and l the flags, pc the address to fetch
# next, ram the RAM, m the machine and cycle the cycle count just after
# the block. {d}, {s} and {i} are the rd, rs and imm fields and {n} the
# address after the instruction. An I/O instruction runs in cycle
# c = cycle - {k}, {k} fixed at translation, and first logs each UART
# byte that has left by then (`_IO`, which tests the queue itself to
# skip the call when none has). A register is written only by
# `r<k> = `, and only a branch assigns pc.
_IO = ("c = cycle - {k}; done = m.peripherals.uart.tx_done; "
       "done and done[0] <= c and m._uart_leave(c + 1); ")
_SEMANTICS = {
    Op.NOP: "",
    Op.LOAD: "r{d} = ram[{i}]",
    Op.STORE: "ram[{i}] = r{d}",
    Op.MOVE: "r{d} = r{s}",
    Op.LOADI: "r{d} = {i}",
    Op.ZERO: "r{d} = 0; z = True",
    Op.INC: "r{d} = (r{d} + 1) & 0xFFFF; z = r{d} == 0",
    # l is the borrow out of zero.
    Op.DEC: "l = r{d} == 0; r{d} = (r{d} - 1) & 0xFFFF; z = r{d} == 0",
    Op.AND: "r{d} = r{d} & r{s}; z = r{d} == 0",
    Op.OR: "r{d} = r{d} | r{s}; z = r{d} == 0",
    Op.XOR: "r{d} = r{d} ^ r{s}; z = r{d} == 0",
    Op.NOT: "r{d} = r{d} ^ 0xFFFF; z = r{d} == 0",
    Op.ADD: "r{d} = (r{d} + r{s}) & 0xFFFF; z = r{d} == 0",
    Op.SUB: "l = r{d} < r{s}; r{d} = (r{d} - r{s}) & 0xFFFF; "
            "z = r{d} == 0",
    Op.SHL: "r{d} = (r{d} << 1) & 0xFFFF; z = r{d} == 0",
    Op.SHR: "r{d} = r{d} >> 1; z = r{d} == 0",
    Op.ROR: "r{d} = r{d} >> 1 | (r{d} & 1) << 15; z = r{d} == 0",
    Op.ROL: "r{d} = (r{d} << 1) & 0xFFFF | r{d} >> 15; z = r{d} == 0",
    Op.BI: "pc = {i}",
    Op.BGTI: "pc = {i} if not z and not l else {n}",
    Op.BCH: "pc = r{d} & 0xFF",
    Op.BEQ: "pc = r{d} & 0xFF if z else {n}",
    Op.BNEQ: "pc = {n} if z else r{d} & 0xFF",
    Op.BGT: "pc = r{d} & 0xFF if not z and not l else {n}",
    Op.BLT: "pc = r{d} & 0xFF if l else {n}",
    Op.BLTE: "pc = r{d} & 0xFF if l or z else {n}",
    Op.PORT0: _IO + "v = r{d} & 0xFF; m.peripherals.ports.write_port0(v); "
                    "m._io_log.append(c << 10 | v)",
    Op.PORT1: _IO + "r{d} = m._read_port1(c); "
                    "m._io_log.append(c << 10 | 0x100 | r{d})",
    Op.B7S: _IO + "seg = m.peripherals.sevenseg; seg.show(r{d} & 0xF); "
                  "m._io_log.append(c << 10 | 0x200 | seg.segments)",
    Op.UARTS: _IO + "m.peripherals.uart.send(r{d} & 0xFF, c)",
}
_REGISTER = re.compile(r"\br([0-7])\b")
_ASSIGNED = re.compile(r"\br([0-7]) = ")


def _predecode(words) -> list[tuple[int, int, int, int] | None]:
    """(opcode, rd, rs, imm) per ROM address; None for an illegal word.
    Fields the opcode's format does not use are zero."""
    entries: dict[int, tuple[int, int, int, int] | None] = {}
    table = []
    for word in words:
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


def _compile_block(table, words, start: int, room: int) -> tuple:
    """Translate the longest block from `start` that takes at most
    `room` cycles, at least 2 unless the word at `start` is illegal,
    into (run, cycles, self-loop pc, cut, sends, first).

    `run(regs, ram, z, l, cycle, m)` runs the block on machine `m`, with
    `cycle` the cycle count after it, and returns (pc, z, l). A block
    ends after a branch, after `BLOCK_CAP` instructions, or before an
    illegal word. I/O instructions, `UARTS` included, sit inside a
    block, each logging its event or sending at its own execute cycle.
    `sends` counts the block's `UARTS` and `first` is the room of the
    cut that ends before the first of them, or 2, the room of that
    `UARTS` alone, when it opens the block: the core runs that cut when
    the sends could overflow the FIFO. An illegal word at `start` is a
    one-cycle block that raises in its fetch. `cut` is True when the
    room ended the block before its end. The self-loop pc is that of a
    closing branch, otherwise -1: a branch writes no flags, so one
    taken to itself repeats forever.
    """
    body: list[tuple[str, int]] = []  # (source, cycles once it has run)
    cycles = sends = first = 0
    loop_pc = -1
    cut = False
    pc = start
    for _ in range(BLOCK_CAP):
        entry = table[pc]
        if entry is None:
            if not cycles:
                body.append((f"raise IllegalOpcodeError({words[pc]:#06x})", 1))
                cycles = 1
            break
        op, rd, rs, imm = entry
        if cycles + 2 > room:
            cut = True
            break
        if op == Op.UARTS:
            first = first or cycles or 2
            sends += 1
        cycles += 2
        nxt = (pc + 1) & PC_MASK
        source = _SEMANTICS[op].format(d=rd, s=rs, i=imm, n=nxt, k="{k}")
        body.append((source, cycles))
        if source.startswith("pc = "):
            loop_pc = pc
            break
        pc = nxt
    assert cycles, "a block needs room for its first instruction"
    # {k}: how far an execute cycle lies back from the count after the block.
    code = [source.format(k=cycles - after + 1) for source, after in body]
    if loop_pc < 0:
        code.append(f"pc = {pc}")
    # Registers live in locals: load those it names, store those it assigns.
    text = "\n".join(code)
    loads = sorted(set(_REGISTER.findall(text)))
    stores = sorted(set(_ASSIGNED.findall(text)))
    lines = ([f"r{k} = regs[{k}]" for k in loads] + code
             + [f"regs[{k}] = r{k}" for k in stores] + ["return pc, z, l"])
    namespace = {"IllegalOpcodeError": IllegalOpcodeError}
    exec(compile("def run(regs, ram, z, l, cycle, m):\n"
                 + "".join(f"    {line}\n" for line in lines),
                 f"<ROM block at {start:#04x}>", "exec"), namespace)
    return namespace["run"], cycles, loop_pc, cut, sends, first


class _Translation:
    """A ROM's predecoded table and its blocks, each translated the first
    time the core reaches its pc. It depends on the ROM words alone."""

    def __init__(self, words: tuple[int, ...]):
        self.words = words
        self.table = _predecode(words)
        # The whole block from each pc, and the blocks the room cut short,
        # by (pc, instructions).
        self.blocks: list[tuple | None] = [None] * ROM_WORDS
        self.cuts: dict[tuple[int, int], tuple] = {}

    def block(self, pc: int, room: int) -> tuple | None:
        """The longest block from `pc` that takes at most `room` cycles,
        kept once translated, or None if no instruction fits."""
        if room < 2 and self.table[pc] is not None:
            return None  # a fetch alone: no instruction fits
        block = self.blocks[pc]
        if block and block[1] <= room:
            return block
        block = self.cuts.get((pc, room >> 1))
        if block is None:
            block = _compile_block(self.table, self.words, pc, room)
            if block[3]:
                self.cuts[pc, block[1] >> 1] = block
            else:
                self.blocks[pc] = block
        return block


@lru_cache(maxsize=16)
def _translate(words: tuple[int, ...]) -> _Translation:
    """One translation per ROM content, shared by every machine on it."""
    return _Translation(words)


class Machine:
    """The microcontroller: CPU core, memories, peripherals, clock gates.

    The ROM image is an immutable tuple: the core runs it as Python
    blocks translated the first time it reaches them, once per ROM
    content and process, so machines on equal ROMs share them.
    The gating policy is not part of the translation; without gating,
    pass `GatingPolicy.ungated()`. Memory grows by 4 bytes per span in
    the log and 8 bytes per I/O event: about 0.8 bytes per cycle on the
    benchmark's loop, 4 bytes per idle cycle. Each distinct entry is
    described once, into the trace rows of its cycles. `records` builds
    a row object per cycle on every access, at O(cycles) cost;
    `activity()` folds the log into per-module enabled-cycle counts once
    per distinct entry.
    """

    def __init__(self, rom: RomImage | None = None, *,
                 policy: GatingPolicy | None = None):
        self.rom = rom if rom is not None else RomImage()
        self.policy = policy if policy is not None else GatingPolicy()
        self.regs = [0] * 8
        self.pc = 0
        self.flags = Flags()
        self.ram = array("H", [0] * RAM_WORDS)
        self.cycles = 0
        self.peripherals = Peripherals()
        self._io_log = array("q")
        self.halted = False
        self.halt_reason: str | None = None
        self._code = _translate(self.rom)
        self._state = _FETCH
        self._wake = False
        self._pending: deque[Injection] = deque()  # a run's, by cycle
        self._log = array("I")  # one entry per span

    @property
    def policy(self) -> GatingPolicy:
        """The gating policy that prices the log; setting it describes
        every entry anew under the new one."""
        return self._policy

    @policy.setter
    def policy(self, policy: GatingPolicy) -> None:
        self._policy = policy
        self._described: dict[int, tuple[_Row, ...]] = {}  # see `_rows`

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
        self._wake = False

    def force_idle(self) -> None:
        """Host request to park the machine; call between instructions."""
        self._state = _IDLE

    def interrupt(self) -> None:
        """Wake signal: idle mode latches it, any other state drops it."""
        if self._state == _IDLE:
            self._wake = True

    def inject_port1(self, value: int) -> None:
        self.peripherals.ports.inject_port1(value)

    def _read_port1(self, cycle: int) -> int:
        """Port 1's level in `cycle`, once every scheduled injection due
        at or before it has applied."""
        while self._pending and self._pending[0].cycle <= cycle:
            self.inject_port1(self._pending.popleft().value)
        return self.peripherals.ports.read_port1()

    # -- the logs --------------------------------------------------------

    @property
    def io_log(self) -> array:
        """Every I/O event so far, in order, each packed as
        `cycle << 10 | kind << 8 | value` with `IO_KINDS[kind]` its
        (device, direction). Do not modify it."""
        return self._io_log

    def class_spans(self) -> Iterator[tuple[int, tuple[_Row, ...]]]:
        """(entry, rows) for each entry of the log, in cycle order: the
        (pc, fsm_state, opcode, enables) row of each cycle of one span.
        Equal entries have equal rows."""
        # The memo first: the writers ask once per log entry.
        described, rows = self._described, self._rows
        for entry in self._log:
            yield entry, described.get(entry) or rows(entry)

    def _rows(self, entry: int) -> tuple[_Row, ...]:
        """The trace row of each cycle a log entry took, in order.

        Memoised per machine and entry until the policy is set, so the
        gating policy is read the first time an entry is described under
        it. A block run walks its cycles through fetch <-> execute and
        takes each cycle's row from the one-cycle span of that cycle, so
        equal rows are one tuple. A `UARTS` executed at offset `i` queues
        a byte that leaves `BAUD_DIVISOR` cycles after the later of its
        send and the leave of the last byte held, so the hold runs on to
        `max(held, i + 1) + BAUD_DIVISOR`."""
        rows = self._described.get(entry)
        if rows is not None:
            return rows
        state = entry >> _STATE_SHIFT & 7
        held = entry >> _HELD_SHIFT & _HELD_MASK
        pc = entry & PC_MASK
        if entry >> _CYCLES_SHIFT == 1:
            decoded = self._code.table[pc] if state <= _EXECUTE else None
            op = None if decoded is None else Op(decoded[0])
            fsm = _STATES[state]
            enables = self._policy.enables(fsm, Op.NOP if op is None else op)
            if held and state != _IDLE:
                enables = enables | {"uart"}
            rows = ((pc, fsm.value, "-" if op is None else op.name,
                     enables),)
        else:
            cells: list[_Row] = []
            table = self._code.table
            for i in range(entry >> _CYCLES_SHIFT):
                cells += self._rows(1 << _CYCLES_SHIFT | state << _STATE_SHIFT
                                    | (i < held) << _HELD_SHIFT | pc)
                if state == _EXECUTE:
                    if table[pc][0] == Op.UARTS:  # its byte is queued next
                        held = max(held, i + 1) + BAUD_DIVISOR
                    pc = (pc + 1) & PC_MASK
                state = _NEXT[state]
            rows = tuple(cells)
        self._described[entry] = rows
        return rows

    @property
    def records(self) -> list[CycleRecord]:
        """Every cycle's trace row, built anew on each access."""
        rows = (row for _, span in self.class_spans() for row in span)
        return [CycleRecord(cycle, *row) for cycle, row in enumerate(rows)]

    def activity(self) -> ActivityTrace:
        """Per-module enabled-cycle counts over every cycle run."""
        trace = ActivityTrace()
        for entry, count in Counter(self._log).items():
            for row in self._rows(entry):
                trace.add(row[3], count)
        return trace

    # -- the core ------------------------------------------------------

    def _advance(self, stop: int, halt_on_self_loop: bool) -> bool:
        """Run cycles until `self.cycles` reaches `stop`, the program
        halts in a self-loop (when `halt_on_self_loop`), or a fault
        raises. Returns True when it stopped on such a halt.

        Each step runs one span and logs one entry: a reset or idle
        cycle, a fetch with no room for its execute half, or the longest
        block that ends by `stop`, cut before its first `UARTS` (or to
        that `UARTS` alone) when its sends could overflow the FIFO. With
        `halt_on_self_loop`, a machine that has already halted runs one
        more cycle and stops again.
        """
        cycle, pc, state = self.cycles, self.pc, self._state
        if self.halted and halt_on_self_loop:
            stop = cycle + 1
        code, regs, ram, flags = self._code, self.regs, self.ram, self.flags
        blocks, z, l = code.blocks, flags.z, flags.l
        emit, leave = self._log.append, self._uart_leave
        done = self.peripherals.uart.tx_done
        try:
            while cycle < stop:
                block = blocks[pc] if state == _FETCH else None
                if block is None or cycle + block[1] > stop:
                    # At execute (1), the room includes the fetch half run.
                    block = (code.block(pc, stop - cycle + state)
                             if state <= _EXECUTE else None)
                if not block:
                    # A reset or idle cycle, or a fetch with no room for
                    # its execute half.
                    entry = 1 << _CYCLES_SHIFT | state << _STATE_SHIFT | pc
                    if state == _IDLE:
                        if done and "uart" in self._rows(entry)[0][3]:
                            leave(cycle + 1)
                        elif done:  # gated idle stops the UART's clock
                            for i in range(len(done)):
                                done[i] += 1
                        state = _FETCH if self._wake else _IDLE
                        self._wake = False
                    else:  # a fetch, or reset: reset() empties the UART
                        if done:
                            entry |= 1 << _HELD_SHIFT
                            leave(cycle + 1)
                        state = _NEXT[state]
                    emit(entry)
                    cycle += 1
                    continue
                run, n, loop_pc, _, sends, first = block
                if sends and len(done) + sends > FIFO_DEPTH:
                    # A send may find the FIFO full: run up to the first
                    # UARTS, or it alone, so that it raises before the
                    # block has changed anything.
                    run, n, loop_pc, _, sends, first = code.block(pc, first)
                entry = n << _CYCLES_SHIFT | pc
                if state:  # at execute: the block's fetch half has run
                    n, state = n - 1, _FETCH
                    entry = n << _CYCLES_SHIFT | _EXECUTE << _STATE_SHIFT | pc
                if done:
                    entry |= min(done[-1] - cycle + 1, n) << _HELD_SHIFT
                emit(entry)
                cycle += n
                pc, z, l = run(regs, ram, z, l, cycle, self)
                if done:  # the bytes that left after its last I/O event
                    leave(cycle)
                if pc == loop_pc:
                    # A branch taken to itself: the spin-forever idiom.
                    self.halted = True
                    self.halt_reason = "self-loop"
                    if halt_on_self_loop:
                        break
        except TxOverflowError:
            state = _EXECUTE  # the lone faulting UARTS does not retire
            raise
        finally:
            leave(cycle)  # a fault may stop a block before it logs them
            self.cycles, self.pc, self._state = cycle, pc, state
            flags.z, flags.l = z, l
        return halt_on_self_loop and self.halted

    def _uart_leave(self, stop: int) -> None:
        """Log and drop each queued UART byte that leaves before `stop`."""
        uart, log = self.peripherals.uart, self._io_log
        while uart.tx_done and uart.tx_done[0] < stop:
            log.append(uart.tx_done.popleft() << 10 | _UART_OUT
                       | uart.tx_queue.popleft())

    # -- stepping ------------------------------------------------------

    def tick(self) -> CycleRecord:
        """Advance exactly one clock cycle."""
        self._advance(self.cycles + 1, False)
        return CycleRecord(self.cycles - 1, *self._rows(self._log[-1])[-1])

    def step(self) -> StepOutcome:
        """Advance one instruction, after any reset cycles left, or to
        the end of the execute half already fetched, or one cycle when
        parked in idle."""
        events_before = len(self._io_log)
        pc_before, state = self.pc, self._state
        self._advance(self.cycles + _STEP_CYCLES[state], False)
        executed = None
        if state != _IDLE:
            op, rd, rs, imm = self._code.table[pc_before]
            executed = Instruction(Op(op), rd, rs, imm)
        return StepOutcome(executed, pc_before, self.pc,
                           self._rows(self._log[-1])[-1][3],
                           tuple(self._io_log[events_before:]))

    def run(self, max_cycles: int, *, halt_on_self_loop: bool = True,
            injections: "list[Injection] | None" = None) -> RunResult:
        """Run until the cycle budget is spent or the program halts.

        `max_cycles` is the absolute cycle count to stop at. Each
        injection sets port 1's level from its cycle on, and a `PORT1`
        reads the level of its execute cycle. The run ends with every
        injection due at or before its last cycle applied and drops the
        rest, so one due at or after the cycle it stops at never applies.
        """
        if max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")
        if self.cycles >= max_cycles:
            return RunResult(self.cycles, False)
        self._pending.extend(sorted(injections or [],
                                    key=lambda inj: inj.cycle))
        try:
            halted = self._advance(max_cycles, halt_on_self_loop)
        finally:
            self._read_port1(self.cycles - 1)
            self._pending.clear()
        return RunResult(self.cycles, halted,
                         self.halt_reason if halted else None)
