"""Control unit: next-state/output logic and per-module clock enables.

`next_state` and `output_signals` are the pure combinational half of
the classic two-process machine; the machine's core holds the state
register. The control path itself is never gated; it is what observes
reset and the idle-mode wake interrupt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .isa import (
    ALU_OPS,
    BRANCH_OPS,
    BRANCH_REG_OPS,
    REG_WRITE_OPS,
    Z_FLAG_OPS,
    Op,
)

# Every module behind a clock gate, in trace-column order.
GATED_MODULES = (
    "regfile", "alu", "ram", "rom", "port0", "port1", "uart", "sevenseg",
)

ALL_ENABLED = frozenset(GATED_MODULES)
NONE_ENABLED: frozenset[str] = frozenset()


class FsmState(Enum):
    """Controller states; values are the names written to trace files."""

    RESET1 = "reset1"
    RESET2 = "reset2"
    FETCH = "fetch"
    DECODE = "decode"
    EXECUTE = "execute"
    IDLE = "idle"


@dataclass(frozen=True)
class ControlSignals:
    """One cycle's worth of control outputs."""

    enables: frozenset[str]
    reg_write: bool = False
    mem_read: bool = False
    mem_write: bool = False
    pc_load: bool = False
    flag_write: bool = False

    def enabled(self, module: str) -> bool:
        return module in self.enables


def _default_execute_rows() -> dict[Op, frozenset[str]]:
    """Execute-state enables: clock only what the instruction touches."""
    rows: dict[Op, frozenset[str]] = {}
    for op in Op:
        if op in ALU_OPS:
            rows[op] = frozenset({"regfile", "alu"})
        elif op in (Op.LOAD, Op.STORE):
            rows[op] = frozenset({"regfile", "ram"})
        elif op in (Op.LOADI, Op.MOVE, Op.ZERO):
            rows[op] = frozenset({"regfile"})
        elif op in BRANCH_REG_OPS:
            # Register-indirect branches read the target from a register.
            rows[op] = frozenset({"regfile"})
        elif op is Op.PORT0:
            rows[op] = frozenset({"regfile", "port0"})
        elif op is Op.PORT1:
            rows[op] = frozenset({"regfile", "port1"})
        elif op is Op.B7S:
            rows[op] = frozenset({"regfile", "sevenseg"})
        elif op is Op.UARTS:
            rows[op] = frozenset({"regfile", "uart"})
        else:
            # NOP and immediate branches run entirely in the control path.
            rows[op] = NONE_ENABLED
    return rows


# Enables for the states whose activity does not depend on the opcode.
_STATE_ROWS = {
    FsmState.RESET1: NONE_ENABLED,
    FsmState.RESET2: NONE_ENABLED,
    FsmState.FETCH: frozenset({"rom"}),
    FsmState.DECODE: NONE_ENABLED,
    FsmState.IDLE: NONE_ENABLED,
}


@dataclass
class GatingPolicy:
    """Total table (state, opcode) -> enabled modules.

    Only the execute-state rows vary by opcode and only they are
    configurable; fetch always clocks the ROM, and reset, decode, and
    idle clock nothing beyond the control path.
    """

    execute_rows: dict[Op, frozenset[str]] = field(
        default_factory=_default_execute_rows)

    def enables(self, state: FsmState, opcode: Op) -> frozenset[str]:
        if state is FsmState.EXECUTE:
            return self.execute_rows[opcode]
        return _STATE_ROWS[state]

    def set_gate(self, opcode: Op, module: str, enabled: bool) -> None:
        """Override one execute-row entry (config `gate.<op>.<module>`)."""
        if module not in GATED_MODULES:
            raise ValueError(f"unknown module '{module}'")
        row = set(self.execute_rows[opcode])
        if enabled:
            row.add(module)
        else:
            row.discard(module)
        self.execute_rows[opcode] = frozenset(row)


DEFAULT_POLICY = GatingPolicy()


def next_state(current: FsmState, opcode: Op, reset: bool = False,
               interrupt: bool = False) -> FsmState:
    """Combinational next-state function.

    Reset dominates everything. The main loop is fetch -> decode ->
    execute -> fetch; idle holds until an interrupt wakes it. The
    opcode input is accepted (the decoder feeds the state logic in
    hardware) but no transition currently depends on it.
    """
    del opcode
    if reset:
        return FsmState.RESET1
    if current is FsmState.RESET1:
        return FsmState.RESET2
    if current is FsmState.RESET2:
        return FsmState.FETCH
    if current is FsmState.FETCH:
        return FsmState.DECODE
    if current is FsmState.DECODE:
        return FsmState.EXECUTE
    if current is FsmState.EXECUTE:
        return FsmState.FETCH
    # idle: wait for the wake interrupt
    return FsmState.FETCH if interrupt else FsmState.IDLE


def output_signals(current: FsmState, opcode: Op,
                   policy: GatingPolicy = DEFAULT_POLICY) -> ControlSignals:
    """Combinational output function: clock enables plus datapath strobes.

    pc_load on a conditional branch asserts the load path; whether the
    pc actually changes is the flag comparison done in the datapath.
    """
    enables = policy.enables(current, opcode)
    if current is FsmState.EXECUTE:
        return ControlSignals(
            enables=enables,
            reg_write=opcode in REG_WRITE_OPS,
            mem_read=opcode is Op.LOAD,
            mem_write=opcode is Op.STORE,
            pc_load=opcode in BRANCH_OPS,
            flag_write=opcode in Z_FLAG_OPS,
        )
    if current in (FsmState.RESET1, FsmState.RESET2):
        # Reset sequence forces the pc back to the reset vector.
        return ControlSignals(enables=enables, pc_load=True)
    return ControlSignals(enables=enables)
