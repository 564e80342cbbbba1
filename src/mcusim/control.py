"""Control unit: controller states and per-module clock enables.

`GatingPolicy` is the whole enable table, (state, opcode) -> modules;
the machine's core holds the state register and its transitions. The
control path itself is never gated; it is what observes reset and the
idle-mode wake interrupt. Running without gating is the policy that
enables every module in every row, on the same core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .isa import ALU_OPS, BRANCH_REG_OPS, Op

# Every module behind a clock gate, in trace-column order.
GATED_MODULES = (
    "regfile", "alu", "ram", "rom", "port0", "port1", "uart", "sevenseg",
)

ALL_ENABLED = frozenset(GATED_MODULES)
NONE_ENABLED: frozenset[str] = frozenset()


class FsmState(Enum):
    """Controller states, each one cycle long; values are the names
    written to trace files. Decode is combinational and takes no cycle."""

    RESET1 = "reset1"
    RESET2 = "reset2"
    FETCH = "fetch"
    EXECUTE = "execute"
    IDLE = "idle"


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


_NEEDS = _default_execute_rows()  # what each instruction's execute uses


def _default_state_rows() -> dict[FsmState, frozenset[str]]:
    """Enables of the states whose activity does not depend on the
    opcode: fetch clocks the ROM; reset and idle clock nothing beyond
    the control path."""
    return {FsmState.RESET1: NONE_ENABLED, FsmState.RESET2: NONE_ENABLED,
            FsmState.FETCH: frozenset({"rom"}), FsmState.IDLE: NONE_ENABLED}


@dataclass
class GatingPolicy:
    """Total table (state, opcode) -> enabled modules.

    Only the execute-state rows vary by opcode and only they are
    configurable; `state_rows` holds the other states' enables.
    """

    execute_rows: dict[Op, frozenset[str]] = field(
        default_factory=_NEEDS.copy)
    state_rows: dict[FsmState, frozenset[str]] = field(
        default_factory=_default_state_rows)

    @classmethod
    def ungated(cls) -> GatingPolicy:
        """Every module clocked in every cycle: no gating at all."""
        return cls(dict.fromkeys(Op, ALL_ENABLED),
                   dict.fromkeys(_default_state_rows(), ALL_ENABLED))

    def enables(self, state: FsmState, opcode: Op) -> frozenset[str]:
        if state is FsmState.EXECUTE:  # a table may bypass `set_gate`
            return _checked(opcode, self.execute_rows[opcode])
        return self.state_rows[state]

    def set_gate(self, opcode: Op, module: str, enabled: bool) -> None:
        """Override one execute-row entry (config `gate.<op>.<module>`).
        It may clock a module the instruction does not use, never stop
        one it does."""
        if module not in GATED_MODULES:
            raise ValueError(f"unknown module '{module}'")
        row = self.execute_rows[opcode]
        self.execute_rows[opcode] = _checked(
            opcode, row | {module} if enabled else row - {module})


def _checked(opcode: Op, row: frozenset[str]) -> frozenset[str]:
    """`row`, if it clocks every module `opcode` uses: gating must not
    change what a program computes."""
    missing = _NEEDS[opcode] - row
    if missing:
        raise ValueError(f"{opcode.name} uses the {', '.join(sorted(missing))}"
                         f" clock, so it cannot be gated off")
    return row
