"""Control FSM transitions and the clock-enable policy."""

import pytest

from mcusim.control import (
    ALL_ENABLED,
    GATED_MODULES,
    FsmState,
    GatingPolicy,
    next_state,
)
from mcusim.isa import Op

ALL_STATES = list(FsmState)
ALL_OPS = list(Op)

# Expected execute-state enables, written out in full so a policy edit
# cannot slip through unnoticed.
EXECUTE_ROWS = {
    "NOP": set(),
    "LOAD": {"regfile", "ram"},
    "STORE": {"regfile", "ram"},
    "MOVE": {"regfile"},
    "LOADI": {"regfile"},
    "BI": set(),
    "BGTI": set(),
    "INC": {"regfile", "alu"},
    "DEC": {"regfile", "alu"},
    "AND": {"regfile", "alu"},
    "OR": {"regfile", "alu"},
    "XOR": {"regfile", "alu"},
    "NOT": {"regfile", "alu"},
    "ADD": {"regfile", "alu"},
    "SUB": {"regfile", "alu"},
    "ZERO": {"regfile"},
    "PORT0": {"regfile", "port0"},
    "PORT1": {"regfile", "port1"},
    "BLT": {"regfile"},
    "BNEQ": {"regfile"},
    "BGT": {"regfile"},
    "BCH": {"regfile"},
    "BEQ": {"regfile"},
    "B7S": {"regfile", "sevenseg"},
    "BLTE": {"regfile"},
    "SHL": {"regfile", "alu"},
    "SHR": {"regfile", "alu"},
    "ROR": {"regfile", "alu"},
    "ROL": {"regfile", "alu"},
    "UARTS": {"regfile", "uart"},
}


def test_reset_dominates_from_every_state_and_opcode():
    for state in ALL_STATES:
        for op in ALL_OPS:
            assert next_state(state, op, reset=True) is FsmState.RESET1
            assert next_state(state, op, reset=True,
                              interrupt=True) is FsmState.RESET1


def test_main_loop_transitions():
    assert next_state(FsmState.RESET1, Op.NOP) is FsmState.RESET2
    assert next_state(FsmState.RESET2, Op.NOP) is FsmState.FETCH
    assert next_state(FsmState.FETCH, Op.NOP) is FsmState.DECODE
    assert next_state(FsmState.DECODE, Op.ADD) is FsmState.EXECUTE
    assert next_state(FsmState.EXECUTE, Op.ADD) is FsmState.FETCH


def test_idle_holds_until_interrupt():
    assert next_state(FsmState.IDLE, Op.NOP) is FsmState.IDLE
    assert next_state(FsmState.IDLE, Op.NOP, interrupt=True) is FsmState.FETCH


def test_transitions_ignore_the_opcode():
    for state in ALL_STATES:
        targets = {next_state(state, op) for op in ALL_OPS}
        assert len(targets) == 1


def test_reset_pulse_reaches_fetch_in_two_more_cycles():
    state = next_state(FsmState.EXECUTE, Op.ADD, reset=True)
    assert state is FsmState.RESET1
    state = next_state(state, Op.NOP)
    state = next_state(state, Op.NOP)
    assert state is FsmState.FETCH


def test_fetch_reachable_within_three_steps_from_anywhere():
    for start in ALL_STATES:
        for op in ALL_OPS:
            state = start
            for steps in range(1, 4):
                state = next_state(state, op, interrupt=True)
                if state is FsmState.FETCH:
                    break
            assert state is FsmState.FETCH, (start, op)


def test_next_state_and_enables_are_pure():
    policy = GatingPolicy()
    for state in ALL_STATES:
        for op in (Op.NOP, Op.ADD, Op.BCH):
            assert next_state(state, op) is next_state(state, op)
            assert policy.enables(state, op) == policy.enables(state, op)


def test_execute_enables_match_the_policy_table():
    policy = GatingPolicy()
    for op in ALL_OPS:
        enables = policy.enables(FsmState.EXECUTE, op)
        assert enables == EXECUTE_ROWS[op.name], op.name


def test_non_execute_states_have_fixed_enables():
    policy = GatingPolicy()
    for op in ALL_OPS:
        assert policy.enables(FsmState.FETCH, op) == {"rom"}
        for state in (FsmState.RESET1, FsmState.RESET2, FsmState.DECODE,
                      FsmState.IDLE):
            assert policy.enables(state, op) == set()


def test_policy_rows_are_configurable():
    policy = GatingPolicy()
    policy.set_gate(Op.NOP, "alu", True)
    assert policy.enables(FsmState.EXECUTE, Op.NOP) == {"alu"}
    policy.set_gate(Op.NOP, "alu", False)
    assert policy.enables(FsmState.EXECUTE, Op.NOP) == set()
    # Overrides are per-instance; the default table is untouched.
    assert GatingPolicy().enables(FsmState.EXECUTE, Op.NOP) == set()
    with pytest.raises(ValueError):
        policy.set_gate(Op.NOP, "dsp", True)


def test_module_name_order_is_the_trace_column_order():
    assert GATED_MODULES == ("regfile", "alu", "ram", "rom", "port0",
                             "port1", "uart", "sevenseg")
    assert ALL_ENABLED == frozenset(GATED_MODULES)
