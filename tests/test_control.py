"""Controller transitions, driven on a real machine, and the
clock-enable policy."""

import pytest

from mcusim.control import (
    ALL_ENABLED,
    GATED_MODULES,
    FsmState,
    GatingPolicy,
)
from mcusim.isa import Instruction, Op, RomImage, encode
from mcusim.config import default_config
from mcusim.machine import Machine
from mcusim.power import estimate
from mcusim.reference import (BENCHMARK_MAX_CYCLES, benchmark_rom,
                              run_benchmark)

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


def machine_in(state, op):
    """A fresh machine whose next cycle runs in `state`, with `op` (all
    operand fields zero) at the pc that cycle sees."""
    m = Machine(RomImage([encode(Instruction(op))]))
    if state in (FsmState.RESET1, FsmState.RESET2):
        m.reset()
        if state is FsmState.RESET2:
            m.tick()
    elif state is FsmState.EXECUTE:
        m.tick()
    elif state is FsmState.IDLE:
        m.force_idle()
    assert m.fsm is state and m.pc == 0
    return m


def states_after(m, cycles):
    """The controller state of each of the next `cycles` cycles."""
    return [FsmState(m.tick().fsm_state) for _ in range(cycles)]


def test_reset_dominates_from_every_state_and_opcode():
    for state in ALL_STATES:
        for op in ALL_OPS:
            for irq in (False, True):
                m = machine_in(state, op)
                if irq:
                    m.interrupt()
                m.reset()
                assert states_after(m, 1) == [FsmState.RESET1]


def test_main_loop_transitions():
    m = machine_in(FsmState.RESET1, Op.ADD)
    assert states_after(m, 6) == [
        FsmState.RESET1, FsmState.RESET2, FsmState.FETCH, FsmState.EXECUTE,
        FsmState.FETCH, FsmState.EXECUTE]


def test_idle_holds_until_interrupt():
    m = machine_in(FsmState.IDLE, Op.NOP)
    assert states_after(m, 3) == [FsmState.IDLE] * 3
    m.interrupt()
    # The waking cycle is itself an idle one; fetch follows it.
    assert states_after(m, 2) == [FsmState.IDLE, FsmState.FETCH]


def test_interrupt_outside_idle_is_dropped():
    m = machine_in(FsmState.FETCH, Op.NOP)
    m.interrupt()
    m.force_idle()
    assert states_after(m, 3) == [FsmState.IDLE] * 3
    # Raised while the core runs, it is gone by the time the host parks.
    m = Machine()
    m.interrupt()
    m.run(10)
    m.force_idle()
    assert states_after(m, 3) == [FsmState.IDLE] * 3
    m.interrupt()
    assert states_after(m, 2) == [FsmState.IDLE, FsmState.FETCH]


def test_transitions_ignore_the_opcode():
    for state in ALL_STATES:
        targets = set()
        for op in ALL_OPS:
            m = machine_in(state, op)
            m.tick()
            targets.add(m.fsm)
        assert len(targets) == 1, state


def test_reset_pulse_reaches_fetch_in_two_more_cycles():
    m = machine_in(FsmState.EXECUTE, Op.ADD)
    m.reset()
    assert states_after(m, 3) == [FsmState.RESET1, FsmState.RESET2,
                                  FsmState.FETCH]


def test_fetch_reachable_within_three_steps_from_anywhere():
    for start in ALL_STATES:
        for op in ALL_OPS:
            m = machine_in(start, op)
            for _ in range(3):
                m.interrupt()
                m.tick()
                if m.fsm is FsmState.FETCH:
                    break
            assert m.fsm is FsmState.FETCH, (start, op)


def test_enables_are_pure():
    policy = GatingPolicy()
    for state in ALL_STATES:
        for op in (Op.NOP, Op.ADD, Op.BCH):
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
        for state in (FsmState.RESET1, FsmState.RESET2, FsmState.IDLE):
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


def test_an_override_cannot_stop_a_clock_the_instruction_uses():
    policy = GatingPolicy()
    for name, needed in EXECUTE_ROWS.items():
        for module in needed:
            with pytest.raises(ValueError, match="cannot be gated off"):
                policy.set_gate(Op[name], module, False)
    assert policy == GatingPolicy()
    # Ungated, every module is on, but what is needed still is.
    with pytest.raises(ValueError):
        GatingPolicy.ungated().set_gate(Op.ADD, "alu", False)


@pytest.mark.parametrize("route", ["row", "constructor", "reassigned"])
def test_a_table_written_around_set_gate_is_checked_where_it_is_read(route):
    # Each route stops ADD's register file clock without `set_gate`:
    # writing one row, building the table whole, or handing a machine
    # such a policy after it was built. ADD still writes the register
    # file, so the run must not be priced.
    if route == "row":
        policy = GatingPolicy()
        policy.execute_rows[Op.ADD] = frozenset({"alu"})
    else:
        policy = GatingPolicy({**GatingPolicy().execute_rows,
                               Op.ADD: frozenset({"alu"})})
    if route == "reassigned":
        m = Machine(benchmark_rom())
        m.policy = policy
    else:
        m = Machine(benchmark_rom(), policy=policy)
    m.reset()
    m.run(BENCHMARK_MAX_CYCLES)
    with pytest.raises(ValueError, match="ADD uses the regfile clock"):
        estimate(m.activity(), default_config().power_config())
    with pytest.raises(ValueError, match="cannot be gated off"):
        policy.enables(FsmState.EXECUTE, Op.ADD)


def test_a_policy_set_after_the_run_prices_the_run():
    # The rows of a log are described under the policy the machine holds
    # when they are read, so a policy set after the run, once the gated
    # figure has been read, reprices it, and a bad one is refused.
    config = default_config().power_config()
    m = run_benchmark()
    assert round(estimate(m.activity(), config).total_gated_mw, 3) == 182.0
    m.policy = GatingPolicy.ungated()
    assert round(estimate(m.activity(), config).total_gated_mw, 3) == 273.0
    m.policy = GatingPolicy({**GatingPolicy().execute_rows,
                             Op.ADD: frozenset({"alu"})})
    with pytest.raises(ValueError, match="ADD uses the regfile clock"):
        m.activity()
    m.policy = GatingPolicy()
    assert round(estimate(m.activity(), config).total_gated_mw, 3) == 182.0


def test_module_name_order_is_the_trace_column_order():
    assert GATED_MODULES == ("regfile", "alu", "ram", "rom", "port0",
                             "port1", "uart", "sevenseg")
    assert ALL_ENABLED == frozenset(GATED_MODULES)


def test_ungated_policy_enables_everything_everywhere():
    policy = GatingPolicy.ungated()
    for state in ALL_STATES:
        for op in ALL_OPS:
            assert policy.enables(state, op) == ALL_ENABLED
    # Gate overrides edit execute rows only, as on a gated policy.
    policy.set_gate(Op.NOP, "alu", False)
    assert policy.enables(FsmState.EXECUTE, Op.NOP) == ALL_ENABLED - {"alu"}
    assert policy.enables(FsmState.FETCH, Op.NOP) == ALL_ENABLED
