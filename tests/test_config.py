"""Configuration parsing and the packaged defaults."""

import pytest

from mcusim.clocking import frequency_of
from mcusim.config import ConfigError, default_config, parse_config
from mcusim.control import FsmState
from mcusim.isa import Op
from mcusim.power import POWER_NODES, power_per_mhz


def test_packaged_defaults_are_complete():
    config = default_config()
    assert config.vdd == 2.4
    assert config.vswing == 2.4
    assert set(config.cap) == set(POWER_NODES)
    assert all(c >= 0 for c in config.cap.values())
    assert config.osc_control_word is None
    assert config.f_mhz == pytest.approx(273.0 / 3.62, rel=1e-12)


def test_default_power_config_slope():
    assert power_per_mhz(default_config().power_config()) == pytest.approx(
        3.62, abs=1e-9)


def test_overrides_apply_on_top_of_defaults():
    base = default_config()
    config = parse_config(
        "# comment\n"
        "\n"
        "power.vdd = 3.3   # inline comment\n"
        "power.cap.alu = 1e-12\n"
        "osc.control_word = 7\n",
        base,
    )
    assert config.vdd == 3.3
    assert config.cap["alu"] == 1e-12
    assert config.cap["ram"] == base.cap["ram"]  # untouched keys survive
    assert config.osc_control_word == 7
    # the base object is not mutated
    assert base.vdd == 2.4
    assert base.osc_control_word is None


def test_frequency_precedence():
    config = parse_config("osc.control_word = 3\n", default_config())
    assert config.frequency_hz() == frequency_of(3)
    assert config.frequency_hz(osc_override=0) == frequency_of(0)
    no_word = default_config()
    assert no_word.frequency_hz() == pytest.approx(no_word.f_mhz * 1e6)


def test_gate_overrides_build_into_the_policy():
    config = parse_config(
        "gate.NOP.alu = on\n"
        "gate.add.ram = on\n"  # opcode case-insensitive
        "gate.ADD.uart = off\n",  # legal: ADD does not use the UART
        default_config(),
    )
    policy = config.gating_policy()
    assert policy.enables(FsmState.EXECUTE, Op.NOP) == {"alu"}
    assert policy.enables(FsmState.EXECUTE, Op.ADD) == {"regfile", "alu",
                                                        "ram"}


@pytest.mark.parametrize("line,fragment", [
    ("power.vdd = high", "needs a number"),
    ("power.vdd = -1", "must be positive"),
    ("power.vswing = 0", "must be positive"),
    ("power.f_mhz = nan", "must be finite"),
    ("power.f_mhz = -inf", "must be finite"),
    ("power.cap.alu = inf", "must be finite"),
    ("power.cap.alu = -1e-12", "must be at least 0"),
    ("power.cap.dsp = 1e-12", "unknown power node"),
    ("osc.control_word = 16", "out of range"),
    ("osc.control_word = seven", "bad control word"),
    ("gate.FROB.alu = on", "unknown opcode"),
    ("gate.NOP.dsp = on", "unknown module"),
    ("gate.NOP.alu = yes", "must be on or off"),
    ("gate.NOP = on", "expected gate.<opcode>.<module>"),
    ("gate.ADD.regfile = off", "ADD uses the regfile clock"),
    ("mystery.key = 1", "unknown key"),
    ("no equals sign", "expected key = value"),
])
def test_config_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line + "\n", default_config())


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as exc:
        parse_config("power.vdd = 2.4\nbogus = 1\n", default_config())
    assert exc.value.line == 2


@pytest.mark.parametrize("text,line", [
    ("power.vdd = 1.8\n", 1),  # below the packaged swing of 2.4
    ("power.vdd = 2.0\n# swing\npower.vswing = 2.2\n", 3),
    ("power.vswing = 2.2\n# supply\npower.vdd = 2.0\n", 3),
    ("power.vdd = 1.0\npower.vswing = 1.2\npower.vdd = 1.1\n", 3),
])
def test_swing_above_supply_names_the_later_line(text, line):
    with pytest.raises(ConfigError, match="exceeds power.vdd") as exc:
        parse_config(text, default_config())
    assert exc.value.line == line


@pytest.mark.parametrize("text", [
    "power.vdd = 1e200\n# swing\npower.vswing = 1e200\n",
    "power.vdd = 1e-300\n# swing\npower.vswing = 1e-300\n",
])
def test_power_out_of_float_range_names_the_last_power_line(text):
    with pytest.raises(ConfigError, match="not a positive finite") as exc:
        parse_config(text, default_config())
    assert exc.value.line == 3


def test_all_zero_capacitances_are_rejected():
    text = "".join(f"power.cap.{node} = 0\n" for node in POWER_NODES)
    with pytest.raises(ConfigError, match="every power.cap value is 0") as exc:
        parse_config(text, default_config())
    assert exc.value.line == len(POWER_NODES)
    # One capacitance above zero is enough.
    parse_config(text + "power.cap.rom = 1e-12\n", default_config())
