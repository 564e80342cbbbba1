"""Plain key = value configuration for runs.

Recognized keys:

    power.vdd          supply voltage (volts)
    power.vswing       signal swing (volts)
    power.f_mhz        clock frequency when no oscillator word is given
    power.cap.<node>   effective switched capacitance (farads); nodes are
                       the eight gated modules plus `control`
    osc.control_word   0..15, overrides power.f_mhz via the oscillator
    gate.<OPCODE>.<module> = on|off   execute-row clock-enable override;
                       off only for a module the opcode does not use

Lines are `key = value`; `#` starts a comment. Values omitted by a user
file fall back to the packaged defaults. Numbers must be finite;
power.vdd, power.vswing and power.f_mhz must be above zero and
capacitances at least zero. Once the file is read, power.vswing must
not exceed power.vdd, at least one capacitance must be above zero, and
the ungated power at power.f_mhz must be a positive finite number; a
breach is reported at the last line that set one of the keys involved.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field, replace

from .asm import read_text
from .clocking import CONTROL_WORDS, frequency_of
from .control import GatingPolicy
from .isa import BY_MNEMONIC, Op
from .power import POWER_NODES, PowerConfig, power_per_mhz

DEFAULT_CONFIG_RESOURCE = "default_power.cfg"


class ConfigError(Exception):
    """Bad configuration line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class SimConfig:
    """Everything a run needs beyond the ROM itself."""

    vdd: float
    vswing: float
    f_mhz: float
    cap: dict[str, float]
    osc_control_word: int | None = None
    gate_overrides: list[tuple[Op, str, bool]] = field(default_factory=list)

    def copy(self) -> "SimConfig":
        return replace(self, cap=dict(self.cap),
                       gate_overrides=list(self.gate_overrides))

    def frequency_hz(self, osc_override: int | None = None) -> float:
        """Effective clock: explicit word > configured word > f_mhz."""
        word = osc_override if osc_override is not None \
            else self.osc_control_word
        if word is not None:
            return frequency_of(word)
        return self.f_mhz * 1e6

    def power_config(self, osc_override: int | None = None) -> PowerConfig:
        return PowerConfig(vdd=self.vdd, vswing=self.vswing,
                           f_hz=self.frequency_hz(osc_override),
                           cap=dict(self.cap))

    def gating_policy(self) -> GatingPolicy:
        policy = GatingPolicy()
        for op, module, enabled in self.gate_overrides:
            policy.set_gate(op, module, enabled)
        return policy


def _parse_float(value: str, lineno: int, key: str, *,
                 positive: bool = False) -> float:
    """A finite number, above zero when `positive`, else at least zero."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(lineno, f"{key} needs a number, got '{value}'") \
            from None
    if not math.isfinite(number):
        raise ConfigError(lineno, f"{key} must be finite, got '{value}'")
    if number < 0 or (positive and number == 0):
        bound = "positive" if positive else "at least 0"
        raise ConfigError(lineno, f"{key} must be {bound}, got '{value}'")
    return number


def _apply(config: SimConfig, key: str, value: str, lineno: int) -> None:
    if key == "power.vdd":
        config.vdd = _parse_float(value, lineno, key, positive=True)
    elif key == "power.vswing":
        config.vswing = _parse_float(value, lineno, key, positive=True)
    elif key == "power.f_mhz":
        config.f_mhz = _parse_float(value, lineno, key, positive=True)
    elif key.startswith("power.cap."):
        node = key[len("power.cap."):]
        if node not in POWER_NODES:
            raise ConfigError(lineno, f"unknown power node '{node}'")
        config.cap[node] = _parse_float(value, lineno, key)
    elif key == "osc.control_word":
        try:
            word = int(value, 0)
        except ValueError:
            raise ConfigError(lineno, f"bad control word '{value}'") from None
        if not 0 <= word < CONTROL_WORDS:
            raise ConfigError(lineno, f"control word out of range: {word}")
        config.osc_control_word = word
    elif key.startswith("gate."):
        parts = key.split(".")
        if len(parts) != 3:
            raise ConfigError(lineno, f"expected gate.<opcode>.<module>, "
                                      f"got '{key}'")
        op = BY_MNEMONIC.get(parts[1].upper())
        if op is None:
            raise ConfigError(lineno, f"unknown opcode '{parts[1]}'")
        if value not in ("on", "off"):
            raise ConfigError(lineno, f"gate value must be on or off, "
                                      f"got '{value}'")
        override = (op, parts[2], value == "on")
        try:
            GatingPolicy().set_gate(*override)  # raises if it is illegal
        except ValueError as exc:
            raise ConfigError(lineno, str(exc)) from None
        config.gate_overrides.append(override)
    else:
        raise ConfigError(lineno, f"unknown key '{key}'")


def parse_config(text: str, base: SimConfig) -> SimConfig:
    """Apply a config file's overrides on top of a base configuration."""
    config = base.copy()
    set_at: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key = value, got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        _apply(config, key, value, lineno)
        set_at[key] = lineno
    _check_across_keys(config, set_at)
    return config


def _check_across_keys(config: SimConfig, set_at: dict[str, int]) -> None:
    """Rules that involve more than one key, given the line that last set
    each key. A rule is checked only when the file set one of its keys."""
    supply = [n for key, n in set_at.items()
              if key in ("power.vdd", "power.vswing")]
    if supply and config.vswing > config.vdd:
        raise ConfigError(max(supply), f"power.vswing ({config.vswing:g}) "
                                       f"exceeds power.vdd ({config.vdd:g})")
    caps = [n for key, n in set_at.items() if key.startswith("power.cap.")]
    if caps and not any(config.cap.values()):
        raise ConfigError(max(caps), "every power.cap value is 0, so there "
                                     "is no power to estimate")
    power = [n for key, n in set_at.items() if key.startswith("power.")]
    ungated_mw = config.f_mhz * power_per_mhz(config.power_config())
    if power and not 0 < ungated_mw < math.inf:
        raise ConfigError(max(power), "the ungated power at power.f_mhz "
                          f"({config.f_mhz:g}) is not a positive finite "
                          "number")


def _empty_base() -> SimConfig:
    return SimConfig(vdd=1.0, vswing=1.0, f_mhz=1.0,
                     cap=dict.fromkeys(POWER_NODES, 0.0))


def default_config() -> SimConfig:
    """The packaged calibrated defaults."""
    text = (importlib.resources.files("mcusim")
            .joinpath("data", DEFAULT_CONFIG_RESOURCE).read_text())
    return parse_config(text, _empty_base())


def load_config(path: str) -> SimConfig:
    return parse_config(read_text(path, ConfigError), default_config())
