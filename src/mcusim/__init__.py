"""Cycle-level simulator of a 16-bit RISC microcontroller.

The machine executes a 30-instruction load/store ISA from a 256-word
ROM. A control FSM gates each module's clock to what the current cycle
actually uses, and an activity-based estimator turns the resulting
enable trace into dynamic power figures.
"""

from .asm import (
    AsmError,
    assemble,
    disassemble,
    format_rom_file,
    parse_rom_file,
)
from .clocking import cycle_time_of, frequency_of
from .config import SimConfig, default_config, load_config
from .control import FsmState, GatingPolicy, GATED_MODULES
from .isa import (
    IllegalOpcodeError,
    Instruction,
    Op,
    RomImage,
    decode,
    encode,
)
from .machine import Flags, Injection, Machine, RunResult, StepOutcome
from .peripherals import TxOverflowError, bcd_to_7seg
from .power import (
    ActivityTrace,
    PowerConfig,
    PowerReport,
    calibrate,
    estimate,
    power_per_mhz,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityTrace",
    "AsmError",
    "FsmState",
    "Flags",
    "GATED_MODULES",
    "GatingPolicy",
    "IllegalOpcodeError",
    "Injection",
    "Instruction",
    "Machine",
    "Op",
    "PowerConfig",
    "PowerReport",
    "RomImage",
    "RunResult",
    "SimConfig",
    "StepOutcome",
    "TxOverflowError",
    "assemble",
    "bcd_to_7seg",
    "calibrate",
    "cycle_time_of",
    "decode",
    "default_config",
    "disassemble",
    "encode",
    "estimate",
    "format_rom_file",
    "frequency_of",
    "load_config",
    "parse_rom_file",
    "power_per_mhz",
    "__version__",
]
