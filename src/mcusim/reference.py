"""The packaged reference workload.

One program that executes every instruction and touches every
peripheral. Its activity trace is the anchor the default capacitance
table was calibrated against, so the same loader is used by the
calibration script and by anything re-checking the shipped numbers.
"""

from __future__ import annotations

import importlib.resources

from .asm import assemble
from .isa import RomImage
from .machine import Machine

BENCHMARK_RESOURCE = "benchmark.asm"

# Generous bound; the workload halts on its own well before this.
BENCHMARK_MAX_CYCLES = 10_000


def benchmark_source() -> str:
    return (importlib.resources.files("mcusim")
            .joinpath("data", BENCHMARK_RESOURCE).read_text())


def benchmark_rom() -> RomImage:
    image, _ = assemble(benchmark_source())
    return image


def run_benchmark() -> Machine:
    """Run the workload the way the command line does: reset first."""
    machine = Machine(benchmark_rom())
    machine.reset()
    machine.run(BENCHMARK_MAX_CYCLES)
    return machine
