"""The benchmark's workloads: the `mcusim run` invocations each one makes,
and the seeded generator for the long_loop program and its stimulus.

This module does not import mcusim, so the parent process that spawns
the measured children never loads the simulator itself.

Run it as a script to regenerate the committed default-seed inputs:

    python3 bench/workloads.py --seed 1 --out bench/data
"""

from __future__ import annotations

import argparse
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("reference", "long_loop", "long_loop_traced")
DEFAULT_SEED = 1
LOOP_BUDGET = 200_000   # cycles per long_loop invocation
SMOKE_BUDGET = 2_000    # the same program on a tiny budget, for --smoke

# The UART drains one byte per this many cycles. It is the Machine's
# default divisor, and the CLI does not change it.
UART_DIVISOR = 10
# One port1 injection per this many cycles on average.
INJECT_PERIOD = 500

# The loop body's opcode mix. It is the same for every seed; the seed
# only picks the order, the registers and the values. 44 body
# instructions plus the closing `LOADI R7` / `BCH R7` make 92 cycles an
# iteration, against 2 UARTS x 10 cycles of UART drain.
LOOP_MIX = (
    ("ADD", 3), ("SUB", 3), ("AND", 2), ("OR", 2), ("XOR", 2),
    ("NOT", 1), ("INC", 2), ("DEC", 2), ("SHL", 1), ("SHR", 1),
    ("ROL", 1), ("ROR", 1),
    ("LOADI", 3), ("MOVE", 2), ("ZERO", 1),
    ("LOAD", 4), ("STORE", 4),
    ("PORT0", 2), ("B7S", 2), ("PORT1", 2), ("UARTS", 2),
    ("NOP", 1),
)
_REG_REG = {"ADD", "SUB", "AND", "OR", "XOR", "MOVE"}
_REG_IMM = {"LOADI", "LOAD", "STORE"}
BODY_REGS = 7   # the body uses R0..R6; R7 holds the loop target

# 5-bit opcode fields the static check needs (see src/mcusim/isa.py).
_ILLEGAL_CODES = {0b10101, 0b11111}
_LOADI, _BCH, _UARTS = 0b00100, 0b10110, 0b11110
_BRANCH_CODES = {0b00101, 0b00110, 0b10001, 0b10010, 0b10100, 0b10110,
                 0b10111, 0b11001}


def generate_loop(seed: int, budget: int) -> tuple[str, str]:
    """The long_loop program source and its `--inject` script."""
    rng = random.Random(seed)
    lines = [f"; long_loop program, seed {seed}. Generated by "
             "bench/workloads.py; do not edit.",
             "; Straight-line body closed by BCH to `loop`, so the run "
             "ends on the cycle budget."]
    for reg in range(BODY_REGS):
        lines.append(f"        LOADI R{reg}, 0x{rng.randrange(256):02X}")
    body = [m for m, count in LOOP_MIX for _ in range(count)]
    rng.shuffle(body)
    for i, mnemonic in enumerate(body):
        rd = rng.randrange(BODY_REGS)
        if mnemonic in _REG_REG:
            text = f"{mnemonic:<5} R{rd}, R{rng.randrange(BODY_REGS)}"
        elif mnemonic in _REG_IMM:
            text = f"{mnemonic:<5} R{rd}, 0x{rng.randrange(256):02X}"
        elif mnemonic == "NOP":
            text = "NOP"
        else:
            text = f"{mnemonic:<5} R{rd}"
        lines.append(("loop:   " if i == 0 else "        ") + text)
    lines += ["        LOADI R7, loop", "        BCH   R7"]
    source = "\n".join(lines) + "\n"

    inject = [f"# port1 stimulus for the long_loop program, seed {seed}, "
              f"budget {budget}"]
    for start in range(0, budget - INJECT_PERIOD + 1, INJECT_PERIOD):
        inject.append(f"{start + rng.randrange(INJECT_PERIOD)} port1 "
                      f"{rng.randrange(256):02X}")
    return source, "\n".join(inject) + "\n"


def check_loop_rom(words: list[int]) -> list[str]:
    """Static check that a long_loop ROM can only end on its budget.

    From address 0 the code must run straight to one `BCH` whose target
    is loaded into its register by the `LOADI` just before it, and which
    nothing else writes. Every reachable word must have an assigned
    opcode (else exit 2), the branch must not target itself (else the
    run halts early), and one loop iteration must take at least as many
    cycles as its UARTS bytes need to drain (else the FIFO fills: exit 3).
    """
    def fields(word):
        return word >> 11, (word >> 8) & 7, word & 0xFF

    problems = []
    end = next((a for a, w in enumerate(words)
                if fields(w)[0] in _BRANCH_CODES), None)
    if end is None:
        return ["no branch closes the loop"]
    code, reg, _ = fields(words[end])
    if code != _BCH:
        problems.append(f"first branch at {end:#04x} is not BCH")
    for addr in range(end + 1):
        if fields(words[addr])[0] in _ILLEGAL_CODES:
            problems.append(f"illegal opcode at {addr:#04x}")
    if end == 0 or fields(words[end - 1])[:2] != (_LOADI, reg):
        return problems + [f"BCH at {end:#04x} has no LOADI R{reg} before it"]
    target = fields(words[end - 1])[2]
    if any(fields(words[a])[1] == reg for a in range(end - 1)):
        problems.append(f"R{reg} is written inside the loop")
    if target >= end:
        problems.append(f"BCH at {end:#04x} targets {target:#04x}, "
                        "not an earlier address (self-loop or runaway)")
        return problems
    uarts = sum(fields(words[a])[0] == _UARTS for a in range(target, end))
    cycles = 2 * (end - target + 1)
    if uarts * UART_DIVISOR > cycles:
        problems.append(f"{uarts} UARTS per {cycles}-cycle iteration "
                        f"outpace the {UART_DIVISOR}-cycle UART drain")
    return problems


def sources(workload: str, work: str) -> list[tuple[str, str]]:
    """(rom name, assembly source path) for each ROM a workload runs; an
    empty path is the packaged data/benchmark.asm."""
    if workload == "reference":
        return [("benchmark", ""), ("blink", os.path.join(DATA, "blink.asm"))]
    return [("loop", os.path.join(work, "long_loop.asm"))]


def write_inputs(workload: str, seed: int, budget: int, work: str) -> None:
    """Write the seed's generated inputs into the work directory."""
    if workload == "reference":
        return
    source, inject = generate_loop(seed, budget)
    with open(os.path.join(work, "long_loop.asm"), "w") as fh:
        fh.write(source)
    with open(os.path.join(work, "long_loop.inject"), "w") as fh:
        fh.write(inject)


def invocations(workload: str, seed: int, budget: int, work: str,
                out: str) -> list[dict]:
    """The CLI invocations of one workload body, in the seed's order.

    Each is {"name", "argv", "outputs", "osc", "no_gating"}; `outputs`
    says whether the trace, I/O log and report files are written, under
    `out` as `<name>.trace.csv`, `<name>.io.csv`, `<name>.report.txt`
    and `<name>.report.txt.csv`.
    """
    roms = os.path.join(work, "roms")
    if workload == "reference":
        specs = [("default", "benchmark", None, False),
                 ("nogating", "benchmark", None, True),
                 ("blink", "blink", None, False)]
        specs += [(f"osc{w:02d}", "benchmark", w, False) for w in range(16)]
        random.Random(seed).shuffle(specs)
    else:
        specs = [("loop", "loop", None, False)]
    outputs = workload != "long_loop"
    result = []
    for name, rom, osc, no_gating in specs:
        argv = ["run", "--rom", os.path.join(roms, rom + ".rom")]
        if workload != "reference":
            argv += ["--max-cycles", str(budget),
                     "--inject", os.path.join(work, "long_loop.inject")]
        if osc is not None:
            argv += ["--osc", str(osc)]
        if no_gating:
            argv.append("--no-gating")
        if outputs:
            base = os.path.join(out, name)
            argv += ["--trace-out", base + ".trace.csv",
                     "--io-log", base + ".io.csv",
                     "--report-out", base + ".report.txt",
                     "--no-timestamp"]
        result.append({"name": name, "argv": argv, "outputs": outputs,
                       "osc": osc, "no_gating": no_gating})
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--budget", type=int, default=LOOP_BUDGET)
    parser.add_argument("--out", required=True, help="directory to write to")
    args = parser.parse_args()
    source, inject = generate_loop(args.seed, args.budget)
    stem = os.path.join(args.out, f"long_loop_seed{args.seed}")
    with open(stem + ".asm", "w") as fh:
        fh.write(source)
    with open(stem + ".inject", "w") as fh:
        fh.write(inject)


if __name__ == "__main__":
    main()
