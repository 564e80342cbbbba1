"""Command-line front end: assemble, disassemble, and run with reports.

Exit codes are part of the interface:

    0   success
    1   file, assembly, or configuration errors
    2   the program fetched an unassigned opcode
    3   a peripheral FIFO overflowed
    64  usage errors (bad flags or argument values)
"""

from __future__ import annotations

import argparse
import csv
import datetime
import sys

from .asm import AsmError, RomFileError, assemble, disassemble, \
    format_rom_file, parse_rom_file
from .config import ConfigError, SimConfig, default_config, load_config
from .control import GATED_MODULES
from .isa import IllegalOpcodeError, RomImage
from .machine import Injection, Machine
from .peripherals import RxOverflowError, TxOverflowError
from .power import CONTROL_NODE, PowerReport, estimate
from .reference import BENCHMARK_MAX_CYCLES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ILLEGAL_OPCODE = 2
EXIT_OVERFLOW = 3
EXIT_USAGE = 64

TRACE_COLUMNS = ("cycle", "pc", "fsm_state", "opcode") + GATED_MODULES


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this interface reserves 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="mcusim",
                     description="16-bit microcontroller simulator with "
                                 "clock gating and power estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble a source file")
    p_asm.add_argument("source", help="assembly source file")
    p_asm.add_argument("out", help="ROM image file to write")

    p_dis = sub.add_parser("disasm", help="disassemble a ROM image")
    p_dis.add_argument("image", help="ROM image file (256 hex words)")

    p_run = sub.add_parser("run", help="simulate a ROM image")
    p_run.add_argument("--rom", required=True, help="ROM image file")
    p_run.add_argument("--max-cycles", type=int, default=BENCHMARK_MAX_CYCLES,
                       help="cycle budget (default %(default)s)")
    p_run.add_argument("--no-gating", action="store_true",
                       help="clock every module every cycle")
    p_run.add_argument("--osc", type=int, choices=range(16),
                       metavar="0..15", default=None,
                       help="oscillator control word")
    p_run.add_argument("--config", help="configuration file")
    p_run.add_argument("--trace-out", help="write per-cycle trace CSV here")
    p_run.add_argument("--report-out",
                       help="write power report here (plus .csv twin)")
    p_run.add_argument("--io-log", help="write I/O event CSV here")
    p_run.add_argument("--inject", help="input injection script")
    p_run.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from the report header")
    p_run.add_argument("--no-self-loop-halt", action="store_true",
                       help="keep running through branch-to-self spins")
    return parser


def _fail(message: str, code: int = EXIT_ERROR) -> int:
    print(f"mcusim: error: {message}", file=sys.stderr)
    return code


def cmd_asm(args) -> int:
    try:
        with open(args.source, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return _fail(str(exc))
    try:
        image, _ = assemble(source)
    except AsmError as exc:
        return _fail(str(exc))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_rom_file(image))
    except OSError as exc:
        return _fail(str(exc))
    return EXIT_OK


def cmd_disasm(args) -> int:
    try:
        with open(args.image, encoding="utf-8") as fh:
            image = parse_rom_file(fh.read())
    except (OSError, RomFileError) as exc:
        return _fail(str(exc))
    sys.stdout.write(disassemble(image))
    return EXIT_OK


def _parse_injections(path: str) -> list[Injection]:
    injections = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"line {lineno}: expected '<cycle> <kind> <hex>', "
                    f"got '{line}'")
            try:
                injections.append(Injection(cycle=int(parts[0]),
                                            kind=parts[1],
                                            value=int(parts[2], 16)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return injections


def _write_trace(path: str, machine: Machine) -> None:
    """One CSV row per cycle. A row is its cycle number followed by the
    text of its cycle class, which is formatted once per class."""
    describe = machine.describe_class
    suffixes: dict[int, str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for cycle, code in enumerate(machine.cycle_classes):
            suffix = suffixes.get(code)
            if suffix is None:
                pc, state, opcode, enables = describe(code)
                suffix = suffixes[code] = ",".join(
                    ["", str(pc), state, opcode]
                    + ["1" if m in enables else "0" for m in GATED_MODULES]
                ) + "\r\n"
            fh.write(f"{cycle}{suffix}")


def _write_io_log(path: str, events) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "device", "direction", "value"])
        for e in events:
            writer.writerow([e.cycle, e.device, e.direction,
                             f"0x{e.value:02X}"])


def _write_report(path: str, report: PowerReport, cycles: int,
                  gating: bool, timestamp: bool) -> None:
    nodes = (CONTROL_NODE,) + GATED_MODULES
    lines = ["power report", "============"]
    if timestamp:
        now = datetime.datetime.now().isoformat(timespec="seconds")
        lines.append(f"generated: {now}")
    lines += [
        f"frequency: {report.f_hz / 1e6:.3f} MHz",
        f"cycles: {cycles}",
        f"gating: {'enabled' if gating else 'disabled'}",
        "",
        f"{'module':<10}{'duty':>8}{'gated mW':>12}{'ungated mW':>12}",
    ]
    for node in nodes:
        lines.append(f"{node:<10}{report.duty[node]:>8.4f}"
                     f"{report.per_module_mw[node]:>12.3f}"
                     f"{report.per_module_ungated_mw[node]:>12.3f}")
    lines += [
        "",
        f"total gated:   {report.total_gated_mw:.3f} mW",
        f"total ungated: {report.total_ungated_mw:.3f} mW",
        f"savings:       {report.savings_percent:.2f} %",
        f"ungated slope: {report.mw_per_mhz_ungated:.3f} mW/MHz",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["module", "duty", "mw_gated", "mw_ungated"])
        for node in nodes:
            writer.writerow([node,
                             f"{report.duty[node]:.6f}",
                             f"{report.per_module_mw[node]:.6f}",
                             f"{report.per_module_ungated_mw[node]:.6f}"])


def cmd_run(args, parser: _Parser) -> int:
    if args.max_cycles < 1:
        parser.error("--max-cycles must be at least 1")

    try:
        config: SimConfig = (load_config(args.config) if args.config
                             else default_config())
    except (OSError, ConfigError) as exc:
        return _fail(str(exc))

    try:
        with open(args.rom, encoding="utf-8") as fh:
            rom: RomImage = parse_rom_file(fh.read())
    except (OSError, RomFileError) as exc:
        return _fail(str(exc))

    injections: list[Injection] = []
    if args.inject:
        try:
            injections = _parse_injections(args.inject)
        except OSError as exc:
            return _fail(str(exc))
        except ValueError as exc:
            return _fail(f"{args.inject}: {exc}")

    machine = Machine(rom, policy=config.gating_policy(),
                      gating=not args.no_gating)
    machine.reset()

    status = EXIT_OK
    try:
        machine.run(args.max_cycles,
                    halt_on_self_loop=not args.no_self_loop_halt,
                    injections=injections)
    except IllegalOpcodeError as exc:
        # The faulting fetch is the last cycle and leaves the pc on it.
        print(f"mcusim: error: {exc} at pc={machine.pc:#04x}, "
              f"cycle {machine.cycles - 1}", file=sys.stderr)
        status = EXIT_ILLEGAL_OPCODE
    except (TxOverflowError, RxOverflowError) as exc:
        print(f"mcusim: error: {exc} at cycle {machine.cycles}",
              file=sys.stderr)
        status = EXIT_OVERFLOW

    try:
        if args.trace_out:
            _write_trace(args.trace_out, machine)
        if args.io_log:
            _write_io_log(args.io_log, machine.io_events)
        if status == EXIT_OK:
            report = estimate(machine.activity(),
                              config.power_config(args.osc))
            if args.report_out:
                _write_report(args.report_out, report, machine.cycles,
                              not args.no_gating, not args.no_timestamp)
            print(f"gated={report.total_gated_mw:.3f} "
                  f"ungated={report.total_ungated_mw:.3f} "
                  f"savings={report.savings_percent:.2f}%")
    except OSError as exc:
        return _fail(str(exc))
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "asm":
        return cmd_asm(args)
    if args.command == "disasm":
        return cmd_disasm(args)
    return cmd_run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
