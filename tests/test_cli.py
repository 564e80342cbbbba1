"""Command-line interface: exit codes, outputs, determinism."""

import csv
import tracemalloc

import pytest

from mcusim import cli
from mcusim.asm import assemble
from mcusim.config import default_config
from mcusim.machine import Machine
from mcusim.power import estimate
from mcusim.reference import BENCHMARK_MAX_CYCLES, benchmark_source


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def bench_rom(tmp_path):
    source = tmp_path / "bench.asm"
    source.write_text(benchmark_source())
    rom = tmp_path / "bench.rom"
    assert run_cli("asm", str(source), str(rom)) == 0
    return rom


def test_asm_writes_a_full_image(tmp_path):
    src = tmp_path / "p.asm"
    src.write_text("LOADI R3, 0xFF\nADD R1, R2\n")
    out = tmp_path / "p.rom"
    assert run_cli("asm", str(src), str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 256
    assert lines[0] == "23FF"
    assert lines[1] == "6940"
    assert lines[2] == "0000"


def test_asm_empty_source_gives_all_nop_image(tmp_path):
    src = tmp_path / "empty.asm"
    src.write_text("")
    out = tmp_path / "empty.rom"
    assert run_cli("asm", str(src), str(out)) == 0
    assert out.read_text().splitlines() == ["0000"] * 256


def test_asm_reports_errors_with_line_numbers(tmp_path, capsys):
    src = tmp_path / "bad.asm"
    src.write_text("NOP\nBI nowhere\n")
    assert run_cli("asm", str(src), str(tmp_path / "x.rom")) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "undefined label" in err


def test_asm_missing_input_file(tmp_path):
    assert run_cli("asm", str(tmp_path / "none.asm"),
                   str(tmp_path / "x.rom")) == 1


def test_asm_into_a_directory_exits_1(tmp_path, capsys):
    src = tmp_path / "p.asm"
    src.write_text("NOP\n")
    assert run_cli("asm", str(src), str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("mcusim: error: ")


def test_disasm_roundtrip(tmp_path, capsys):
    src = tmp_path / "p.asm"
    src.write_text("LOADI R3, 0xFF\nloop: BI loop\n")
    rom = tmp_path / "p.rom"
    run_cli("asm", str(src), str(rom))
    assert run_cli("disasm", str(rom)) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "LOADI R3, 0xFF"
    assert lines[1] == "BI 0x01"
    # assembling the listing reproduces the image
    src2 = tmp_path / "p2.asm"
    src2.write_text(out)
    rom2 = tmp_path / "p2.rom"
    assert run_cli("asm", str(src2), str(rom2)) == 0
    assert rom2.read_text() == rom.read_text()


def test_disasm_escapes_unassigned_opcodes(tmp_path, capsys):
    rom = tmp_path / "ill.rom"
    rom.write_text("A800\n" + "0000\n" * 255)
    assert run_cli("disasm", str(rom)) == 0
    assert capsys.readouterr().out.splitlines()[0] == ".word 0xA800"


def test_disasm_rejects_short_files(tmp_path, capsys):
    rom = tmp_path / "short.rom"
    rom.write_text("0000\n" * 255)
    assert run_cli("disasm", str(rom)) == 1
    assert "expected 256 words" in capsys.readouterr().err


def test_run_benchmark_summary_line(bench_rom, capsys):
    assert run_cli("run", "--rom", str(bench_rom)) == 0
    out = capsys.readouterr().out.strip()
    assert out == "gated=182.000 ungated=273.000 savings=33.33%"


def test_run_without_gating_reports_no_saving(bench_rom, capsys):
    assert run_cli("run", "--rom", str(bench_rom), "--no-gating") == 0
    out = capsys.readouterr().out.strip()
    assert out == "gated=273.000 ungated=273.000 savings=0.00%"


def test_run_usage_errors(bench_rom, capsys):
    assert run_cli("run", "--rom", str(bench_rom), "--max-cycles", "0") == 64
    assert run_cli("run", "--rom", str(bench_rom), "--osc", "20") == 64
    assert run_cli("run") == 64  # --rom is required
    capsys.readouterr()


def test_run_missing_rom_file(tmp_path):
    assert run_cli("run", "--rom", str(tmp_path / "none.rom")) == 1


def test_run_illegal_opcode_exits_2(tmp_path, capsys):
    rom = tmp_path / "ill.rom"
    rom.write_text("0000\nA800\n" + "0000\n" * 254)
    assert run_cli("run", "--rom", str(rom)) == 2
    err = capsys.readouterr().err
    assert "illegal opcode" in err
    assert "cycle" in err


def test_run_uart_overflow_exits_3(tmp_path, capsys):
    # Sends a byte every two instructions while only one drains per ten
    # cycles; the transmit FIFO must eventually overflow.
    src = tmp_path / "flood.asm"
    src.write_text("top: UARTS R1\nBCH R0\n")  # R0 = 0 = top
    rom = tmp_path / "flood.rom"
    run_cli("asm", str(src), str(rom))
    assert run_cli("run", "--rom", str(rom)) == 3
    assert "FIFO full" in capsys.readouterr().err


def test_trace_csv_layout(bench_rom, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run_cli("run", "--rom", str(bench_rom),
                   "--trace-out", str(trace)) == 0
    capsys.readouterr()
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cycle", "pc", "fsm_state", "opcode", "regfile",
                       "alu", "ram", "rom", "port0", "port1", "uart",
                       "sevenseg"]
    assert rows[1][:4] == ["0", "0", "reset1", "-"]
    assert rows[2][:4] == ["1", "0", "reset2", "-"]
    assert rows[3][2] == "fetch"
    assert all(cell in ("0", "1") for row in rows[1:] for cell in row[4:])
    # one row per cycle, numbered from zero
    assert [row[0] for row in rows[1:]] == [str(i) for i in
                                            range(len(rows) - 1)]


def test_injection_and_io_log(tmp_path, capsys):
    src = tmp_path / "io.asm"
    src.write_text("NOP\nNOP\nNOP\nPORT1 R1\nPORT0 R1\ndone: BI done\n")
    rom = tmp_path / "io.rom"
    run_cli("asm", str(src), str(rom))
    script = tmp_path / "inject.txt"
    script.write_text("# test stimulus\n5 port1 0x5A\n")
    iolog = tmp_path / "io.csv"
    assert run_cli("run", "--rom", str(rom), "--inject", str(script),
                   "--io-log", str(iolog)) == 0
    capsys.readouterr()
    with open(iolog, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cycle", "device", "direction", "value"]
    assert ["port1", "in", "0x5A"] in [row[1:] for row in rows]
    assert ["port0", "out", "0x5A"] in [row[1:] for row in rows]


def test_bad_injection_script_exits_1(bench_rom, tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("5 gamepad 0x00\n")
    assert run_cli("run", "--rom", str(bench_rom),
                   "--inject", str(script)) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("script,message", [
    (b"5 port1 0x5A\n6 port1 \xff\n", "line 2: byte 0xFF is not UTF-8"),
    # CR-only line ends count as line ends.
    (b"5 port1 0x5A\r6 port1 zz\r",
     "line 2: invalid literal for int() with base 16: 'zz'"),
    (b"5 port1\n", "line 1: expected '<cycle> <kind> <hex>', got '5 port1'"),
])
def test_injection_script_errors_name_the_line(bench_rom, tmp_path, capsys,
                                               script, message):
    path = tmp_path / "inject.txt"
    path.write_bytes(script)
    assert run_cli("run", "--rom", str(bench_rom),
                   "--inject", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mcusim: error: {path}: {message}\n"


def test_missing_injection_script_exits_1(bench_rom, tmp_path, capsys):
    assert run_cli("run", "--rom", str(bench_rom),
                   "--inject", str(tmp_path / "none.txt")) == 1
    assert "none.txt" in capsys.readouterr().err


def test_uart_rx_injections_are_rejected(bench_rom, tmp_path, capsys):
    # No instruction reads a UART receiver, so there is no rx stimulus.
    script = tmp_path / "rx.txt"
    script.write_text("# receive\n12 uart_rx 41\n")
    assert run_cli("run", "--rom", str(bench_rom),
                   "--inject", str(script)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"mcusim: error: {script}: line 2: unknown "
                            "injection kind 'uart_rx'\n")


def test_conditional_branch_to_itself_halts_unless_told_not_to(tmp_path,
                                                              capsys):
    src = tmp_path / "spin.asm"
    src.write_text("ZERO R0\nLOADI R1, 2\nspin: BEQ R1\n")
    rom = tmp_path / "spin.rom"
    assert run_cli("asm", str(src), str(rom)) == 0
    report = tmp_path / "power.txt"
    # The run starts with two reset cycles.
    for flags, cycles in (((), 8), (("--no-self-loop-halt",), 500)):
        assert run_cli("run", "--rom", str(rom), "--max-cycles", "500",
                       "--report-out", str(report), *flags) == 0
        assert f"cycles: {cycles}\n" in report.read_text()
    capsys.readouterr()


def test_report_text_and_csv(bench_rom, tmp_path, capsys):
    report = tmp_path / "power.txt"
    assert run_cli("run", "--rom", str(bench_rom), "--report-out",
                   str(report), "--no-timestamp") == 0
    capsys.readouterr()
    text = report.read_text()
    assert "frequency: 75.414 MHz" in text
    assert "total gated:   182.000 mW" in text
    assert "total ungated: 273.000 mW" in text
    assert "savings:       33.33 %" in text
    assert "ungated slope: 3.620 mW/MHz" in text
    assert "generated:" not in text
    with open(str(report) + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["module", "duty", "mw_gated", "mw_ungated"]
    assert len(rows) == 10  # control plus the eight gated modules
    control = next(row for row in rows if row[0] == "control")
    assert float(control[1]) == 1.0


def test_report_writer_holds_little_memory(tmp_path):
    # The csv module's writer allocates a 128 KiB record buffer.
    image, _ = assemble(benchmark_source())
    m = Machine(image)
    m.reset()
    m.run(BENCHMARK_MAX_CYCLES)
    report = estimate(m.activity(), default_config().power_config(None))
    tracemalloc.start()
    try:
        cli._write_report(str(tmp_path / "power.txt"), report, m.cycles,
                          True, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_report_timestamp_present_by_default(bench_rom, tmp_path, capsys):
    report = tmp_path / "power.txt"
    assert run_cli("run", "--rom", str(bench_rom),
                   "--report-out", str(report)) == 0
    capsys.readouterr()
    assert "generated:" in report.read_text()


def test_outputs_are_bit_identical_across_runs(bench_rom, tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace-{tag}.csv"
        report = tmp_path / f"report-{tag}.txt"
        assert run_cli("run", "--rom", str(bench_rom),
                       "--trace-out", str(trace),
                       "--report-out", str(report), "--no-timestamp") == 0
        outputs.append((trace.read_bytes(), report.read_bytes(),
                        (tmp_path / f"report-{tag}.txt.csv").read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_config_file_changes_the_operating_point(bench_rom, tmp_path,
                                                 capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("osc.control_word = 0\n")
    report = tmp_path / "power.txt"
    assert run_cli("run", "--rom", str(bench_rom), "--config", str(cfg),
                   "--report-out", str(report), "--no-timestamp") == 0
    capsys.readouterr()
    assert "frequency: 134.000 MHz" in report.read_text()


def test_osc_flag_overrides_config(bench_rom, tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("osc.control_word = 15\n")
    report = tmp_path / "power.txt"
    assert run_cli("run", "--rom", str(bench_rom), "--config", str(cfg),
                   "--osc", "0", "--report-out", str(report),
                   "--no-timestamp") == 0
    capsys.readouterr()
    assert "frequency: 134.000 MHz" in report.read_text()


def test_gating_off_a_used_clock_exits_1_naming_the_line(bench_rom,
                                                         tmp_path, capsys):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("gate.ADD.regfile = off\n")
    assert run_cli("run", "--rom", str(bench_rom),
                   "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("mcusim: error: line 1: ADD uses the regfile "
                            "clock, so it cannot be gated off\n")


def test_bad_config_exits_1(bench_rom, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("power.vdd = tall\n")
    assert run_cli("run", "--rom", str(bench_rom),
                   "--config", str(cfg)) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["power.vdd = -1", "power.f_mhz = nan",
                                  "power.cap.rom = inf", "power.f_mhz = 1e308",
                                  "power.cap.rom = 1e308"])
def test_bad_power_values_exit_1_naming_the_line(bench_rom, tmp_path,
                                                 capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# operating point\n" + line + "\n")
    assert run_cli("run", "--rom", str(bench_rom),
                   "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mcusim: error: line 2: ")


@pytest.mark.parametrize("text,message", [
    ("power.vdd = 1.8\n",
     "line 1: power.vswing (2.4) exceeds power.vdd (1.8)"),
    ("power.vdd = 2.0\n# swing\npower.vswing = 2.2\n",
     "line 3: power.vswing (2.2) exceeds power.vdd (2)"),
    ("power.vswing = 2.2\n# supply\npower.vdd = 2.0\n",
     "line 3: power.vswing (2.2) exceeds power.vdd (2)"),
])
def test_swing_above_supply_exits_1_naming_the_line(bench_rom, tmp_path,
                                                    capsys, text, message):
    cfg = tmp_path / "swing.cfg"
    cfg.write_text(text)
    assert run_cli("run", "--rom", str(bench_rom),
                   "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mcusim: error: {message}\n"


def test_all_zero_capacitances_exit_1(bench_rom, tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("".join(f"power.cap.{node} = 0\n" for node in
                           ("control",) + cli.GATED_MODULES))
    assert run_cli("run", "--rom", str(bench_rom),
                   "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mcusim: error: line 9: every power.cap")


def test_power_out_of_range_at_the_osc_word_exits_1(bench_rom, tmp_path,
                                                     capsys):
    # Finite at power.f_mhz, the ungated power overflows at 134 MHz.
    cfg = tmp_path / "big.cfg"
    cfg.write_text("power.f_mhz = 1e-10\npower.cap.rom = 1e298\n")
    assert run_cli("run", "--rom", str(bench_rom), "--config", str(cfg),
                   "--osc", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("mcusim: error: the ungated power at 134 MHz "
                            "is not a positive finite number\n")


@pytest.mark.parametrize("command", ["asm", "disasm", "rom", "config"])
def test_undecodable_input_exits_1_naming_the_line(bench_rom, tmp_path,
                                                   capsys, command):
    bad = tmp_path / "bad.txt"
    good = {"asm": b"NOP\r\n", "disasm": b"0000\r\n", "rom": b"0000\r\n",
            "config": b"# power\r\n"}[command]
    bad.write_bytes(good + b"\xff\n")
    argv = {"asm": ["asm", str(bad), str(tmp_path / "out.rom")],
            "disasm": ["disasm", str(bad)],
            "rom": ["run", "--rom", str(bad)],
            "config": ["run", "--rom", str(bench_rom), "--config", str(bad)],
            }[command]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mcusim: error: line 2: byte 0xFF is not UTF-8\n"
