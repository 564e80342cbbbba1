"""Byte-exact golden outputs of `mcusim run`.

Each case assembles a program, runs the command line with every output
file requested and `--no-timestamp`, and compares the exit code,
stdout, stderr and each output file with `data/golden/<case>/`. A file
the run does not write must be missing there as well.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from mcusim import cli
from mcusim.reference import benchmark_source

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

# The README quick-start program.
BLINK = """\
        LOADI R1, 0x0A     ; loop counter
        ZERO  R0
loop:   INC   R0
        PORT0 R0           ; drive the output port
        B7S   R0           ; show low digit
        DEC   R1
        LOADI R7, loop
        BNEQ  R7           ; again until R1 == 0
done:   BI    done         ; park (self-loop halts the run)
"""

# Echoes the input port to port 0 and the UART eight times.
ECHO = """\
        LOADI R2, 8
        LOADI R7, loop
loop:   PORT1 R1
        PORT0 R1
        UARTS R1
        NOP
        DEC   R2
        BNEQ  R7
done:   BI    done
"""
ECHO_STIMULUS = """\
# cycle kind value
0 port1 0x01
9 port1 0x5A
30 port1 0xC3
31 port1 0x7E
"""

# One NOP, then a word with the unassigned opcode 0b10101.
ILLEGAL = "NOP\n.word 0xA800\n"

# Queues a byte every four cycles; one drains every ten.
FLOOD = "top: UARTS R1\nBCH R0\n"

# name: (program, extra argv, injection script, exit code)
CASES = {
    "reference": (None, [], None, 0),
    "blink": (BLINK, [], None, 0),
    "no_gating": (None, ["--no-gating"], None, 0),
    "osc": (None, ["--osc", "9"], None, 0),
    "inject": (ECHO, [], ECHO_STIMULUS, 0),
    "illegal_opcode": (ILLEGAL, [], None, 2),
    "fifo_overflow": (FLOOD, [], None, 3),
    # Cycle 100 is a fetch: the run stops before its execute.
    "odd_budget": (None, ["--max-cycles", "101"], None, 0),
}

OUTPUTS = ("stdout.txt", "stderr.txt", "trace.csv", "io.csv", "report.txt",
           "report.txt.csv")


def run_case(name: str, work: pathlib.Path) -> tuple[int, dict[str, bytes]]:
    """Run one case in `work`; return the exit code and the output bytes."""
    program, extra, stimulus, _ = CASES[name]
    source = work / "program.asm"
    source.write_text(program if program is not None else benchmark_source())
    rom = work / "program.rom"
    assert cli.main(["asm", str(source), str(rom)]) == 0
    argv = ["run", "--rom", str(rom), "--no-timestamp",
            "--trace-out", str(work / "trace.csv"),
            "--io-log", str(work / "io.csv"),
            "--report-out", str(work / "report.txt")] + extra
    if stimulus is not None:
        script = work / "inject.txt"
        script.write_text(stimulus)
        argv += ["--inject", str(script)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    (work / "stdout.txt").write_text(out.getvalue())
    (work / "stderr.txt").write_text(err.getvalue())
    files = {f: (work / f).read_bytes() for f in OUTPUTS
             if (work / f).exists()}
    return code, files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    code, files = run_case(name, tmp_path)
    assert code == CASES[name][3]
    expected = {p.name: p.read_bytes()
                for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(files) == sorted(expected)
    for fname, data in expected.items():
        assert files[fname] == data, f"{name}/{fname} differs"


def test_error_cases_name_where_they_stopped():
    err = (GOLDEN / "illegal_opcode" / "stderr.txt").read_text()
    assert "pc=0x01" in err and "cycle 4" in err
    assert "FIFO full" in (GOLDEN / "fifo_overflow" / "stderr.txt").read_text()
    trace = (GOLDEN / "odd_budget" / "trace.csv").read_bytes()
    assert trace.endswith(b"\r\n") and b"\r\n100,9,fetch," in trace


def _regenerate() -> None:
    import tempfile
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, files = run_case(name, pathlib.Path(tmp))
        if code != CASES[name][3]:
            sys.exit(f"{name}: exit {code}, expected {CASES[name][3]}")
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for fname, data in files.items():
            (target / fname).write_bytes(data)
        print(f"wrote {target}")


if __name__ == "__main__":
    _regenerate()
