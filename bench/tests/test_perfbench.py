"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import (DATA, DEFAULT_SEED, LOOP_BUDGET,  # noqa: E402
                       SMOKE_BUDGET, WORKLOADS, check_loop_rom,
                       generate_loop)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)
    return proc


def smoke(workload, trace):
    proc = run_bench("--smoke", "--workload", workload, "--seed",
                     str(DEFAULT_SEED), "--seconds", "0", "--trace",
                     str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_committed_loop_inputs_match_the_generator():
    source, inject = generate_loop(DEFAULT_SEED, LOOP_BUDGET)
    stem = os.path.join(DATA, f"long_loop_seed{DEFAULT_SEED}")
    with open(stem + ".asm") as fh:
        assert fh.read() == source
    with open(stem + ".inject") as fh:
        assert fh.read() == inject


@pytest.mark.parametrize("seed", range(1, 21))
def test_generated_loops_pass_the_static_check(seed):
    from mcusim import assemble
    image, _ = assemble(generate_loop(seed, LOOP_BUDGET)[0])
    assert check_loop_rom(list(image)) == []


@pytest.mark.parametrize("source, message", [
    (".word 0xA800\nloop: NOP\nLOADI R7, loop\nBCH R7\n", "illegal opcode"),
    ("NOP\nLOADI R7, here\nhere: BCH R7\n", "not an earlier address"),
    ("loop: UARTS R0\nUARTS R0\nLOADI R7, loop\nBCH R7\n", "outpace"),
])
def test_static_check_rejects_unsafe_loops(source, message):
    from mcusim import assemble
    image, _ = assemble(source)
    problems = check_loop_rom(list(image))
    assert any(message in p for p in problems), problems


def test_checks_catch_a_report_that_disagrees_with_its_trace(tmp_path):
    from mcusim import assemble, format_rom_file
    from mcusim.cli import main
    image, _ = assemble(open(os.path.join(DATA, "blink.asm")).read())
    rom = tmp_path / "blink.rom"
    rom.write_text(format_rom_file(image))
    base = str(tmp_path / "blink")
    assert main(["run", "--rom", str(rom), "--trace-out",
                 base + ".trace.csv", "--io-log", base + ".io.csv",
                 "--report-out", base + ".report.txt",
                 "--no-timestamp"]) == 0
    inv = {"name": "blink", "osc": None}
    assert checks.check_outputs(ROOT, inv, checks.BLINK_LINE,
                                str(tmp_path)) == []
    csv_path = base + ".report.txt.csv"
    text = open(csv_path).read()
    open(csv_path, "w").write(text.replace("alu,0.", "alu,0.9", 1))
    assert checks.check_outputs(ROOT, inv, checks.BLINK_LINE, str(tmp_path))
    assert checks.check_outputs(ROOT, inv, checks.DEFAULT_LINE,
                                str(tmp_path))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_layers_sum_within_the_traced_wall(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    assert first["correct"] and first["failed"] == 0
    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    # Layer self times are disjoint slices of the traced wall.
    assert 0.8 <= metrics["trace.coverage"] <= 1.0
    loop = workload != "reference"
    assert metrics["machine.cycles"] == (SMOKE_BUDGET if loop else 8156)
    assert (metrics["cli.write_trace_bytes"] > 0) == (workload != "long_loop")
    for count in ("machine.cycles", "isa.decode_calls",
                  "control.next_state_calls", "cli.write_trace_bytes"):
        assert second["metrics"][count]["value"] == metrics[count]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "reference", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
