"""mcusim benchmark: `mcusim run` as a batch tool, timed on host time.

    python3 bench/run.py --workload reference|long_loop|long_loop_traced \
        --seed N [--seconds S] --trace 0|1 [--smoke]
    python3 bench/run.py --write-pins

Run it from the root of a checkout; it imports the simulator from
`src/` there and exits 2 when there is none. One client drives the CLI
in a closed loop: each sample is a fresh child process (`child.py`)
that imports mcusim, sets up, and makes one workload body of
`mcusim.cli.main(argv)` calls, one child at a time, single-threaded.
Samples repeat until `--seconds` (by default BENCHMARK.json's
`run_seconds`) have passed, and every metric is the median over the
samples. Times are host time scaled to a nominal host
speed by a probe each child takes (see `scaled`); the line before the
JSON result gives them unscaled. The simulated figures are
deterministic, so they are checked for exact equality, not timed.

Workloads:
    reference         the packaged 446-cycle benchmark with the defaults,
                      at each of the 16 --osc words and with --no-gating,
                      plus the README's blink program; every run writes
                      the trace, I/O log and report. Start-up dominates.
    long_loop         a seeded 200k-cycle loop with every output off:
                      the per-cycle core and its record memory.
    long_loop_traced  the same run writing the trace, I/O log and report.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones from traced children (see child.Tracer). The last stdout line is
{"correct", "attempted", "failed", "metrics"}. An attempted operation
is one CLI invocation; it fails when its exit code, stdout line or
output bytes differ from the verified ones. The first child of a run
verifies every output against this benchmark's own arithmetic and the
published figures (checks.py), and is not timed.

`--smoke` runs the same workloads and checks on a 2k-cycle loop budget
and one sample. `--write-pins` regenerates data/pins.json from the
code in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import (DEFAULT_SEED, LOOP_BUDGET, SMOKE_BUDGET,  # noqa: E402
                       WORKLOADS, invocations, write_inputs)

CHILD_TIMEOUT_S = 150
# Each timed run gets at least this many samples, however long they take.
MIN_SAMPLES = 3
# Every time is scaled to a host on which child.probe_s() takes this
# long (see `scaled`).
PROBE_NOMINAL_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_bytes": "bytes",
    "rss_bytes_per_cycle": "bytes",
}
PER_LAYER = {
    "machine.run_s": "s",
    "machine.cycles": "count",
    "machine.instructions": "count",
    "isa.decode_calls": "count",
    "isa.decode_s": "s",
    "control.next_state_calls": "count",
    "control.next_state_s": "s",
    "control.enables_calls": "count",
    "control.enables_s": "s",
    "peripherals.uart_tick_calls": "count",
    "peripherals.uart_tick_s": "s",
    "machine.rss_delta_bytes": "bytes",
    "power.activity_s": "s",
    "cli.write_trace_s": "s",
    "cli.write_trace_bytes": "bytes",
    "cli.write_io_log_s": "s",
    "cli.write_io_log_bytes": "bytes",
    "cli.write_report_s": "s",
    "config.load_s": "s",
    "config.power_config_s": "s",
    "asm.assemble_s": "s",
    "asm.parse_rom_s": "s",
    "cli.build_parser_s": "s",
    "cli.parse_injections_s": "s",
    "machine.init_s": "s",
    "power.estimate_s": "s",
    "power.estimate_calls": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

ACCURACY = (
    "accuracy: 273.000 mW ungated and 182.000 mW gated on the reference "
    "program are the calibration anchor the default capacitances were "
    "solved from (scripts/calibrate_defaults.py), not a validation.",
    "accuracy: blink's 177.599 mW gated is a documented figure that "
    "calibration did not use.",
    "accuracy: no hardware measurement exists, so the power model is "
    "unvalidated against silicon; no error figure is given.",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


class Runner:
    """Spawns the children of one run and keeps their operation tally."""

    def __init__(self, root, work, workload, seed, budget):
        self.root, self.work = root, work
        self.workload, self.seed, self.budget = workload, seed, budget
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def spawn(self, mode: str, *extra: str) -> dict | None:
        out = os.path.join(self.work, "out")
        os.makedirs(out, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--root", self.root, "--work", self.work, "--out", out,
               "--workload", self.workload, "--seed", str(self.seed),
               "--budget", str(self.budget), "--mode", mode, *extra]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, env=env,
                                  cwd=self.root)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            error = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        except subprocess.TimeoutExpired:
            result, error = None, [f"timed out after {CHILD_TIMEOUT_S} s"]
        finally:
            # Each child must write its own outputs: none may be left over.
            for name in os.listdir(out):
                os.remove(os.path.join(out, name))
        if result is None:
            # A verify child of a loop workload runs both loop variants.
            ops = (2 if mode == "verify" and self.workload != "reference"
                   else len(invocations(self.workload, self.seed,
                                        self.budget, self.work, out)))
            self.attempted += ops
            self.failed += ops
            self.problems.append(f"{mode} child failed: {error[0]}")
            return None
        self.attempted += result["ops"]
        self.failed += result["failed"]
        self.problems += result.get("problems", [])
        return result


def scaled(sample: dict, seconds: float) -> float:
    """Host seconds scaled to the nominal host speed.

    The host is shared, and its speed for this interpreter drifts by
    tens of percent over minutes, with every sample of a run alike. Each
    child times a fixed pure-Python probe before and after its work.
    Dividing by it cancels most of the drift, so a change in the program
    shows and a change in the neighbours does not. `run_workload` prints
    the unscaled figures too.
    """
    return seconds * PROBE_NOMINAL_S / sample["probe_s"]


def end_to_end(samples: list[dict], verified: dict) -> dict[str, float]:
    """Medians over the samples.

    `rss_bytes_per_cycle` is the RSS growth over the body divided by the
    largest run's cycles. On `reference` that growth is one allocator
    step for a 446-cycle run, so the verify child's traced-heap figure
    (`child.heap_growth`) stands in for it there.
    """
    per_cycle = verified.get("heap_bytes_per_cycle")
    if per_cycle is None:
        per_cycle = median((s["peak_rss"] - s["rss_setup"]) / s["max_cycles"]
                           for s in samples)
    return {
        "setup_s": median(scaled(s, s["setup_s"]) for s in samples),
        "wall_s": median(scaled(s, s["wall_s"]) for s in samples),
        "sim_cycles_per_s": median(s["cycles"] / scaled(s, s["wall_s"])
                                   for s in samples),
        "peak_rss_bytes": median(s["peak_rss"] for s in samples),
        "rss_bytes_per_cycle": per_cycle,
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Medians over the traced children; times are scaled like
    `end_to_end`'s, counts are not."""
    def value(sample, name):
        figure = sample["layers"][name]
        return scaled(sample, figure) if name.endswith("_s") else figure

    derived = {
        "trace.overhead_s": median(scaled(s, s["wall_s"]) for s in traced)
        - median(scaled(s, s["wall_s"]) for s in plain),
        "trace.coverage": median(s["layer_sum"] / s["wall_s"]
                                 for s in traced),
    }
    return {name: derived[name] if name in derived
            else median(value(s, name) for s in traced)
            for name in PER_LAYER}


def unscaled(timed: list[dict]) -> str:
    return (f"unscaled: setup_s {median(s['setup_s'] for s in timed):.6g} "
            f"s, wall_s {median(s['wall_s'] for s in timed):.6g} s (fastest "
            f"{min(s['wall_s'] for s in timed):.6g} s), probe_s "
            f"{median(s['probe_s'] for s in timed):.6g} s")


def measure(runner: Runner, verified: dict, seconds: float, trace: bool,
            smoke: bool):
    """Children until `seconds` have passed; returns the metrics."""
    minimum = 1 if smoke else MIN_SAMPLES
    timed, traced = [], []
    start = time.perf_counter()
    while (len(timed) < minimum or (trace and len(traced) < minimum)
           or time.perf_counter() - start < seconds):
        sample = runner.spawn("timed")
        if sample is not None:
            timed.append(sample)
        if trace:
            sample = runner.spawn("traced")
            if sample is not None:
                traced.append(sample)
        if not timed or (trace and not traced):
            return None, 0, ""
    if trace:
        return per_layer(traced, timed), len(traced), unscaled(timed)
    return end_to_end(timed, verified), len(timed), unscaled(timed)


def check_checkout(root: str) -> str | None:
    for name in ("__init__.py", "cli.py", os.path.join("data",
                                                       "default_power.cfg")):
        if not os.path.isfile(os.path.join(root, "src", "mcusim", name)):
            return f"no src/mcusim/{name} under {root}: run from the root " \
                   "of an mcusim checkout"
    return None


def write_pins(root: str) -> int:
    pins = {}
    for budget in (LOOP_BUDGET, SMOKE_BUDGET):
        for workload in ("reference", "long_loop_traced"):
            key = checks.pins_key(workload, DEFAULT_SEED, budget)
            if key in pins:
                continue
            work = os.path.join(root, ".bench_work", f"pins{os.getpid()}")
            os.makedirs(work)
            try:
                write_inputs(workload, DEFAULT_SEED, budget, work)
                runner = Runner(root, work, workload, DEFAULT_SEED, budget)
                result = runner.spawn("verify", "--no-pins")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result is None or result["problems"]:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            pins[key] = {f: h for hashes in result["hashes"].values()
                         if hashes for f, h in hashes.items()}
    with open(checks.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> tuple[int, bool]:
    """One benchmark run; prints its report and returns (exit code,
    correct)."""
    budget = SMOKE_BUDGET if smoke else LOOP_BUDGET
    work = os.path.join(root, ".bench_work", f"run{os.getpid()}")
    os.makedirs(work)
    try:
        write_inputs(workload, seed, budget, work)
        runner = Runner(root, work, workload, seed, budget)
        metrics = samples = None
        verified = runner.spawn("verify")
        if verified is not None:
            metrics, samples, raw = measure(runner, verified, seconds, trace,
                                            smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.problems[:20]:
        print(f"problem: {line}")
    if metrics is None:
        print("bench: no sample completed", file=sys.stderr)
        return 1, False

    print(f"machine: python {sys.version.split()[0]}, nproc "
          f"{len(os.sched_getaffinity(0))}, cpu {cpu_model()}")
    print(f"run: workload {workload}, seed {seed}, loop budget {budget} "
          f"cycles, {samples} samples, {seconds:g} s")
    print(raw)
    for line in ACCURACY:
        print(line)
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0, correct


def main() -> int:
    parser = argparse.ArgumentParser(
        description="mcusim benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny loop budget and one sample; without "
                             "--workload, every workload in both modes")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate data/pins.json and exit")
    args = parser.parse_args()
    root = os.getcwd()
    problem = check_checkout(root)
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if args.write_pins:
        return write_pins(root)
    if args.workload is not None:
        seconds = args.seconds
        if seconds is None:
            with open(os.path.join(root, "BENCHMARK.json")) as fh:
                seconds = json.load(fh)["run_seconds"]
        code, _ = run_workload(root, args.workload, args.seed, seconds,
                               bool(args.trace), args.smoke)
        return code
    if not args.smoke:
        parser.error("--workload is required")
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, correct = run_workload(root, workload, args.seed, 0,
                                         trace, smoke=True)
            ok &= code == 0 and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
