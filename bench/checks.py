"""Correctness checks on the files and lines `mcusim run` produces.

Nothing here imports mcusim. The power figures are recomputed from the
trace CSV and the packaged config's capacitances with this module's own
arithmetic, so a change to the simulator cannot also change the oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

from workloads import DATA, DEFAULT_SEED

# Calibration anchor and documented figures (README.md).
DEFAULT_LINE = "gated=182.000 ungated=273.000 savings=33.33%"
BLINK_LINE = "gated=177.599 ungated=273.000 savings=34.95%"
SLOPE_LINE = "ungated slope: 3.620 mW/MHz"
ANCHOR_SAVINGS_LINE = "savings:       33.33 %"
NO_GATING_SAVINGS_LINE = "savings:       0.00 %"

MODULES = ("regfile", "alu", "ram", "rom", "port0", "port1", "uart",
           "sevenseg")
CONTROL = "control"
OUTPUT_SUFFIXES = (".trace.csv", ".io.csv", ".report.txt", ".report.txt.csv")
PINS = os.path.join(DATA, "pins.json")

_LINE_RE = re.compile(
    r"^gated=(-?[\d.]+) ungated=(-?[\d.]+) savings=(-?[\d.]+)%$")


def load_power_config(root: str) -> dict[str, float]:
    """The packaged config's `power.*` values, read as plain key = value."""
    path = os.path.join(root, "src", "mcusim", "data", "default_power.cfg")
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("power."):
                key, value = (p.strip() for p in line.split("=", 1))
                values[key[len("power."):]] = float(value)
    return values


def frequency_hz(cfg: dict[str, float], osc: int | None) -> float:
    """The oscillator is linear in cycle time: 134 MHz at word 0 down to
    44 MHz at word 15. With no word the config's f_mhz applies."""
    if osc is None:
        return cfg["f_mhz"] * 1e6
    t0, t15 = 1 / 134e6, 1 / 44e6
    return 1 / (t0 + osc * (t15 - t0) / 15)


def trace_duties(path: str) -> tuple[int, dict[str, float]]:
    """Cycle count and per-module enable duty from a trace CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = header[4:]
        enabled = [0] * len(columns)
        cycles = 0
        for row in reader:
            cycles += 1
            for i, flag in enumerate(row[4:]):
                if flag == "1":
                    enabled[i] += 1
    if tuple(columns) != MODULES:
        raise ValueError(f"trace columns {columns}")
    return cycles, {m: n / cycles for m, n in zip(columns, enabled)}


def power_mw(cfg: dict[str, float], f_hz: float,
             duty: dict[str, float]) -> dict[str, tuple[float, float]]:
    """Per node (gated mW, ungated mW): P = f * C * Vdd * Vswing * duty."""
    scale = f_hz * cfg["vdd"] * cfg["vswing"] * 1e3
    result = {}
    for node in (CONTROL,) + MODULES:
        ungated = scale * cfg["cap." + node]
        result[node] = (ungated * duty.get(node, 1.0), ungated)
    return result


def parse_line(line: str) -> tuple[float, float, float] | None:
    match = _LINE_RE.match(line)
    return tuple(float(g) for g in match.groups()) if match else None


def report_cycles(report_path: str) -> int | None:
    with open(report_path) as fh:
        for line in fh:
            if line.startswith("cycles: "):
                return int(line.split()[1])
    return None


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(out: str, name: str) -> dict[str, str]:
    return {name + s: sha256(os.path.join(out, name + s))
            for s in OUTPUT_SUFFIXES}


def pins_key(workload: str, seed: int, budget: int) -> str | None:
    """Which pinned hash set applies. The reference outputs do not
    depend on the seed. The loop outputs, written by the traced variant
    of either loop workload, are pinned for the default seed only."""
    if workload == "reference":
        return "reference"
    if seed == DEFAULT_SEED:
        return f"long_loop_traced@{budget}"
    return None


def load_pins() -> dict[str, dict[str, str]]:
    with open(PINS) as fh:
        return json.load(fh)


def check_outputs(root: str, inv: dict, line: str, out: str) -> list[str]:
    """Recompute one invocation's duties and power from its trace and
    compare them with its report CSV, report text and stdout line."""
    name = inv["name"]
    base = os.path.join(out, name)
    problems = []
    cfg = load_power_config(root)
    cycles, duty = trace_duties(base + ".trace.csv")
    power = power_mw(cfg, frequency_hz(cfg, inv["osc"]), duty)
    gated = sum(g for g, _ in power.values())
    ungated = sum(u for _, u in power.values())
    savings = 100.0 * (1.0 - gated / ungated)
    slope = sum(cfg["cap." + n] for n in power) * cfg["vdd"] \
        * cfg["vswing"] * 1e9

    figures = parse_line(line)
    if figures is None:
        return [f"{name}: stdout line {line!r} is malformed"]
    for label, mine, theirs, tol in (("gated", gated, figures[0], 5e-4),
                                     ("ungated", ungated, figures[1], 5e-4),
                                     ("savings", savings, figures[2], 5e-3)):
        if abs(mine - theirs) > tol + 1e-9:
            problems.append(f"{name}: stdout {label} {theirs} != "
                            f"recomputed {mine:.6f}")

    with open(base + ".report.txt.csv", newline="") as fh:
        rows = {r["module"]: r for r in csv.DictReader(fh)}
    if set(rows) != set(power):
        problems.append(f"{name}: report CSV nodes {sorted(rows)}")
    else:
        for node, (g, u) in power.items():
            want = (1.0 if node == CONTROL else duty[node], g, u)
            got = tuple(float(rows[node][k]) for k in
                        ("duty", "mw_gated", "mw_ungated"))
            if any(abs(a - b) > 1e-6 + 1e-9 * abs(a)
                   for a, b in zip(want, got)):
                problems.append(f"{name}: report CSV {node} {got} != "
                                f"recomputed {want}")

    with open(base + ".report.txt") as fh:
        report = fh.read().splitlines()
    if f"cycles: {cycles}" not in report:
        problems.append(f"{name}: report cycles differ from the "
                        f"{cycles} trace rows")
    if SLOPE_LINE not in report or f"{slope:.3f}" != "3.620":
        problems.append(f"{name}: slope is not 3.620 mW/MHz "
                        f"(recomputed {slope:.6f})")
    if f"savings:       {figures[2]:.2f} %" not in report:
        problems.append(f"{name}: report savings differ from stdout")
    return problems


def check_reference_figures(inv: dict, line: str, out: str) -> list[str]:
    """The published figures the model must keep reproducing."""
    name = inv["name"]
    with open(os.path.join(out, name + ".report.txt")) as fh:
        report = fh.read().splitlines()
    if name == "default" and line != DEFAULT_LINE:
        return [f"default: {line!r} != {DEFAULT_LINE!r}"]
    if name == "blink" and line != BLINK_LINE:
        return [f"blink: {line!r} != {BLINK_LINE!r}"]
    if name.startswith("osc") and (ANCHOR_SAVINGS_LINE not in report
                                   or not line.endswith("savings=33.33%")):
        return [f"{name}: savings are not 33.33 %"]
    if name == "nogating" and (NO_GATING_SAVINGS_LINE not in report
                               or not line.endswith("savings=0.00%")):
        return ["nogating: savings are not 0.00 %"]
    return []
