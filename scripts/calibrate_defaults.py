#!/usr/bin/env python3
"""Regenerate src/mcusim/data/default_power.cfg.

Runs the packaged reference workload under the default gating policy,
calibrates the capacitance table against the shipped gated/ungated
targets, and writes the result as the packaged default configuration.
Run it after any change that shifts the workload's activity profile
(the workload itself, the gating policy, cycle accounting) and commit
the new file. `render()` returns the file's text without writing it.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mcusim.power import (  # noqa: E402
    DEFAULT_F_HZ,
    DEFAULT_GATED_MW,
    DEFAULT_UNGATED_MW,
    calibrate,
)
from mcusim.reference import run_benchmark  # noqa: E402

OUT = (pathlib.Path(__file__).resolve().parents[1]
       / "src" / "mcusim" / "data" / "default_power.cfg")


def render() -> str:
    """The default configuration, calibrated on the reference workload."""
    trace = run_benchmark().activity()
    config = calibrate(trace)
    duties = trace.duties()

    lines = [
        "# Default power model. Generated by scripts/calibrate_defaults.py;",
        "# do not edit by hand.",
        "#",
        "# The capacitance table is solved from two anchor totals on the",
        f"# packaged reference workload: {DEFAULT_UNGATED_MW:g} mW with every",
        f"# clock free-running and {DEFAULT_GATED_MW:g} mW with gating active.",
        "# The ungated total fixes the summed capacitance; the gated total",
        "# fixes the split between the always-on control path and the gated",
        "# modules, which share the remainder equally (the activity model",
        "# has no basis for sizing them individually).",
        "#",
        "# Workload duty cycle per module at calibration time:",
    ]
    for module, duty in duties.items():
        lines.append(f"#   {module:<9s} {duty:.6f}")
    lines += [
        "",
        f"power.vdd = {config.vdd!r}",
        f"power.vswing = {config.vswing!r}",
        "# No oscillator control word lands on the anchor frequency, so the",
        "# default carries it directly; osc.control_word overrides it.",
        f"power.f_mhz = {config.f_hz / 1e6!r}",
    ]
    assert config.f_hz == DEFAULT_F_HZ
    for node, cap in config.cap.items():
        lines.append(f"power.cap.{node} = {cap!r}")
    return "\n".join(lines) + "\n"


def main() -> None:
    OUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
